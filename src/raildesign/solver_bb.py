"""Exact branch-and-bound over the 0-1 constraint system.

Rows are normalized to integer coefficients and handed, in <= form, to the
propagation engine in ``raildesign._core_py``.  Search is depth-first.

With HiGHS available (SciPy's ``scipy.optimize._highspy``) the linear
relaxation is solved at every node.  Each solve builds one HiGHS LP, once,
from the normalized rows; a node only changes the column bounds to the
engine's current fixings and re-runs, so dual simplex warm-starts from the
previous node's basis.  The relaxation supplies the lower bound,
most-fractional branching, and integral vertices as incumbent candidates.
Candidates and bounds are always re-validated exactly -- the float LP only
guides pruning, never certifies feasibility or the final objective.  Only
an LP proven infeasible prunes; any other non-optimal status falls back to
the weak bound and drops the basis.  Without HiGHS the bound is the exact
rational sum of fixed costs plus all still-collectable negative objective
coefficients; weak but admissible, with pruning power coming from
propagation alone.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from ._core_py import FREE, PropEngine
from .model import RoutedStep, Solution

try:
    import numpy as _np
    from scipy.optimize._highspy import _core as _highs
    _HAVE_LP = True
except ImportError:  # pragma: no cover - scipy is a soft dependency
    _HAVE_LP = False


# Relaxation bounds only pay off once plain enumeration stops being instant.
_LP_MIN_VARS = 25


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float | None = None
    node_limit: int | None = None
    absolute_gap: Fraction = Fraction(0)


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | limit_reached
    incumbent: dict | None
    objective: Fraction | None
    bound: Fraction | None
    stats: dict = field(default_factory=dict)
    system: object = None


def _integer_rows(system):
    """Each row as (cols, int coefs, sense, int rhs), scaled to clear fractions."""
    out = []
    for row in system.rows:
        cols = [v for v, _ in row.terms]
        if len(set(cols)) != len(cols):
            raise ValueError(f"duplicate variable in row {row.name}")
        coefs = [c for _, c in row.terms]
        rhs = row.rhs
        if type(rhs) is not int or any(type(c) is not int for c in coefs):
            fcoefs = [Fraction(c) for c in coefs]
            frhs = Fraction(rhs)
            denom = lcm(frhs.denominator, *(c.denominator for c in fcoefs))
            coefs = [int(c * denom) for c in fcoefs]
            rhs = int(frhs * denom)
        out.append((cols, coefs, row.sense, rhs))
    return out


_SIGNS = {"<=": (1,), ">=": (-1,), "=": (1, -1)}


def _le_rows(irows):
    """``_integer_rows`` as (cols, int coefs, int rhs) in <= sense."""
    return [(cols, [m * c for c in coefs], m * rhs)
            for cols, coefs, sense, rhs in irows
            for m in _SIGNS[sense]]


def _normalized_rows(system):
    """All rows as (cols, int coefs, int rhs) in <= sense."""
    return _le_rows(_integer_rows(system))


def _lp_model(irows, nvars, cost):
    """One HiGHS LP over the rows with 0-1 column bounds, built once per solve.

    ``irows`` are ``_integer_rows``; an equality row is one row with equal
    lower and upper bounds.  Nodes change only the column bounds, so each
    run warm-starts from the basis of the one before.
    """
    row_of, col_of, val_of, row_lo, row_up = [], [], [], [], []
    for cols, coefs, sense, rhs in irows:
        if not cols:
            continue
        r = len(row_lo)
        row_of.extend([r] * len(cols))
        col_of.extend(cols)
        val_of.extend(coefs)
        row_lo.append(-_highs.kHighsInf if sense == "<=" else rhs)
        row_up.append(_highs.kHighsInf if sense == ">=" else rhs)
    col_of = _np.array(col_of, dtype=_np.int64)
    order = _np.argsort(col_of, kind="stable")
    lp = _highs.HighsLp()
    lp.num_col_ = nvars
    lp.num_row_ = len(row_lo)
    lp.col_cost_ = cost
    lp.col_lower_ = _np.zeros(nvars)
    lp.col_upper_ = _np.ones(nvars)
    lp.row_lower_ = _np.array(row_lo, dtype=float)
    lp.row_upper_ = _np.array(row_up, dtype=float)
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = nvars
    matrix.num_row_ = len(row_lo)
    matrix.start_ = _np.concatenate(
        ([0], _np.cumsum(_np.bincount(col_of, minlength=nvars)))).astype(_np.int32)
    matrix.index_ = _np.array(row_of, dtype=_np.int32)[order]
    matrix.value_ = _np.array(val_of, dtype=float)[order]
    model = _highs._Highs()
    model.setOptionValue("output_flag", False)
    model.passModel(lp)
    return model


_LPResult = namedtuple("_LPResult", "status fun x")  # status: 0 optimal, 2 infeasible


# The benchmark's tracer wraps this name, so the per-node LP keeps it.
def _linprog(model, lb, ub):
    """Re-solve ``model`` under column bounds ``lb``..``ub``, warm from its basis."""
    n = len(lb)
    model.changeColsBounds(n, _np.arange(n, dtype=_np.int32), lb, ub)
    model.run()
    status = model.getModelStatus()
    if status == _highs.HighsModelStatus.kOptimal:
        return _LPResult(0, model.getObjectiveValue(),
                         _np.array(model.getSolution().col_value))
    if status == _highs.HighsModelStatus.kInfeasible:
        return _LPResult(2, None, None)
    model.clearSolver()  # no later node starts from a broken basis
    return _LPResult(int(status), None, None)


def _most_fractional(x):
    """Position of the entry of ``x`` nearest 0.5 (ties to the first), and
    whether every entry is within 1e-6 of an integer."""
    return (int(_np.argmax(-_np.abs(x - 0.5))),
            bool(_np.all(_np.abs(x - _np.round(x)) <= 1e-6)))


def _follow_walk(arcs, steps, origin, destination):
    """Follow a train's active route steps from origin to destination.

    ``steps`` holds (t, arc index, var id) in the caller's order; each move
    takes the first step that leaves the current node at or after the time
    the train arrived there.  Returns the walk as (arrival, t, arc, var id)
    tuples, arrival being None on the first move, and the steps left over;
    or None when no step continues the walk before the destination.
    """
    remaining = list(steps)
    walk = []
    node, now = origin, None
    while node != destination:
        for i, (t, ai, _vid) in enumerate(remaining):
            if arcs[ai].frm == node and (now is None or t >= now):
                break
        else:
            return None
        t, ai, vid = remaining.pop(i)
        walk.append((now, t, arcs[ai], vid))
        node, now = arcs[ai].to, t + arcs[ai].travel_time
    return walk, remaining


def _trim_assignment(system, assignment):
    """Zero route/dwell activity that is off every train's walk.

    LP vertices can carry cost-neutral junk (a second walk of a train that
    may depart more than once) that satisfies every row but cannot be read
    back as one walk.  Returns a changed copy, or None when nothing was
    trimmed / trimming failed.
    """
    inst = getattr(system, "instance", None)
    if inst is None:
        return None
    net = inst.network
    trains = inst.train_by_id()
    by_train = {}
    for vid, m in enumerate(system.variables):
        if m.kind in ("route", "dwell") and assignment.get(vid) == 1:
            by_train.setdefault(m.train, []).append(vid)
    keep = dict(assignment)
    changed = False
    for tid, vids in by_train.items():
        t = trains[tid]
        steps = sorted((system.variables[v].t, system.variables[v].arc_index, v)
                       for v in vids if system.variables[v].kind == "route")
        decoded = _follow_walk(net.arcs, steps, t.origin, t.destination)
        if decoded is None and not t.optional:
            return None
        # a broken optional walk is dropped whole; the penalty applies instead
        walk = decoded[0] if decoded is not None else []
        on_walk = set()
        for now, tt, arc, v in walk:
            if now is not None:
                for tau in range(now, tt):
                    dv = system.var_index.get(("dwell", tid, arc.frm, tau))
                    if dv is not None:
                        on_walk.add(dv)
            on_walk.add(v)
        for v in vids:
            if v not in on_walk:
                keep[v] = 0
                changed = True
    return keep if changed else None


def solve(system, limits: SolveLimits | None = None) -> SolveResult:
    limits = limits or SolveLimits()
    t_start = time.monotonic()
    nvars = len(system.variables)
    irows = _integer_rows(system)
    rows = _le_rows(irows)

    # Rows without variables are constant truths or contradictions.
    var_rows = []
    for cols, coefs, rhs in rows:
        if not cols:
            if 0 > rhs:
                return SolveResult("infeasible", None, None, None,
                                   {"nodes": 0, "wall_time": 0.0}, system)
        else:
            var_rows.append((cols, coefs, rhs))

    engine = PropEngine(nvars,
                        [r[0] for r in var_rows],
                        [r[1] for r in var_rows],
                        [r[2] for r in var_rows])
    values = engine.values  # updated in place by assign and backtrack

    obj = {}
    for vid, coeff in system.objective:
        obj[vid] = obj.get(vid, Fraction(0)) + Fraction(coeff)
    obj_vars = sorted(obj)
    obj_const = Fraction(getattr(system, "objective_constant", 0))
    obj_den = lcm(1, *(c.denominator for c in obj.values())) if obj else 1

    def trivial_bound():
        # fixed-at-1 costs plus every still-collectable negative coefficient
        b = obj_const
        for v in obj_vars:
            c = obj[v]
            val = values[v]
            if val == 1:
                b += c
            elif val == FREE and c < 0:
                b += c
        return b

    def completion_value(v):
        return 1 if obj.get(v, Fraction(0)) < 0 else 0

    def assignment_objective(assignment):
        return obj_const + sum((obj[v] for v in obj_vars if assignment[v] == 1),
                               Fraction(0))

    def assignment_feasible(assignment):
        return all(sum(c * assignment[v] for v, c in zip(cols, coefs)) <= rhs
                   for cols, coefs, rhs in var_rows)

    incumbent = None
    incumbent_obj = None
    nodes = 0
    lp_calls = 0
    gap = Fraction(limits.absolute_gap)
    pruned_bound = None  # min bound among gap-pruned nodes
    hit_limit = False

    def lp_probe(state):
        """Returns (feasible, exact lower bound or None, relaxation point or None)."""
        nonlocal lp_calls
        lp_calls += 1
        res = _linprog(lp, (state == 1).astype(float), (state != 0).astype(float))
        if res.status == 2:
            return False, None, None
        if res.status != 0:
            return True, None, None  # numeric trouble: fall back to the weak bound
        # conservative floor: attainable objectives are multiples of 1/obj_den
        scaled = res.fun * obj_den
        eps = 1e-6 * (1.0 + abs(scaled))
        bnd = obj_const + Fraction(math.ceil(scaled - eps), obj_den)
        return True, bnd, res.x

    if not engine.propagate_root():
        return SolveResult("infeasible", None, None, None,
                           {"nodes": 1, "wall_time": time.monotonic() - t_start}, system)

    # Dominance presolve: a variable that never tightens a row (all
    # coefficients non-positive in <= form) and never worsens the objective
    # can be fixed to 1 up front.  This covers zero-cost expansion
    # variables, which would otherwise bloat the search tree.
    for v, occurrences in enumerate(engine.watch):
        if all(c <= 0 for _r, c in occurrences) and obj.get(v, Fraction(0)) <= 0:
            if values[v] == FREE and not engine.assign(v, 1):
                return SolveResult("infeasible", None, None, None,
                                   {"nodes": 1, "wall_time": time.monotonic() - t_start},
                                   system)

    use_lp = _HAVE_LP and nvars >= _LP_MIN_VARS
    if use_lp:
        c_vec = _np.zeros(nvars)
        for v, cf in obj.items():
            c_vec[v] = float(cf)
        lp = _lp_model(irows, nvars, c_vec)

    def consider(assignment):
        """Record a feasible assignment if it improves the incumbent."""
        nonlocal incumbent, incumbent_obj
        value = assignment_objective(assignment)
        trimmed = _trim_assignment(system, assignment)
        if trimmed is not None and assignment_feasible(trimmed):
            tval = assignment_objective(trimmed)
            if tval <= value:
                assignment, value = trimmed, tval
        if incumbent is None or value < incumbent_obj:
            incumbent = assignment
            incumbent_obj = value

    def record_leaf():
        # free vars finish at their cheapest value (1 for negative coefs)
        consider({v: completion_value(v) if val == FREE else val
                  for v, val in enumerate(values)})

    def node_done():
        """Leaf test at the current engine state."""
        if engine.all_settled():
            return True
        return engine.first_free(0) == -1

    def prune_check(b):
        nonlocal pruned_bound
        if incumbent is None or b is None:
            return False
        if b >= incumbent_obj - gap:
            if gap > 0 and b < incumbent_obj:
                pruned_bound = b if pruned_bound is None else min(pruned_bound, b)
            return True
        return False

    # Depth-first search, iterative to dodge recursion limits.
    def search():
        frame_stack = []  # [branch var, values left to try, trail mark, scan hint, node bound]

        def enter(hint):
            """Process a node; push a frame or record a leaf. Returns False to backtrack."""
            nonlocal nodes, hit_limit
            nodes += 1
            if limits.node_limit is not None and nodes > limits.node_limit:
                hit_limit = True
                return False
            if limits.time_limit is not None and nodes % 16 == 0:
                if time.monotonic() - t_start > limits.time_limit:
                    hit_limit = True
                    return False
            relax = b = None
            if use_lp:
                state = _np.array(values)
                feasible, b, relax = lp_probe(state)
                if not feasible:
                    return False
                if prune_check(b):
                    return False
            node_bound = trivial_bound()
            if prune_check(node_bound):
                return False
            if b is not None:
                node_bound = max(node_bound, b)
            if node_done():
                record_leaf()
                return False
            vals = [0, 1]
            if relax is not None:
                free = _np.flatnonzero(state == FREE)
                x = relax[free]
                i, integral = _most_fractional(x)
                v = int(free[i])
                if integral:
                    # the relaxation vertex is 0-1: validate it exactly
                    assignment = dict(enumerate(values))
                    assignment.update(zip(free.tolist(), _np.round(x).astype(int).tolist()))
                    if assignment_feasible(assignment):
                        consider(assignment)
                        if prune_check(b):
                            return False
                    v = int(free[0])
                first = int(round(relax[v]))
                vals = [first, 1 - first]
            else:
                v = engine.first_free(hint)
            frame_stack.append([v, vals, engine.mark(), v, node_bound])
            return True

        enter(0)
        while frame_stack and not hit_limit:
            var, vals, mark, hint, _ = frame_stack[-1]
            if not vals:
                engine.backtrack(mark)
                frame_stack.pop()
                continue
            val = vals.pop(0)
            engine.backtrack(mark)
            if engine.assign(var, val):
                enter(hint)
            # on conflict just try the next value / unwind
        # After a hit limit, every unexplored node lies below a frame with
        # values left to try, or is the top frame's child the limit cut off.
        if not frame_stack:
            return None
        return min([f[4] for f in frame_stack if f[1]] + [frame_stack[-1][4]])

    open_bound = search()
    wall = time.monotonic() - t_start
    stats = {"nodes": nodes, "wall_time": wall, "lp_calls": lp_calls}

    if hit_limit:
        known = [x for x in (open_bound, pruned_bound, incumbent_obj) if x is not None]
        b = min(known) if known else None
        return SolveResult("limit_reached", incumbent, incumbent_obj, b, stats, system)
    if incumbent is None:
        return SolveResult("infeasible", None, None, None, stats, system)
    b = incumbent_obj if pruned_bound is None else min(pruned_bound, incumbent_obj)
    return SolveResult("optimal", incumbent, incumbent_obj, b, stats, system)


class DecodeError(RuntimeError):
    """The incumbent cannot be read back as train walks; builder bug."""


def extract_solution(instance, result: SolveResult) -> Solution:
    if result.incumbent is None:
        raise ValueError("result has no incumbent")
    system = result.system
    net = instance.network
    assignment = result.incumbent

    expanded = []
    for vid, meaning in enumerate(system.variables):
        if meaning.kind == "expand" and assignment.get(vid) == 1:
            arc = net.arcs[meaning.arc_index]
            expanded.append((arc.frm, arc.to))

    expansion_total = sum(
        (net.arcs[m.arc_index].expansion_cost
         for vid, m in enumerate(system.variables)
         if m.kind == "expand" and assignment.get(vid) == 1),
        Fraction(0),
    )

    active = {}  # train -> list of (t, arc index, var id)
    for vid, meaning in enumerate(system.variables):
        if meaning.kind == "route" and assignment.get(vid) == 1:
            active.setdefault(meaning.train, []).append((meaning.t, meaning.arc_index, vid))

    routes = {}
    penalty_total = Fraction(0)
    for train in instance.trains:
        steps_raw = sorted(active.get(train.id, []), key=lambda e: e[0])
        if not steps_raw:
            if train.optional:
                penalty_total += train.penalty
                continue
            raise DecodeError(f"non-optional train {train.id} has no active route variables")
        decoded = _follow_walk(net.arcs, steps_raw, train.origin, train.destination)
        if decoded is None:
            raise DecodeError(f"route of train {train.id} is not a contiguous walk")
        walk, remaining = decoded
        steps = []
        for now, t, arc, _vid in walk:
            if now is not None and t > now and not instance.allow_dwell:
                raise DecodeError(f"train {train.id} dwells although dwell is disabled")
            steps.append(RoutedStep(train=train.id, frm=arc.frm, to=arc.to, depart=t))
        if remaining:
            raise DecodeError(f"train {train.id} has active variables off its walk")
        routes[train.id] = tuple(steps)

    return Solution(
        expanded_arcs=tuple(expanded),
        routes=routes,
        objective_value=expansion_total + penalty_total,
        expansion_cost_total=expansion_total,
        penalty_total=penalty_total,
    )
