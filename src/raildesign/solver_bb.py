"""Exact branch-and-bound over the 0-1 constraint system.

Rows are normalized to integer coefficients and handed, in <= form, to the
propagation engine in ``raildesign._core_py``.  Search is depth-first.

The linear relaxation is solved at every node with HiGHS, which comes from
SciPy's compiled ``optimize/_highspy/_core`` extension, loaded from its file
without importing ``scipy.optimize``; without that file the package import
is the fallback.  Each solve builds one HiGHS LP, once, from the normalized
rows; a node only changes the column bounds to the engine's current fixings
and re-runs, so dual simplex warm-starts from the previous node's basis.
The relaxation supplies the lower bound, the branching variable, and
integral vertices as incumbent candidates.  Branching is design first: the
most fractional free expansion variable when any is fractional, otherwise
the most fractional free variable of any kind.  This is fixed-charge
network design, so once the expansions are fixed only the feasibility of
the routes is left to decide.
Candidates and bounds are always re-validated exactly -- the float LP only
guides pruning, never certifies feasibility or the final objective.  Only
an LP proven infeasible prunes.  When HiGHS returns no optimum (a time-out
or numeric trouble), the node drops the basis, takes the trivial bound --
the exact rational sum of fixed costs plus all still-collectable negative
objective coefficients, weak but admissible -- and branches on its first
free variable.

A node is pruned only when its bound reaches the incumbent, so ``optimal``
reports a bound equal to the objective.  The model lets each train depart
at most once, so every feasible assignment routes each train on one walk;
``extract_solution`` reads it back and raises ``DecodeError`` on anything
else.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as _np

from ._core_py import FREE, PropEngine
from .model import RoutedStep, Solution

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """SciPy's compiled HiGHS binding, loaded from its own file.

    Importing it as a submodule would first run ``scipy.optimize``'s
    ``__init__`` (linalg, sparse, the array-API layer), which costs most of
    a solve's start-up and none of which the search uses.  A SciPy whose
    extension files live outside the package directories (an editable
    install) falls back to the package import; ImportError when neither
    finds it.
    """
    scipy = importlib.util.find_spec("scipy")  # locates, does not import
    dirs = [os.path.join(d, "optimize", "_highspy")
            for d in (scipy.submodule_search_locations or ())] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, dirs)
    if spec is None:
        from scipy.optimize._highspy import _core
        return _core
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float | None = None
    node_limit: int | None = None


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


def _branch_position(x, design):
    """``_most_fractional`` of ``x``, except that the position is the most
    fractional entry where ``design`` is true, if one of those is fractional."""
    i, integral = _most_fractional(x)
    d = _np.flatnonzero(design)
    if d.size:
        j, design_integral = _most_fractional(x[d])
        if not design_integral:
            i = int(d[j])
    return i, integral


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
    obj_const = Fraction(system.objective_constant)
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
    hit_limit = False

    def lp_probe(state):
        """Returns (feasible, exact lower bound or None, relaxation point or None)."""
        nonlocal lp_calls
        lp_calls += 1
        if limits.time_limit is not None:
            # HiGHS checks its limit against the model's total run time
            left = limits.time_limit - (time.monotonic() - t_start)
            lp.setOptionValue("time_limit", lp.getRunTime() + max(left, 0.0))
        res = _linprog(lp, (state == 1).astype(float), (state != 0).astype(float))
        if res.status == 2:
            return False, None, None
        if res.status != 0:
            return True, None, None  # time-out or numeric trouble: the weak bound
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

    c_vec = _np.zeros(nvars)
    for v, cf in obj.items():
        c_vec[v] = float(cf)
    lp = _lp_model(irows, nvars, c_vec)
    design = _np.array([m.kind == "expand" for m in system.variables], dtype=bool)

    def consider(assignment):
        """Record a feasible assignment if it improves the incumbent."""
        nonlocal incumbent, incumbent_obj
        value = assignment_objective(assignment)
        if incumbent is None or value < incumbent_obj:
            incumbent = assignment
            incumbent_obj = value

    def record_leaf():
        # free vars finish at their cheapest value (1 for negative coefs)
        consider({v: completion_value(v) if val == FREE else val
                  for v, val in enumerate(values)})

    def prune_check(b):
        return incumbent is not None and b is not None and b >= incumbent_obj

    # Depth-first search, iterative to dodge recursion limits.
    def search():
        frame_stack = []  # [branch var, values left to try, trail mark, node bound]

        def enter():
            """Process a node; push a frame or record a leaf. Returns False to backtrack."""
            nonlocal nodes, hit_limit
            # a node counts once it is processed
            if (limits.node_limit is not None and nodes >= limits.node_limit) or (
                    limits.time_limit is not None
                    and time.monotonic() - t_start > limits.time_limit):
                hit_limit = True
                return False
            nodes += 1
            state = _np.array(values)
            feasible, b, relax = lp_probe(state)
            if not feasible or prune_check(b):
                return False
            node_bound = trivial_bound()
            if prune_check(node_bound):
                return False
            if b is not None:
                node_bound = max(node_bound, b)
            free = _np.flatnonzero(state == FREE)
            if engine.all_settled() or not free.size:
                record_leaf()
                return False
            v, vals = int(free[0]), [0, 1]
            if relax is not None:
                x = relax[free]
                i, integral = _branch_position(x, design[free])
                if integral:
                    # the relaxation vertex is 0-1: validate it exactly
                    assignment = dict(enumerate(values))
                    assignment.update(zip(free.tolist(), _np.round(x).astype(int).tolist()))
                    if assignment_feasible(assignment):
                        consider(assignment)
                        if prune_check(b):
                            return False
                else:
                    v = int(free[i])
                first = int(round(relax[v]))
                vals = [first, 1 - first]
            frame_stack.append([v, vals, engine.mark(), node_bound])
            return True

        enter()
        while frame_stack and not hit_limit:
            var, vals, mark, _ = frame_stack[-1]
            if not vals:
                engine.backtrack(mark)
                frame_stack.pop()
                continue
            val = vals.pop(0)
            engine.backtrack(mark)
            if engine.assign(var, val):
                enter()
            # on conflict just try the next value / unwind
        # After a hit limit, every unexplored node lies below a frame with
        # values left to try, or is the top frame's child the limit cut off.
        if not frame_stack:
            return None
        return min([f[3] for f in frame_stack if f[1]] + [frame_stack[-1][3]])

    open_bound = search()
    wall = time.monotonic() - t_start
    stats = {"nodes": nodes, "wall_time": wall, "lp_calls": lp_calls}

    if hit_limit:
        known = [x for x in (open_bound, incumbent_obj) if x is not None]
        b = min(known) if known else None
        return SolveResult("limit_reached", incumbent, incumbent_obj, b, stats, system)
    if incumbent is None:
        return SolveResult("infeasible", None, None, None, stats, system)
    return SolveResult("optimal", incumbent, incumbent_obj, incumbent_obj, stats, system)


class DecodeError(RuntimeError):
    """The incumbent cannot be read back as train walks; builder bug."""


def extract_solution(instance, result: SolveResult) -> Solution:
    if result.incumbent is None:
        raise ValueError("result has no incumbent")
    system = result.system
    net = instance.network
    assignment = result.incumbent

    expanded = [net.arcs[m.arc_index] for vid, m in enumerate(system.variables)
                if m.kind == "expand" and assignment.get(vid) == 1]
    expansion_total = sum((arc.expansion_cost for arc in expanded), Fraction(0))

    active = {}  # train -> list of (t, arc index)
    for vid, meaning in enumerate(system.variables):
        if meaning.kind == "route" and assignment.get(vid) == 1:
            active.setdefault(meaning.train, []).append((meaning.t, meaning.arc_index))

    # Travel times are >= 1, so each step of a walk departs strictly later
    # than the one before: in (t, arc) order the active steps must run from
    # the origin, each leaving where the last one arrived, not before it
    # arrived, and stop at the first arrival at the destination.
    routes = {}
    penalty_total = Fraction(0)
    for train in instance.trains:
        if train.id not in active:
            if train.optional:
                penalty_total += train.penalty
                continue
            raise DecodeError(f"non-optional train {train.id} has no active route variables")
        steps = []
        node, now = train.origin, None
        for t, ai in sorted(active[train.id]):
            arc = net.arcs[ai]
            if node == train.destination:
                raise DecodeError(f"train {train.id} has active variables off its walk")
            if arc.frm != node or (now is not None and t < now):
                raise DecodeError(f"route of train {train.id} is not a contiguous walk")
            if now is not None and t > now and not instance.allow_dwell:
                raise DecodeError(f"train {train.id} dwells although dwell is disabled")
            steps.append(RoutedStep(train=train.id, frm=arc.frm, to=arc.to, depart=t))
            node, now = arc.to, t + arc.travel_time
        if node != train.destination:
            raise DecodeError(f"route of train {train.id} does not reach {train.destination}")
        routes[train.id] = tuple(steps)

    return Solution(
        expanded_arcs=tuple((arc.frm, arc.to) for arc in expanded),
        routes=routes,
        objective_value=expansion_total + penalty_total,
        expansion_cost_total=expansion_total,
        penalty_total=penalty_total,
    )
