"""Exact branch-and-bound over the 0-1 constraint system.

Rows keep their coefficients as built, int or Fraction, and reach the
propagation engine in ``raildesign._core_py`` in <= form (an equality as
two rows) and HiGHS as they are.  Search is depth-first over a stack of
open children: each is the parent's trail mark, a variable, a value and
the parent's bound, and the preferred value is pushed last so it is tried
first.  A node is a leaf once no variable is free; propagation has then
checked every row, so its values are an incumbent candidate.

The root LP comes before any propagation is set up.  One pass over the
signs of the rows finds the dominated columns (no positive coefficient in
<= form, cost <= 0).  They start fixed at 1, which cuts off no 0-1
optimum, and the root LP takes its column bounds from the fixings, as
every node's LP does.  When HiGHS reports it infeasible the solve returns
``infeasible`` with ``nodes`` 1 and ``lp_calls`` 1, and neither the <=
rows nor the engine is built.  The verdict trusts HiGHS's status, as every
LP prune below does; no exact certificate backs either yet.  Otherwise the
engine is built, propagates the root and fixes the dominated columns, and
the root keeps its LP result unless propagation fixed more, when it
re-solves warm.  The limits count the root LP as node 1: ``node_limit=0``
runs no LP, and a time limit reaches HiGHS before it.

The linear relaxation is solved at every node with HiGHS, which comes from
SciPy's compiled ``optimize/_highspy/_core`` extension, loaded from its file
without importing ``scipy.optimize``; without that file the package import
is the fallback.  Each solve builds one HiGHS LP, once, from the rows; a
node only changes the column bounds to the engine's current fixings and
re-runs, so dual simplex warm-starts from the previous node's basis.
HiGHS runs with its presolve off.  ``milp.build`` has already left out
every row the others imply, and on LPs this small HiGHS's presolve,
postsolve and clean-up cost more than they save.  Only the cold solves
change by this -- the root, and a node after ``clearSolver`` -- since HiGHS
skips presolve when it starts from a valid basis anyway.
The relaxation supplies the lower bound, the branching variable, and
integral vertices as incumbent candidates.  Branching is design first: the
most fractional free expansion variable when any is fractional, otherwise
the most fractional free variable of any kind.  This is fixed-charge
network design, so once the expansions are fixed only the feasibility of
the routes is left to decide.
Candidates and bounds are always re-validated exactly -- the float LP only
guides pruning, never certifies feasibility or the final objective.  Only
an LP proven infeasible prunes.  When HiGHS returns no optimum (a time-out
or numeric trouble), the node drops the basis, takes the larger of its
parent's bound and the trivial bound -- the exact rational sum of fixed
costs plus all still-collectable negative objective coefficients, weak but
admissible -- and branches on its first free variable.

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
    bound: Fraction | None  # None only when infeasible
    stats: dict = field(default_factory=dict)
    system: object = None


def _dominated(system, obj):
    """The columns with no positive coefficient in <= form (an equality row's
    coefficients count with both signs) and an objective coefficient <= 0.

    Raising such a column to 1 in a feasible 0-1 point breaks no row and
    does not raise the cost, so it is fixed to 1 up front.  This covers the
    zero-cost expansion variables, which would otherwise bloat the search
    tree.  One pass over the signs in the rows as built.
    """
    tightens = [False] * len(system.variables)
    for row in system.rows:
        upper, lower = row.sense != ">=", row.sense != "<="
        for v, c in row.terms:
            if (c > 0 and upper) or (c < 0 and lower):
                tightens[v] = True
    return [v for v, t in enumerate(tightens) if not t and obj.get(v, 0) <= 0]


def _le_rows(system):
    """The rows as (cols, coefs, rhs) in <= sense, coefficients as built; an
    equality row gives its <= row and then its negated >= row."""
    out = []
    for row in system.rows:
        cols = [v for v, _ in row.terms]
        coefs = [c for _, c in row.terms]
        if row.sense != ">=":
            out.append((cols, coefs, row.rhs))
        if row.sense != "<=":
            out.append((cols, [-c for c in coefs], -row.rhs))
    return out


def _lp_model(rows, nvars, cost):
    """One HiGHS LP over the ``LinearRow``s with 0-1 column bounds, built once
    per solve.

    An equality row is one row with equal lower and upper bounds.  Nodes
    change only the column bounds, so each run warm-starts from the basis of
    the one before.  ValueError on a row that lists a variable twice.
    """
    rows = [row for row in rows if row.terms]
    lengths = [len(row.terms) for row in rows]
    cols = _np.array([v for row in rows for v, _ in row.terms], dtype=_np.int64)
    vals = _np.array([c for row in rows for _, c in row.terms], dtype=float)
    if len(cols):
        # (row, column) as one sortable key; equal neighbours are a repeat
        low = int(cols.min())
        span = int(cols.max()) - low + 1
        key = _np.repeat(_np.arange(len(rows), dtype=_np.int64), lengths) * span + (cols - low)
        key.sort()
        repeats = key[1:][key[1:] == key[:-1]]
        if len(repeats):
            raise ValueError(f"duplicate variable in row {rows[repeats[0] // span].name}")
    start = _np.zeros(len(rows) + 1, dtype=_np.int32)
    _np.cumsum(lengths, out=start[1:])
    inf = _highs.kHighsInf
    row_lo = [-inf if row.sense == "<=" else row.rhs for row in rows]
    row_up = [inf if row.sense == ">=" else row.rhs for row in rows]
    cost = _np.asarray(cost, dtype=float)
    if cost.shape != (nvars,):  # passModel reads nvars costs from its buffer
        raise ValueError(f"cost has shape {cost.shape}, not ({nvars},)")
    model = _highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "off")  # the rows come presolved
    # passModel's array form takes the NumPy arrays as they are; a HighsLp's
    # fields would copy them in element by element
    status = model.passModel(
        nvars, len(rows), len(cols), _highs.MatrixFormat.kRowwise,
        _highs.ObjSense.kMinimize, 0.0, cost, _np.zeros(nvars), _np.ones(nvars),
        _np.array(row_lo, dtype=float), _np.array(row_up, dtype=float),
        start, cols.astype(_np.int32), vals,
        _np.zeros(nvars, dtype=_np.int32))  # integrality: every column continuous
    if status == _highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the LP")
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


def _branch_position(x, design):
    """Position of the entry of ``x`` nearest 0.5 (ties to the first) among its
    fractional ``design`` entries, or among all entries if none is; and
    whether every entry is within 1e-6 of an integer."""
    dist = _np.abs(x - 0.5)
    fractional = _np.abs(x - _np.round(x)) > 1e-6
    pick = fractional & design
    if pick.any():
        dist = _np.where(pick, dist, _np.inf)
    return int(_np.argmin(dist)), not fractional.any()


def solve(system, limits: SolveLimits | None = None) -> SolveResult:
    limits = limits or SolveLimits()
    t_start = time.monotonic()
    nvars = len(system.variables)

    obj = {}
    for vid, coeff in system.objective:
        obj[vid] = obj.get(vid, Fraction(0)) + Fraction(coeff)
    obj_vars = sorted(obj)
    obj_const = Fraction(system.objective_constant)
    obj_den = lcm(1, *(c.denominator for c in obj.values())) if obj else 1

    dominated = _dominated(system, obj)
    c_vec = _np.zeros(nvars)
    for v, cf in obj.items():
        c_vec[v] = float(cf)
    lp = _lp_model(system.rows, nvars, c_vec)
    engine = None  # built at the root, once its LP is feasible
    values = [FREE] * nvars
    for v in dominated:  # cost <= 0: the trivial bound stays as it is
        values[v] = 1

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

    incumbent = None
    incumbent_obj = None

    def consider(assignment):
        """Record a feasible assignment if it improves the incumbent."""
        nonlocal incumbent, incumbent_obj
        value = obj_const + sum((obj[v] for v in obj_vars if assignment[v] == 1),
                                Fraction(0))
        if incumbent is None or value < incumbent_obj:
            incumbent = assignment
            incumbent_obj = value

    # Open children as (parent's trail mark, variable, value, parent's bound);
    # the root fixes nothing and has the trivial bound.  Each node runs one
    # LP, the root at most two.
    nodes = lp_calls = 0
    stack = [(0, None, None, trivial_bound())]
    while stack:
        mark, var, val, parent_bound = stack.pop()
        if engine is not None:
            engine.backtrack(mark)
            if var is not None and not engine.assign(var, val):
                continue
        if (limits.node_limit is not None and nodes >= limits.node_limit) or (
                limits.time_limit is not None
                and time.monotonic() - t_start > limits.time_limit):
            stack.append((mark, var, val, parent_bound))  # still open
            break
        nodes += 1
        if limits.time_limit is not None:
            # HiGHS checks its limit against the model's total run time
            left = limits.time_limit - (time.monotonic() - t_start)
            lp.setOptionValue("time_limit", lp.getRunTime() + max(left, 0.0))
        state = _np.array(values)
        res = _linprog(lp, state == 1, state != 0)
        lp_calls += 1
        if engine is None and res.status != 2:
            # a feasible root LP: build the engine and propagate the root
            engine = PropEngine(nvars, _le_rows(system))
            values = engine.values  # updated in place by assign and backtrack
            design = _np.array([m.kind == "expand" for m in system.variables], dtype=bool)
            if not engine.propagate_root():
                continue
            for v in dominated:
                engine.assign(v, 1)  # raises no minimum activity: never a conflict
            if values.count(FREE) + len(dominated) < nvars:
                # propagation fixed more: re-solve warm under its fixings
                state = _np.array(values)
                res = _linprog(lp, state == 1, state != 0)
                lp_calls += 1
        if res.status == 2:
            continue
        # Without an LP optimum (a time-out or numeric trouble) the trivial
        # bound and the parent's stand alone.  The LP's is floored
        # conservatively, as attainable objectives are multiples of 1/obj_den.
        node_bound = max(trivial_bound(), parent_bound)
        if res.status == 0:
            scaled = res.fun * obj_den
            eps = 1e-6 * (1.0 + abs(scaled))
            node_bound = max(node_bound,
                             obj_const + Fraction(math.ceil(scaled - eps), obj_den))
        if incumbent is not None and node_bound >= incumbent_obj:
            continue
        free = _np.flatnonzero(state == FREE)
        if not free.size:
            consider(dict(enumerate(values)))  # propagation checked every row
            continue
        v, first = int(free[0]), 0
        if res.status == 0:
            x = res.x[free]
            i, integral = _branch_position(x, design[free])
            if integral:
                # the relaxation vertex is 0-1: validate it exactly
                assignment = dict(enumerate(values))
                assignment.update(zip(free.tolist(), _np.round(x).astype(int).tolist()))
                if all(sum(c * assignment[u] for u, c in zip(cols, coefs)) <= rhs
                       for cols, coefs, rhs in engine.rows):
                    consider(assignment)
                    if node_bound >= incumbent_obj:
                        continue
            else:
                v = int(free[i])
            first = int(round(res.x[v]))
        mark = engine.mark()
        stack.append((mark, v, 1 - first, node_bound))
        stack.append((mark, v, first, node_bound))

    stats = {"nodes": nodes, "wall_time": time.monotonic() - t_start, "lp_calls": lp_calls}
    if stack:
        # only a limit leaves children open; every unexplored node lies
        # below one of them
        bounds = [b for *_, b in stack]
        if incumbent is not None:
            bounds.append(incumbent_obj)
        return SolveResult("limit_reached", incumbent, incumbent_obj,
                           min(bounds), stats, system)
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
