"""Exact branch-and-bound over the 0-1 constraint system.

Rows keep their coefficients as built, int or Fraction, and reach the
propagation engine (``PropEngine``) in <= form (an equality as two rows)
and HiGHS as they are.  HiGHS holds every row, an empty one too, so the LP
and propagation see one row set.  Search is depth-first over a stack of
open children: each is the parent's trail mark, a variable, a value and
the parent's bound, and the preferred value is pushed last so it is tried
first.  Every incumbent passes one exact gate, ``consider``: a node's 0-1
point must meet every row, with its sense, in exact arithmetic.  The
point, and so the incumbent, is a copy of the node's fixings list, with
the rounded LP vertex on the free variables when that is integral.  Every
objective value of the search (a bound, a prune, a point's value) is an
int, the cost in units of 1/d for d the least common denominator of the
costs, without the constant; ``report`` adds it back for the result.

The root LP comes first.  One pass over the signs of the rows finds the
dominated columns (no positive coefficient in <= form, cost <= 0).  They
start fixed at 1 in ``values``, which cuts off no 0-1 optimum; that list
is the one record of fixings from the root LP to the last leaf, and every
node's LP takes its column bounds from it, so ``lp_calls`` equals
``nodes``.  An infeasible root LP answers ``infeasible`` at node 1; that
verdict trusts HiGHS's status, as every LP prune below does, and no exact
certificate backs either yet.  The engine is built when a node first
branches: it adopts ``values`` with the dominated columns already fixed,
propagates every row (a conflict ends the node), and then the children
are pushed.  At seed 1, 14 of the 51 ``x3c``, 1 of the 24 ``corridor`` and
4 of the 14 ``scenarios`` benchmark instances build it.  The limits count
the root LP as node 1: ``node_limit=0`` runs no LP, and a time limit
reaches HiGHS before it.

The linear relaxation is solved at every node with HiGHS, from SciPy's
compiled ``optimize/_highspy/_core`` extension (see ``_load_highs``).  Each
solve builds one HiGHS LP, once, from the rows; a node only changes the
column bounds to the node's fixings and re-runs, so dual simplex
warm-starts from the previous node's basis.  HiGHS runs with its presolve
off.  ``milp.build`` has already left out every row the others imply, and
on LPs this small HiGHS's presolve, postsolve and clean-up cost more than
they save.  Only the cold solves change by this -- the root, and a node
after ``clearSolver`` -- since HiGHS skips presolve when it starts from a
valid basis anyway.
The relaxation supplies the lower bound, the branching variable, and
integral vertices as incumbent candidates.  Branching is design first: the
most fractional free expansion variable when any is fractional, otherwise
the most fractional free variable of any kind.  This is fixed-charge
network design, so once the expansions are fixed only the feasibility of
the routes is left to decide.
The float LP guides the search and certifies no point.  Only an LP proven
infeasible prunes.  It takes the costs scaled by a power of two when one is
too large for it, and its value, less a margin, is rounded up to a whole
number of units in integer arithmetic, so a cost that no float holds is
still solved exactly.  When HiGHS returns no optimum (a time-out or numeric
trouble), the node drops the basis, takes the larger of its parent's bound
and the trivial bound -- the costs fixed at 1 plus every still-collectable
negative one, weak but admissible -- and branches on its first free
variable.

A node is pruned only when its bound reaches the incumbent, so ``optimal``
reports a bound equal to the objective.  A node's bound is never below its
parent's, so a child whose parent's bound already reaches the incumbent is
dropped when it is popped, before propagation and before its LP, and is not
counted as a node.  The model lets each train depart at most once, so every
feasible assignment routes each train on one walk; ``extract_solution``
reads it back and checks nothing, and ``verify`` judges what it returns.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as _np

from .model import RoutedStep, Solution, priced

FREE = -1


class PropEngine:
    """Propagation over the ``LinearRow``s of 0-1 variables in <= form (an
    equality as two rows), int or Fraction coefficients compared exactly.
    It adopts the caller's FREE/0/1 ``values`` and updates them in place;
    only what it fixes goes on its trail.  Per row it keeps the minimum
    activity, the least left-hand side any completion of the fixings can
    reach: past the right-hand side is a conflict, and a free variable whose
    costly value would push it past is fixed the other way."""

    def __init__(self, values, rows):
        self.values = values
        self.rows = []  # (cols, coefs, rhs) in <= form, coefficients as built
        for row in rows:
            cols = [v for v, _ in row.terms]
            if row.sense != ">=":
                self.rows.append((cols, [c for _, c in row.terms], row.rhs))
            if row.sense != "<=":  # a >= row, or an equality's second half
                self.rows.append((cols, [-c for _, c in row.terms], -row.rhs))
        self.watch = [[] for _ in values]  # var -> [(row, coef)]
        for r, (cols, coefs, _rhs) in enumerate(self.rows):
            for v, c in zip(cols, coefs):
                self.watch[v].append((r, c))
        # a fixed column counts at its value, a free one at min(0, c)
        self.minact = [sum(c for v, c in zip(cols, coefs)
                           if values[v] == 1 or (c < 0 and values[v] == FREE))
                       for cols, coefs, _rhs in self.rows]
        self.trail = []  # variables fixed by the engine, in order

    def mark(self):
        return len(self.trail)

    def backtrack(self, mark):
        while len(self.trail) > mark:
            var = self.trail.pop()
            one = self.values[var] == 1
            self.values[var] = FREE
            for r, c in self.watch[var]:
                if (c > 0) == one:
                    self.minact[r] -= abs(c)

    def propagate_root(self):
        """Initial feasibility and forcing pass; False means infeasible."""
        return self._drain(list(range(len(self.rows))))

    def assign(self, var, val):
        """Fix var and propagate; False on conflict (state needs backtrack)."""
        if self.values[var] != FREE:
            return self.values[var] == val
        queue = []
        return self._fix(var, val, queue) and self._drain(queue)

    def _fix(self, var, val, queue):
        """Set var; queue every row whose minimum activity rises."""
        self.values[var] = val
        self.trail.append(var)
        ok = True
        for r, c in self.watch[var]:
            if (c > 0) == (val == 1):
                self.minact[r] += abs(c)
                if self.minact[r] > self.rows[r][2]:
                    ok = False
                queue.append(r)
        return ok

    def _drain(self, queue):
        values = self.values
        while queue:
            r = queue.pop()
            cols, coefs, rhs = self.rows[r]
            slack = rhs - self.minact[r]
            if slack < 0:
                return False
            for v, c in zip(cols, coefs):
                if values[v] != FREE or abs(c) <= slack:
                    continue
                if not self._fix(v, 0 if c > 0 else 1, queue):
                    return False
                slack = rhs - self.minact[r]
        return True


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
    """Stop after ``time_limit`` seconds or ``node_limit`` nodes, None for no
    limit.  ValueError on a limit below 0 or NaN, or a non-int node limit."""
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and type(self.node_limit) is not int:  # a bool too
            raise ValueError(f"node_limit must be an int, not {self.node_limit!r}")
        for name in ("time_limit", "node_limit"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} must be at least 0, not {limit!r}")


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | limit_reached
    incumbent: list | None  # the 0-1 value of each variable, in order
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


def _lp_model(rows, nvars, cost):
    """One HiGHS LP over the ``LinearRow``s with 0-1 column bounds, built once
    per solve.

    An equality row is one row with equal lower and upper bounds.  Nodes
    change only the column bounds, so each run warm-starts from the basis of
    the one before.  ValueError on a row that lists a variable twice.
    """
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
        obj[vid] = obj.get(vid, 0) + Fraction(coeff)
    d = lcm(1, *(c.denominator for c in obj.values()))
    cost = {v: c.numerator * (d // c.denominator) for v, c in obj.items()}  # units of 1/d
    # The LP takes the costs times 2**-k: k = 0 while every cost is below
    # 2**40, and otherwise just large enough that each is below 2**41, a
    # float far below the 1e20 from which HiGHS reads a cost as infinite.  A
    # cost too small for a float reaches the LP as 0.
    k = max(0, max((c.numerator.bit_length() - c.denominator.bit_length()
                    for c in obj.values()), default=0) - 40)
    c_vec = _np.zeros(nvars)
    c_vec[list(cost)] = [u / (d << k) for u in cost.values()]
    lp = _lp_model(system.rows, nvars, c_vec)
    design = _np.array([m.kind == "expand" for m in system.variables], dtype=bool)
    engine = None  # built when the search first branches
    values = [FREE] * nvars  # the one record of fixings, the engine's too
    for v in _dominated(system, cost):  # cost <= 0: the trivial bound stays as it is
        values[v] = 1

    def trivial_bound():
        # fixed-at-1 costs plus every still-collectable negative coefficient
        return sum(u for v, u in cost.items() if values[v] == 1 or (values[v] == FREE and u < 0))

    def report(units):  # a value of the search as the model states it
        return None if units is None else Fraction(system.objective_constant) + Fraction(units, d)

    incumbent = incumbent_obj = None

    def consider(point):
        """Record a 0-1 point if it meets every row exactly and improves the
        incumbent."""
        nonlocal incumbent, incumbent_obj
        for row in system.rows:
            excess = sum((c * point[v] for v, c in row.terms), -row.rhs)
            if (excess > 0 and row.sense != ">=") or (excess < 0 and row.sense != "<="):
                return
        value = sum(u for v, u in cost.items() if point[v] == 1)
        if incumbent is None or value < incumbent_obj:
            incumbent = point
            incumbent_obj = value

    # Open children as (parent's trail mark, variable, value, parent's bound);
    # the root fixes nothing and has the trivial bound.  Each node runs one LP.
    nodes = lp_calls = 0
    stack = [(0, None, None, trivial_bound())]
    while stack:
        mark, var, val, parent_bound = stack.pop()
        if incumbent is not None and parent_bound >= incumbent_obj:
            continue  # a node's bound is never below its parent's
        if var is not None:  # a child: the engine exists
            engine.backtrack(mark)
            if not engine.assign(var, val):
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
        if res.status == 2:
            continue
        # Without an LP optimum (a time-out or numeric trouble) the trivial
        # bound and the parent's stand alone.  The LP's value in units,
        # v = s / q exactly, less a margin of 1e-6 relative, is rounded up:
        # ceil(v - (1 + |v|) / 1e6) = ceil((1e6 s - q - |s|) / (1e6 q)).
        node_bound = max(trivial_bound(), parent_bound)
        if res.status == 0:
            n, q = res.fun.as_integer_ratio()
            s = n * (d << k)
            node_bound = max(node_bound, -((abs(s) + q - 1_000_000 * s) // (1_000_000 * q)))
        if incumbent is not None and node_bound >= incumbent_obj:
            continue
        free = _np.flatnonzero(state == FREE)
        v, first, integral = None, 0, not free.size
        if free.size:
            v = int(free[0])
            if res.status == 0:
                i, integral = _branch_position(res.x[free], design[free])
                v = v if integral else int(free[i])
                first = int(round(res.x[v]))
        if integral:
            # the node's 0-1 point: its fixings, and the LP vertex on the free ones
            point = state.copy()
            if free.size:
                point[free] = _np.round(res.x[free])
            consider(point.tolist())
            if v is None or (incumbent is not None and node_bound >= incumbent_obj):
                continue
        if engine is None:
            # the first node that branches builds the engine on its fixings
            engine = PropEngine(values, system.rows)
            if not engine.propagate_root():
                continue
        mark = engine.mark()
        stack.append((mark, v, 1 - first, node_bound))
        stack.append((mark, v, first, node_bound))

    # only a limit leaves children open, and every unexplored node lies below one
    bounds = [b for *_, b in stack]
    if incumbent is not None:
        bounds.append(incumbent_obj)
    status = "limit_reached" if stack else "infeasible" if incumbent is None else "optimal"
    stats = {"nodes": nodes, "wall_time": time.monotonic() - t_start, "lp_calls": lp_calls}
    return SolveResult(status, incumbent, report(incumbent_obj), report(min(bounds, default=None)),
                       stats, system)


def extract_solution(instance, result: SolveResult) -> Solution:
    """The incumbent read back: the expanded arcs, and each train's active
    route variables in time order as its steps.  Nothing is checked here;
    ``verify`` judges the answer."""
    if result.incumbent is None:
        raise ValueError("result has no incumbent")
    arcs = instance.network.arcs
    on = [m for m, bit in zip(result.system.variables, result.incumbent) if bit == 1]
    # an arc that expansion does not widen is left out: its b is in no row
    expanded = [arcs[m.arc_index].key for m in on
                if m.kind == "expand" and arcs[m.arc_index].expandable_capacity]
    active = {}  # train -> list of (t, arc index)
    for m in on:
        if m.kind == "route":
            active.setdefault(m.train, []).append((m.t, m.arc_index))
    # a train without active route variables has no route; an optional one
    # pays its penalty in priced
    routes = {train.id: tuple(RoutedStep(arcs[ai].frm, arcs[ai].to, t)
                              for t, ai in sorted(active[train.id]))
              for train in instance.trains if train.id in active}
    return priced(instance, expanded, routes)
