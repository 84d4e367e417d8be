import dataclasses
import importlib.machinery
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import optimize

from helpers import (corridor_instance, enumerate_system, float_mip_objective,
                     line_instance, mk_network, mk_train, random_walk_instance,
                     run_fresh, two_arc_line, walk_oracle)
from raildesign import milp, reduction, solver_bb
from raildesign.milp import ConstraintSystem, LinearRow, VarMeaning
from raildesign.model import Instance, RoutedStep, Scenario, Solution, load_instance
from raildesign.solver_bb import SolveLimits, extract_solution, solve
from raildesign.verify import verify

DATA = Path(__file__).parent / "data"


def no_lp_answer(monkeypatch):
    """Make every LP end without an optimum, as on a HiGHS time-out."""
    monkeypatch.setattr(solver_bb, "_linprog",
                        lambda model, lb, ub: solver_bb._LPResult(4, None, None))


@pytest.fixture(params=["lp", "fallback"])
def bound_mode(request, monkeypatch):
    """Exercise both the relaxation bound and the fallback taken when HiGHS
    gives no optimum: the trivial bound and first-free branching."""
    if request.param == "fallback":
        no_lp_answer(monkeypatch)
    return request.param


def test_capacity_suffices(bound_mode):
    res = solve(milp.build(line_instance(c=1, ce=0, k=0, n_trains=1)))
    assert res.status == "optimal" and res.objective == 0


def test_expansion_needed(bound_mode):
    # two simultaneous trains on a capacity-1 arc, window = horizon
    inst = line_instance(c=1, ce=1, k=7, n_trains=2, horizon=1, window=1,
                         dwell=False)
    res = solve(milp.build(inst))
    assert res.status == "optimal" and res.objective == 7
    assert res.bound == 7
    assert res.stats["lp_calls"] > 0
    sol = extract_solution(inst, res)
    assert sol.expanded_arcs == (("A", "B"),)


def test_infeasible(bound_mode):
    inst = line_instance(c=1, ce=0, k=0, n_trains=2, horizon=1, window=1,
                         dwell=False)
    res = solve(milp.build(inst))
    assert res.status == "infeasible"
    assert res.incumbent is None and res.objective is None


def tiny_grid():
    for c, ce, k, n_tr, w, dwell, M in itertools.product(
            (0, 1), (0, 1), (0, 3), (1, 2), (1, 2), (False, True), (0, 2)):
        inst = line_instance(c=c, ce=ce, k=k, n_trains=n_tr, horizon=2,
                             window=w, dwell=dwell, headway_default=M)
        system = milp.build(inst)
        if len(system.variables) <= 12:
            yield inst, system


def test_matches_enumeration_on_tiny_systems(bound_mode):
    checked = 0
    for _inst, system in tiny_grid():
        want_status, want_obj = enumerate_system(system)
        res = solve(system)
        assert res.status == want_status
        assert res.objective == want_obj
        checked += 1
    assert checked >= 30


def test_deterministic(bound_mode):
    inst = line_instance(c=1, ce=1, k=3, n_trains=2, horizon=3,
                         headway_default=2, dwell=False)
    system = milp.build(inst)
    r1, r2 = solve(system), solve(system)
    assert (r1.status, r1.objective, r1.incumbent) == (r2.status, r2.objective, r2.incumbent)
    assert r1.stats["nodes"] == r2.stats["nodes"]


def test_bound_is_admissible(bound_mode):
    rng = random.Random(5)
    for _ in range(25):
        inst = line_instance(c=rng.randint(0, 1), ce=rng.randint(0, 2),
                             k=rng.randint(0, 9), n_trains=rng.randint(1, 3),
                             horizon=rng.randint(1, 3), dwell=False)
        res = solve(milp.build(inst))
        if res.status == "optimal":
            assert res.bound is not None and res.bound <= res.objective
            assert res.objective - res.bound <= 0  # exact mode


def test_node_limit(bound_mode):
    inst = line_instance(c=0, ce=1, k=1, n_trains=2, horizon=2, dwell=False)
    res = solve(milp.build(inst), SolveLimits(node_limit=0))
    assert res.status == "limit_reached"


@pytest.mark.parametrize("name, value", [("time_limit", float("nan")), ("time_limit", -1),
                                         ("time_limit", -0.5), ("node_limit", -3),
                                         ("node_limit", 2.0), ("node_limit", True),
                                         ("node_limit", "4")])
def test_solve_limits_reject_what_is_no_limit(name, value):
    # NaN would run with no limit, and a limit below 0 would stop before
    # the root; a bool or float node count is a caller's mistake
    with pytest.raises(ValueError):
        SolveLimits(**{name: value})


def test_solve_limits_take_zero_and_none():
    assert SolveLimits(time_limit=0, node_limit=0) == SolveLimits(0.0, 0)
    assert SolveLimits() == SolveLimits(None, None)


def x3c_system(q, subsets, seed, planted=True):
    inst, _threshold = reduction.x3c_to_instance(
        reduction.gen_random_x3c(q, subsets, seed, planted=planted))
    return milp.build(inst)


@pytest.mark.parametrize("node_limit", range(4))
def test_node_limit_counts_processed_nodes(bound_mode, node_limit):
    # the node that trips the limit is not processed, so it is not counted
    res = solve(x3c_system(3, 8, 4), SolveLimits(node_limit=node_limit))
    assert res.status == "limit_reached" and res.stats["nodes"] == node_limit


def test_limits_count_the_root_lp_as_node_one(monkeypatch):
    # this system's root LP is infeasible, yet node_limit=0 runs no LP and
    # reports the trivial bound; a time limit reaches HiGHS before the root LP
    system = x3c_system(2, 3, 2, planted=False)
    linprog, seen = solver_bb._linprog, []

    def record(model, lb, ub):
        seen.append(model.getOptionValue("time_limit")[1])
        return linprog(model, lb, ub)

    monkeypatch.setattr(solver_bb, "_linprog", record)
    cost = {}
    for v, c in system.objective:
        cost[v] = cost.get(v, 0) + c
    trivial = system.objective_constant + sum(c for c in cost.values() if c < 0)
    res = solve(system, SolveLimits(node_limit=0))
    assert (res.status, res.bound) == ("limit_reached", trivial)
    assert (res.stats["nodes"], res.stats["lp_calls"], seen) == (0, 0, [])
    res = solve(system, SolveLimits(node_limit=1))
    assert res.status == "infeasible" and seen == [math.inf]
    res = solve(system, SolveLimits(time_limit=60))
    assert res.status == "infeasible" and len(seen) == 2 and seen[1] <= 61


def test_limit_bound_counts_open_subtrees():
    # the unlimited solve proves the optimum is 9, so no valid bound exceeds
    # it, although the incumbent at the limit is 12
    res = solve(x3c_system(3, 8, 4), SolveLimits(node_limit=8))
    assert (res.status, res.objective) == ("limit_reached", 12)
    assert res.bound is not None and res.bound <= 9


def test_a_child_whose_parent_bound_meets_the_incumbent_runs_no_lp(monkeypatch):
    # 2 b0 + 2 b1 >= 1 at cost b0 + b1: the root LP bound is 1/2, rounded up
    # to 1, and one variable is at 1/2.  Its child at 0 propagates the other
    # to 1, a leaf of cost 1, so its sibling at 1 is pruned by the root's
    # bound before propagation and before an LP
    sys = ConstraintSystem()
    for ai in range(2):
        sys.add_var(VarMeaning("expand", arc_index=ai), f"b{ai}")
        sys.objective.append((ai, 1))
    sys.rows.append(LinearRow([(0, 2), (1, 2)], ">=", 1, "cover"))
    linprog, fixed = solver_bb._linprog, []

    def record(model, lb, ub):
        fixed.append(sum(int(lo) for lo in lb) + sum(int(up == 0) for up in ub))
        return linprog(model, lb, ub)

    monkeypatch.setattr(solver_bb, "_linprog", record)
    res = solve(sys)
    assert (res.status, res.objective) == ("optimal", 1)
    # the root LP fixes nothing and the first child's fixes both variables
    assert (res.stats["nodes"], res.stats["lp_calls"], fixed) == (2, 2, [0, 2])


def test_time_limit_overruns_by_at_most_one_lp(monkeypatch):
    # each LP takes 0.05 s; the clock is read before every node and HiGHS
    # gets the time left, so the solve stops within one LP of the limit
    linprog = solver_bb._linprog

    def slow(model, lb, ub):
        time.sleep(0.05)
        return linprog(model, lb, ub)

    monkeypatch.setattr(solver_bb, "_linprog", slow)
    start = time.monotonic()
    res = solve(x3c_system(3, 8, 4), SolveLimits(time_limit=0.1))
    elapsed = time.monotonic() - start
    assert res.status == "limit_reached"
    assert elapsed <= 0.1 + 0.05 + 0.1
    assert res.bound is not None and res.bound <= 9  # the unlimited optimum


@pytest.mark.parametrize("node_limit", range(2, 6))
@pytest.mark.parametrize("q, subsets, seed, root", [(3, 8, 4, 9), (2, 6, 1, 6)])
def test_limit_bound_keeps_the_root_bound_after_lp_time_outs(monkeypatch, q, subsets, seed,
                                                             root, node_limit):
    # only the root LP answers; every later one ends as on a HiGHS time-out,
    # and the nodes it leaves open keep the bound their parents proved
    system = x3c_system(q, subsets, seed)
    assert solve(system, SolveLimits(node_limit=1)).bound == root
    linprog, calls = solver_bb._linprog, []

    def root_only(model, lb, ub):
        calls.append(None)
        return linprog(model, lb, ub) if len(calls) == 1 else solver_bb._LPResult(4, None, None)

    monkeypatch.setattr(solver_bb, "_linprog", root_only)
    res = solve(system, SolveLimits(node_limit=node_limit))
    assert res.status == "limit_reached" and res.bound == root


@pytest.mark.parametrize("q, subsets, seed", [(3, 8, 4), (2, 6, 1), (3, 7, 2), (4, 9, 5)])
def test_float_mip_agrees_on_x3c(q, subsets, seed):
    system = x3c_system(q, subsets, seed)
    res = solve(system)
    want = float_mip_objective(system)
    if res.status == "infeasible":
        assert want is None
    else:
        assert res.status == "optimal" and abs(want - res.objective) <= 1e-6


@pytest.mark.parametrize("q, subsets, seed", [(2, 6, 1), (2, 5, 3), (3, 7, 2)])
def test_limit_bound_never_exceeds_optimum(q, subsets, seed):
    system = x3c_system(q, subsets, seed)
    full = solve(system)
    assert full.status == "optimal"
    for node_limit in range(1, 21):
        res = solve(system, SolveLimits(node_limit=node_limit))
        # a limit at or past the full search's node count does not bind
        want = "limit_reached" if node_limit < full.stats["nodes"] else "optimal"
        assert res.status == want
        assert res.bound is not None and res.bound <= full.objective


def test_objective_includes_constant_shift():
    # optional train on a dead arc: only choice is to pay the penalty
    inst = line_instance(c=0, ce=0, k=0, n_trains=0, horizon=1, dwell=False)
    trains = (mk_train("O", "A", "B", 0, 1, optional=True, penalty="7/2"),)
    inst = Instance(network=inst.network, horizon=1, trains=trains,
                    capacity_window=1, allow_dwell=False)
    res = solve(milp.build(inst))
    assert res.status == "optimal" and res.objective == Fraction(7, 2)
    sol = extract_solution(inst, res)
    assert sol.penalty_total == Fraction(7, 2) and "O" not in sol.routes


def test_fractional_costs_stay_exact():
    inst = line_instance(c=0, ce=1, k="1/3", n_trains=1, horizon=1, dwell=False)
    res = solve(milp.build(inst))
    assert res.objective == Fraction(1, 3)


def test_le_rows():
    sys = ConstraintSystem()
    for i in range(2):
        sys.add_var(VarMeaning("expand", arc_index=i), f"b{i}")
    sys.rows.append(LinearRow([(0, Fraction(1, 2)), (1, Fraction(1, 3))],
                              "<=", Fraction(5, 6), "r1"))
    sys.rows.append(LinearRow([(0, 1)], "=", 1, "r2"))
    rows = solver_bb.PropEngine([solver_bb.FREE] * 2, sys.rows).rows
    # the engine reads the rows in <= form, coefficients as built: Fractions
    # are not scaled to integers
    assert ([0, 1], [Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6)) == rows[0]
    assert {type(c) for c in rows[0][1]} == {Fraction}
    assert ([0], [1], 1) == rows[1]  # = splits into <= and >=
    assert ([0], [-1], -1) == rows[2]
    assert len(rows) == 3


def test_duplicate_variable_is_rejected_before_highs_sees_the_rows(monkeypatch):
    sys = ConstraintSystem()
    sys.add_var(VarMeaning("expand", arc_index=0), "b0")
    sys.rows.append(LinearRow([(0, 1), (0, 1)], "<=", 1, "dup"))
    highs = solver_bb._highs

    class NoModel:
        def __getattr__(self, name):
            assert name != "_Highs", "HiGHS saw the rows"
            return getattr(highs, name)

    monkeypatch.setattr(solver_bb, "_highs", NoModel())
    with pytest.raises(ValueError, match="duplicate variable in row dup"):
        solve(sys)


def no_row_system():
    sys = ConstraintSystem()
    for i, cost in enumerate((3, -2, 0, Fraction(-1, 2))):
        sys.add_var(VarMeaning("expand", arc_index=i), f"b{i}")
        sys.objective.append((i, cost))
    return sys


def test_no_rows(bound_mode):
    res = solve(no_row_system())
    assert res.status == "optimal" and res.objective == Fraction(-5, 2)
    assert res.stats["lp_calls"] > 0


def scenario_corridor():
    """``corridor_instance`` with one optional train and three overlapping
    scenarios."""
    inst = corridor_instance(5, 4, 8)
    trains = list(inst.trains)
    trains[3] = dataclasses.replace(trains[3], optional=True, penalty=Fraction(5))
    ids = [t.id for t in trains]
    return dataclasses.replace(inst, trains=tuple(trains), scenarios=(
        Scenario("S1", tuple(ids[:6])), Scenario("S2", tuple(ids[2:])),
        Scenario("S3", tuple(ids[::2]))))


# The root LP is the one cold solve; HiGHS runs it without presolve, so an
# infeasible root (the unplanted x3c systems) is found by dual simplex.
@pytest.mark.parametrize("system, root", [
    (x3c_system(3, 8, 4), 0),
    (milp.build(two_arc_line(3, 4, headway=1)), 0),
    (no_row_system(), 0),
    (x3c_system(2, 3, 2, planted=False), 2),
    (x3c_system(3, 4, 1, planted=False), 2),
    (milp.build(scenario_corridor()), 0),
], ids=["x3c", "line", "no-rows", "x3c-unplanted-2-3", "x3c-unplanted-3-4",
        "scenario-corridor"])
def test_persistent_lp_matches_linprog(system, root):
    n = len(system.variables)
    cost = np.zeros(n)
    for v, c in system.objective:
        cost[v] += float(c)
    ub_rows, eq_rows = [], []
    for row in system.rows:
        dense = np.zeros(n)
        for v, c in row.terms:
            dense[v] = float(c)
        if row.sense == "=":
            eq_rows.append((dense, float(row.rhs)))
        else:
            sgn = 1.0 if row.sense == "<=" else -1.0
            ub_rows.append((sgn * dense, sgn * float(row.rhs)))
    A_ub = np.array([a for a, _ in ub_rows]) if ub_rows else None
    b_ub = np.array([b for _, b in ub_rows]) if ub_rows else None
    A_eq = np.array([a for a, _ in eq_rows]) if eq_rows else None
    b_eq = np.array([b for _, b in eq_rows]) if eq_rows else None

    constraints = ([optimize.LinearConstraint(A_ub, -np.inf, b_ub)] if ub_rows else []) \
        + ([optimize.LinearConstraint(A_eq, b_eq, b_eq)] if eq_rows else [])
    # a 0-1 point from HiGHS MIP, if there is one: fixings taken from it stay
    # feasible
    point = optimize.milp(cost, integrality=np.ones(n), constraints=constraints,
                          bounds=optimize.Bounds(0, 1)).x
    model = solver_bb._lp_model(system.rows, n, cost)

    def agree(lb, ub):
        got = solver_bb._linprog(model, lb, ub)
        want = optimize.linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                bounds=np.column_stack([lb, ub]), method="highs")
        assert got.status == want.status
        if want.status == 0:
            assert abs(got.fun - want.fun) <= 1e-7 * (1 + abs(want.fun))
        return want.status

    statuses = [agree(np.zeros(n), np.ones(n))]  # the root, the one cold solve
    rng = random.Random(11)
    for step in range(24):
        lb, ub = np.zeros(n), np.ones(n)
        for v in range(n):
            if rng.random() < 0.3:
                # even steps follow the feasible point, odd ones fix at random
                val = point[v].round() if step % 2 == 0 and point is not None \
                    else rng.randint(0, 1)
                lb[v] = ub[v] = val
        statuses.append(agree(lb, ub))
    assert statuses[0] == root and (root == 2) == (point is None)
    if root == 0:
        assert statuses[1] == 0  # fixings from the feasible point
        if system.rows:
            # warm starts right after an infeasible LP were exercised
            assert any(a == 2 and b == 0 for a, b in zip(statuses, statuses[1:]))


@pytest.mark.parametrize("system", [x3c_system(2, 3, 2, planted=False),
                                    x3c_system(3, 4, 1, planted=False),
                                    # a mandatory train with no walk: 0 = 1
                                    milp.build(load_instance(DATA / "no_walk.json"))],
                         ids=["x3c-unplanted-2-3", "x3c-unplanted-3-4", "no-walk"])
def test_infeasible_root_lp_builds_no_engine(monkeypatch, system):
    def no_engine(*args):
        raise AssertionError("PropEngine built")

    monkeypatch.setattr(solver_bb, "PropEngine", no_engine)
    res = solve(system)
    assert res.status == "infeasible"
    assert (res.stats["nodes"], res.stats["lp_calls"]) == (1, 1)


@pytest.mark.parametrize("seed", range(10))
def test_root_lp_that_closes_the_solve_builds_no_engine(monkeypatch, seed):
    # the force rows make each corridor's root LP vertex the 0-1 optimum:
    # the exact gate accepts it and the search never branches
    def no_engine(*args):
        raise AssertionError("PropEngine built")

    monkeypatch.setattr(solver_bb, "PropEngine", no_engine)
    res = solve(milp.build(corridor_instance(seed, 3, 5)))
    assert res.status == "optimal" and res.stats["nodes"] == 1


def test_an_lp_vertex_within_tolerance_is_checked_exactly(bound_mode):
    # x = (1, 1) breaks 10**9 x0 + 10**9 x1 <= 2*10**9 - 1 by 1, inside
    # HiGHS's feasibility tolerance; a float MIP would answer -2
    sys = ConstraintSystem()
    for i in range(2):
        sys.add_var(VarMeaning("expand", arc_index=i), f"b{i}")
        sys.objective.append((i, -1))
    sys.rows.append(LinearRow([(0, 10**9), (1, 10**9)], "<=", 2 * 10**9 - 1, "big"))
    res = solve(sys)
    assert (res.status, res.objective, res.bound) == ("optimal", -1, -1)


def _one_column_lower_bounds(monkeypatch, coef):
    """Solve ``coef * x0 >= 1`` with cost 1; the answer and the lower column
    bounds of every LP call."""
    sys = ConstraintSystem()
    sys.add_var(VarMeaning("expand", arc_index=0), "b0")
    sys.objective.append((0, 1))
    sys.rows.append(LinearRow([(0, coef)], ">=", 1, "force"))
    linprog, lower = solver_bb._linprog, []

    def record(model, lb, ub):
        lower.append(lb.tolist())
        return linprog(model, lb, ub)

    monkeypatch.setattr(solver_bb, "_linprog", record)
    res = solve(sys)
    return (res.status, res.objective, res.stats["nodes"], res.stats["lp_calls"]), lower


def test_root_keeps_its_lp_point_when_propagation_agrees(monkeypatch):
    # x0 >= 1: the root LP point x0 = 1 passes the exact gate, and the solve
    # ends at the root without propagating.  2 x0 >= 1: the LP point is
    # x0 = 1/2, so the root branches on x0 before propagation runs; the
    # engine, built for the branch, fixes x0 = 1, refutes the child x0 = 0
    # without an LP, and the child x0 = 1 re-solves under that fixing.
    assert _one_column_lower_bounds(monkeypatch, 1) == (("optimal", 1, 1, 1), [[0.0]])
    assert _one_column_lower_bounds(monkeypatch, 2) == (("optimal", 1, 2, 2), [[0.0], [1.0]])


def test_lp_model_rejects_what_highs_cannot_read():
    # HiGHS reads the arrays as they are: a cost vector of the wrong length
    # never reaches it, and a column index out of range is an error
    with pytest.raises(ValueError, match="cost has shape"):
        solver_bb._lp_model([], 2, np.zeros(3))
    with pytest.raises(RuntimeError, match="rejected"):
        solver_bb._lp_model([LinearRow([(5, 1)], "<=", 1, "r")], 2, np.zeros(2))


def test_lp_model_holds_the_rows_as_a_row_by_row_reading_does():
    # the rows are flattened in one pass; read one row at a time instead,
    # the first row that lists a variable twice is the one named, and
    # otherwise HiGHS holds each row's coefficients and bounds, an empty
    # row's too
    rng = random.Random(19)
    inf = solver_bb._highs.kHighsInf
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [LinearRow([(rng.randrange(n), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                           for _ in range(rng.randint(0, 4))],
                          rng.choice(["<=", ">=", "="]), Fraction(rng.randint(-4, 4), 2), f"r{r}")
                for r in range(rng.randint(0, 5))]
        repeats = [row.name for row in rows if len({v for v, _ in row.terms}) < len(row.terms)]
        if repeats:
            with pytest.raises(ValueError, match=f"duplicate variable in row {repeats[0]}$"):
                solver_bb._lp_model(rows, n, np.zeros(n))
            continue
        lp = solver_bb._lp_model(rows, n, np.zeros(n)).getLp()
        a = lp.a_matrix_
        dense = np.zeros((lp.num_row_, lp.num_col_))
        for outer in range(len(a.start_) - 1):
            for k in range(a.start_[outer], a.start_[outer + 1]):
                if a.format_ == solver_bb._highs.MatrixFormat.kColwise:
                    dense[a.index_[k], outer] = a.value_[k]
                else:
                    dense[outer, a.index_[k]] = a.value_[k]
        want = np.zeros((len(rows), n))
        for r, row in enumerate(rows):
            for v, c in row.terms:
                want[r, v] = float(c)
        assert (dense == want).all()
        assert list(lp.row_lower_) == [-inf if row.sense == "<=" else float(row.rhs)
                                       for row in rows]
        assert list(lp.row_upper_) == [inf if row.sense == ">=" else float(row.rhs)
                                       for row in rows]


def test_highs_loads_without_scipy_optimize():
    out = run_fresh("import sys\n"
                    "from raildesign import solver_bb\n"
                    "print(hasattr(solver_bb._highs, '_Highs'),"
                    " 'scipy.optimize' in sys.modules,"
                    " 'scipy.linalg' in sys.modules)")
    assert out.split() == ["True", "False", "False"]


def test_highs_solves_after_scipy_optimize_was_imported():
    out = run_fresh("import scipy.optimize\n"
                    "from raildesign import milp, reduction, solver_bb\n"
                    "inst, _ = reduction.x3c_to_instance(reduction.gen_random_x3c(3, 8, 4))\n"
                    "res = solver_bb.solve(milp.build(inst))\n"
                    "print(res.status, res.objective, res.stats['lp_calls'] > 0)")
    assert out.split() == ["optimal", "9", "True"]


def test_highs_falls_back_to_the_package_import(monkeypatch):
    from scipy.optimize._highspy import _core as core
    calls = []

    def no_file(name, path=None, target=None):
        calls.append(name)
        return None

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_file)
    assert solver_bb._load_highs() is core and hasattr(core, "_Highs")
    assert calls == [solver_bb._HIGHS_MODULE]


def test_most_fractional_matches_loop():
    rng = random.Random(3)
    pool = (0.0, 1.0, 0.5, 0.25, 0.75, 1e-7, 1 - 1e-7, 2e-6)
    for _ in range(500):
        n = rng.randint(1, 12)
        x = [rng.choice(pool + (rng.random(),)) for _ in range(n)]
        design = [rng.random() < 0.4 for _ in range(n)]  # may hold no design entry
        if rng.random() < 0.3:  # a design whose every entry is integral
            x = [float(rng.randint(0, 1)) if d else xu for xu, d in zip(x, design)]
        # reference: the per-variable loop the solver ran before, and the
        # most fractional design entry, which wins if it is fractional;
        # ties go to the first
        v, score, integral = -1, -1.0, True
        dv, dscore = -1, -1.0
        for u, xu in enumerate(x):
            if abs(xu - round(xu)) > 1e-6:
                integral = False
                if design[u] and -abs(xu - 0.5) > dscore:
                    dv, dscore = u, -abs(xu - 0.5)
            if -abs(xu - 0.5) > score:
                v, score = u, -abs(xu - 0.5)
        assert solver_bb._branch_position(np.array(x), np.array(design, dtype=bool)) \
            == (dv if dv >= 0 else v, integral)


@pytest.mark.parametrize("seed", range(10))
def test_design_first_branching_on_corridors(monkeypatch, seed):
    # once the expansions are fixed only routing is left; branching on a
    # fractional expansion first settles these in a handful of nodes
    # (branching on any most fractional variable took 23 to 44)
    system = milp.build(corridor_instance(seed, 3, 5))
    res = solve(system)
    assert res.status == "optimal" and res.stats["lp_calls"] > 0
    assert res.stats["nodes"] <= 7
    assert abs(float_mip_objective(system) - res.objective) <= 1e-6
    no_lp_answer(monkeypatch)
    assert solve(system).objective == res.objective


@pytest.mark.parametrize("seed", range(1, 6))
def test_unit_capacity_x3c_lists_only_arcs_that_expansion_widens(seed):
    # the unit arcs carry capacity 1 and no expansion: their b is in no row
    # and costs nothing, so it sits at 1, and the solution leaves it out
    x3c = reduction.gen_random_x3c(2, 5, seed, planted=True)
    inst, threshold = reduction.x3c_to_instance(x3c, unit_capacity_encoding=True)
    res = solve(milp.build(inst))
    sol = extract_solution(inst, res)
    widened = {a.key for a in inst.network.arcs if a.expandable_capacity}
    assert sol.expanded_arcs and set(sol.expanded_arcs) <= widened
    default = reduction.x3c_to_instance(x3c)[0]
    assert res.objective == sol.objective_value == solve(milp.build(default)).objective
    assert sol.objective_value == threshold
    assert verify(inst, sol) == []


def test_extract_decodes_routes_in_order():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 2, 1, 0, 0)])
    inst = Instance(network=net, horizon=4,
                    trains=(mk_train("T", "A", "C", 0, 4),), capacity_window=1)
    res = solve(milp.build(inst))
    sol = extract_solution(inst, res)
    steps = sol.routes["T"]
    assert [(s.frm, s.to) for s in steps] == [("A", "B"), ("B", "C")]
    assert steps[0].depart + 1 <= steps[1].depart


@pytest.mark.parametrize("inst, steps, detail", [
    # train T0 loses its route
    (line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False), [],
     "non-optional train T0 has no route"),
    # T0 runs A->B twice
    (line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False), [(0, 0), (0, 1)],
     "train T0: step A->B does not continue the walk"),
    # T0 leaves B at 1, before it arrives there at 2
    (two_arc_line(1, horizon=3, dwell=False), [(0, 1), (1, 1)],
     "train T0: departs B at 1 before arriving at 2"),
    # T0 waits at B from 1 to 2 although dwell is off
    (two_arc_line(1, horizon=3, dwell=False), [(0, 0), (1, 2)],
     "train T0: dwells at B although dwell is disabled"),
    # T0 stops at B
    (two_arc_line(1, horizon=3, dwell=False), [(0, 0)],
     "train T0: route ends at B, not the destination"),
], ids=["no-route", "second-walk", "departs-before-arrival", "dwells", "stops-short"])
def test_extract_fails_loudly_on_garbage_incumbent(inst, steps, detail):
    # the decoder reads back any incumbent as it is, and verify rejects it
    system = milp.build(inst)
    res = solve(system)
    bad = list(res.incumbent)
    for vid, m in enumerate(system.variables):
        if m.kind == "route":
            bad[vid] = int((m.arc_index, m.t) in steps)
    sol = extract_solution(inst, solver_bb.SolveResult("optimal", bad, res.objective,
                                                       res.bound, {}, system))
    assert [(s.frm, s.to, s.depart) for s in sol.routes.get("T0", ())] == [
        (*inst.network.arcs[ai].key, t) for ai, t in steps]
    assert [(v.family, v.detail) for v in verify(inst, sol)] == [("flow", detail)]


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def random_systems(draw):
    """Up to 6 variables, rational costs and rows of every sense."""
    sys = ConstraintSystem()
    n = draw(st.integers(1, 6))
    for v in range(n):
        sys.add_var(VarMeaning(draw(st.sampled_from(["expand", "route"])), arc_index=v),
                    f"x{v}")
        sys.objective.append((v, draw(RATIONALS)))
    sys.objective_constant = draw(RATIONALS)
    for r in range(draw(st.integers(0, 5))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        sys.rows.append(LinearRow([(v, draw(RATIONALS)) for v in cols],
                                  draw(st.sampled_from(["<=", ">=", "="])),
                                  draw(RATIONALS), f"r{r}"))
    return sys


POSITIVE = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@st.composite
def fractional_systems(draw):
    """Cover rows (>=) under positive costs, or packing rows (<=) under
    negative ones, each with positive coefficients and a right-hand side
    strictly between 0 and their sum: x = 1, or x = 0, is feasible, and the
    root LP is seldom whole."""
    cover = draw(st.booleans())
    sys = ConstraintSystem()
    n = draw(st.integers(2, 6))
    for v in range(n):
        sys.add_var(VarMeaning(draw(st.sampled_from(["expand", "route"])), arc_index=v),
                    f"x{v}")
        cost = draw(POSITIVE)
        sys.objective.append((v, cost if cover else -cost))
    sys.objective_constant = draw(RATIONALS)
    for r in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        terms = [(v, draw(POSITIVE)) for v in cols]
        share = draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8),
                                  max_denominator=8))
        sys.rows.append(LinearRow(terms, ">=" if cover else "<=",
                                  share * sum(c for _v, c in terms), f"r{r}"))
    return sys


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(random_systems())
def test_matches_enumeration_on_random_rational_systems(bound_mode, system):
    res = solve(system)
    assert (res.status, res.objective) == enumerate_system(system)


def units_of(value, system):
    """``value`` less the objective's constant, in units of 1/d for d the least
    common denominator of the costs."""
    d = math.lcm(1, *(Fraction(c).denominator for _v, c in system.objective))
    return (value - system.objective_constant) * d


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fractional_systems(), st.integers(1, 3))
def test_a_limit_bound_is_a_whole_number_of_units_below_the_optimum(bound_mode, system,
                                                                    limit):
    res = solve(system, SolveLimits(node_limit=limit))
    status, optimum = enumerate_system(system)
    if res.status == "limit_reached":
        assert status == "infeasible" or res.bound <= optimum
        assert res.objective is None or res.objective >= optimum
    else:
        assert (res.status, res.objective) == (status, optimum)
    if res.bound is not None:
        assert units_of(res.bound, system).denominator == 1
    if res.objective is not None:
        assert units_of(res.objective, system).denominator == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(random_systems(), RATIONALS, st.sampled_from([None, 1, 2, 3]))
def test_the_constant_shifts_only_the_reported_values(bound_mode, system, shift, limit):
    # the search counts without the constant: the same tree, the same LPs
    limits = SolveLimits(node_limit=limit)
    before = solve(system, limits)
    system.objective_constant += shift
    after = solve(system, limits)
    assert (after.status, after.incumbent) == (before.status, before.incumbent)
    assert [after.stats[k] for k in ("nodes", "lp_calls")] \
        == [before.stats[k] for k in ("nodes", "lp_calls")]
    for was, now in ((before.objective, after.objective), (before.bound, after.bound)):
        assert now == (None if was is None else was + shift)


@settings(max_examples=60, deadline=None)
@given(random_systems(), st.data())
def test_dominated_columns_match_the_engine_rule(system, data):
    # the rule as the engine's watch lists state it: no positive coefficient
    # in <= form and a cost <= 0; the rows include an = and a >= row
    n = len(system.variables)
    for sense in ("=", ">="):
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                  unique=True))
        system.rows.append(LinearRow([(v, data.draw(RATIONALS)) for v in cols], sense,
                                     data.draw(RATIONALS), sense))
    cost = {}
    for v, c in system.objective:
        cost[v] = cost.get(v, 0) + c
    engine = solver_bb.PropEngine([solver_bb.FREE] * n, system.rows)
    want = [v for v, occurrences in enumerate(engine.watch)
            if cost.get(v, 0) <= 0 and all(c <= 0 for _r, c in occurrences)]
    assert solver_bb._dominated(system, cost) == want


def test_constant_row_contradiction():
    sys = ConstraintSystem()
    sys.add_var(VarMeaning("expand", arc_index=0), "b0")
    sys.rows.append(LinearRow([], "<=", -1, "never"))
    assert solve(sys).status == "infeasible"


# -- route semantics: a train never re-enters its origin or leaves its
# destination, so no flow can circulate through either


def test_optional_train_cannot_circulate_through_its_origin(bound_mode):
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "A", 1, 1, 0, 0),
                      ("B", "C", 1, 0, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("O", "A", "C", 0, 3, optional=True, penalty=5),),
                    capacity_window=1, allow_dwell=False)
    res = solve(milp.build(inst))
    assert (res.status, res.objective) == ("optimal", 5)
    assert extract_solution(inst, res).routes == {}


def test_train_cannot_circulate_through_its_terminals(bound_mode):
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "A", 1, 1, 0, 0),
                      ("C", "D", 1, 1, 0, 0), ("D", "C", 1, 1, 0, 0),
                      ("B", "D", 1, 0, 1, 10)])
    inst = Instance(network=net, horizon=4, trains=(mk_train("T", "A", "C", 0, 4),),
                    capacity_window=1, allow_dwell=False)
    res = solve(milp.build(inst))
    assert (res.status, res.objective) == ("optimal", 10)
    sol = extract_solution(inst, res)
    assert [(s.frm, s.to) for s in sol.routes["T"]] == [("A", "B"), ("B", "D"), ("D", "C")]
    assert verify(inst, sol) == []


@pytest.mark.parametrize("dwell", [False, True])
def test_via_cannot_be_reached_by_returning_to_the_origin(bound_mode, dwell):
    net = mk_network([("A", "V", 1, 1, 0, 0), ("V", "A", 1, 1, 0, 0),
                      ("A", "C", 1, 1, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("T", "A", "C", 0, 3, via=["V"]),),
                    capacity_window=1, allow_dwell=dwell)
    assert solve(milp.build(inst)).status == "infeasible"
    back = Solution((), {"T": (RoutedStep("A", "V", 0), RoutedStep("V", "A", 1),
                               RoutedStep("A", "C", 2))},
                    Fraction(0), Fraction(0), Fraction(0))
    assert [v.family for v in verify(inst, back)] == ["flow"]


def test_via_nodes_are_met_by_one_walk(bound_mode):
    # each VIA node lies on its own walk from A to C, and no walk visits both
    net = mk_network([("A", "V", 1, 1, 0, 0), ("V", "C", 1, 1, 0, 0),
                      ("A", "W", 1, 1, 0, 0), ("W", "C", 1, 1, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("T", "A", "C", 0, 3, via=["V", "W"]),),
                    capacity_window=1, allow_dwell=False)
    assert solve(milp.build(inst)).status == "infeasible"


def test_matches_walk_oracle_on_random_instances(bound_mode, monkeypatch):
    engine, built = solver_bb.PropEngine, []
    monkeypatch.setattr(solver_bb, "PropEngine",
                        lambda *args: built.append(None) or engine(*args))
    rng = random.Random(3)
    statuses, refuted_by = set(), set()
    for _ in range(400):
        inst = random_walk_instance(rng)
        built.clear()
        res = solve(milp.build(inst))
        assert (res.status, res.objective) == walk_oracle(inst), inst
        if res.status == "optimal":
            assert verify(inst, extract_solution(inst, res)) == []
        else:
            # an infeasible root LP answers before the engine is built
            refuted_by.add("search" if built else "root LP")
        if bound_mode == "lp" and res.stats["nodes"] == 1:
            assert not built, inst  # a search that never branches
        assert res.stats["lp_calls"] == res.stats["nodes"], inst
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible"}
    # the root LP holds every row, so it refutes every infeasible draw;
    # without LP answers only propagation and search refute
    assert refuted_by == ({"root LP"} if bound_mode == "lp" else {"search"})
