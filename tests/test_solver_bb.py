import importlib.machinery
import itertools
import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from scipy import optimize

from helpers import (corridor_instance, enumerate_system, float_mip_objective,
                     line_instance, mk_network, mk_train, random_walk_instance,
                     run_fresh, two_arc_line, walk_oracle)
from raildesign import milp, reduction, solver_bb
from raildesign.milp import ConstraintSystem, LinearRow, VarMeaning
from raildesign.model import Instance, RoutedStep, Solution
from raildesign.solver_bb import (DecodeError, SolveLimits, extract_solution,
                                  solve)
from raildesign.verify import verify


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


def x3c_system(q, subsets, seed):
    inst, _threshold = reduction.x3c_to_instance(
        reduction.gen_random_x3c(q, subsets, seed))
    return milp.build(inst)


@pytest.mark.parametrize("node_limit", range(4))
def test_node_limit_counts_processed_nodes(bound_mode, node_limit):
    # the node that trips the limit is not processed, so it is not counted
    res = solve(x3c_system(3, 8, 4), SolveLimits(node_limit=node_limit))
    assert res.status == "limit_reached" and res.stats["nodes"] == node_limit


def test_limit_bound_counts_open_subtrees():
    # the unlimited solve proves the optimum is 9, so no valid bound exceeds it
    res = solve(x3c_system(3, 8, 4), SolveLimits(node_limit=10))
    assert res.status == "limit_reached"
    assert res.bound is not None and res.bound <= 9


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


def test_normalized_rows():
    sys = ConstraintSystem()
    for i in range(2):
        sys.add_var(VarMeaning("expand", arc_index=i), f"b{i}")
    sys.rows.append(LinearRow([(0, Fraction(1, 2)), (1, Fraction(1, 3))],
                              "<=", Fraction(5, 6), "r1"))
    sys.rows.append(LinearRow([(0, 1)], "=", 1, "r2"))
    rows = solver_bb._le_rows(solver_bb._integer_rows(sys))
    assert ([0, 1], [3, 2], 5) == tuple(rows[0])
    assert ([0], [1], 1) == tuple(rows[1])  # = splits into <= and >=
    assert ([0], [-1], -1) == tuple(rows[2])
    sys.rows.append(LinearRow([(0, 1), (0, 1)], "<=", 1, "dup"))
    with pytest.raises(ValueError, match="duplicate"):
        solver_bb._integer_rows(sys)


def test_integer_fast_path_matches_fractions():
    # reference: every row through Fraction and the lcm of its denominators
    system = x3c_system(3, 8, 4)
    want = []
    for row in system.rows:
        coefs = [Fraction(c) for _, c in row.terms]
        rhs = Fraction(row.rhs)
        denom = lcm(rhs.denominator, *(c.denominator for c in coefs))
        for m in {"<=": (1,), ">=": (-1,), "=": (1, -1)}[row.sense]:
            want.append(([v for v, _ in row.terms],
                         [m * int(c * denom) for c in coefs], m * int(rhs * denom)))
    assert solver_bb._le_rows(solver_bb._integer_rows(system)) == want


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


@pytest.mark.parametrize("system", [
    x3c_system(3, 8, 4),
    milp.build(two_arc_line(3, 4, headway=1)),
    no_row_system(),
], ids=["x3c", "line", "no-rows"])
def test_persistent_lp_matches_linprog(system):
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
    # a 0-1 point from HiGHS MIP: fixings taken from it stay feasible
    feasible = np.round(optimize.milp(cost, integrality=np.ones(n), constraints=constraints,
                                      bounds=optimize.Bounds(0, 1)).x)
    model = solver_bb._lp_model(solver_bb._integer_rows(system), n, cost)
    rng = random.Random(11)
    statuses = []
    for step in range(24):
        lb, ub = np.zeros(n), np.ones(n)
        for v in range(n):
            if rng.random() < 0.3:
                # even steps follow the feasible point, odd ones fix at random
                val = feasible[v] if step % 2 == 0 else rng.randint(0, 1)
                lb[v] = ub[v] = val
        got = solver_bb._linprog(model, lb, ub)
        want = optimize.linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                bounds=np.column_stack([lb, ub]), method="highs")
        status, fun = want.status, want.fun
        assert got.status == status
        if status == 0:
            assert abs(got.fun - fun) <= 1e-7 * (1 + abs(fun))
        statuses.append(status)
    assert statuses[0] == 0
    if system.rows:
        # warm starts right after an infeasible LP were exercised
        assert any(a == 2 and b == 0 for a, b in zip(statuses, statuses[1:]))


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
        assert solver_bb._most_fractional(np.array(x)) == (v, integral)
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


def test_extract_decodes_routes_in_order():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 2, 1, 0, 0)])
    inst = Instance(network=net, horizon=4,
                    trains=(mk_train("T", "A", "C", 0, 4),), capacity_window=1)
    res = solve(milp.build(inst))
    sol = extract_solution(inst, res)
    steps = sol.routes["T"]
    assert [(s.frm, s.to) for s in steps] == [("A", "B"), ("B", "C")]
    assert steps[0].depart + 1 <= steps[1].depart


@pytest.mark.parametrize("inst, steps, error", [
    # train T0 loses its route
    (line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False), [],
     "no active route"),
    # T0 runs A->B twice
    (line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False), [(0, 0), (0, 1)],
     "off its walk"),
    # T0 leaves B at 1, before it arrives there at 2
    (two_arc_line(1, horizon=3, dwell=False), [(0, 1), (1, 1)],
     "not a contiguous walk"),
    # T0 waits at B from 1 to 2 although dwell is off
    (two_arc_line(1, horizon=3, dwell=False), [(0, 0), (1, 2)], "dwells"),
    # T0 stops at B
    (two_arc_line(1, horizon=3, dwell=False), [(0, 0)], "does not reach C"),
], ids=["no-route", "second-walk", "departs-before-arrival", "dwells", "stops-short"])
def test_extract_fails_loudly_on_garbage_incumbent(inst, steps, error):
    system = milp.build(inst)
    res = solve(system)
    bad = dict(res.incumbent)
    for vid, m in enumerate(system.variables):
        if m.kind == "route":
            bad[vid] = int((m.arc_index, m.t) in steps)
    with pytest.raises(DecodeError, match=error):
        extract_solution(inst, solver_bb.SolveResult("optimal", bad,
                                                     res.objective, res.bound,
                                                     {}, system))


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
    back = Solution((), {"T": (RoutedStep("T", "A", "V", 0), RoutedStep("T", "V", "A", 1),
                               RoutedStep("T", "A", "C", 2))},
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


def test_matches_walk_oracle_on_random_instances(bound_mode):
    rng = random.Random(3)
    statuses = set()
    for _ in range(400):
        inst = random_walk_instance(rng)
        res = solve(milp.build(inst))
        assert (res.status, res.objective) == walk_oracle(inst), inst
        if res.status == "optimal":
            assert verify(inst, extract_solution(inst, res)) == []
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible"}
