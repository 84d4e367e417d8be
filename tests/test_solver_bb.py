import itertools
import random
from fractions import Fraction

import pytest

from helpers import enumerate_system, line_instance, mk_network, mk_train
from raildesign import milp, reduction, solver_bb
from raildesign.milp import ConstraintSystem, LinearRow, VarMeaning
from raildesign.model import Instance
from raildesign.solver_bb import (DecodeError, SolveLimits, extract_solution,
                                  solve)


@pytest.fixture(params=["lp", "fallback"])
def bound_mode(request, monkeypatch):
    """Exercise both the relaxation bound and the trivial-bound fallback."""
    if request.param == "lp":
        monkeypatch.setattr(solver_bb, "_LP_MIN_VARS", 0)
    else:
        monkeypatch.setattr(solver_bb, "_HAVE_LP", False)
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
    assert (res.stats["lp_calls"] > 0) == (bound_mode == "lp")
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


def test_limit_bound_counts_open_subtrees():
    # the unlimited solve proves the optimum is 9, so no valid bound exceeds it
    res = solve(x3c_system(3, 8, 4), SolveLimits(node_limit=10))
    assert res.status == "limit_reached"
    assert res.bound is not None and res.bound <= 9


@pytest.mark.parametrize("q, subsets, seed", [(2, 6, 1), (2, 5, 3), (3, 7, 2)])
def test_limit_bound_never_exceeds_optimum(q, subsets, seed):
    system = x3c_system(q, subsets, seed)
    full = solve(system)
    assert full.status == "optimal"
    for node_limit in range(1, 21):
        res = solve(system, SolveLimits(node_limit=node_limit))
        assert res.status == "limit_reached"
        assert res.bound is not None and res.bound <= full.objective


def test_absolute_gap():
    inst = line_instance(c=0, ce=2, k=5, n_trains=2, horizon=1, window=1,
                         dwell=False)
    res = solve(milp.build(inst), SolveLimits(absolute_gap=Fraction(10)))
    assert res.status == "optimal"
    assert res.objective - res.bound <= 10


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
        sys.add_var(VarMeaning("expand", arc_index=i), f"b{i}", ("expand", i))
    sys.rows.append(LinearRow([(0, Fraction(1, 2)), (1, Fraction(1, 3))],
                              "<=", Fraction(5, 6), "r1"))
    sys.rows.append(LinearRow([(0, 1)], "=", 1, "r2"))
    rows = solver_bb._normalized_rows(sys)
    assert ([0, 1], [3, 2], 5) == tuple(rows[0])
    assert ([0], [1], 1) == tuple(rows[1])  # = splits into <= and >=
    assert ([0], [-1], -1) == tuple(rows[2])
    sys.rows.append(LinearRow([(0, 1), (0, 1)], "<=", 1, "dup"))
    with pytest.raises(ValueError, match="duplicate"):
        solver_bb._normalized_rows(sys)


def test_extract_decodes_routes_in_order():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 2, 1, 0, 0)])
    inst = Instance(network=net, horizon=4,
                    trains=(mk_train("T", "A", "C", 0, 4),), capacity_window=1)
    res = solve(milp.build(inst))
    sol = extract_solution(inst, res)
    steps = sol.routes["T"]
    assert [(s.frm, s.to) for s in steps] == [("A", "B"), ("B", "C")]
    assert steps[0].depart + 1 <= steps[1].depart


def test_extract_fails_loudly_on_garbage_incumbent():
    inst = line_instance(c=1, ce=0, k=0, n_trains=1, horizon=2, dwell=False)
    system = milp.build(inst)
    res = solve(system)
    bad = dict(res.incumbent)
    for vid, m in enumerate(system.variables):
        if m.kind == "route":
            bad[vid] = 0  # train T0 loses its route
    with pytest.raises(DecodeError):
        extract_solution(inst, solver_bb.SolveResult("optimal", bad,
                                                     res.objective, res.bound,
                                                     {}, system))


def test_constant_row_contradiction():
    sys = ConstraintSystem()
    sys.add_var(VarMeaning("expand", arc_index=0), "b0", ("expand", 0))
    sys.rows.append(LinearRow([], "<=", -1, "never"))
    assert solve(sys).status == "infeasible"
