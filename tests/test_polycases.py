import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (mk_network, mk_train, random_arborescence_instance,
                     random_sp_instance)
from raildesign import milp, polycases, solver_bb
from raildesign.model import (ConnectionRequirement, Instance, Scenario,
                              load_instance, validate_instance)
from raildesign.polycases import (INF, UnsupportedInstance, is_arborescence,
                                  solve_arborescence, solve_series_parallel,
                                  sp_cost_base, sp_cost_table, sp_decompose,
                                  sp_leaves)
from raildesign.verify import verify


# -- arborescences -----------------------------------------------------------


def test_is_arborescence_examples():
    star = mk_network([("R", "A", 1, 0, 0, 0), ("R", "B", 1, 0, 0, 0),
                       ("R", "C", 1, 0, 0, 0)])
    assert is_arborescence(star) == "R"
    path = mk_network([("A", "B", 1, 0, 0, 0), ("B", "C", 1, 0, 0, 0)])
    assert is_arborescence(path) == "A"
    cycle = mk_network([("A", "B", 1, 0, 0, 0), ("B", "A", 1, 0, 0, 0)])
    assert is_arborescence(cycle) is None
    dag = mk_network([("A", "B", 1, 0, 0, 0), ("A", "C", 1, 0, 0, 0),
                      ("B", "D", 1, 0, 0, 0), ("C", "D", 1, 0, 0, 0)])
    assert is_arborescence(dag) is None
    # disconnected side cycle
    disco = mk_network([("A", "B", 1, 0, 0, 0), ("C", "D", 1, 0, 0, 0),
                        ("D", "C", 1, 0, 0, 0)])
    assert is_arborescence(disco) is None


def path_instance(departures, window=1, horizon=None):
    net = mk_network([("A", "B", 1, 1, 1, 4), ("B", "C", 1, 1, 1, 4)])
    trains = tuple(mk_train(f"T{i}", "A", "C", dep, dep + 2)
                   for i, dep in enumerate(departures))
    horizon = horizon or max(departures) + 2
    return Instance(network=net, horizon=horizon, trains=trains,
                    capacity_window=window, allow_dwell=False)


def test_arborescence_simultaneous_trains_expand_both_arcs():
    sol = solve_arborescence(path_instance([0, 0]))
    assert sol is not None
    assert sol.objective_value == 8
    assert set(sol.expanded_arcs) == {("A", "B"), ("B", "C")}


def test_arborescence_staggered_trains_cost_zero():
    sol = solve_arborescence(path_instance([0, 1]))
    assert sol is not None and sol.objective_value == 0
    assert sol.expanded_arcs == ()


def test_arborescence_unreachable_is_infeasible():
    net = mk_network([("R", "A", 1, 1, 0, 0), ("R", "B", 1, 1, 0, 0)])
    inst = Instance(network=net, horizon=2,
                    trains=(mk_train("T", "A", "B", 0, 1),),
                    capacity_window=1, allow_dwell=False)
    assert solve_arborescence(inst) is None


def test_arborescence_capacity_exhausted_is_infeasible():
    inst = path_instance([0, 0, 0])  # three at once, c + ce = 2
    assert solve_arborescence(inst) is None


def test_arborescence_rejects_unsupported_shapes():
    inst = path_instance([0])
    slack = Instance(network=inst.network, horizon=4,
                     trains=(mk_train("T", "A", "C", 0, 4),),
                     capacity_window=1, allow_dwell=False)
    with pytest.raises(UnsupportedInstance, match="slack"):
        solve_arborescence(slack)
    dwelly = Instance(network=inst.network, horizon=2, trains=inst.trains,
                      capacity_window=1, allow_dwell=True)
    with pytest.raises(UnsupportedInstance, match="dwell"):
        solve_arborescence(dwelly)
    cyc = mk_network([("A", "B", 1, 1, 0, 0), ("B", "A", 1, 1, 0, 0)])
    with pytest.raises(UnsupportedInstance, match="arborescence"):
        solve_arborescence(Instance(network=cyc, horizon=1,
                                    trains=(mk_train("T", "A", "B", 0, 1),),
                                    capacity_window=1, allow_dwell=False))


def test_arborescence_declines_multi_arcs():
    # s->t twice is an arborescence by its arcs, but one copy of s->t cannot
    # carry both trains, so without the decline auto mode would report
    # "infeasible" for a file whose optimum is 8
    inst = load_instance(Path(__file__).parent / "data" / "sp_multi_arc.json")
    with pytest.raises(UnsupportedInstance, match="multi-arcs"):
        solve_arborescence(inst)
    assert solve_series_parallel(inst).objective_value == 8


def test_arborescence_respects_connections_and_via():
    net = mk_network([("R", "B", 1, 2, 0, 0), ("B", "C", 1, 2, 0, 0)])
    trains = (mk_train("F", "R", "B", 0, 1),
              mk_train("G", "B", "C", 2, 3))
    good = Instance(network=net, horizon=3, trains=trains,
                    connections=(ConnectionRequirement("B", "F", "G"),),
                    capacity_window=1, allow_dwell=False)
    assert solve_arborescence(good) is not None
    trains_bad = (mk_train("F", "R", "B", 2, 3),
                  mk_train("G", "B", "C", 0, 1))
    late = Instance(network=net, horizon=3, trains=trains_bad,
                    connections=(ConnectionRequirement("B", "F", "G"),),
                    capacity_window=1, allow_dwell=False)
    assert solve_arborescence(late) is None

    via_ok = Instance(network=net, horizon=2,
                      trains=(mk_train("T", "R", "C", 0, 2, via=["B"]),),
                      capacity_window=1, allow_dwell=False)
    assert solve_arborescence(via_ok) is not None


def test_arborescence_matches_full_model():
    rng = random.Random(123)
    agreed = 0
    for _ in range(40):
        inst = random_arborescence_instance(rng)
        assert validate_instance(inst).ok
        sol = solve_arborescence(inst)
        res = solver_bb.solve(milp.build(inst))
        if sol is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == sol.objective_value
        agreed += 1
    assert agreed == 40


# -- series-parallel ---------------------------------------------------------


def test_sp_decompose_single_arc():
    tree = sp_decompose(mk_network([("s", "t", 1, 1, 0, 0)]))
    assert tree is not None and tree.kind == "leaf"


def test_sp_decompose_parallel_multiplicity():
    tree = sp_decompose(mk_network([("s", "t", 1, 1, 0, 0, 2)]))
    assert tree is not None and tree.kind == "parallel"
    assert tree.left.kind == "leaf" and tree.right.kind == "leaf"


def test_sp_decompose_diamond():
    net = mk_network([("s", "a", 1, 0, 0, 0), ("a", "t", 1, 0, 0, 0),
                      ("s", "b", 1, 0, 0, 0), ("b", "t", 1, 0, 0, 0)])
    tree = sp_decompose(net)
    assert tree is not None and tree.kind == "parallel"
    assert (tree.source, tree.sink) == ("s", "t")


def test_sp_decompose_rejects_wheatstone_bridge():
    bridge = mk_network([("s", "a", 1, 0, 0, 0), ("s", "b", 1, 0, 0, 0),
                         ("a", "b", 1, 0, 0, 0), ("a", "t", 1, 0, 0, 0),
                         ("b", "t", 1, 0, 0, 0)])
    assert sp_decompose(bridge) is None


def test_sp_leaves_cover_arc_multiset():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_sp_instance(rng)
        tree = sp_decompose(inst.network)
        assert tree is not None
        want = []
        for a in inst.network.arcs:
            want += [a.key] * a.multiplicity
        got = [a.key for a in sp_leaves(tree)]
        assert sorted(got) == sorted(want)


def test_sp_cost_base_piecewise():
    arc = mk_network([("s", "t", 1, 2, 3, 5)]).arcs[0]
    assert sp_cost_base(arc, 0) == 0
    assert sp_cost_base(arc, 2) == 0
    assert sp_cost_base(arc, 3) == 5
    assert sp_cost_base(arc, 5) == 5  # boundary v = c + ce still expandable
    assert sp_cost_base(arc, 6) == INF
    with pytest.raises(ValueError):
        sp_cost_base(arc, -1)


def sp_instance(arcs, n_trains, horizon):
    net = mk_network(arcs)
    trains = tuple(mk_train(f"T{k}", "s", "t", 0, horizon)
                   for k in range(n_trains))
    return Instance(network=net, horizon=horizon, trains=trains,
                    capacity_window=horizon, allow_dwell=False)


def test_sp_table_series_splits():
    inst = sp_instance([("s", "m", 1, 2, 3, 5), ("m", "t", 1, 2, 3, 7)], 4, 2)
    tree = sp_decompose(inst.network)
    cost, split = sp_cost_table(tree, 4)
    # every train crosses both arcs, so the root is the sum of the base cases
    assert cost[id(tree)][4] == sp_cost_base(inst.network.arcs[0], 4) \
        + sp_cost_base(inst.network.arcs[1], 4) == 12
    assert id(tree) not in split  # only parallel nodes split the trains
    # not enough time for two arcs: the solver declines instead of answering
    short = sp_instance([("s", "m", 1, 2, 3, 5), ("m", "t", 1, 2, 3, 7)], 4, 1)
    with pytest.raises(UnsupportedInstance, match="longest path"):
        solve_series_parallel(short)


def test_sp_table_parallel_splits():
    # two parallel branches: a free c=3 line and an expandable one at cost 2
    inst = sp_instance([("s", "t", 1, 3, 0, 9),
                        ("s", "m", 1, 0, 3, 2), ("m", "t", 1, 3, 3, 0)], 5, 2)
    tree = sp_decompose(inst.network)
    cost, split = sp_cost_table(tree, 5)
    # 3 trains ride free, 2 go over the expandable branch at cost 2
    assert cost[id(tree)][5] == 2
    # the expandable branch takes up to 3 trains at the same cost; the tie
    # goes to the fewest trains on the free line (the left branch)
    assert tree.left.kind == "leaf" and split[id(tree)][5] == 2


def test_sp_table_zero_trains():
    inst = sp_instance([("s", "m", 1, 0, 0, 3), ("m", "t", 1, 0, 0, 3)], 0, 2)
    tree = sp_decompose(inst.network)
    cost, _ = sp_cost_table(tree, 0)
    assert cost[id(tree)] == [0]
    assert solve_series_parallel(inst).objective_value == 0


def test_sp_table_monotonicity():
    rng = random.Random(31)
    for _ in range(25):
        inst = random_sp_instance(rng, max_arcs=8, max_trains=5)
        tree = sp_decompose(inst.network)
        cost, _ = sp_cost_table(tree, len(inst.trains))
        for table in cost.values():
            assert all(a <= b for a, b in zip(table, table[1:]))


def sp_paths(tree):
    """All s-t paths as tuples of leaf nodes."""
    if tree.kind == "leaf":
        return [(tree,)]
    if tree.kind == "series":
        return [lp + rp for lp in sp_paths(tree.left) for rp in sp_paths(tree.right)]
    return sp_paths(tree.left) + sp_paths(tree.right)


def sp_brute_force(tree, n_trains, budget):
    """Minimum cost over all assignments of trains to time-feasible paths."""
    paths = [p for p in sp_paths(tree)
             if sum(leaf.arc.travel_time for leaf in p) <= budget]
    if n_trains == 0:
        return Fraction(0)
    if not paths:
        return INF
    best = INF
    for combo in itertools.combinations_with_replacement(range(len(paths)), n_trains):
        usage = {}
        for pi in combo:
            for leaf in paths[pi]:
                usage[id(leaf)] = (leaf, usage.get(id(leaf), (leaf, 0))[1] + 1)
        cost = Fraction(0)
        for leaf, count in usage.values():
            cost += sp_cost_base(leaf.arc, count)
            if cost == INF:
                break
        best = min(best, cost)
    return best


def test_sp_root_matches_brute_force():
    rng = random.Random(77)
    for _ in range(40):
        inst = random_sp_instance(rng, max_arcs=7, max_trains=4)
        tree = sp_decompose(inst.network)
        nv = len(inst.trains)
        cost, _ = sp_cost_table(tree, nv)
        assert cost[id(tree)][nv] == sp_brute_force(tree, nv, inst.horizon)


def test_sp_brute_force_with_multiplicity():
    net = mk_network([("s", "t", 1, 1, 1, 4, 2)])  # two identical parallel lines
    trains = tuple(mk_train(f"T{k}", "s", "t", 0, 1) for k in range(3))
    inst = Instance(network=net, horizon=1, trains=trains,
                    capacity_window=1, allow_dwell=False)
    tree = sp_decompose(net)
    cost, _ = sp_cost_table(tree, 3)
    # 3 trains over two c=1/ce=1 copies: expand one of them
    assert cost[id(tree)][3] == 4 == sp_brute_force(tree, 3, inst.horizon)
    sol = solve_series_parallel(inst)
    assert sol is not None and sol.objective_value == 4
    assert len(sol.routes) == 3


def test_sp_multi_arc_solutions_match_brute_force_and_verify():
    # random SP draws with some arcs doubled or tripled: the solver's answer
    # is the brute-force optimum, and its solution passes verify
    rng = random.Random(31)
    twice = 0
    for _ in range(60):
        inst = random_sp_instance(rng, max_arcs=5, max_trains=6)
        arcs = tuple(dataclasses.replace(a, multiplicity=rng.choice((1, 2, 3)))
                     for a in inst.network.arcs)
        inst = dataclasses.replace(inst, network=dataclasses.replace(inst.network, arcs=arcs))
        assert validate_instance(inst).ok
        sol = solve_series_parallel(inst)
        want = sp_brute_force(sp_decompose(inst.network), len(inst.trains), inst.horizon)
        assert (INF if sol is None else sol.objective_value) == want
        if sol is not None:
            assert verify(inst, sol) == [], inst
            twice += len(sol.expanded_arcs) > len(set(sol.expanded_arcs))
    assert twice >= 5  # draws whose solution expands two copies of an arc


def test_sp_solver_matches_full_model():
    rng = random.Random(2024)
    seen_infeasible = 0
    for _ in range(40):
        inst = random_sp_instance(rng, max_arcs=8, max_trains=4)
        assert validate_instance(inst).ok
        sol = solve_series_parallel(inst)
        res = solver_bb.solve(milp.build(inst))
        if sol is None:
            assert res.status == "infeasible"
            seen_infeasible += 1
        else:
            assert res.status == "optimal"
            assert res.objective == sol.objective_value
    assert seen_infeasible >= 1  # the sample must cover both verdicts


def series_blocks_instance(rng):
    """Two or three blocks in series, each a pair of parallel lines of 1-3
    and 2-3 unit arcs; all trains leave at 0, and the horizon is often too
    short for the longest path, so a train's path depends on time."""
    arcs, fresh = [], itertools.count()
    stops = ["s"] + [f"M{b}" for b in range(rng.randint(1, 2))] + ["t"]
    for u, v in zip(stops, stops[1:]):
        for shortest in (1, 2):  # never two direct u->v arcs
            chain = [u] + [f"X{next(fresh)}" for _ in range(rng.randint(shortest, 3) - 1)] + [v]
            arcs += [(a, b, 1, rng.randint(0, 1), rng.randint(0, 1), rng.randint(1, 5))
                     for a, b in zip(chain, chain[1:])]
    horizon = rng.randint(2, 7)
    trains = tuple(mk_train(f"T{k}", "s", "t", 0, horizon) for k in range(rng.randint(2, 4)))
    return Instance(network=mk_network(arcs), horizon=horizon, trains=trains,
                    capacity_window=horizon, allow_dwell=False)


def test_sp_series_blocks_decline_or_match_brute_force():
    # trains that split the time differently over two blocks (fast then
    # slow, slow then fast) can share no arc; the SP solver must decline
    # such instances rather than answer them wrongly
    rng = random.Random(7)
    accepted = declined = 0
    for _ in range(1500):
        inst = series_blocks_instance(rng)
        assert validate_instance(inst).ok
        want = sp_brute_force(sp_decompose(inst.network), len(inst.trains), inst.horizon)
        try:
            sol = solve_series_parallel(inst)
        except UnsupportedInstance:
            res = solver_bb.solve(milp.build(inst))
            assert res.status == ("infeasible" if want == INF else "optimal")
            assert res.stats["lp_calls"] == res.stats["nodes"]
            assert want == INF or res.objective == want
            declined += 1
            continue
        assert (INF if sol is None else sol.objective_value) == want
        accepted += 1
    assert accepted >= 100 and declined >= 100


def test_sp_solver_rejects_bridge_and_slack():
    bridge = mk_network([("s", "a", 1, 0, 0, 0), ("s", "b", 1, 0, 0, 0),
                         ("a", "b", 1, 0, 0, 0), ("a", "t", 1, 0, 0, 0),
                         ("b", "t", 1, 0, 0, 0)])
    inst = Instance(network=bridge, horizon=3,
                    trains=(mk_train("T", "s", "t", 0, 3),),
                    capacity_window=3, allow_dwell=False)
    with pytest.raises(UnsupportedInstance, match="series-parallel"):
        solve_series_parallel(inst)

    mixed = sp_instance([("s", "t", 1, 1, 0, 0)], 1, 2)
    bad_window = Instance(network=mixed.network, horizon=2, trains=mixed.trains,
                          capacity_window=1, allow_dwell=False)
    with pytest.raises(UnsupportedInstance, match="window"):
        solve_series_parallel(bad_window)


def test_sp_table_size_matches_dimensions():
    # sanity check on the DP's pseudo-polynomial footprint
    rng = random.Random(4)
    inst = random_sp_instance(rng, max_arcs=10, max_trains=5)
    tree = sp_decompose(inst.network)
    nv = len(inst.trains)
    cost, _ = sp_cost_table(tree, nv)
    nodes = []
    stack = [tree]
    while stack:
        n = stack.pop()
        nodes.append(n)
        if n.kind != "leaf":
            stack += [n.left, n.right]
    leaves = sum(1 for n in nodes if n.kind == "leaf")
    assert len(nodes) == 2 * leaves - 1
    for n in nodes:
        assert len(cost[id(n)]) == nv + 1
