import dataclasses
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (LpParseError, corridor_instance, line_instance, mk_network,
                     mk_train, parse_lp, parsed_signature, random_walk_instance,
                     rich_instance, system_signature, train_walks)
from raildesign import milp, reduction
from raildesign.model import (ConnectionRequirement, HeadwayTable, Instance,
                              Scenario, Solution, validate_instance)
from raildesign.verify import verify

DATA = Path(__file__).parent / "data"


# -- headway linearization ---------------------------------------------------


def test_headway_row_examples():
    row = milp.headway_row(3, 0, 1, 10, 11)
    assert [(10, 2), (11, 2)] == row.terms and row.sense == "<=" and row.rhs == 2
    assert milp.headway_row(1, 0, 1, 10, 11) is None  # slack exactly consumed
    assert milp.headway_row(2, 0, 5, 10, 11) is None  # separation exceeds M
    with pytest.raises(ValueError):
        milp.headway_row(2, 1, 1, 10, 11)


def test_headway_linearization_matches_quadratic():
    # satisfaction of the emitted row must equal x1*(M-(t2-t1))*x2 <= 0
    for M, t1, t2 in itertools.product(range(6), repeat=3):
        if t1 >= t2:
            continue
        row = milp.headway_row(M, t1, t2, 0, 1)
        for x1, x2 in itertools.product((0, 1), repeat=2):
            quad_ok = x1 * (M - (t2 - t1)) * x2 <= 0
            if row is None:
                row_ok = True
            else:
                row_ok = sum(c * (x1, x2)[v] for v, c in row.terms) <= row.rhs
            assert row_ok == quad_ok, (M, t1, t2, x1, x2)


# -- time expansion -----------------------------------------------------------


def test_expand_keeps_exactly_the_slots_of_some_walk():
    # a slot is kept iff some walk that verify accepts as the train's route
    # (structure, flow and windows; capacity and VIA aside) uses it
    rng = random.Random(4)
    own = {"structure", "flow", "departure", "arrival"}
    for _ in range(100):
        inst = random_walk_instance(rng)
        index = {a.key: ai for ai, a in enumerate(inst.network.arcs)}
        travel = {a.key: a.travel_time for a in inst.network.arcs}
        for train in inst.trains:
            alone = dataclasses.replace(inst, trains=(train,), connections=(),
                                        scenarios=())
            zero = Fraction(0)
            walks = [w for w in train_walks(inst, train)
                     if not own & {v.family for v in verify(
                         alone, Solution((), {train.id: w}, zero, zero, zero))}]
            movements, dwells = milp.expand(inst.network, inst.horizon, train,
                                            inst.allow_dwell)
            assert movements == {(index[(s.frm, s.to)], s.depart)
                                 for w in walks for s in w}
            assert dwells == {(s.frm, tau) for w in walks for prev, s in zip(w, w[1:])
                              for tau in range(prev.depart + travel[(prev.frm, prev.to)],
                                               s.depart)}


WINDOW_FIELDS = ("origin", "destination", "earliest_departure", "latest_arrival")


def window_shape(train, horizon):
    """What ``milp.build`` expands once: origin, destination and width."""
    return (train.origin, train.destination,
            min(train.latest_arrival, horizon) - train.earliest_departure)


def shared_window_draws(n=150):
    """``random_walk_instance`` networks whose 2-5 mandatory trains each copy
    the first drawn train and then redraw 0-2 of its window fields, move its
    window to another departure, or set its latest arrival past the horizon;
    so some trains share all four fields, some only part of them, and some
    only the origin, destination and window width."""
    rng = random.Random(15)
    while n:
        inst = random_walk_instance(rng)
        names = [node.id for node in inst.network.nodes]
        base = dataclasses.replace(inst.trains[0], optional=False, penalty=None,
                                   via_nodes=())
        trains = []
        for k in range(rng.randint(2, 5)):
            fields = {"origin": base.origin, "destination": base.destination,
                      "earliest_departure": base.earliest_departure,
                      "latest_arrival": base.latest_arrival}
            kind = rng.choice(("redraw", "redraw", "shift", "late"))
            if kind == "shift":
                width = window_shape(base, inst.horizon)[2]
                dep = rng.randint(0, inst.horizon - width)
                fields.update(earliest_departure=dep, latest_arrival=dep + width)
            elif kind == "late":
                fields["latest_arrival"] = inst.horizon + rng.randint(1, 3)
            else:
                for f in rng.sample(WINDOW_FIELDS, rng.randint(0, 2)):
                    if f in ("origin", "destination"):
                        fields[f] = rng.choice(names)
                    elif f == "earliest_departure":
                        fields[f] = rng.randint(0, 2)
                    else:
                        fields[f] = rng.randint(fields["earliest_departure"] + 1, inst.horizon)
            trains.append(dataclasses.replace(base, id=f"T{k}", **fields))
        inst = dataclasses.replace(inst, trains=tuple(trains), connections=(),
                                   scenarios=())
        if validate_instance(inst).ok:
            n -= 1
            yield inst


def test_trains_sharing_a_window_get_the_slots_of_their_own_expansion():
    # every train's variables are the slots ``expand`` gives it on its own,
    # whether build stamped them from a window it shares in full, from one
    # of the same shape at another departure, or from its own
    shared = {"all": 0, "part": 0, "shifted": 0, "late": 0}
    for inst in shared_window_draws():
        keys = [tuple(getattr(t, f) for f in WINDOW_FIELDS) for t in inst.trains]
        for (k1, t1), (k2, t2) in itertools.combinations(zip(keys, inst.trains), 2):
            same = sum(a == b for a, b in zip(k1, k2))
            shared["all"] += same == 4
            shared["part"] += 0 < same < 4
            shared["shifted"] += (window_shape(t1, inst.horizon) == window_shape(t2, inst.horizon)
                                  and t1.earliest_departure != t2.earliest_departure)
        shared["late"] += sum(t.latest_arrival > inst.horizon for t in inst.trains)
        system = milp.build(inst)
        for train in inst.trains:
            mine = [m for m in system.variables if m.train == train.id]
            assert ({(m.arc_index, m.t) for m in mine if m.kind == "route"},
                    {(m.node, m.t) for m in mine if m.kind == "dwell"}) == \
                milp.expand(inst.network, inst.horizon, train, inst.allow_dwell)
    assert all(shared.values()), shared


def expanded_trains(monkeypatch, inst):
    """The trains whose slots ``milp.build(inst)`` expands, in call order."""
    calls = []
    original = milp.expand

    def counted(net, horizon, train, allow_dwell):
        calls.append(train.id)
        return original(net, horizon, train, allow_dwell)

    monkeypatch.setattr(milp, "expand", counted)
    milp.build(inst)
    return calls


def test_one_expansion_per_distinct_train_window(monkeypatch):
    # x3c trains are 3q copies of one window; staggered corridor trains with
    # windows of one width share one expansion, moved to each departure,
    # and trains of that width from another origin get their own
    inst, _ = reduction.x3c_to_instance(reduction.gen_random_x3c(3, 5, 1))
    assert len(inst.trains) == 9 and expanded_trains(monkeypatch, inst) == ["T00"]
    corridor = corridor_instance(3, 4, 6)
    corridor = dataclasses.replace(corridor, trains=tuple(
        dataclasses.replace(t, earliest_departure=k, latest_arrival=k + 6)
        for k, t in enumerate(corridor.trains)), horizon=11)
    assert validate_instance(corridor).ok
    assert expanded_trains(monkeypatch, corridor) == ["T00"]
    corridor = dataclasses.replace(corridor, trains=corridor.trains + tuple(
        mk_train(f"U{k}", "S1", "S3", k, k + 6) for k in (0, 2)))
    assert validate_instance(corridor).ok
    assert expanded_trains(monkeypatch, corridor) == ["T00", "U0"]


# -- build: variables and objective ------------------------------------------


def names_by_family(system):
    fams = {}
    for row in system.rows:
        fams.setdefault(row.name.split("_")[0], []).append(row.name)
    return fams


def test_build_single_train_counts():
    # 1 arc (tt=1, c=1, ce=1, k=5), horizon 3, window 1
    inst = line_instance(c=1, ce=1, k=5, n_trains=1, horizon=3, window=1,
                         dwell=False)
    system = milp.build(inst)
    assert len(system.objective) == 1
    vid, coeff = system.objective[0]
    assert system.variables[vid].kind == "expand" and coeff == 5
    fams = names_by_family(system)
    # one train on an arc of capacity 1 fills no window beyond it
    assert "cap" not in fams
    # one route variable per departure time plus the expansion variable
    assert len(system.variables) == 1 + 3


@pytest.mark.parametrize("window", [1, 2, 3])
def test_build_window_count_when_every_window_binds(window):
    # two trains on an arc of capacity 1, departures 0..H-1: every window
    # start t0 <= H - W + 1 that holds a departure gives one row, H - W + 1
    # of them for W = 1 (the start H holds none), H - W + 2 otherwise
    inst = line_instance(c=1, ce=1, k=5, n_trains=2, horizon=5, window=window,
                         dwell=False)
    cap = names_by_family(milp.build(inst))["cap"]
    H, W = inst.horizon, inst.capacity_window
    assert len(cap) == (H - W + 1 if W == 1 else H - W + 2)
    assert cap == [f"cap_A_B_all_{t0}" for t0 in range(len(cap))]


def test_build_zero_trains():
    inst = line_instance(c=0, ce=1, k=5, n_trains=0, horizon=2)
    system = milp.build(inst)
    assert [c for _, c in system.objective] == [Fraction(5)]
    assert all(len([t for t in row.terms]) <= 1 for row in system.rows)


def test_capacity_rows_linearized():
    inst = line_instance(c=1, ce=2, k=5, n_trains=2, horizon=2, window=2,
                         dwell=False)
    system = milp.build(inst)
    cap = [r for r in system.rows if r.name.startswith("cap_")]
    assert len(cap) == 2  # t0 in {0, 1}
    for row in cap:
        assert row.sense == "<=" and row.rhs == 1
        kinds = {system.variables[v].kind: c for v, c in row.terms}
        assert kinds["expand"] == -2
        assert all(c == 1 for v, c in row.terms
                   if system.variables[v].kind == "route")


def test_headway_rows_enumerated():
    # same arc, two trains, M=2, horizon 3: departures 0..2, gaps below 2
    inst = line_instance(c=5, ce=0, k=0, n_trains=2, horizon=3, window=1,
                         dwell=False, headway_default=2)
    system = milp.build(inst)
    hw = [r for r in system.rows if r.name.startswith("hw_")]
    pairs = set()
    for row in hw:
        m = re.fullmatch(r"hw_A_B_(T\d)_(T\d)_(\d)_(\d)", row.name)
        assert m, row.name
        pairs.add((m.group(1), m.group(2), int(m.group(3)), int(m.group(4))))
    assert pairs == {(v1, v2, t1, t2)
                     for v1, v2 in (("T0", "T1"), ("T1", "T0"))
                     for t1, t2 in ((0, 1), (1, 2))}


def test_headway_entries_apply_to_their_arc_and_pair_only():
    # default 0: only the one positive entry (B->C, T0 leading T1) gives rows
    net = mk_network([("A", "B", 1, 5, 0, 0), ("B", "C", 1, 5, 0, 0)],
                     headways=HeadwayTable(entries={("B", "C", "T0", "T1"): 2,
                                                    ("A", "B", "T1", "T0"): 0}))
    inst = Instance(network=net, horizon=3, capacity_window=1, allow_dwell=False,
                    trains=(mk_train("T0", "A", "C", 0, 3), mk_train("T1", "A", "C", 0, 3)))
    hw = [r.name for r in milp.build(inst).rows if r.name.startswith("hw_")]
    assert hw == ["hw_B_C_T0_T1_1_2"]


def test_vacuous_headway_pair_takes_no_name():
    # A->S-1 and A->S.1 sanitise alike; on A->S-1 the gap 2 meets M = 2, so
    # only A->S.1 (M = 3) has a row, and it keeps the unsuffixed name
    net = mk_network([("A", "S-1", 1, 1, 0, 0), ("S-1", "D", 1, 1, 0, 0),
                      ("A", "S.1", 1, 1, 0, 0), ("S.1", "D", 1, 1, 0, 0)],
                     headways=HeadwayTable(entries={("A", "S-1", "T0", "T1"): 2,
                                                    ("A", "S.1", "T0", "T1"): 3}))
    inst = Instance(network=net, horizon=4, capacity_window=1, allow_dwell=False,
                    trains=(mk_train("T0", "A", "D", 0, 2), mk_train("T1", "A", "D", 2, 4)))
    hw = [r.name for r in milp.build(inst).rows if r.name.startswith("hw_")]
    assert hw == ["hw_A_Sx1_T0_T1_0_2"]


def test_headway_rows_never_mix_scenarios():
    inst = line_instance(c=5, ce=0, k=0, n_trains=4, horizon=3, window=1,
                         dwell=False, headway_default=3)
    scs = (Scenario("S1", ("T0", "T1")), Scenario("S2", ("T1", "T2", "T3")))
    inst = Instance(network=inst.network, horizon=inst.horizon, trains=inst.trains,
                    scenarios=scs, capacity_window=1, allow_dwell=False)
    system = milp.build(inst)
    rows = {}
    for row in system.rows:
        if row.name.startswith("hw_"):
            _hw, _a, _b, v1, v2, t1, t2 = row.name.split("_")
            assert [(m.train, m.t) for m in (system.variables[v] for v, _ in row.terms)] \
                == [(v1, int(t1)), (v2, int(t2))], row.name
            rows.setdefault((v1, v2), []).append((int(t1), int(t2)))
    # one row set per ordered pair that shares a scenario: T0 never meets
    # T2 or T3, and T1, in both scenarios, gets no second set
    shared = [("T0", "T1"), ("T1", "T0")] + [
        (v1, v2) for v1 in ("T1", "T2", "T3") for v2 in ("T1", "T2", "T3") if v1 != v2]
    assert sorted(rows) == sorted(shared)
    assert all(times == [(0, 1), (0, 2), (1, 2)] for times in rows.values())


def test_flow_rows_skip_origin_and_destination():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 1, 1, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("T", "A", "C", 0, 3),), capacity_window=1)
    system = milp.build(inst)
    flow_nodes = {r.name.split("_")[2] for r in system.rows
                  if r.name.startswith("flow_")}
    assert flow_nodes == {"B"}
    for row in system.rows:
        if row.name.startswith("flow_"):
            assert row.sense == "=" and row.rhs == 0


def test_optional_train_objective_encoding():
    inst = line_instance(c=0, ce=1, k=5, n_trains=0, horizon=2, dwell=False)
    trains = (mk_train("O", "A", "B", 0, 2, optional=True, penalty="7/2"),)
    inst = Instance(network=inst.network, horizon=2, trains=trains,
                    capacity_window=1, allow_dwell=False)
    system = milp.build(inst)
    assert system.objective_constant == Fraction(7, 2)
    rewards = [(v, c) for v, c in system.objective if c < 0]
    assert all(c == Fraction(-7, 2) for _, c in rewards)
    assert {system.variables[v].kind for v, _ in rewards} == {"route"}
    once = [r for r in system.rows if r.name == "dep_O_once"]
    assert len(once) == 1 and once[0].sense == "<=" and once[0].rhs == 1
    # optional trains get no forcing rows
    assert not any(r.name in ("dep_O", "arr_O") for r in system.rows)


def test_every_train_departs_at_most_once():
    # a mandatory train departs exactly once, an optional one at most once,
    # whatever VIA nodes or connections it has
    rng = random.Random(5)
    for _ in range(100):
        inst = random_walk_instance(rng)
        deps = {}
        for row in milp.build(inst).rows:
            if row.name.startswith("dep_"):
                deps.setdefault(row.name, []).append((row.sense, row.rhs))
        want = {(f"dep_{t.id}_once" if t.optional else f"dep_{t.id}"):
                [("<=" if t.optional else "=", 1)] for t in inst.trains}
        assert deps == want, inst


def test_expansion_variables_come_first():
    # the no-LP search branches on the first free variable, so it settles
    # the design before any route or dwell
    rng = random.Random(8)
    for _ in range(100):
        inst = random_walk_instance(rng)
        variables = milp.build(inst).variables
        n_arcs = len(inst.network.arcs)
        assert [(m.kind, m.arc_index) for m in variables[:n_arcs]] == \
            [("expand", ai) for ai in range(n_arcs)], inst
        assert all(m.kind in ("route", "dwell") for m in variables[n_arcs:]), inst


def test_no_penalty_terms_without_optional_trains():
    system = milp.build(line_instance(c=1, ce=1, k=5, n_trains=2, horizon=3))
    assert system.objective_constant == 0
    assert all(c > 0 for _, c in system.objective)
    assert all(system.variables[v].kind == "expand" for v, _ in system.objective)


def test_build_rejections():
    net = mk_network([("A", "B", 1, 1, 0, 0, 3)])
    inst = Instance(network=net, horizon=1,
                    trains=(mk_train("T", "A", "B", 0, 1),), capacity_window=1)
    with pytest.raises(milp.BuildError, match="multi-arc"):
        milp.build(inst)

    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 1, 1, 0, 0)])
    trains = (mk_train("O", "A", "C", 0, 2, optional=True, penalty=1),
              mk_train("G", "A", "C", 0, 2))
    inst = Instance(network=net, horizon=2, trains=trains,
                    connections=(ConnectionRequirement("B", "O", "G"),),
                    capacity_window=1)
    with pytest.raises(milp.BuildError, match="connection"):
        milp.build(inst)

    trains = (mk_train("O", "A", "C", 0, 2, optional=True, penalty=1, via=["B"]),)
    inst = Instance(network=net, horizon=2, trains=trains, capacity_window=1)
    with pytest.raises(milp.BuildError, match="VIA"):
        milp.build(inst)


def test_monotone_growth_when_adding_a_train():
    base = line_instance(c=1, ce=1, k=5, n_trains=2, horizon=3,
                         headway_default=2)
    bigger = line_instance(c=1, ce=1, k=5, n_trains=3, horizon=3,
                           headway_default=2)
    s1, s2 = milp.build(base), milp.build(bigger)
    assert len(s2.variables) > len(s1.variables)
    assert len(s2.rows) > len(s1.rows)
    names1 = {r.name for r in s1.rows}
    names2 = {r.name for r in s2.rows}
    assert names1 <= names2


def presolve_draws(n=200):
    """``random_walk_instance`` draws; half of them also get per-pair
    headway entries of 0-3 on some (arc, leading, following) triples."""
    rng = random.Random(12)
    for _ in range(n):
        inst = random_walk_instance(rng)
        if rng.random() < 0.5:
            ids = [t.id for t in inst.trains]
            entries = {(a.frm, a.to, v1, v2): rng.randint(0, 3)
                       for a in inst.network.arcs for v1 in ids for v2 in ids
                       if v1 != v2 and rng.random() < 0.4}
            headways = dataclasses.replace(inst.network.headways, entries=entries)
            inst = dataclasses.replace(
                inst, network=dataclasses.replace(inst.network, headways=headways))
        yield inst


def test_presolve_emits_each_distinct_row_once():
    kinds = {"scenarios": 0, "pair headways": 0}
    for inst in presolve_draws():
        kinds["scenarios"] += bool(inst.scenarios)
        kinds["pair headways"] += bool(inst.network.headways.entries)
        seen = {}
        for row in milp.build(inst).rows:
            key = (row.sense, row.rhs, frozenset(row.terms))
            assert key not in seen, (row.name, seen.get(key), inst)
            seen[key] = row.name
    assert all(kinds.values()), kinds
    # a connection listed twice gives the rows of the single listing
    inst = rich_instance()
    twice = dataclasses.replace(inst, connections=inst.connections * 2)
    assert milp.build(twice).rows == milp.build(inst).rows


def test_presolve_capacity_rows():
    # every emitted cap row can bind, and every window of the unreduced
    # model -- per scenario, arc and start t0, the route variables departing
    # in [t0, t0 + window) -- is emitted or implied: it holds at most
    # `capacity` variables, or an emitted row on the arc has its variables
    for inst in presolve_draws():
        system = milp.build(inst)
        arcs = inst.network.arcs
        emitted = {}  # arc index -> set of frozensets of route variables
        for row in system.rows:
            if not row.name.startswith("cap_"):
                continue
            routes = frozenset(v for v, c in row.terms
                               if system.variables[v].kind == "route" and c == 1)
            (ai, coef), = [(v, c) for v, c in row.terms if v not in routes]
            assert system.variables[ai].kind == "expand"
            assert (row.sense, row.rhs, coef) == ("<=", arcs[ai].capacity,
                                                  -arcs[ai].expandable_capacity)
            assert len(routes) > arcs[ai].capacity, row.name
            emitted.setdefault(ai, set()).add(routes)
        members = [set(s.train_ids) for s in inst.scenarios] or [
            {t.id for t in inst.trains}]
        W = inst.capacity_window
        windows = set()
        for ai, arc in enumerate(arcs):
            for trains in members:
                for t0 in range(inst.horizon - W + 2):
                    slots = frozenset(
                        v for v, m in enumerate(system.variables)
                        if m.kind == "route" and m.arc_index == ai
                        and m.train in trains and t0 <= m.t < t0 + W)
                    windows.add((ai, slots))
                    assert len(slots) <= arc.capacity or slots in emitted.get(ai, ()), \
                        (ai, t0, inst)
        # and no emitted row is other than one of those windows
        assert {(ai, r) for ai, rs in emitted.items() for r in rs} <= windows


def test_build_is_deterministic():
    inst = reduction.x3c_to_instance(reduction.worked_example())[0]
    assert milp.export_lp(milp.build(inst)) == milp.export_lp(milp.build(inst))


# -- LP export / parse -------------------------------------------------------


def families_instance():
    """Every row family (cap, dep and dep_once, arr, hw, flow with a dwell at
    an inner node, conn, via) under two scenarios, an optional train with a
    fractional penalty, and stations S-1 and S.1, which sanitise alike, so
    names get the __2 suffix."""
    net = mk_network([("A", "S-1", 1, 1, 1, 3), ("S-1", "S.1", 1, 1, 1, 2),
                      ("A", "S.1", 2, 0, 1, "5/2"), ("S.1", "C", 1, 1, 1, 4)],
                     headways=HeadwayTable(default=2))
    trains = (mk_train("T0", "A", "C", 0, 4, via=("S-1",)),
              mk_train("T1", "A", "S.1", 0, 3),
              mk_train("T2", "S.1", "C", 1, 4),
              mk_train("T3", "A", "C", 1, 4, optional=True, penalty="7/2"))
    return Instance(network=net, horizon=4, trains=trains,
                    connections=(ConnectionRequirement("S.1", "T1", "T2"),),
                    scenarios=(Scenario("S1", ("T0", "T1", "T2")),
                               Scenario("S2", ("T0", "T3"))),
                    capacity_window=2, allow_dwell=True)


def staggered_instance():
    """A corridor S0..S3 with dwell whose trains depart 0, 1, 2 and 2: T00's
    and T01's windows are 6 wide, and T02's ends past the horizon 7, so
    clipped to it, it is 5 wide like T03's."""
    corridor = corridor_instance(2, 4, 4)
    windows = [(0, 6), (1, 7), (2, 9), (2, 7)]
    return dataclasses.replace(corridor, horizon=7, trains=tuple(
        dataclasses.replace(t, earliest_departure=dep, latest_arrival=arr)
        for t, (dep, arr) in zip(corridor.trains, windows)))


@pytest.mark.parametrize("inst, golden", [
    (line_instance(c=1, ce=1, k=5, n_trains=1, horizon=2, window=1, dwell=False), "tiny.lp"),
    (families_instance(), "families.lp"),
    (staggered_instance(), "staggered.lp"),
], ids=["tiny", "families", "staggered"])
def test_export_golden(inst, golden):
    assert milp.export_lp(milp.build(inst)) == (DATA / golden).read_text()


def test_export_empty_system():
    text = milp.export_lp(milp.ConstraintSystem())
    obj, const, rows, binaries = parse_lp(text)
    assert obj == {} and const == 0 and rows == [] and binaries == []


def round_trip(system):
    parsed = parse_lp(milp.export_lp(system))
    assert parsed_signature(parsed) == system_signature(system)


def test_round_trip_various_systems():
    round_trip(milp.build(line_instance(c=1, ce=1, k="7/2", n_trains=2,
                                        horizon=3, headway_default=2)))
    round_trip(milp.build(reduction.x3c_to_instance(reduction.worked_example())[0]))
    # robust, scenarios, connections, via all at once
    net = mk_network([("A", "B", 1, 1, 1, 2), ("B", "C", 1, 1, 1, "1/3"),
                      ("A", "C", 2, 0, 1, 1)])
    trains = (mk_train("T1", "A", "C", 0, 4, via=["B"]),
              mk_train("T2", "A", "C", 0, 4),
              mk_train("T3", "A", "C", 0, 4, optional=True, penalty="5/2"))
    inst = Instance(network=net, horizon=4, trains=trains,
                    connections=(ConnectionRequirement("B", "T2", "T1"),),
                    scenarios=(Scenario("S1", ("T1", "T2")),
                               Scenario("S2", ("T2", "T3"))),
                    capacity_window=2)
    round_trip(milp.build(inst))


def test_parse_lp_errors():
    with pytest.raises(LpParseError):
        parse_lp("Minimize\n obj: x\nSubject To\n r1: 1 x 2\nEnd\n")
    with pytest.raises(LpParseError):
        parse_lp("Minimize\nSubject To\n 1 x <= 2\nEnd\n")
    with pytest.raises(LpParseError):
        parse_lp("bogus preamble\nMinimize\nEnd\n")


def test_row_name_grammar():
    inst = reduction.x3c_to_instance(reduction.worked_example())[0]
    system = milp.build(inst)
    pat = re.compile(r"(cap|dep|arr|hw|flow|conn|via)_[A-Za-z0-9_]+")
    for row in system.rows:
        assert pat.fullmatch(row.name), row.name
    assert len({r.name for r in system.rows}) == len(system.rows)
