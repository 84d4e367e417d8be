import dataclasses
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (line_instance, mk_network, mk_train, random_walk_instance,
                     train_walks)
from raildesign import milp, reduction
from raildesign.model import (ConnectionRequirement, HeadwayTable, Instance,
                              Scenario, Solution)
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
    # window starts t0 with t0 + window <= horizon + 1
    assert len(fams["cap"]) == inst.horizon - inst.capacity_window + 2
    # one route variable per departure time plus the expansion variable
    assert len(system.variables) == 1 + 3


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
        m = re.fullmatch(r"hw_A_B_all_(T\d)_(T\d)_(\d)_(\d)", row.name)
        assert m, row.name
        pairs.add((m.group(1), m.group(2), int(m.group(3)), int(m.group(4))))
    assert pairs == {(v1, v2, t1, t2)
                     for v1, v2 in (("T0", "T1"), ("T1", "T0"))
                     for t1, t2 in ((0, 1), (1, 2))}


def test_headway_rows_never_mix_scenarios():
    inst = line_instance(c=5, ce=0, k=0, n_trains=4, horizon=3, window=1,
                         dwell=False, headway_default=3)
    scs = (Scenario("S1", ("T0", "T1")), Scenario("S2", ("T1", "T2", "T3")))
    inst = Instance(network=inst.network, horizon=inst.horizon, trains=inst.trains,
                    scenarios=scs, capacity_window=1, allow_dwell=False)
    system = milp.build(inst)
    members = {s.id: set(s.train_ids) for s in scs}
    hw_by_scenario = {"S1": 0, "S2": 0}
    for row in system.rows:
        if not row.name.startswith("hw_"):
            continue
        sc = row.name.split("_")[3]
        trains = {system.variables[v].train for v, _ in row.terms}
        assert trains <= members[sc], row.name
        hw_by_scenario[sc] += 1
    # shared train T1 appears under both scenario tags
    assert hw_by_scenario["S1"] > 0 and hw_by_scenario["S2"] > 0


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


def test_build_is_deterministic():
    inst = reduction.x3c_to_instance(reduction.worked_example())[0]
    assert milp.export_lp(milp.build(inst)) == milp.export_lp(milp.build(inst))


# -- LP export / parse -------------------------------------------------------


def test_export_golden():
    inst = line_instance(c=1, ce=1, k=5, n_trains=1, horizon=2, window=1,
                         dwell=False)
    assert milp.export_lp(milp.build(inst)) == (DATA / "tiny.lp").read_text()


def test_export_empty_system():
    text = milp.export_lp(milp.ConstraintSystem())
    obj, const, rows, binaries = milp.parse_lp(text)
    assert obj == {} and const == 0 and rows == [] and binaries == []


def round_trip(system):
    parsed = milp.parse_lp(milp.export_lp(system))
    assert milp.parsed_signature(parsed) == milp.system_signature(system)


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
    with pytest.raises(milp.LpParseError):
        milp.parse_lp("Minimize\n obj: x\nSubject To\n r1: 1 x 2\nEnd\n")
    with pytest.raises(milp.LpParseError):
        milp.parse_lp("Minimize\nSubject To\n 1 x <= 2\nEnd\n")
    with pytest.raises(milp.LpParseError):
        milp.parse_lp("bogus preamble\nMinimize\nEnd\n")


def test_row_name_grammar():
    inst = reduction.x3c_to_instance(reduction.worked_example())[0]
    system = milp.build(inst)
    pat = re.compile(r"(cap|dep|arr|hw|flow|conn|via)_[A-Za-z0-9_]+")
    for row in system.rows:
        assert pat.fullmatch(row.name), row.name
    assert len({r.name for r in system.rows}) == len(system.rows)
