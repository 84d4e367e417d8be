import dataclasses
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (line_instance, mk_network, mk_train, random_walk_instance,
                     rich_instance)
from raildesign.model import (Arc, ConnectionRequirement, HeadwayTable, Instance,
                              InstanceError, Network, Node, RoutedStep, Scenario,
                              Solution, TrainRequest, cost_to_json,
                              effective_scenarios, instance_from_dict, priced,
                              instance_to_dict, load_instance, load_solution,
                              save_instance, save_solution, solution_from_dict,
                              solution_to_dict, validate_instance)
from raildesign.verify import verify

DATA = Path(__file__).parent / "data"


def codes(report):
    return {e.code for e in report.errors}


def test_minimal_valid_instance():
    inst = line_instance(c=1, ce=0, k=0, n_trains=1)
    report = validate_instance(inst)
    assert report.ok
    assert report.errors == ()


def test_travel_time_zero_rejected():
    net = mk_network([("A", "B", 0, 1, 0, 0)])
    inst = Instance(network=net, horizon=2,
                    trains=(mk_train("T", "A", "B", 0, 2),), capacity_window=1)
    assert "ARC_TRAVEL_TIME" in codes(validate_instance(inst))


def test_via_at_terminus_rejected():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 1, 1, 0, 0)])
    inst = Instance(network=net, horizon=3,
                    trains=(mk_train("T", "A", "C", 0, 3, via=["C"]),),
                    capacity_window=1)
    assert "VIA_AT_TERMINUS" in codes(validate_instance(inst))


def test_structural_errors_are_collected():
    net = Network(
        nodes=(Node("A"), Node("A"), Node("B")),
        arcs=(Arc("A", "B", 1, -1, 0, Fraction(-2)),
              Arc("A", "B", 1, 1, 0, Fraction(0)),
              Arc("A", "A", 1, 1, 0, Fraction(0)),
              Arc("A", "Z", 1, 1, 0, Fraction(0))),
        headways=HeadwayTable(entries={("A", "Q", "T", "T2"): -1}))
    inst = Instance(network=net, horizon=0,
                    trains=(mk_train("T", "A", "A", 3, 1),
                            mk_train("T", "A", "B", 0, 1)),
                    capacity_window=2)
    got = codes(validate_instance(inst))
    for code in ("NODE_DUP", "ARC_CAPACITY", "ARC_COST", "ARC_DUP",
                 "ARC_SELF_LOOP", "ARC_ENDPOINT", "HEADWAY_REF",
                 "HEADWAY_NEGATIVE", "HORIZON", "CAPACITY_WINDOW",
                 "TRAIN_DUP", "TRAIN_SAME_ENDPOINTS", "TRAIN_WINDOW"):
        assert code in got, code


def test_departure_before_time_zero_rejected():
    inst = line_instance(c=1, ce=0, k=0, n_trains=2, horizon=2, dep=-3)
    assert codes(validate_instance(inst)) == {"TRAIN_WINDOW"}


def test_headway_naming_an_undeclared_train_rejected():
    net = mk_network([("A", "B", 1, 1, 0, 0)],
                     headways=HeadwayTable(entries={("A", "B", "T1", "Tx"): 3}))
    inst = Instance(network=net, horizon=2, capacity_window=1,
                    trains=(mk_train("T1", "A", "B", 0, 2),))
    assert codes(validate_instance(inst)) == {"HEADWAY_REF"}
    assert "undeclared train" in validate_instance(inst).errors[0].message


def test_a_headway_applies_where_some_pair_keeps_a_positive_gap():
    table = HeadwayTable(entries={("A", "B", "T1", "T2"): 2, ("B", "C", "T1", "T2"): 0})
    assert [table.applies(*arc) for arc in (("A", "B"), ("B", "A"), ("B", "C"))] \
        == [True, False, False]
    assert HeadwayTable(default=1).applies("B", "A")
    assert not HeadwayTable().applies("A", "B")


def test_penalty_flag_rules():
    net = mk_network([("A", "B", 1, 1, 0, 0)])
    bad1 = Instance(network=net, horizon=1,
                    trains=(TrainRequest("T", "A", "B", 0, 1, optional=True),),
                    capacity_window=1)
    assert "PENALTY_FLAG" in codes(validate_instance(bad1))
    bad2 = Instance(network=net, horizon=1,
                    trains=(TrainRequest("T", "A", "B", 0, 1,
                                         penalty=Fraction(1)),),
                    capacity_window=1)
    assert "PENALTY_FLAG" in codes(validate_instance(bad2))


def test_connection_rules():
    net = mk_network([("A", "B", 1, 1, 0, 0), ("B", "C", 1, 1, 0, 0)])
    trains = (mk_train("F", "A", "B", 0, 2),
              mk_train("G", "A", "C", 0, 3),
              mk_train("O", "A", "C", 0, 3, optional=True, penalty=1))
    base = dict(network=net, horizon=3, trains=trains, capacity_window=1)
    ok = Instance(connections=(ConnectionRequirement("B", "F", "G"),), **base)
    assert validate_instance(ok).ok
    self_conn = Instance(connections=(ConnectionRequirement("B", "F", "F"),), **base)
    assert "CONN_SELF" in codes(validate_instance(self_conn))
    opt = Instance(connections=(ConnectionRequirement("B", "F", "O"),), **base)
    assert "CONN_OPTIONAL" in codes(validate_instance(opt))
    at_origin = Instance(connections=(ConnectionRequirement("A", "F", "G"),), **base)
    assert "CONN_PLACEMENT" in codes(validate_instance(at_origin))


def test_scenario_coverage():
    inst = line_instance(c=1, ce=0, k=0, n_trains=2)
    partial = Instance(network=inst.network, horizon=inst.horizon,
                       trains=inst.trains,
                       scenarios=(Scenario("S1", ("T0",)),),
                       capacity_window=1)
    assert "SCENARIO_COVERAGE" in codes(validate_instance(partial))
    empty = Instance(network=inst.network, horizon=inst.horizon,
                     trains=inst.trains,
                     scenarios=(Scenario("S1", ()),),
                     capacity_window=1)
    assert "SCENARIO_EMPTY" in codes(validate_instance(empty))
    # a train listed twice would give a capacity row the same variable twice
    twice = Instance(network=inst.network, horizon=inst.horizon,
                     trains=inst.trains,
                     scenarios=(Scenario("S1", ("T0", "T1", "T0")),),
                     capacity_window=1)
    assert codes(validate_instance(twice)) == {"SCENARIO_DUP"}


def test_repeated_scenario_id_rejected():
    # one id is one tag, so the two scenarios' capacity rows could share a name
    inst = rich_instance()
    again = dataclasses.replace(inst, scenarios=inst.scenarios
                                + (Scenario("S1", ("T1", "T3")),))
    report = validate_instance(again)
    assert codes(report) == {"SCENARIO_ID_DUP"}
    assert [e.location for e in report.errors] == ["scenario S1"]


def test_multiplicity_below_one_rejected():
    # a multi-arc is valid input; each solver decides whether it takes one
    net = mk_network([("A", "B", 1, 1, 0, 0, 2)])
    inst = Instance(network=net, horizon=1,
                    trains=(mk_train("T", "A", "B", 0, 1),), capacity_window=1)
    assert validate_instance(inst).ok
    zero = dataclasses.replace(inst, network=mk_network([("A", "B", 1, 1, 0, 0, 0)]))
    assert codes(validate_instance(zero)) == {"ARC_MULTIPLICITY"}


def test_validation_is_idempotent():
    inst = line_instance(c=0, ce=0, k=0, n_trains=1)
    assert validate_instance(inst) == validate_instance(inst)


def test_effective_scenarios():
    det = line_instance(c=1, ce=0, k=0, n_trains=2)
    scs = effective_scenarios(det)
    assert [s.id for s in scs] == ["all"]
    assert scs[0].train_ids == ("T0", "T1")

    declared = Instance(network=det.network, horizon=det.horizon,
                        trains=det.trains,
                        scenarios=(Scenario("S1", ("T0",)),
                                   Scenario("S2", ("T0", "T1"))),
                        capacity_window=1)
    assert effective_scenarios(declared) == list(declared.scenarios)
    union = set()
    for s in effective_scenarios(declared):
        union.update(s.train_ids)
    assert union == {t.id for t in declared.trains}


def test_effective_scenarios_many():
    inst = line_instance(c=1, ce=0, k=0, n_trains=28)
    ids = [t.id for t in inst.trains]
    scs = tuple(Scenario(f"S{i}", tuple(ids[7 * i:7 * i + 7])) for i in range(4))
    inst = Instance(network=inst.network, horizon=inst.horizon, trains=inst.trains,
                    scenarios=scs, capacity_window=1)
    out = effective_scenarios(inst)
    assert len(out) == 4
    assert all(len(s.train_ids) == 7 for s in out)


# -- JSON I/O ----------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    inst = rich_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    # and the dict form is plain JSON
    json.dumps(instance_to_dict(inst))


def test_writers_reproduce_the_pinned_files(tmp_path):
    # both files were written by the writers that preceded the field tables
    save_instance(rich_instance(), tmp_path / "inst.json")
    assert (tmp_path / "inst.json").read_bytes() == (DATA / "rich_instance.json").read_bytes()
    sol = load_solution(DATA / "rich_solution.json")
    assert verify(rich_instance(), sol) == []
    save_solution(sol, tmp_path / "sol.json")
    assert (tmp_path / "sol.json").read_bytes() == (DATA / "rich_solution.json").read_bytes()


def test_round_trip_on_random_instances():
    rng = random.Random(16)
    for _ in range(100):
        inst = random_walk_instance(rng)
        assert instance_from_dict(json.loads(json.dumps(instance_to_dict(inst)))) == inst


# Each record of the rich instance and its solution: where it sits in the
# dict, the location its errors name, and its required keys.
RECORDS = [
    ("instance", (), "instance",
     ["nodes", "arcs", "trains", "horizon", "capacity_window"]),
    ("instance", ("nodes", 0), "nodes[0]", ["id"]),
    ("instance", ("arcs", 0), "arcs[0]",
     ["from", "to", "travel_time", "capacity", "expandable_capacity", "expansion_cost"]),
    ("instance", ("headways", 0), "headways[0]", ["from", "to", "v1", "v2", "M"]),
    ("instance", ("trains", 0), "trains[0]",
     ["id", "origin", "destination", "earliest_departure", "latest_arrival"]),
    ("instance", ("connections", 0), "connections[0]", ["station", "feeder", "connecting"]),
    ("instance", ("scenarios", 0), "scenarios[0]", ["id", "train_ids"]),
    ("solution", (), "solution", ["expanded_arcs", "routes", "objective_value",
                                  "cost_breakdown"]),
    ("solution", ("routes", "T1", 0), "routes[T1][0]", ["from", "to", "depart"]),
    ("solution", ("cost_breakdown",), "cost_breakdown",
     ["expansion_cost_total", "penalty_total"]),
]


@pytest.mark.parametrize("kind, path, where, required", RECORDS,
                         ids=[r[2] for r in RECORDS])
def test_key_checks_per_record(kind, path, where, required):
    read = instance_from_dict if kind == "instance" else solution_from_dict

    def fresh():
        """A new dict of the record's kind, and the record in it."""
        data = (instance_to_dict(rich_instance()) if kind == "instance"
                else json.loads((DATA / "rich_solution.json").read_text()))
        record = data
        for step in path:
            record = record[step]
        return data, record

    _, written = fresh()
    assert set(required) <= set(written)
    for key in written:
        data, record = fresh()
        del record[key]
        if key in required:
            with pytest.raises(InstanceError,
                               match=re.escape(f"{where}: missing keys [{key!r}]")):
                read(data)
        else:
            read(data)
    data, record = fresh()
    record["extra"] = 1
    with pytest.raises(InstanceError, match=re.escape(f"{where}: unknown keys ['extra']")):
        read(data)


def test_repeated_headway_entry_rejected():
    # a table holds one M per (from, to, v1, v2); a second listing is an
    # error, not a silent overwrite of the first
    data = instance_to_dict(rich_instance())
    data["headways"].append(dict(data["headways"][0], M=7))
    with pytest.raises(InstanceError,
                       match=re.escape("headways[1]: repeats the headway A->B T1/T2")):
        instance_from_dict(data)
    data["headways"][1]["v2"] = "T3"  # another pair on the arc is its own entry
    assert instance_from_dict(data).network.headways.get("A", "B", "T1", "T3") == 7


def test_instance_unknown_keys_rejected():
    data = instance_to_dict(line_instance(c=1, ce=0, k=0, n_trains=1))
    data["frobnicate"] = 1
    with pytest.raises(InstanceError, match="unknown keys"):
        instance_from_dict(data)


def test_instance_missing_keys_rejected():
    data = instance_to_dict(line_instance(c=1, ce=0, k=0, n_trains=1))
    del data["horizon"]
    with pytest.raises(InstanceError, match="missing keys"):
        instance_from_dict(data)


def test_cost_parsing():
    data = instance_to_dict(line_instance(c=1, ce=1, k=0, n_trains=1))
    data["arcs"][0]["expansion_cost"] = "7/2"
    assert instance_from_dict(data).network.arcs[0].expansion_cost == Fraction(7, 2)
    data["arcs"][0]["expansion_cost"] = True
    with pytest.raises(InstanceError):
        instance_from_dict(data)
    data["arcs"][0]["expansion_cost"] = "1/0"
    with pytest.raises(InstanceError):
        instance_from_dict(data)
    data["arcs"][0]["expansion_cost"] = 2.5
    with pytest.raises(InstanceError):
        instance_from_dict(data)


def test_cost_to_json():
    assert cost_to_json(Fraction(4)) == 4
    assert cost_to_json(Fraction(7, 2)) == "7/2"


def test_non_integer_int_fields_rejected():
    data = instance_to_dict(line_instance(c=1, ce=0, k=0, n_trains=1))
    data["horizon"] = "2"
    with pytest.raises(InstanceError, match="must be an integer"):
        instance_from_dict(data)


def test_solution_round_trip():
    sol = Solution(
        expanded_arcs=(("A", "B"),),
        routes={"T1": (RoutedStep("A", "B", 0),
                       RoutedStep("B", "C", 2))},
        objective_value=Fraction(7, 2),
        expansion_cost_total=Fraction(7, 2),
        penalty_total=Fraction(0),
    )
    assert solution_from_dict(solution_to_dict(sol)) == sol


def test_solution_unknown_keys_rejected():
    data = solution_to_dict(Solution((), {}, Fraction(0), Fraction(0), Fraction(0)))
    data["extra"] = []
    with pytest.raises(InstanceError):
        solution_from_dict(data)


def test_load_instance_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance(p)
    p.write_text("[1, 2]")
    for load in (load_instance, load_solution):  # one loader checks every file
        with pytest.raises(InstanceError, match=re.escape(f"{p}: top level must be an object")):
            load(p)


@pytest.mark.parametrize("where, patch", [
    ((), {"arcs": {"from": "A"}}),
    ((), {"arcs": ["A-B"]}),
    ((), {"connections": "none"}),
    ((), {"headways": [3]}),
    ((), {"scenarios": [{"id": "S", "train_ids": "T0"}]}),
    ((), {"allow_dwell": 0}),
    (("trains", 0), {"via_nodes": "B"}),
    (("trains", 0), {"optional": 1, "penalty": 4}),
])
def test_mistyped_fields_rejected(where, patch):
    data = instance_to_dict(line_instance(c=1, ce=0, k=0, n_trains=1))
    target = data
    for key in where:
        target = target[key]
    target.update(patch)
    with pytest.raises(InstanceError,
                       match="must be a list|expected an object|must be true or false"):
        instance_from_dict(data)


@pytest.mark.parametrize("where, patch", [
    (("nodes", 0), {"id": 5}),
    (("nodes", 0), {"display_name": ["B"]}),
    (("arcs", 0), {"from": 1}),
    (("trains", 0), {"id": 5}),
    (("trains", 0), {"origin": None}),
    (("trains", 0), {"destination": ["B"]}),
    (("trains", 0), {"via_nodes": [3]}),
    ((), {"headways": [{"from": "A", "to": "B", "v1": 0, "v2": "T0", "M": 1}]}),
    ((), {"connections": [{"station": "B", "feeder": "T0", "connecting": 1}]}),
    ((), {"scenarios": [{"id": 1, "train_ids": ["T0"]}]}),
    ((), {"scenarios": [{"id": "S", "train_ids": [0]}]}),
])
def test_non_string_names_rejected(where, patch):
    data = instance_to_dict(line_instance(c=1, ce=0, k=0, n_trains=1))
    target = data
    for key in where:
        target = target[key]
    target.update(patch)
    with pytest.raises(InstanceError, match="must be a string"):
        instance_from_dict(data)


@pytest.mark.parametrize("patch", [
    {"cost_breakdown": 0},
    {"routes": {"T1": [{"from": "A", "to": 2, "depart": 0}]}},
    {"expanded_arcs": [["A", 2]]},
    {"expanded_arcs": ["AB"]},
])
def test_mistyped_solution_rejected(patch):
    data = solution_to_dict(Solution((), {}, Fraction(0), Fraction(0), Fraction(0)))
    data.update(patch)
    with pytest.raises(InstanceError):
        solution_from_dict(data)
    with pytest.raises(InstanceError, match="expected an object"):
        solution_from_dict([data])


def test_priced_counts_each_expanded_copy_and_each_dropped_train():
    # A->B is two parallel copies, expandable once each at 3; the optional
    # train O runs no route and pays 5/2
    net = mk_network([("A", "B", 1, 0, 1, 3, 2)])
    inst = Instance(network=net, horizon=1,
                    trains=(mk_train("T", "A", "B", 0, 1),
                            mk_train("O", "A", "B", 0, 1, optional=True, penalty="5/2")),
                    capacity_window=1)
    routes = {"T": (RoutedStep("A", "B", 0),)}
    sol = priced(inst, [("A", "B"), ("A", "B")], routes)
    assert sol == Solution((("A", "B"), ("A", "B")), routes, Fraction(17, 2),
                           Fraction(6), Fraction(5, 2))
    assert verify(inst, sol) == []
    once = priced(inst, [("A", "B")], routes)
    assert (once.expansion_cost_total, once.objective_value) == (3, Fraction(11, 2))
    assert verify(inst, once) == []
