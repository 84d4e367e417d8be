import json
from fractions import Fraction

import pytest

from helpers import line_instance, mk_network, mk_train, rich_instance
from raildesign.model import (Arc, ConnectionRequirement, HeadwayTable, Instance,
                              InstanceError, Network, Node, RoutedStep, Scenario,
                              Solution, TrainRequest, cost_to_json,
                              effective_scenarios, instance_from_dict,
                              instance_to_dict, load_instance, save_instance,
                              solution_from_dict, solution_to_dict,
                              validate_instance)


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


def test_multiplicity_needs_opt_in():
    net = mk_network([("A", "B", 1, 1, 0, 0, 2)])
    inst = Instance(network=net, horizon=1,
                    trains=(mk_train("T", "A", "B", 0, 1),), capacity_window=1)
    assert "ARC_MULTIPLICITY" in codes(validate_instance(inst))
    assert validate_instance(inst, allow_multi_arcs=True).ok


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
        routes={"T1": (RoutedStep("T1", "A", "B", 0),
                       RoutedStep("T1", "B", "C", 2))},
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
    with pytest.raises(InstanceError, match="top level"):
        load_instance(p)


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
