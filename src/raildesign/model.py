"""Instance and solution data model, validation, and JSON file I/O.

All cost-like quantities are exact rationals (``fractions.Fraction``) so
that objective comparisons downstream are exact.  Times, capacities and
headways are plain integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


class InstanceError(ValueError):
    """Raised when a file or structure cannot even be parsed into an Instance."""


@dataclass(frozen=True)
class Node:
    id: str
    display_name: str | None = None


@dataclass(frozen=True)
class Arc:
    frm: str
    to: str
    travel_time: int
    capacity: int
    expandable_capacity: int
    expansion_cost: Fraction
    # >1 is only meaningful to the series-parallel solver, which treats the
    # arc as that many identical parallel copies.
    multiplicity: int = 1

    @property
    def key(self):
        return (self.frm, self.to)


@dataclass(frozen=True)
class HeadwayTable:
    """Minimum departure separations per (arc, leading train, following train)."""

    entries: dict = field(default_factory=dict)  # (frm, to, v1, v2) -> int
    default: int = 0

    def get(self, frm, to, v1, v2) -> int:
        return self.entries.get((frm, to, v1, v2), self.default)


@dataclass(frozen=True)
class Network:
    nodes: tuple
    arcs: tuple
    headways: HeadwayTable = field(default_factory=HeadwayTable)

    def node_ids(self):
        return [n.id for n in self.nodes]

    def arc_by_key(self):
        return {a.key: a for a in self.arcs}


@dataclass(frozen=True)
class TrainRequest:
    id: str
    origin: str
    destination: str
    earliest_departure: int
    latest_arrival: int
    optional: bool = False
    penalty: Fraction | None = None
    via_nodes: tuple = ()


@dataclass(frozen=True)
class ConnectionRequirement:
    station: str
    feeder: str
    connecting: str


@dataclass(frozen=True)
class Scenario:
    id: str
    train_ids: tuple


@dataclass(frozen=True)
class Instance:
    network: Network
    horizon: int
    trains: tuple
    connections: tuple = ()
    scenarios: tuple = ()
    capacity_window: int = 1
    allow_dwell: bool = True

    def train_by_id(self):
        return {t.id: t for t in self.trains}


@dataclass(frozen=True)
class RoutedStep:
    train: str
    frm: str
    to: str
    depart: int


@dataclass(frozen=True)
class Solution:
    expanded_arcs: tuple  # of (frm, to) pairs
    routes: dict  # train id -> tuple of RoutedStep; absent for dropped trains
    objective_value: Fraction
    expansion_cost_total: Fraction
    penalty_total: Fraction


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_instance(inst: Instance, allow_multi_arcs: bool = False) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions."""
    errors = []

    def err(code, message, location):
        errors.append(ValidationIssue(code, message, location))

    net = inst.network
    node_ids = set()
    for n in net.nodes:
        if n.id in node_ids:
            err("NODE_DUP", f"duplicate node id {n.id!r}", f"node {n.id}")
        node_ids.add(n.id)

    seen_arcs = set()
    for a in net.arcs:
        loc = f"arc {a.frm}->{a.to}"
        if a.frm not in node_ids or a.to not in node_ids:
            err("ARC_ENDPOINT", "arc endpoint is not a declared node", loc)
        if a.frm == a.to:
            err("ARC_SELF_LOOP", "self-loop arcs are not allowed", loc)
        if a.key in seen_arcs:
            err("ARC_DUP", "more than one arc for this ordered node pair", loc)
        seen_arcs.add(a.key)
        if a.travel_time < 1:
            err("ARC_TRAVEL_TIME", f"travel_time must be >= 1, got {a.travel_time}", loc)
        if a.capacity < 0 or a.expandable_capacity < 0:
            err("ARC_CAPACITY", "capacities must be non-negative", loc)
        if a.expansion_cost < 0:
            err("ARC_COST", "expansion_cost must be non-negative", loc)
        if a.multiplicity < 1:
            err("ARC_MULTIPLICITY", "multiplicity must be >= 1", loc)
        elif a.multiplicity > 1 and not allow_multi_arcs:
            err("ARC_MULTIPLICITY", "multiplicity > 1 only supported by the SP solver", loc)

    for (frm, to, v1, v2), m in net.headways.entries.items():
        loc = f"headway {frm}->{to} {v1}/{v2}"
        if (frm, to) not in seen_arcs:
            err("HEADWAY_REF", "headway names an undeclared arc", loc)
        if m < 0:
            err("HEADWAY_NEGATIVE", "headway must be non-negative", loc)
    if net.headways.default < 0:
        err("HEADWAY_NEGATIVE", "default headway must be non-negative", "headway default")

    if inst.horizon < 1:
        err("HORIZON", f"horizon must be >= 1, got {inst.horizon}", "horizon")
    if inst.capacity_window < 1:
        err("CAPACITY_WINDOW", "capacity_window must be >= 1", "capacity_window")
    elif inst.capacity_window > inst.horizon:
        err("CAPACITY_WINDOW", "capacity_window must not exceed the horizon", "capacity_window")

    train_ids = set()
    for t in inst.trains:
        loc = f"train {t.id}"
        if t.id in train_ids:
            err("TRAIN_DUP", f"duplicate train id {t.id!r}", loc)
        train_ids.add(t.id)
        if t.origin not in node_ids or t.destination not in node_ids:
            err("TRAIN_ENDPOINT", "origin/destination is not a declared node", loc)
        if t.origin == t.destination:
            err("TRAIN_SAME_ENDPOINTS", "origin equals destination", loc)
        if t.earliest_departure > t.latest_arrival:
            err("TRAIN_WINDOW", "earliest_departure exceeds latest_arrival", loc)
        for v in t.via_nodes:
            if v not in node_ids:
                err("VIA_UNKNOWN", f"via node {v!r} is not declared", loc)
            if v in (t.origin, t.destination):
                err("VIA_AT_TERMINUS", f"via node {v!r} equals origin or destination", loc)
        if t.optional and t.penalty is None:
            err("PENALTY_FLAG", "optional train needs a penalty", loc)
        if not t.optional and t.penalty is not None:
            err("PENALTY_FLAG", "penalty given for a non-optional train", loc)
        if t.penalty is not None and t.penalty < 0:
            err("PENALTY_FLAG", "penalty must be non-negative", loc)

    by_id = {t.id: t for t in inst.trains}
    for c in inst.connections:
        loc = f"connection {c.station} {c.feeder}->{c.connecting}"
        if c.feeder == c.connecting:
            err("CONN_SELF", "feeder and connecting train must differ", loc)
        if c.station not in node_ids:
            err("CONN_REF", "connection station is not declared", loc)
        for tid in (c.feeder, c.connecting):
            if tid not in by_id:
                err("CONN_REF", f"connection names unknown train {tid!r}", loc)
            elif by_id[tid].optional:
                err("CONN_OPTIONAL", f"connections are restricted to non-optional trains ({tid})", loc)
        feeder = by_id.get(c.feeder)
        connecting = by_id.get(c.connecting)
        if feeder is not None and c.station == feeder.origin:
            err("CONN_PLACEMENT", "station is the feeder's origin", loc)
        if connecting is not None and c.station == connecting.destination:
            err("CONN_PLACEMENT", "station is the connecting train's destination", loc)

    # VIA on optional trains is rejected like connections.
    for t in inst.trains:
        if t.optional and t.via_nodes:
            err("VIA_OPTIONAL", "VIA nodes are restricted to non-optional trains", f"train {t.id}")

    covered = set()
    for s in inst.scenarios:
        loc = f"scenario {s.id}"
        if not s.train_ids:
            err("SCENARIO_EMPTY", "scenario has no trains", loc)
        for tid in s.train_ids:
            if tid not in train_ids:
                err("SCENARIO_REF", f"scenario names unknown train {tid!r}", loc)
            covered.add(tid)
    if inst.scenarios:
        for tid in sorted(train_ids - covered):
            err("SCENARIO_COVERAGE", f"train {tid!r} appears in no scenario", f"train {tid}")

    return ValidationReport(errors=tuple(errors))


def effective_scenarios(inst: Instance) -> list:
    """Declared scenarios, or the single implicit all-trains scenario."""
    if inst.scenarios:
        return list(inst.scenarios)
    return [Scenario(id="all", train_ids=tuple(t.id for t in inst.trains))]


# ---------------------------------------------------------------------------
# JSON I/O


def _cost_from_json(value, where):
    if isinstance(value, bool):
        raise InstanceError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"{where}: bad rational {value!r}") from exc
    raise InstanceError(f"{where}: costs must be integers or 'p/q' strings, got {value!r}")


def cost_to_json(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _require_keys(obj, allowed, required, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InstanceError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InstanceError(f"{where}: missing keys {sorted(missing)}")


def _int(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InstanceError(f"{where}: {key} must be an integer, got {v!r}")
    return v


def _list(obj, key, where):
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise InstanceError(f"{where}: {key} must be a list, got {v!r}")
    return v


def _objects(data, key):
    items = _list(data, key, "instance")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InstanceError(f"{key}[{i}]: expected an object, got {item!r}")
    return items


def _bool(obj, key, where, default):
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise InstanceError(f"{where}: {key} must be true or false, got {v!r}")
    return v


def instance_from_dict(data: dict) -> Instance:
    _require_keys(
        data,
        allowed=[
            "nodes", "arcs", "trains", "connections", "scenarios",
            "horizon", "capacity_window", "headway_default", "headways",
            "allow_dwell",
        ],
        required=["nodes", "arcs", "trains", "horizon", "capacity_window"],
        where="instance",
    )
    nodes = []
    for i, n in enumerate(_objects(data, "nodes")):
        _require_keys(n, ["id", "display_name"], ["id"], f"nodes[{i}]")
        nodes.append(Node(id=n["id"], display_name=n.get("display_name")))
    arcs = []
    for i, a in enumerate(_objects(data, "arcs")):
        where = f"arcs[{i}]"
        _require_keys(
            a,
            ["from", "to", "travel_time", "capacity", "expandable_capacity",
             "expansion_cost", "multiplicity"],
            ["from", "to", "travel_time", "capacity", "expandable_capacity",
             "expansion_cost"],
            where,
        )
        arcs.append(Arc(
            frm=a["from"],
            to=a["to"],
            travel_time=_int(a, "travel_time", where),
            capacity=_int(a, "capacity", where),
            expandable_capacity=_int(a, "expandable_capacity", where),
            expansion_cost=_cost_from_json(a["expansion_cost"], where),
            multiplicity=_int(a, "multiplicity", where) if "multiplicity" in a else 1,
        ))
    entries = {}
    for i, h in enumerate(_objects(data, "headways")):
        where = f"headways[{i}]"
        _require_keys(h, ["from", "to", "v1", "v2", "M"], ["from", "to", "v1", "v2", "M"], where)
        entries[(h["from"], h["to"], h["v1"], h["v2"])] = _int(h, "M", where)
    default = _int(data, "headway_default", "instance") if "headway_default" in data else 0
    headways = HeadwayTable(entries=entries, default=default)
    trains = []
    for i, t in enumerate(_objects(data, "trains")):
        where = f"trains[{i}]"
        _require_keys(
            t,
            ["id", "origin", "destination", "earliest_departure", "latest_arrival",
             "optional", "penalty", "via_nodes"],
            ["id", "origin", "destination", "earliest_departure", "latest_arrival"],
            where,
        )
        trains.append(TrainRequest(
            id=t["id"],
            origin=t["origin"],
            destination=t["destination"],
            earliest_departure=_int(t, "earliest_departure", where),
            latest_arrival=_int(t, "latest_arrival", where),
            optional=_bool(t, "optional", where, False),
            penalty=_cost_from_json(t["penalty"], where) if t.get("penalty") is not None else None,
            via_nodes=tuple(_list(t, "via_nodes", where)),
        ))
    connections = []
    for i, c in enumerate(_objects(data, "connections")):
        where = f"connections[{i}]"
        _require_keys(c, ["station", "feeder", "connecting"], ["station", "feeder", "connecting"], where)
        connections.append(ConnectionRequirement(station=c["station"], feeder=c["feeder"],
                                                 connecting=c["connecting"]))
    scenarios = []
    for i, s in enumerate(_objects(data, "scenarios")):
        where = f"scenarios[{i}]"
        _require_keys(s, ["id", "train_ids"], ["id", "train_ids"], where)
        scenarios.append(Scenario(id=s["id"], train_ids=tuple(_list(s, "train_ids", where))))
    return Instance(
        network=Network(nodes=tuple(nodes), arcs=tuple(arcs), headways=headways),
        horizon=_int(data, "horizon", "instance"),
        trains=tuple(trains),
        connections=tuple(connections),
        scenarios=tuple(scenarios),
        capacity_window=_int(data, "capacity_window", "instance"),
        allow_dwell=_bool(data, "allow_dwell", "instance", True),
    )


def instance_to_dict(inst: Instance) -> dict:
    data = {
        "nodes": [
            {"id": n.id, **({"display_name": n.display_name} if n.display_name else {})}
            for n in inst.network.nodes
        ],
        "arcs": [
            {
                "from": a.frm,
                "to": a.to,
                "travel_time": a.travel_time,
                "capacity": a.capacity,
                "expandable_capacity": a.expandable_capacity,
                "expansion_cost": cost_to_json(a.expansion_cost),
                **({"multiplicity": a.multiplicity} if a.multiplicity != 1 else {}),
            }
            for a in inst.network.arcs
        ],
        "trains": [
            {
                "id": t.id,
                "origin": t.origin,
                "destination": t.destination,
                "earliest_departure": t.earliest_departure,
                "latest_arrival": t.latest_arrival,
                **({"optional": True, "penalty": cost_to_json(t.penalty)} if t.optional else {}),
                **({"via_nodes": list(t.via_nodes)} if t.via_nodes else {}),
            }
            for t in inst.trains
        ],
        "connections": [
            {"station": c.station, "feeder": c.feeder, "connecting": c.connecting}
            for c in inst.connections
        ],
        "scenarios": [{"id": s.id, "train_ids": list(s.train_ids)} for s in inst.scenarios],
        "horizon": inst.horizon,
        "capacity_window": inst.capacity_window,
        "headway_default": inst.network.headways.default,
        "headways": [
            {"from": k[0], "to": k[1], "v1": k[2], "v2": k[3], "M": m}
            for k, m in sorted(inst.network.headways.entries.items())
        ],
    }
    if not inst.allow_dwell:
        data["allow_dwell"] = False
    return data


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: top level must be an object")
    return instance_from_dict(data)


def save_instance(inst: Instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def solution_to_dict(sol: Solution) -> dict:
    return {
        "expanded_arcs": [[f, t] for f, t in sol.expanded_arcs],
        "routes": {
            train: [{"from": s.frm, "to": s.to, "depart": s.depart} for s in steps]
            for train, steps in sorted(sol.routes.items())
        },
        "objective_value": cost_to_json(sol.objective_value),
        "cost_breakdown": {
            "expansion_cost_total": cost_to_json(sol.expansion_cost_total),
            "penalty_total": cost_to_json(sol.penalty_total),
        },
    }


def solution_from_dict(data: dict) -> Solution:
    _require_keys(data, ["expanded_arcs", "routes", "objective_value", "cost_breakdown"],
                  ["expanded_arcs", "routes", "objective_value", "cost_breakdown"], "solution")
    _require_keys(data["cost_breakdown"], ["expansion_cost_total", "penalty_total"],
                  ["expansion_cost_total", "penalty_total"], "cost_breakdown")
    routes = {}
    for train, steps in data["routes"].items():
        decoded = []
        for i, s in enumerate(steps):
            where = f"routes[{train}][{i}]"
            _require_keys(s, ["from", "to", "depart"], ["from", "to", "depart"], where)
            decoded.append(RoutedStep(train=train, frm=s["from"], to=s["to"],
                                      depart=_int(s, "depart", where)))
        routes[train] = tuple(decoded)
    return Solution(
        expanded_arcs=tuple((f, t) for f, t in data["expanded_arcs"]),
        routes=routes,
        objective_value=_cost_from_json(data["objective_value"], "objective_value"),
        expansion_cost_total=_cost_from_json(
            data["cost_breakdown"]["expansion_cost_total"], "expansion_cost_total"),
        penalty_total=_cost_from_json(
            data["cost_breakdown"]["penalty_total"], "penalty_total"),
    )


def load_solution(path) -> Solution:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    return solution_from_dict(data)


def save_solution(sol: Solution, path):
    with open(path, "w") as fh:
        json.dump(solution_to_dict(sol), fh, indent=2)
        fh.write("\n")
