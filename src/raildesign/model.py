"""Instance and solution data model, validation, and JSON file I/O.

All cost-like quantities are exact rationals (``fractions.Fraction``) so
that objective comparisons downstream are exact.  Times, capacities and
headways are plain integers.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace


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
    """Minimum departure gaps per (arc, leading train, following train).  A
    headway separates two distinct trains; an entry that names one train
    twice is a validation error."""

    entries: dict = field(default_factory=dict)  # (frm, to, v1, v2) -> int
    default: int = 0

    def get(self, frm, to, v1, v2) -> int:
        return self.entries.get((frm, to, v1, v2), self.default)

    def applies(self, frm, to) -> bool:
        """Whether some pair of trains must keep a positive headway on frm->to."""
        return self.default > 0 or any(m > 0 and key[:2] == (frm, to)
                                       for key, m in self.entries.items())


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

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions."""
    errors = []

    def err(code, message, where, *ids):
        # each id is cut and the location formatted only when an error is reported
        errors.append(ValidationIssue(code, message, where.format(*(_cut(str(i)) for i in ids))))

    net = inst.network
    node_ids = set()
    for n in net.nodes:
        if n.id in node_ids:
            err("NODE_DUP", f"duplicate node id {_echo(n.id)}", "node {}", n.id)
        node_ids.add(n.id)

    seen_arcs = set()
    for a in net.arcs:
        loc = ("arc {}->{}", a.frm, a.to)
        if a.frm not in node_ids or a.to not in node_ids:
            err("ARC_ENDPOINT", "arc endpoint is not a declared node", *loc)
        if a.frm == a.to:
            err("ARC_SELF_LOOP", "self-loop arcs are not allowed", *loc)
        if a.key in seen_arcs:
            err("ARC_DUP", "more than one arc for this ordered node pair", *loc)
        seen_arcs.add(a.key)
        if a.travel_time < 1:
            err("ARC_TRAVEL_TIME", f"travel_time must be >= 1, got {a.travel_time}", *loc)
        if a.capacity < 0 or a.expandable_capacity < 0:
            err("ARC_CAPACITY", "capacities must be non-negative", *loc)
        if a.expansion_cost < 0:
            err("ARC_COST", "expansion_cost must be non-negative", *loc)
        if a.multiplicity < 1:
            err("ARC_MULTIPLICITY", "multiplicity must be >= 1", *loc)

    by_id = {t.id: t for t in inst.trains}
    for (frm, to, v1, v2), m in net.headways.entries.items():
        loc = ("headway {}->{} {}/{}", frm, to, v1, v2)
        if (frm, to) not in seen_arcs:
            err("HEADWAY_REF", "headway names an undeclared arc", *loc)
        if v1 not in by_id or v2 not in by_id:
            err("HEADWAY_REF", "headway names an undeclared train", *loc)
        elif v1 == v2:  # a headway separates a train from another one ahead of it
            err("HEADWAY_REF", "headway names one train as both leading and following", *loc)
        if m < 0:
            err("HEADWAY_NEGATIVE", "headway must be non-negative", *loc)
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
        loc = ("train {}", t.id)
        if t.id in train_ids:
            err("TRAIN_DUP", f"duplicate train id {_echo(t.id)}", *loc)
        train_ids.add(t.id)
        if t.origin not in node_ids or t.destination not in node_ids:
            err("TRAIN_ENDPOINT", "origin/destination is not a declared node", *loc)
        if t.origin == t.destination:
            err("TRAIN_SAME_ENDPOINTS", "origin equals destination", *loc)
        if t.earliest_departure > t.latest_arrival:
            err("TRAIN_WINDOW", "earliest_departure exceeds latest_arrival", *loc)
        if t.earliest_departure < 0:
            err("TRAIN_WINDOW", "earliest_departure must be >= 0", *loc)
        for v in t.via_nodes:
            if v not in node_ids:
                err("VIA_UNKNOWN", f"via node {_echo(v)} is not declared", *loc)
            if v in (t.origin, t.destination):
                err("VIA_AT_TERMINUS", f"via node {_echo(v)} equals origin or destination", *loc)
        if t.optional and t.penalty is None:
            err("PENALTY_FLAG", "optional train needs a penalty", *loc)
        if not t.optional and t.penalty is not None:
            err("PENALTY_FLAG", "penalty given for a non-optional train", *loc)
        if t.penalty is not None and t.penalty < 0:
            err("PENALTY_FLAG", "penalty must be non-negative", *loc)

    for c in inst.connections:
        loc = ("connection {} {}->{}", c.station, c.feeder, c.connecting)
        if c.feeder == c.connecting:
            err("CONN_SELF", "feeder and connecting train must differ", *loc)
        if c.station not in node_ids:
            err("CONN_REF", "connection station is not declared", *loc)
        for tid in (c.feeder, c.connecting):
            if tid not in by_id:
                err("CONN_REF", f"connection names unknown train {_echo(tid)}", *loc)
            elif by_id[tid].optional:
                err("CONN_OPTIONAL",
                    f"connections are restricted to non-optional trains ({_cut(tid)})", *loc)
        feeder = by_id.get(c.feeder)
        connecting = by_id.get(c.connecting)
        if feeder is not None and c.station == feeder.origin:
            err("CONN_PLACEMENT", "station is the feeder's origin", *loc)
        if connecting is not None and c.station == connecting.destination:
            err("CONN_PLACEMENT", "station is the connecting train's destination", *loc)

    # VIA on optional trains is rejected like connections.
    for t in inst.trains:
        if t.optional and t.via_nodes:
            err("VIA_OPTIONAL", "VIA nodes are restricted to non-optional trains",
                "train {}", t.id)

    covered, scenario_ids = set(), set()
    for s in inst.scenarios:
        loc = ("scenario {}", s.id)
        if s.id in scenario_ids:
            err("SCENARIO_ID_DUP", f"duplicate scenario id {_echo(s.id)}", *loc)
        scenario_ids.add(s.id)
        if not s.train_ids:
            err("SCENARIO_EMPTY", "scenario has no trains", *loc)
        listed = set()
        for tid in s.train_ids:
            if tid not in train_ids:
                err("SCENARIO_REF", f"scenario names unknown train {_echo(tid)}", *loc)
            if tid in listed:
                err("SCENARIO_DUP", f"scenario lists train {_echo(tid)} more than once", *loc)
            listed.add(tid)
        covered |= listed
    if inst.scenarios:
        for tid in sorted(train_ids - covered):
            err("SCENARIO_COVERAGE", f"train {_echo(tid)} appears in no scenario",
                "train {}", tid)

    return ValidationReport(errors=tuple(errors))


def priced(inst: Instance, expanded_arcs, routes) -> Solution:
    """The solution with these expanded arcs and routes, priced: each listed
    arc's expansion cost (a multi-arc once per expanded copy), plus the
    penalty of every optional train without a route."""
    arcs = inst.network.arc_by_key()
    expansion = sum((arcs[key].expansion_cost for key in expanded_arcs), Fraction(0))
    penalty = sum((t.penalty for t in inst.trains if t.optional and t.id not in routes),
                  Fraction(0))
    return Solution(tuple(expanded_arcs), routes, expansion + penalty, expansion, penalty)


def effective_scenarios(inst: Instance) -> list:
    """Declared scenarios, or the single implicit all-trains scenario."""
    if inst.scenarios:
        return list(inst.scenarios)
    return [Scenario(id="all", train_ids=tuple(t.id for t in inst.trains))]


# ---------------------------------------------------------------------------
# JSON I/O
#
# Each record type is one table of fields in written order.  A field names
# its JSON key; a reader ``(value, where, key)`` that raises
# ``InstanceError`` located at ``where``; a writer of the value, or None to
# write it as it is; a default; and the attribute it fills, named like the
# key unless given, or ``_FLAT`` for a nested object whose fields are
# attributes of the record itself.  A field without a default is required,
# and one at its default is left out when written.  A value that is the
# default itself, such as a null where the default is None, is taken as it is.


def cost_to_json(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


_REQUIRED, _FLAT = object(), object()
_Field = namedtuple("_Field", "key read write default attr", defaults=(None, _REQUIRED, None))


class _Table:
    """A record's fields as ``_read`` and ``_write`` use them, the type
    ``_read`` makes of them, and its key sets."""

    def __init__(self, make, *fields):
        self.make = make
        self.fields = tuple((f.key, f.read, f.write, f.default, f.attr or f.key) for f in fields)
        self.keys = frozenset(f.key for f in fields)
        self.required = frozenset(f.key for f in fields if f.default is _REQUIRED)


def _cut(text):
    """``text``, cut to 60 characters ending in … when longer."""
    return text if len(text) <= 60 else text[:59] + "…"


def _echo(value):
    """``repr(value)``, cut to 60 characters."""
    return _cut(repr(value))


def _read(obj, table, where):
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object, got {_echo(obj)}")
    keys = obj.keys()
    if not keys <= table.keys:
        raise InstanceError(f"{where}: unknown keys {_echo(sorted(keys - table.keys))}")
    if not keys >= table.required:
        raise InstanceError(f"{where}: missing keys {sorted(table.required - keys)}")
    values = {}
    for key, read, _, default, attr in table.fields:
        value = obj.get(key, default)
        values[attr] = value if value is default else read(value, where, key)
    if _FLAT in values:
        values.update(values.pop(_FLAT))
    return table.make(**values)


def _write(record, table):
    out = {}
    for key, _, write, default, attr in table.fields:
        value = record if attr is _FLAT else getattr(record, attr)
        if default is _REQUIRED or value != default:
            out[key] = value if write is None else write(value)
    return out


def _typed(kind, noun):
    """Reader of a value of type ``kind``; a boolean is not an integer."""
    def read(value, where, key):
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise InstanceError(f"{where}: {key} must be {noun}, got {_echo(value)}")
        return value
    return read


_int = _typed(int, "an integer")
_str = _typed(str, "a string")
_bool = _typed(bool, "true or false")
_list = _typed(list, "a list")


def _strings(value, where, key):
    return tuple(_str(item, where, f"{key}[{i}]")
                 for i, item in enumerate(_list(value, where, key)))


def _cost(value, where, key):
    """An exact cost whose numerator and denominator the writers can print: of
    at most ``sys.get_int_max_str_digits()`` digits each (0: no limit)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InstanceError(f"{where}: costs must be integers or 'p/q' strings, "
                            f"got {_echo(value)}")
    try:
        cost = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"{where}: bad rational {_echo(value)}") from exc
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from Python 3.10.7
    num, den = (value, 1) if isinstance(value, int) else cost.as_integer_ratio()
    big = max(abs(num), den)  # 10**limit has more than 3 * limit bits
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise InstanceError(f"{where}: {key} has more than {limit} digits")
    return cost


def _total(value, where, key):
    """A solution's cost, located at its own key."""
    return _cost(value, key, key)


def _list_of(table):
    """Reader and writer of a list of ``table`` records; item i reads located at ``key[i]``."""
    return (lambda value, where, key: tuple(_read(item, table, f"{key}[{i}]")
                                            for i, item in enumerate(_list(value, where, key))),
            lambda records: [_write(record, table) for record in records])


_Headway = namedtuple("_Headway", "frm to v1 v2 m")  # one HeadwayTable entry

_NODE = _Table(Node, _Field("id", _str), _Field("display_name", _str, default=None))
_ARC = _Table(Arc,
              _Field("from", _str, attr="frm"), _Field("to", _str),
              _Field("travel_time", _int),
              _Field("capacity", _int), _Field("expandable_capacity", _int),
              _Field("expansion_cost", _cost, cost_to_json),
              _Field("multiplicity", _int, default=1))
_HEADWAY = _Table(_Headway,
                  _Field("from", _str, attr="frm"), _Field("to", _str),
                  _Field("v1", _str), _Field("v2", _str), _Field("M", _int, attr="m"))
_TRAIN = _Table(TrainRequest,
                _Field("id", _str),
                _Field("origin", _str), _Field("destination", _str),
                _Field("earliest_departure", _int), _Field("latest_arrival", _int),
                _Field("optional", _bool, default=False),
                _Field("penalty", _cost, cost_to_json, default=None),
                _Field("via_nodes", _strings, list, default=()))
_CONNECTION = _Table(ConnectionRequirement,
                     _Field("station", _str), _Field("feeder", _str), _Field("connecting", _str))
_SCENARIO = _Table(Scenario, _Field("id", _str), _Field("train_ids", _strings, list))
# the fields of an Instance and of its network (instance_from_dict, instance_to_dict)
_INSTANCE = _Table(dict,
                   _Field("nodes", *_list_of(_NODE)), _Field("arcs", *_list_of(_ARC)),
                   _Field("trains", *_list_of(_TRAIN)),
                   _Field("connections", *_list_of(_CONNECTION), default=()),
                   _Field("scenarios", *_list_of(_SCENARIO), default=()),
                   _Field("horizon", _int), _Field("capacity_window", _int),
                   _Field("headway_default", _int, default=0),
                   _Field("headways", *_list_of(_HEADWAY), default=()),
                   _Field("allow_dwell", _bool, default=True))


def _arc_pairs(value, where, key):
    for i, pair in enumerate(_list(value, where, key)):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(end, str) for end in pair)):
            raise InstanceError(f"{key}[{i}]: expected [from, to] node names, got {_echo(pair)}")
    return tuple(tuple(pair) for pair in value)


_STEP = _Table(RoutedStep, _Field("from", _str, attr="frm"), _Field("to", _str),
               _Field("depart", _int))


def _routes(value, where, key):
    if not isinstance(value, dict):
        raise InstanceError(f"{key}: expected an object, got {_echo(value)}")
    return {train: tuple(_read(step, _STEP, f"{key}[{_cut(train)}][{i}]")
                         for i, step in enumerate(_list(steps, key, _cut(train))))
            for train, steps in value.items()}


_COST_BREAKDOWN = _Table(dict, _Field("expansion_cost_total", _total, cost_to_json),
                         _Field("penalty_total", _total, cost_to_json))
_SOLUTION = _Table(Solution,
                   _Field("expanded_arcs", _arc_pairs, lambda arcs: [list(arc) for arc in arcs]),
                   _Field("routes", _routes,
                          lambda routes: {train: [_write(step, _STEP) for step in steps]
                                          for train, steps in sorted(routes.items())}),
                   _Field("objective_value", _total, cost_to_json),
                   _Field("cost_breakdown",
                          lambda value, where, key: _read(value, _COST_BREAKDOWN, key),
                          lambda sol: _write(sol, _COST_BREAKDOWN), attr=_FLAT))


def instance_from_dict(data: dict) -> Instance:
    top = _read(data, _INSTANCE, "instance")
    entries = {}
    for i, h in enumerate(top.pop("headways")):
        if h[:4] in entries:  # a second M for one key would overwrite the first unseen
            raise InstanceError(f"headways[{i}]: repeats the headway {_cut(h.frm)}->"
                                f"{_cut(h.to)} {_cut(h.v1)}/{_cut(h.v2)}")
        entries[h[:4]] = h.m
    headways = HeadwayTable(entries=entries, default=top.pop("headway_default"))
    network = Network(nodes=top.pop("nodes"), arcs=top.pop("arcs"), headways=headways)
    return Instance(network=network, **top)


def instance_to_dict(inst: Instance) -> dict:
    net = inst.network
    # a tuple, since a list differs from the default () even when empty
    headways = tuple(_Headway(*key, m) for key, m in sorted(net.headways.entries.items()))
    return _write(SimpleNamespace(**vars(inst), nodes=net.nodes, arcs=net.arcs,
                                  headway_default=net.headways.default, headways=headways),
                  _INSTANCE)


def _load_json(path):
    """The JSON object of a UTF-8 file; InstanceError when it is not one."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InstanceError(f"{path}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
            raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: top level must be an object")
    return data


def _save_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def load_instance(path) -> Instance:
    return instance_from_dict(_load_json(path))


def save_instance(inst: Instance, path):
    _save_json(instance_to_dict(inst), path)


def solution_to_dict(sol: Solution) -> dict:
    return _write(sol, _SOLUTION)


def solution_from_dict(data: dict) -> Solution:
    return _read(data, _SOLUTION, "solution")


def load_solution(path) -> Solution:
    return solution_from_dict(_load_json(path))


def save_solution(sol: Solution, path):
    _save_json(solution_to_dict(sol), path)
