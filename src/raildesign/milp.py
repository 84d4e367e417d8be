"""0-1 linear constraint system built from an instance.

Each train gets route and dwell variables only on the time-expanded slots
it can use on a walk from its origin, departing in its window, to its
destination, arriving in its window (``expand``).  A walk never re-enters
the origin and ends at its first arrival at the destination.  Row
families, in emission order: capacity (every window, used or not),
departure, arrival, headway, flow conservation, connections, VIA.  Row
names double as machine tags,
e.g. ``cap_<from>_<to>_<scenario>_<t0>``.  The capacity window is
half-open [t0, t0 + window): "c trains per window" is meant literally and
window = 1 means "per time step".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .model import effective_scenarios


@dataclass(frozen=True)
class VarMeaning:
    kind: str  # expand | route | dwell
    arc_index: int | None = None
    train: str | None = None
    node: str | None = None
    t: int | None = None


@dataclass
class LinearRow:
    terms: list  # of (var id, coefficient); no duplicate ids
    sense: str  # '<=', '=', '>='
    rhs: Fraction | int
    name: str


@dataclass
class ConstraintSystem:
    variables: list = field(default_factory=list)  # of VarMeaning
    var_names: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    objective: list = field(default_factory=list)  # of (var id, Fraction)
    objective_constant: Fraction = Fraction(0)
    var_index: dict = field(default_factory=dict)  # meaning key -> var id
    instance: object = None  # source instance, kept for solution decoding

    def add_var(self, meaning: VarMeaning, name: str, key) -> int:
        vid = len(self.variables)
        self.variables.append(meaning)
        self.var_names.append(name)
        self.var_index[key] = vid
        return vid


class BuildError(ValueError):
    pass


_SANITIZE = re.compile(r"[^A-Za-z0-9]")


def _mk_namer():
    used = set()

    def name(*parts):
        base = "_".join(_SANITIZE.sub("x", str(p)) for p in parts)
        if not re.match(r"[A-Za-z_]", base):
            base = "n" + base
        candidate = base
        k = 2
        while candidate in used:
            candidate = f"{base}__{k}"
            k += 1
        used.add(candidate)
        return candidate

    return name


def headway_row(M: int, t1: int, t2: int, x1: int, x2: int, name: str = "hw") -> LinearRow | None:
    """Linearized minimum-separation row; None when the row would be vacuous.

    For w = M - (t2 - t1) > 0 the row is w*x1 + w*x2 <= w, which forbids
    x1 = x2 = 1 and is implied otherwise; with w <= 0 any assignment
    satisfies the separation, so no row is emitted.
    """
    if t1 >= t2:
        raise ValueError("headway rows require t1 < t2")
    w = M - (t2 - t1)
    if w <= 0:
        return None
    return LinearRow(terms=[(x1, w), (x2, w)], sense="<=", rhs=w, name=name)


# The benchmark's tracer wraps this name (timegraph.expand_s), so it keeps it.
def expand(net, horizon, train, allow_dwell):
    """The time-expanded slots one train can use on a walk to its destination.

    Returns (movements, dwells): sets of (arc index, departure t) and of
    (node, t), a dwell waiting from t to t + 1.  A slot is kept when its
    tail is reachable from (origin, t >= earliest departure) and its head
    still reaches (destination, t <= latest arrival).  A train never enters
    its origin and never leaves its destination, so no slot ends at the one
    or starts at the other, and neither has dwells.  Travel times are >= 1,
    so one sweep over time in each direction settles reachability.
    """
    o, d = train.origin, train.destination
    arcs = [(ai, a.frm, a.to, a.travel_time) for ai, a in enumerate(net.arcs)
            if a.frm != d and a.to != o]
    waits = [n.id for n in net.nodes if n.id not in (o, d)] if allow_dwell else []
    fwd = {(o, t) for t in range(train.earliest_departure, horizon + 1)}
    for t in range(horizon):
        for _ai, frm, to, tt in arcs:
            if (frm, t) in fwd:
                fwd.add((to, t + tt))
        for n in waits:
            if (n, t) in fwd:
                fwd.add((n, t + 1))
    bwd = {(d, t) for t in range(min(train.latest_arrival, horizon) + 1)}
    for t in range(horizon, 0, -1):
        for _ai, frm, to, tt in arcs:
            if (to, t) in bwd:
                bwd.add((frm, t - tt))
        for n in waits:
            if (n, t) in bwd:
                bwd.add((n, t - 1))
    movements = {(ai, t) for ai, frm, to, tt in arcs for t in range(horizon - tt + 1)
                 if (frm, t) in fwd and (to, t + tt) in bwd}
    dwells = {(n, t) for n in waits for t in range(horizon)
              if (n, t) in fwd and (n, t + 1) in bwd}
    return movements, dwells


def build(instance) -> ConstraintSystem:
    """Translate a validated instance into the 0-1 model."""
    net = instance.network
    horizon = instance.horizon
    window = instance.capacity_window
    for a in net.arcs:
        if a.multiplicity != 1:
            raise BuildError("multi-arc instances are only supported by the SP solver")
    trains = {t.id: t for t in instance.trains}
    for c in instance.connections:
        if trains[c.feeder].optional or trains[c.connecting].optional:
            raise BuildError("optional trains may not participate in connections")
    for t in instance.trains:
        if t.optional and t.via_nodes:
            raise BuildError("optional trains may not carry VIA requirements")

    scenarios = effective_scenarios(instance)

    sys = ConstraintSystem(instance=instance)
    namer = _mk_namer()

    # Variables: expansion first, then per train (lexicographic) by
    # (time, movement-before-dwell, arc/node index), over the train's slots.
    for ai, arc in enumerate(net.arcs):
        sys.add_var(VarMeaning("expand", arc_index=ai),
                    namer("b", arc.frm, arc.to), ("expand", ai))
    node_pos = {n.id: i for i, n in enumerate(net.nodes)}
    departs = {}  # train -> arc index -> ascending departure times of its slots
    for tid in sorted(trains):
        movements, dwells = expand(net, horizon, trains[tid], instance.allow_dwell)
        entries = [(t, 0, ai) for ai, t in movements]
        entries += [(t, 1, node_pos[node]) for node, t in dwells]
        by_arc = departs[tid] = {}
        for (t, kind, idx) in sorted(entries):
            if kind == 0:
                arc = net.arcs[idx]
                by_arc.setdefault(idx, []).append(t)
                sys.add_var(VarMeaning("route", arc_index=idx, train=tid, t=t),
                            namer("x", tid, arc.frm, arc.to, t), ("route", tid, idx, t))
            else:
                node = net.nodes[idx].id
                sys.add_var(VarMeaning("dwell", train=tid, node=node, t=t),
                            namer("w", tid, node, t), ("dwell", tid, node, t))

    def route_var(tid, ai, t):
        return sys.var_index.get(("route", tid, ai, t))

    def dwell_var(tid, node, t):
        return sys.var_index.get(("dwell", tid, node, t))

    arcs_out = {}  # node -> list of arc indexes
    arcs_in = {}
    for ai, arc in enumerate(net.arcs):
        arcs_out.setdefault(arc.frm, []).append(ai)
        arcs_in.setdefault(arc.to, []).append(ai)

    def route_terms(tid, arc_indexes, coef=1):
        return [(sys.var_index[("route", tid, ai, t)], coef)
                for ai in arc_indexes for t in departs[tid].get(ai, ())]

    # Objective: expansion costs, minus a reward for each departure of an
    # optional train (constant-shifted so the optimum equals expansion plus
    # penalty total).  A cap row keeps optional departures at <= 1 so the
    # negative coefficient cannot be collected twice.
    for ai, arc in enumerate(net.arcs):
        if arc.expansion_cost != 0:
            sys.objective.append((sys.var_index[("expand", ai)], Fraction(arc.expansion_cost)))
    for tid in sorted(trains):
        tr = trains[tid]
        if tr.optional:
            sys.objective += route_terms(tid, arcs_out.get(tr.origin, []), -Fraction(tr.penalty))
            sys.objective_constant += Fraction(tr.penalty)

    # Capacity: one row per (arc, scenario, window start), linearized as
    # sum x - expandable * b <= capacity.
    for ai, arc in enumerate(net.arcs):
        bvid = sys.var_index[("expand", ai)]
        for sc in scenarios:
            for t0 in range(0, horizon - window + 2):
                terms = []
                for tid in sc.train_ids:
                    for t in range(t0, t0 + window):
                        vid = route_var(tid, ai, t)
                        if vid is not None:
                            terms.append((vid, 1))
                terms.append((bvid, -arc.expandable_capacity))
                sys.rows.append(LinearRow(terms, "<=", arc.capacity,
                                          namer("cap", arc.frm, arc.to, sc.id, t0)))

    # Departure and arrival.  Every slot out of the origin departs in the
    # window and every slot into the destination arrives in it.  VIA and
    # connection rows count over all of a train's walks, so a train they
    # name departs exactly once: a second walk cannot meet them for it.
    connected = {tid for c in instance.connections for tid in (c.feeder, c.connecting)}
    for tid in sorted(trains):
        tr = trains[tid]
        deps = route_terms(tid, arcs_out.get(tr.origin, []))
        if tr.optional:
            sys.rows.append(LinearRow(deps, "<=", 1, namer("dep", tid, "once")))
        else:
            sense = "=" if tr.via_nodes or tid in connected else ">="
            sys.rows.append(LinearRow(deps, sense, 1, namer("dep", tid)))
            sys.rows.append(LinearRow(route_terms(tid, arcs_in.get(tr.destination, [])),
                                      ">=", 1, namer("arr", tid)))

    # Minimum headway, per scenario; trains shared by scenarios get one row
    # under each scenario tag.  Rows are vacuous from the first gap of M on.
    for ai, arc in enumerate(net.arcs):
        for sc in scenarios:
            for v1 in sc.train_ids:
                for v2 in sc.train_ids:
                    if v1 == v2:
                        continue
                    M = net.headways.get(arc.frm, arc.to, v1, v2)
                    if M <= 0:
                        continue
                    for t1 in departs[v1].get(ai, ()):
                        for t2 in departs[v2].get(ai, ()):
                            if t1 >= t2:
                                continue
                            row = headway_row(
                                M, t1, t2, route_var(v1, ai, t1), route_var(v2, ai, t2),
                                name=namer("hw", arc.frm, arc.to, sc.id, v1, v2, t1, t2))
                            if row is None:
                                break
                            sys.rows.append(row)

    # Flow conservation at every time node except the train's own origin
    # and destination; dwell appears on both sides when enabled.
    for tid in sorted(trains):
        tr = trains[tid]
        for node in net.nodes:
            if node.id in (tr.origin, tr.destination):
                continue
            for t in range(0, horizon + 1):
                terms = []
                for ai in arcs_in.get(node.id, []):
                    dep = t - net.arcs[ai].travel_time
                    vid = route_var(tid, ai, dep)
                    if vid is not None:
                        terms.append((vid, 1))
                if instance.allow_dwell:
                    vid = dwell_var(tid, node.id, t - 1)
                    if vid is not None:
                        terms.append((vid, 1))
                for ai in arcs_out.get(node.id, []):
                    vid = route_var(tid, ai, t)
                    if vid is not None:
                        terms.append((vid, -1))
                if instance.allow_dwell:
                    vid = dwell_var(tid, node.id, t)
                    if vid is not None:
                        terms.append((vid, -1))
                if terms:
                    sys.rows.append(LinearRow(terms, "=", 0, namer("flow", tid, node.id, t)))

    # Connections, in cumulative form: arrivals of the feeder at the station
    # up to t dominate departures of the connecting train up to t.
    for c in instance.connections:
        for t in range(0, horizon + 1):
            terms = []
            for ai in arcs_in.get(c.station, []):
                arc = net.arcs[ai]
                for dep in range(0, horizon + 1):
                    if dep + arc.travel_time > t:
                        continue
                    vid = route_var(c.feeder, ai, dep)
                    if vid is not None:
                        terms.append((vid, 1))
            for ai in arcs_out.get(c.station, []):
                for dep in range(0, t + 1):
                    vid = route_var(c.connecting, ai, dep)
                    if vid is not None:
                        terms.append((vid, -1))
            if terms:
                sys.rows.append(LinearRow(terms, ">=", 0,
                                          namer("conn", c.station, c.feeder, c.connecting, t)))
        dep_terms = []
        for ai in arcs_out.get(c.station, []):
            for t in range(0, horizon + 1):
                vid = route_var(c.connecting, ai, t)
                if vid is not None:
                    dep_terms.append((vid, 1))
        sys.rows.append(LinearRow(dep_terms, ">=", 1,
                                  namer("conn", c.station, c.feeder, c.connecting, "dep")))

    # VIA: the train departs from the required node at least once.
    for tid in sorted(trains):
        tr = trains[tid]
        for n in tr.via_nodes:
            sys.rows.append(LinearRow(route_terms(tid, arcs_out.get(n, [])), ">=", 1,
                                      namer("via", tid, n)))

    return sys


# ---------------------------------------------------------------------------
# LP text export and its round-trip parser (the parser is the test oracle).


def _fmt_coeff(value) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _fmt_terms(terms, names, constant=Fraction(0)):
    parts = []
    for vid, coeff in terms:
        f = Fraction(coeff)
        sign = "-" if f < 0 else "+"
        parts.append((sign, f"{_fmt_coeff(abs(f))} {names[vid]}"))
    if constant != 0:
        sign = "-" if constant < 0 else "+"
        parts.append((sign, _fmt_coeff(abs(constant))))
    if not parts:
        return "0"
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(body if sign == "+" else f"- {body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out)


def export_lp(system: ConstraintSystem) -> str:
    lines = ["\\ raildesign LP export", "Minimize"]
    lines.append(" obj: " + _fmt_terms(system.objective, system.var_names,
                                       system.objective_constant))
    lines.append("Subject To")
    for row in system.rows:
        lines.append(f" {row.name}: {_fmt_terms(row.terms, system.var_names)} "
                     f"{row.sense} {_fmt_coeff(row.rhs)}")
    lines.append("Binary")
    for name in system.var_names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"(<=|>=|=|[+\-:]|[A-Za-z_][A-Za-z0-9_]*|\d+/\d+|\d+)")


class LpParseError(ValueError):
    pass


def _parse_terms(tokens):
    """Token list -> (dict name -> Fraction, constant)."""
    terms = {}
    constant = Fraction(0)
    sign = 1
    pending_coeff = None
    for tok in tokens:
        if tok == "+":
            if pending_coeff is not None:
                constant += sign * pending_coeff
                pending_coeff = None
            sign = 1
        elif tok == "-":
            if pending_coeff is not None:
                constant += sign * pending_coeff
                pending_coeff = None
            sign = -1
        elif re.fullmatch(r"\d+(/\d+)?", tok):
            if pending_coeff is not None:
                constant += sign * pending_coeff
            pending_coeff = Fraction(tok)
        else:
            coeff = Fraction(1) if pending_coeff is None else pending_coeff
            terms[tok] = terms.get(tok, Fraction(0)) + sign * coeff
            pending_coeff = None
            sign = 1
    if pending_coeff is not None:
        constant += sign * pending_coeff
    return terms, constant


def parse_lp(text: str):
    """Parse the exported format back into a comparable structure.

    Returns (objective terms, objective constant, rows, binaries) where rows
    is a list of (name, terms dict, sense, rhs).
    """
    section = None
    objective_tokens = []
    rows = []
    binaries = []
    current_row = None  # [name, tokens]

    def flush_row():
        nonlocal current_row
        if current_row is None:
            return
        name, tokens = current_row
        sense = None
        for i, tok in enumerate(tokens):
            if tok in ("<=", ">=", "="):
                sense = tok
                lhs, rhs_tokens = tokens[:i], tokens[i + 1:]
                break
        if sense is None:
            raise LpParseError(f"row {name!r} has no relational operator")
        terms, lhs_const = _parse_terms(lhs)
        rhs_terms, rhs_const = _parse_terms(rhs_tokens)
        if rhs_terms:
            raise LpParseError(f"row {name!r} has variables on the right-hand side")
        rows.append((name, terms, sense, rhs_const - lhs_const))
        current_row = None

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("minimize", "subject to", "binary", "end"):
            flush_row()
            section = lowered
            continue
        tokens = _TOKEN.findall(line)
        if section == "minimize":
            objective_tokens.extend(tokens)
        elif section == "subject to":
            if ":" in tokens:
                flush_row()
                idx = tokens.index(":")
                if idx != 1:
                    raise LpParseError(f"bad row label in {line!r}")
                current_row = [tokens[0], tokens[idx + 1:]]
            elif current_row is not None:
                current_row[1].extend(tokens)
            else:
                raise LpParseError(f"constraint line without a label: {line!r}")
        elif section == "binary":
            binaries.extend(tokens)
        elif section == "end":
            raise LpParseError(f"content after End: {line!r}")
        else:
            raise LpParseError(f"content before Minimize: {line!r}")
    flush_row()

    if objective_tokens and objective_tokens[:2] == ["obj", ":"]:
        objective_tokens = objective_tokens[2:]
    obj_terms, obj_const = _parse_terms(objective_tokens)
    return obj_terms, obj_const, rows, binaries


def system_signature(system: ConstraintSystem):
    """Normal form used to assert LP round trips, insensitive to row order."""
    names = system.var_names
    obj = {}
    for vid, coeff in system.objective:
        obj[names[vid]] = obj.get(names[vid], Fraction(0)) + Fraction(coeff)
    obj = {k: v for k, v in obj.items() if v != 0}
    rows = {}
    for row in system.rows:
        terms = {}
        for vid, coeff in row.terms:
            if coeff != 0:
                terms[names[vid]] = Fraction(coeff)
        rows[row.name] = (terms, row.sense, Fraction(row.rhs))
    return obj, Fraction(system.objective_constant), rows, sorted(names)


def parsed_signature(parsed):
    obj_terms, obj_const, rows, binaries = parsed
    obj = {k: v for k, v in obj_terms.items() if v != 0}
    row_map = {}
    for name, terms, sense, rhs in rows:
        row_map[name] = ({k: v for k, v in terms.items() if v != 0}, sense, rhs)
    return obj, obj_const, row_map, sorted(binaries)
