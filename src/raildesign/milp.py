"""0-1 linear constraint system built from an instance.

Each train gets route and dwell variables only on the time-expanded slots
it can use on a walk from its origin, departing in its window, to its
destination, arriving in its window (``expand``).  A walk never re-enters
the origin and ends at its first arrival at the destination.  The slots
depend only on the train's origin, destination and window, so ``build``
expands each distinct (origin, destination, earliest departure, latest
arrival) once and trains that share it share the slot list.  Row
families, in emission order: capacity, departure, arrival, headway, flow
conservation, connections, VIA.

Each distinct row is emitted once, under one rule: a capacity, departure,
arrival, connection or VIA row with the sense, right-hand side and terms
of an earlier row is not emitted (a capacity window with the train terms
of an earlier window on the arc, a connection listed twice, a VIA node
from which every walk goes straight to the destination).  Flow and
headway rows are distinct by construction.  No row that the others and
the 0-1 bounds already imply is emitted either: a capacity window with no
more train terms than the arc's capacity; a second headway row set for a
pair of trains that shares several scenarios; a connection row at a time
when the connecting train cannot depart.  The dropped rows cut off no 0-1
point and no point of the LP relaxation, so every optimum stays the same.

Rows find their terms in one per-train slot index that ``build`` fills as
it creates the variables: the train's (departure, variable) pairs per arc,
and the terms of each flow row it touches.  No row looks up a slot that
does not exist.  The expansion variable of arc ``i`` is variable ``i``.

Row names double as machine tags, e.g. ``cap_<from>_<to>_<scenario>_<t0>``
(the first scenario and window start that gave the row) or
``hw_<from>_<to>_<v1>_<v2>_<t1>_<t2>``; each id is sanitised to
``[A-Za-z0-9]`` once per build, and a name that repeats an earlier one gets
a ``__2``, ``__3``, ... suffix.  The capacity
window is half-open [t0, t0 + window): "c trains per window" is meant
literally and window = 1 means "per time step".
"""

from __future__ import annotations

import re
from collections import defaultdict
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

    def add_var(self, meaning: VarMeaning, name: str) -> int:
        self.variables.append(meaning)
        self.var_names.append(name)
        return len(self.variables) - 1


class BuildError(ValueError):
    pass


_SANITIZE = re.compile(r"[^A-Za-z0-9]")


def _mk_namer():
    """Unique names: the first use of a name keeps it, later ones get
    ``__2``, ``__3``, ...  Callers pass names whose ids are already
    sanitised (``_SANITIZE``) and that start with a family prefix."""
    used = set()

    def name(base):
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
    # CONN_OPTIONAL and VIA_OPTIONAL again, for callers that skip validate_instance
    trains = {t.id: t for t in instance.trains}
    for c in instance.connections:
        if trains[c.feeder].optional or trains[c.connecting].optional:
            raise BuildError("optional trains may not participate in connections")
    for t in instance.trains:
        if t.optional and t.via_nodes:
            raise BuildError("optional trains may not carry VIA requirements")

    scenarios = effective_scenarios(instance)

    sys = ConstraintSystem()
    name = _mk_namer()
    tag = {x: _SANITIZE.sub("x", str(x))
           for x in [n.id for n in net.nodes] + list(trains) + [sc.id for sc in scenarios]}
    arc_tag = [f"{tag[a.frm]}_{tag[a.to]}" for a in net.arcs]

    # Variables: expansion first, so the expansion variable of arc ai is ai,
    # then per train (lexicographic) by (time, movement-before-dwell,
    # arc/node index), over the train's slots.  Each slot is filed as it is
    # created: runs[tid][ai] lists the train's (departure t, var id) on arc
    # ai in ascending t; flows[tid][node position, t] the terms of the flow
    # row at (node, t) with an order key: arrivals by arc, the dwell in,
    # departures by arc, the dwell out.  No slot enters the origin or leaves
    # the destination, so only the origin's departures and the destination's
    # arrivals stay unfiled: neither place has a flow row.
    n_arcs = len(net.arcs)
    for ai in range(n_arcs):
        sys.add_var(VarMeaning("expand", arc_index=ai), name(f"b_{arc_tag[ai]}"))
    node_pos = {n.id: i for i, n in enumerate(net.nodes)}
    # slots: (origin, destination, earliest departure, latest arrival) ->
    # the sorted slot entries of the trains with that window
    runs, flows, slots = {}, {}, {}
    for tid in sorted(trains):
        tr = trains[tid]
        key = (tr.origin, tr.destination, tr.earliest_departure, tr.latest_arrival)
        if key not in slots:
            movements, dwells = expand(net, horizon, tr, instance.allow_dwell)
            slots[key] = sorted([(t, 0, ai) for ai, t in movements]
                                + [(t, 1, node_pos[node]) for node, t in dwells])
        run = runs[tid] = {}
        flow = flows[tid] = defaultdict(list)
        for (t, kind, idx) in slots[key]:
            if kind == 0:
                arc = net.arcs[idx]
                vid = sys.add_var(VarMeaning("route", arc_index=idx, train=tid, t=t),
                                  name(f"x_{tag[tid]}_{arc_tag[idx]}_{t}"))
                run.setdefault(idx, []).append((t, vid))
                if arc.frm != tr.origin:
                    flow[node_pos[arc.frm], t].append((n_arcs + 1 + idx, vid, -1))
                if arc.to != tr.destination:
                    flow[node_pos[arc.to], t + arc.travel_time].append((idx, vid, 1))
            else:
                node = net.nodes[idx].id
                vid = sys.add_var(VarMeaning("dwell", train=tid, node=node, t=t),
                                  name(f"w_{tag[tid]}_{tag[node]}_{t}"))
                flow[idx, t].append((2 * n_arcs + 1, vid, -1))
                flow[idx, t + 1].append((n_arcs, vid, 1))

    arcs_out = {}  # node -> list of arc indexes
    arcs_in = {}
    for ai, arc in enumerate(net.arcs):
        arcs_out.setdefault(arc.frm, []).append(ai)
        arcs_in.setdefault(arc.to, []).append(ai)

    def route_terms(tid, arc_indexes, coef=1, until=horizon):
        """The train's route variables on these arcs departing by ``until``."""
        return [(vid, coef) for ai in arc_indexes
                for t, vid in runs[tid].get(ai, ()) if t <= until]

    # Objective: expansion costs, minus a reward for each departure of an
    # optional train (constant-shifted so the optimum equals expansion plus
    # penalty total).  A cap row keeps optional departures at <= 1 so the
    # negative coefficient cannot be collected twice.
    for ai, arc in enumerate(net.arcs):
        if arc.expansion_cost != 0:
            sys.objective.append((ai, Fraction(arc.expansion_cost)))
    for tid in sorted(trains):
        tr = trains[tid]
        if tr.optional:
            sys.objective += route_terms(tid, arcs_out.get(tr.origin, []), -Fraction(tr.penalty))
            sys.objective_constant += Fraction(tr.penalty)

    # Every row but the flow and headway rows, which are distinct by
    # construction, goes through ``emit_once``: it drops a row with the sense,
    # right-hand side and terms of an earlier one, and names only those kept.
    emitted = set()

    def emit_once(terms, sense, rhs, base):
        key = (sense, rhs, frozenset(terms))
        if key not in emitted:
            emitted.add(key)
            sys.rows.append(LinearRow(terms, sense, rhs, name(base)))

    # Capacity: one row per (arc, scenario, window start), linearized as
    # sum x - expandable * b <= capacity.  A departure at t counts in the
    # windows starting at t - window + 1 .. t.  A window with at most
    # `capacity` train terms always holds (x <= 1, b >= 0), so it is not
    # emitted; the expansion term keys a repeated window to its arc, and a
    # kept row is named after the first scenario and start that produced it.
    last = horizon - window + 1
    for ai, arc in enumerate(net.arcs):
        for sc in scenarios:
            windows = [[] for _ in range(last + 1)]
            for tid in sc.train_ids:
                for t, vid in runs[tid].get(ai, ()):
                    for t0 in range(max(0, t - window + 1), min(t, last) + 1):
                        windows[t0].append((vid, 1))
            for t0, terms in enumerate(windows):
                if len(terms) > arc.capacity:
                    terms.append((ai, -arc.expandable_capacity))
                    emit_once(terms, "<=", arc.capacity,
                              f"cap_{arc_tag[ai]}_{tag[sc.id]}_{t0}")

    # Departure and arrival.  Every slot out of the origin departs in the
    # window and every slot into the destination arrives in it.  A mandatory
    # train departs exactly once and an optional one at most once, so with
    # flow conservation a train's route variables form one walk.  That
    # implies the arrival row.  It is kept; the seed-1 benchmark nodes with
    # and without it are mixed: 101 / 103 (x3c), 148 / 144 (corridor) and
    # 56 / 56 (scenarios).
    for tid in sorted(trains):
        tr = trains[tid]
        deps = route_terms(tid, arcs_out.get(tr.origin, []))
        if tr.optional:
            emit_once(deps, "<=", 1, f"dep_{tag[tid]}_once")
        else:
            emit_once(deps, "=", 1, f"dep_{tag[tid]}")
            emit_once(route_terms(tid, arcs_in.get(tr.destination, [])), ">=", 1,
                      f"arr_{tag[tid]}")

    # Minimum headway: one row set per ordered pair of distinct trains that
    # share a scenario, in order of the first scenario that holds both.
    # Rows are vacuous from the first gap of M on (no row, so no name), and
    # on an arc with no positive headway.
    pairs = {}  # insertion-ordered set
    for sc in scenarios:
        for v1 in sc.train_ids:
            for v2 in sc.train_ids:
                if v1 != v2:
                    pairs[v1, v2] = None
    hw_arcs = {(frm, to) for (frm, to, _v1, _v2), m in net.headways.entries.items() if m > 0}
    for ai, arc in enumerate(net.arcs):
        if net.headways.default <= 0 and arc.key not in hw_arcs:
            continue
        for v1, v2 in pairs:
            run1, run2 = runs[v1].get(ai), runs[v2].get(ai)
            if not run1 or not run2:
                continue
            M = net.headways.get(arc.frm, arc.to, v1, v2)
            if M <= 0:
                continue
            prefix = f"hw_{arc_tag[ai]}_{tag[v1]}_{tag[v2]}"
            for t1, x1 in run1:
                for t2, x2 in run2:
                    if t1 >= t2:
                        continue
                    if t2 - t1 >= M:  # later t2 only widen the gap
                        break
                    sys.rows.append(headway_row(M, t1, t2, x1, x2,
                                                name=name(f"{prefix}_{t1}_{t2}")))

    # Flow conservation at every time node of the train's slots except its
    # own origin and destination; dwell appears on both sides when enabled.
    for tid in sorted(trains):
        flow = flows[tid]
        for pos, t in sorted(flow):
            terms = [(vid, coef) for _key, vid, coef in sorted(flow[pos, t])]
            sys.rows.append(LinearRow(terms, "=", 0,
                                      name(f"flow_{tag[tid]}_{tag[net.nodes[pos].id]}_{t}")))

    # Connections, in cumulative form: arrivals of the feeder at the station
    # up to t dominate departures of the connecting train up to t.  Only a
    # departure time of the connecting train gives a row: in between, the
    # left-hand side only gains arrivals, so the row at the last departure
    # (or 0 <= arrivals, before the first) implies it.
    for c in instance.connections:
        prefix = f"conn_{tag[c.station]}_{tag[c.feeder]}_{tag[c.connecting]}"
        feeds = [(t + net.arcs[ai].travel_time, vid) for ai in arcs_in.get(c.station, [])
                 for t, vid in runs[c.feeder].get(ai, ())]
        outs = arcs_out.get(c.station, [])
        for t in sorted({t for ai in outs for t, _ in runs[c.connecting].get(ai, ())}):
            terms = [(vid, 1) for at, vid in feeds if at <= t]
            terms += route_terms(c.connecting, outs, -1, until=t)
            emit_once(terms, ">=", 0, f"{prefix}_{t}")
        emit_once(route_terms(c.connecting, outs), ">=", 1, f"{prefix}_dep")

    # VIA: the train departs from the required node at least once.
    for tid in sorted(trains):
        for n in trains[tid].via_nodes:
            emit_once(route_terms(tid, arcs_out.get(n, [])), ">=", 1, f"via_{tag[tid]}_{tag[n]}")

    return sys


# ---------------------------------------------------------------------------
# LP text export.


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
