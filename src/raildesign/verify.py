"""Semantic re-check of a solution against an instance.

Deliberately independent of the constraint builder: windows, gaps and
balances are recomputed from the domain rules, so disagreement with the
row-based model points at a bug in one of the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .model import effective_scenarios

FAMILIES = ("capacity", "departure", "arrival", "headway", "flow",
            "connection", "via", "objective", "structure")


@dataclass(frozen=True)
class Violation:
    family: str
    detail: str


def verify(instance, solution) -> list:
    violations = []

    def bad(family, detail):
        violations.append(Violation(family, detail))

    net = instance.network
    arcs = net.arc_by_key()
    trains = instance.train_by_id()
    horizon = instance.horizon
    window = instance.capacity_window

    # An arc of multiplicity m is m parallel copies, each expandable once.
    # Its copies are interchangeable only when one window spans the horizon
    # and no headway separates departures on it; elsewhere it would matter
    # which copy each step takes, and a solution does not say.
    for a in net.arcs:
        if a.multiplicity != 1 and (window != horizon or net.headways.applies(a.frm, a.to)):
            bad("structure", f"arc {a.frm}->{a.to}: a multi-arc is verifiable only with "
                "capacity window = horizon and no headway on it")
            return _ordered(violations)

    for tid in solution.routes:
        if tid not in trains:
            bad("structure", f"route for undeclared train {tid}")

    # route structure, departure and arrival windows
    for tid, steps in solution.routes.items():
        if tid not in trains:
            continue
        t = trains[tid]
        if not steps:
            bad("flow", f"train {tid}: empty route")
            continue
        ok_structure = True
        for s in steps:
            arc = arcs.get((s.frm, s.to))
            if arc is None:
                bad("structure", f"train {tid}: step {s.frm}->{s.to} uses an undeclared arc")
                ok_structure = False
            elif s.depart < 0:
                bad("structure", f"train {tid}: step {s.frm}->{s.to} departs at {s.depart}, "
                    f"before time 0")
            elif s.depart + arc.travel_time > horizon:
                bad("structure", f"train {tid}: step {s.frm}->{s.to} at {s.depart} "
                    f"crosses the horizon")
        if not ok_structure:
            continue
        if steps[0].frm != t.origin:
            bad("flow", f"train {tid}: route starts at {steps[0].frm}, not the origin")
        if steps[-1].to != t.destination:
            bad("flow", f"train {tid}: route ends at {steps[-1].to}, not the destination")
        for s in steps:
            # a route leaves its origin once and ends at its first arrival
            if s.to == t.origin:
                bad("flow", f"train {tid}: step {s.frm}->{s.to} returns to the origin")
            if s.frm == t.destination:
                bad("flow", f"train {tid}: step {s.frm}->{s.to} leaves the destination")
        if steps[0].depart < t.earliest_departure:
            bad("departure", f"train {tid}: departs at {steps[0].depart} before "
                f"{t.earliest_departure}")
        now = None
        node = steps[0].frm
        contiguous = True
        for s in steps:
            if s.frm != node:
                bad("flow", f"train {tid}: step {s.frm}->{s.to} does not continue the walk")
                contiguous = False
                break
            if now is not None:
                if s.depart < now:
                    bad("flow", f"train {tid}: departs {s.frm} at {s.depart} before "
                        f"arriving at {now}")
                    contiguous = False
                    break
                if s.depart > now and not instance.allow_dwell:
                    bad("flow", f"train {tid}: dwells at {s.frm} although dwell is disabled")
                    contiguous = False
                    break
            arc = arcs[(s.frm, s.to)]
            node = s.to
            now = s.depart + arc.travel_time
        if contiguous and now is not None and steps[-1].to == t.destination:
            if now > t.latest_arrival:
                bad("arrival", f"train {tid}: arrives at {now} after {t.latest_arrival}")

    for tid, t in sorted(trains.items()):
        if not t.optional and tid not in solution.routes:
            bad("flow", f"non-optional train {tid} has no route")

    # per-scenario capacity windows and headway gaps; an arc is listed once
    # per expanded copy
    expanded = Counter(solution.expanded_arcs)
    for key, k in expanded.items():
        if key not in arcs:
            bad("structure", f"expanded arc {key[0]}->{key[1]} is not declared")
        elif k > arcs[key].multiplicity:
            bad("structure", f"arc {key[0]}->{key[1]} is expanded {k} times, above its "
                f"multiplicity {arcs[key].multiplicity}")
    departures = {}  # arc key -> list of (t, train)
    for tid, steps in solution.routes.items():
        for s in steps:
            if (s.frm, s.to) in arcs:
                departures.setdefault((s.frm, s.to), []).append((s.depart, tid))
    for sc in effective_scenarios(instance):
        members = set(sc.train_ids)
        for key in sorted(departures):
            arc = arcs[key]
            deps = sorted((d, tid) for d, tid in departures[key] if tid in members)
            if not deps:
                continue
            cap = (arc.multiplicity * arc.capacity
                   + min(expanded[key], arc.multiplicity) * arc.expandable_capacity)
            for t0 in range(0, horizon - window + 2):
                n = sum(1 for d, _ in deps if t0 <= d < t0 + window)
                if n > cap:
                    bad("capacity", f"arc {key[0]}->{key[1]} scenario {sc.id}: "
                        f"{n} departures in window [{t0},{t0 + window}) exceed {cap}")
                    break
            for i, (t1, v1) in enumerate(deps):
                for t2, v2 in deps[i + 1:]:
                    if t1 == t2 or v1 == v2:  # a headway keeps a train from another one
                        continue
                    m = net.headways.get(key[0], key[1], v1, v2)
                    if t2 - t1 < m:
                        bad("headway", f"arc {key[0]}->{key[1]} scenario {sc.id}: "
                            f"{v2} departs {t2 - t1} after {v1}, below headway {m}")

    # connections: cumulative feeder arrivals dominate connecting departures
    for c in instance.connections:
        feeder_arrivals = sorted(
            s.depart + arcs[(s.frm, s.to)].travel_time
            for s in solution.routes.get(c.feeder, ())
            if s.to == c.station and (s.frm, s.to) in arcs)
        connecting_departures = sorted(
            s.depart for s in solution.routes.get(c.connecting, ())
            if s.frm == c.station)
        if not connecting_departures:
            bad("connection", f"station {c.station}: {c.connecting} never departs it")
            continue
        for t in range(0, horizon + 1):
            arr = sum(1 for a in feeder_arrivals if a <= t)
            dep = sum(1 for d in connecting_departures if d <= t)
            if dep > arr:
                bad("connection", f"station {c.station}: {c.connecting} departs at "
                    f"time {t} before {c.feeder} has arrived")
                break

    # VIA nodes are departed from
    for tid, t in sorted(trains.items()):
        steps = solution.routes.get(tid, ())
        for n in t.via_nodes:
            if all(s.frm != n for s in steps):
                bad("via", f"train {tid} never passes through {n}")

    # objective consistency, exact rational comparison
    expansion = sum((arcs[key].expansion_cost * k for key, k in expanded.items()
                     if key in arcs), Fraction(0))
    penalty = sum((t.penalty for tid, t in sorted(trains.items())
                   if t.optional and tid not in solution.routes), Fraction(0))
    if solution.expansion_cost_total != expansion:
        bad("objective", f"expansion total {solution.expansion_cost_total} != {expansion}")
    if solution.penalty_total != penalty:
        bad("objective", f"penalty total {solution.penalty_total} != {penalty}")
    if solution.objective_value != expansion + penalty:
        bad("objective", f"objective {solution.objective_value} != {expansion + penalty}")

    return _ordered(violations)


def _ordered(violations):
    rank = {f: i for i, f in enumerate(FAMILIES)}
    return sorted(set(violations), key=lambda v: (rank[v.family], v.detail))
