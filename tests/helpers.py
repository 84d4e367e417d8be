"""Shared builders and brute-force oracles for the test suite."""

import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import raildesign
from raildesign.model import (Arc, ConnectionRequirement, HeadwayTable,
                              Instance, Network, Node, RoutedStep, Scenario,
                              Solution, TrainRequest, validate_instance)
from raildesign.polycases import sp_decompose, sp_longest
from raildesign.verify import verify

SRC = os.path.dirname(os.path.dirname(raildesign.__file__))


def run_fresh(code):
    """Standard output of ``code`` run in a new interpreter that imports
    this ``raildesign``; the start-up tests need a clean ``sys.modules``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def mk_network(arc_specs, headways=None, extra_nodes=()):
    """Network from (frm, to, tt, c, c_exp, k[, mult]) tuples; nodes inferred."""
    arcs = []
    names = []
    for spec in arc_specs:
        frm, to, tt, c, ce, k = spec[:6]
        mult = spec[6] if len(spec) > 6 else 1
        arcs.append(Arc(frm=frm, to=to, travel_time=tt, capacity=c,
                        expandable_capacity=ce, expansion_cost=Fraction(k),
                        multiplicity=mult))
        names += [frm, to]
    for n in extra_nodes:
        names.append(n)
    seen = []
    for n in names:
        if n not in seen:
            seen.append(n)
    return Network(nodes=tuple(Node(n) for n in seen), arcs=tuple(arcs),
                   headways=headways or HeadwayTable())


def mk_train(tid, origin, dest, dep, arr, optional=False, penalty=None, via=()):
    return TrainRequest(id=tid, origin=origin, destination=dest,
                        earliest_departure=dep, latest_arrival=arr,
                        optional=optional,
                        penalty=Fraction(penalty) if penalty is not None else None,
                        via_nodes=tuple(via))


def rich_instance():
    """Every instance field set: a via node, an optional train with a
    fractional penalty, a headway entry and default, a connection and two
    scenarios."""
    net = mk_network(
        [("A", "B", 1, 1, 2, "7/2"), ("B", "C", 2, 0, 1, 3)],
        headways=HeadwayTable(entries={("A", "B", "T1", "T2"): 2}, default=1))
    trains = (mk_train("T1", "A", "C", 0, 4, via=["B"]),
              mk_train("T2", "A", "B", 1, 3),
              mk_train("T3", "A", "B", 0, 4, optional=True, penalty="5/3"))
    return Instance(network=net, horizon=4, trains=trains,
                    connections=(ConnectionRequirement("B", "T2", "T1"),),
                    scenarios=(Scenario("S1", ("T1", "T2")),
                               Scenario("S2", ("T1", "T3"))),
                    capacity_window=2, allow_dwell=False)


def line_instance(c, ce, k, n_trains, horizon=2, window=1, dwell=True,
                  headway_default=0, dep=0, arr=None):
    """Single arc A->B with n identical trains; the workhorse tiny instance."""
    net = mk_network([("A", "B", 1, c, ce, k)],
                     headways=HeadwayTable(default=headway_default))
    arr = horizon if arr is None else arr
    trains = tuple(mk_train(f"T{i}", "A", "B", dep, arr) for i in range(n_trains))
    return Instance(network=net, horizon=horizon, trains=trains,
                    capacity_window=window, allow_dwell=dwell)


def two_arc_line(n_trains, horizon, dwell=True, headway=0, c=1):
    """Line A->B->C, each arc expandable by 1, with n identical trains that
    may wait at B when dwell is on."""
    net = mk_network([("A", "B", 1, c, 1, 3), ("B", "C", 1, c, 1, 2)],
                     headways=HeadwayTable(default=headway))
    trains = tuple(mk_train(f"T{i}", "A", "C", 0, horizon) for i in range(n_trains))
    return Instance(network=net, horizon=horizon, trains=trains,
                    capacity_window=1, allow_dwell=dwell)


def corridor_instance(seed, n_stations, n_trains):
    """The benchmark's corridor shape: a line S0..S<n-1> with travel times
    alternating 1, 2, capacity 1 and 1 expandable at a seeded cost of 1-9;
    trains from S0 to the last station depart 0, 2, 3, ... steps apart
    (cycling, so a gap of 0 bunches two) with slack 2, under headway 2,
    capacity window 2 and dwell."""
    rng = random.Random(seed)
    names = [f"S{i}" for i in range(n_stations)]
    net = mk_network([(a, b, 1 + i % 2, 1, 1, rng.randint(1, 9))
                      for i, (a, b) in enumerate(zip(names, names[1:]))],
                     headways=HeadwayTable(default=2))
    run = sum(a.travel_time for a in net.arcs)
    trains, dep = [], 0
    for k in range(n_trains):
        trains.append(mk_train(f"T{k:02d}", names[0], names[-1], dep, dep + run + 2))
        dep += (0, 2, 3)[k % 3]
    return Instance(network=net, horizon=max(t.latest_arrival for t in trains),
                    trains=tuple(trains), capacity_window=2, allow_dwell=True)


def row_satisfied(row, bits):
    lhs = sum(Fraction(c) * bits[v] for v, c in row.terms)
    if row.sense == "<=":
        return lhs <= row.rhs
    if row.sense == ">=":
        return lhs >= row.rhs
    return lhs == row.rhs


def enumerate_system(system):
    """Exhaustive 2^n oracle: (status, optimal objective or None)."""
    n = len(system.variables)
    obj = {v: Fraction(0) for v in range(n)}
    for vid, c in system.objective:
        obj[vid] += Fraction(c)
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        if all(row_satisfied(row, bits) for row in system.rows):
            value = Fraction(system.objective_constant) \
                + sum(obj[v] * bits[v] for v in range(n))
            if best is None or value < best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def float_mip_objective(system):
    """Optimum of the built rows by SciPy's float MIP (HiGHS), or None when
    it finds them infeasible.  A cross-check of ``solve``, not an exact one."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    n = len(system.variables)
    cost = np.zeros(n)
    for v, c in system.objective:
        cost[v] += float(c)
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, row in enumerate(system.rows):
        for v, c in row.terms:
            rows.append(r)
            cols.append(v)
            vals.append(float(c))
        lo.append(-np.inf if row.sense == "<=" else float(row.rhs))
        hi.append(np.inf if row.sense == ">=" else float(row.rhs))
    constraints = [LinearConstraint(csr_array((vals, (rows, cols)),
                                              shape=(len(lo), n)), lo, hi)] if lo else []
    res = milp(cost, integrality=np.ones(n), bounds=Bounds(0, 1), constraints=constraints)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(system.objective_constant) + res.fun


# ---------------------------------------------------------------------------
# the LP text format read back, to check ``milp.export_lp`` round trips


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
    is a list of (name, terms dict, sense, rhs).  The objective is divided by
    the scale that a ``\\ objective scaled by d`` header line names.
    """
    section = None
    scale = 1
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
        header = re.fullmatch(r"\\ objective scaled by (\d+)", raw)
        if header and section is None:
            scale = int(header.group(1))
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
    return {k: v / scale for k, v in obj_terms.items()}, obj_const / scale, rows, binaries


def system_signature(system):
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
    """``system_signature`` of ``parse_lp``'s output."""
    obj_terms, obj_const, rows, binaries = parsed
    obj = {k: v for k, v in obj_terms.items() if v != 0}
    row_map = {}
    for name, terms, sense, rhs in rows:
        row_map[name] = ({k: v for k, v in terms.items() if v != 0}, sense, rhs)
    return obj, obj_const, row_map, sorted(binaries)


# ---------------------------------------------------------------------------
# random instance generators for the special-case oracle comparisons


def random_arborescence_instance(rng: random.Random):
    """Random directed tree with tight train windows (fixed departures)."""
    n = rng.randint(3, 10)
    names = [f"N{i}" for i in range(n)]
    arcs = []
    children = {name: [] for name in names}
    for i in range(1, n):
        p = rng.randrange(i)
        tt = rng.randint(1, 2)
        arcs.append((names[p], names[i], tt, rng.randint(0, 2), rng.randint(0, 2),
                     rng.randint(0, 6)))
        children[names[p]].append((names[i], tt))
    net = mk_network(arcs)

    horizon = rng.randint(4, 10)
    trains = []
    for k in range(rng.randint(1, 6)):
        origin = rng.choice([nm for nm in names if children[nm]])
        node, total_tt = origin, 0
        while children[node] and (node == origin or rng.random() < 0.6):
            nxt, tt = rng.choice(children[node])
            node, total_tt = nxt, total_tt + tt
        dep = rng.randint(0, 2)
        trains.append(mk_train(f"T{k:02d}", origin, node, dep, dep + total_tt))
    scenarios = ()
    if len(trains) >= 2 and rng.random() < 0.4:
        cut = rng.randint(1, len(trains) - 1)
        ids = [t.id for t in trains]
        scenarios = (Scenario("S1", tuple(ids[:cut])), Scenario("S2", tuple(ids[cut:])))
    return Instance(network=net, horizon=horizon, trains=tuple(trains),
                    scenarios=scenarios,
                    capacity_window=rng.randint(1, horizon), allow_dwell=False)


def _random_sp_arcs(rng, budget, used, s, t, fresh):
    """Arc list for a random SP block from s to t; never duplicates a pair."""
    def leaf(u, v):
        if (u, v) in used or u == v:
            mid = f"M{next(fresh)}"
            return leaf(u, mid) + leaf(mid, v)
        used.add((u, v))
        return [(u, v, rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 3),
                 rng.randint(0, 5))]

    if budget <= 1:
        return leaf(s, t)
    shape = rng.random()
    if shape < 0.4:
        return leaf(s, t)
    half = rng.randint(1, budget - 1)
    if shape < 0.7:
        mid = f"M{next(fresh)}"
        return (_random_sp_arcs(rng, half, used, s, mid, fresh)
                + _random_sp_arcs(rng, budget - half, used, mid, t, fresh))
    return (_random_sp_arcs(rng, half, used, s, t, fresh)
            + _random_sp_arcs(rng, budget - half, used, s, t, fresh))


def random_sp_instance(rng: random.Random, max_arcs=12, max_trains=6):
    """Random two-terminal SP network, uniform trains, window = horizon.

    The horizon is at least the longest path, as the SP solver requires.
    """
    while True:
        fresh = itertools.count()
        arcs = _random_sp_arcs(rng, rng.randint(1, max_arcs), set(), "s", "t", fresh)
        if len(arcs) <= max_arcs:  # leaf subdivision can overshoot by a couple
            break
    net = mk_network(arcs)
    horizon = rng.randint(sp_longest(sp_decompose(net)),
                          sum(tt for (_, _, tt, *_r) in arcs) + 1)
    trains = tuple(mk_train(f"T{k:02d}", "s", "t", 0, horizon)
                   for k in range(rng.randint(0, max_trains)))
    return Instance(network=net, horizon=horizon, trains=trains,
                    capacity_window=horizon, allow_dwell=False)


# ---------------------------------------------------------------------------
# walk oracle: designs and routes enumerated, judged by ``verify`` alone


def train_walks(instance, train):
    """Every walk of ``train`` that departs its origin no earlier than its
    earliest departure, waits only where dwell is allowed and is at its
    destination within the horizon.  Walks may pass through the destination
    or come back to the origin; which of them are routes is for ``verify``
    to say."""
    out = {}
    for a in instance.network.arcs:
        out.setdefault(a.frm, []).append(a)
    walks = []

    def extend(node, now, steps):
        if node == train.destination:
            walks.append(tuple(steps))
        first = train.earliest_departure if now is None else now
        last = now if now is not None and not instance.allow_dwell else instance.horizon
        for a in out.get(node, ()):
            for t in range(first, min(last, instance.horizon - a.travel_time) + 1):
                extend(a.to, t + a.travel_time,
                       steps + [RoutedStep(a.frm, a.to, t)])

    extend(train.origin, None, [])
    return walks


def walk_oracle(instance):
    """(status, optimal objective or None), sharing no code with ``milp``.

    For every design (set of expanded arcs) and every choice of one walk per
    train, or none for an optional train, keeps the cheapest solution that
    ``verify`` accepts.  Two cuts keep it small and exact: a walk that fails
    ``verify`` with its train alone and every arc expanded is in no accepted
    solution, and expanding more arcs never breaks one, so a choice of walks
    that fails with every arc expanded fails with every design.
    """
    arcs = instance.network.arcs
    every_arc = tuple(a.key for a in arcs)
    full = sum((a.expansion_cost for a in arcs), Fraction(0))
    choices = []
    for t in instance.trains:
        alone = dataclasses.replace(instance, trains=(t,), connections=(), scenarios=())
        walks = [w for w in train_walks(instance, t)
                 if not verify(alone, Solution(every_arc, {t.id: w}, full, full, Fraction(0)))]
        choices.append(walks + [None] if t.optional else walks)
    designs = sorted(
        (sum((a.expansion_cost for a, on in zip(arcs, bits) if on), Fraction(0)),
         tuple(a.key for a, on in zip(arcs, bits) if on))
        for bits in itertools.product((0, 1), repeat=len(arcs)))
    best = None
    for combo in itertools.product(*choices):
        penalty = sum((t.penalty for t, w in zip(instance.trains, combo) if w is None),
                      Fraction(0))
        routes = {t.id: w for t, w in zip(instance.trains, combo) if w is not None}
        if (best is not None and penalty >= best) or verify(
                instance, Solution(every_arc, routes, full + penalty, full, penalty)):
            continue
        for cost, expanded in designs:
            if best is not None and cost + penalty >= best:
                break
            if not verify(instance, Solution(expanded, routes, cost + penalty, cost, penalty)):
                best = cost + penalty
                break
    return ("infeasible", None) if best is None else ("optimal", best)


def _reachable(pairs, start):
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for a, b in pairs:
            if a == u and b not in seen:
                seen.add(b)
                stack.append(b)
    return seen - {start}


def random_walk_instance(rng: random.Random):
    """Tiny valid instance for ``walk_oracle``: a line of 3-4 stations with
    some reverse arcs and a chord, 1-3 trains (optional ones, 1-2 VIA), headway
    0-2, capacity window 1-2, sometimes two scenarios or a connection."""
    while True:
        names = "ABCD"[:rng.randint(3, 4)]
        pairs = list(zip(names, names[1:]))
        pairs += [(b, a) for a, b in pairs if rng.random() < 0.6]
        if rng.random() < 0.4:
            pairs.append((names[0], names[-1]))
        net = mk_network([(a, b, rng.choice((1, 1, 2)), rng.randint(0, 1),
                           int(rng.random() < 0.8), rng.randint(0, 4)) for a, b in pairs],
                         headways=HeadwayTable(default=rng.randint(0, 2)))
        horizon = rng.randint(3, 5)
        trains = []
        ahead = {n: _reachable(pairs, n) for n in names}
        for k in range(rng.randint(1, 3)):
            origin = rng.choice([n for n in names if ahead[n]])
            dest = rng.choice(sorted(ahead[origin]))
            dep = rng.randint(0, 1)
            optional = rng.random() < 0.3
            others = [n for n in names if n not in (origin, dest)]
            via = []
            if not optional and rng.random() < 0.3:
                via = rng.sample(others, rng.randint(1, len(others)))
            trains.append(mk_train(f"T{k}", origin, dest, dep,
                                   rng.randint(min(dep + 2, horizon), horizon),
                                   optional=optional,
                                   penalty=rng.randint(1, 6) if optional else None, via=via))
        ids = [t.id for t in trains]
        scenarios = ()
        if len(ids) >= 2 and rng.random() < 0.3:
            scenarios = (Scenario("S1", tuple(ids[:-1])), Scenario("S2", tuple(ids[1:])))
        connections = ()
        mandatory = [t for t in trains if not t.optional]
        if len(mandatory) >= 2 and rng.random() < 0.3:
            feeder, connecting = rng.sample(mandatory, 2)
            connections = (ConnectionRequirement(feeder.destination, feeder.id,
                                                 connecting.id),)
        inst = Instance(network=net, horizon=horizon, trains=tuple(trains),
                        connections=connections, scenarios=scenarios,
                        capacity_window=rng.randint(1, 2), allow_dwell=rng.random() < 0.5)
        if validate_instance(inst).ok:
            return inst


def bunched_line_instance(rng: random.Random):
    """Tiny valid instance for ``walk_oracle`` on which counting forces
    expansions: a line of 3-4 stations with travel times 1-2, capacity 0-1
    and mostly 1 expandable, capacity window 1-3, and 3-4 trains from the
    first station to the last that depart within two steps of each other
    with slack 0-2.  About a quarter of the trains are optional, and two
    scenarios hold all trains but the last and all but the first."""
    while True:
        names = [f"S{i}" for i in range(rng.randint(3, 4))]
        net = mk_network([(a, b, rng.randint(1, 2), rng.randint(0, 1),
                           int(rng.random() < 0.8), rng.randint(1, 5))
                          for a, b in zip(names, names[1:])])
        run = sum(a.travel_time for a in net.arcs)
        trains = []
        for k in range(rng.randint(3, 4)):
            dep = rng.randint(0, 2)
            optional = rng.random() < 0.25
            trains.append(mk_train(f"T{k}", names[0], names[-1], dep,
                                   dep + run + rng.randint(0, 2), optional=optional,
                                   penalty=rng.randint(1, 6) if optional else None))
        ids = [t.id for t in trains]
        inst = Instance(network=net, horizon=max(t.latest_arrival for t in trains),
                        trains=tuple(trains),
                        scenarios=(Scenario("S1", tuple(ids[:-1])),
                                   Scenario("S2", tuple(ids[1:]))),
                        capacity_window=rng.randint(1, 3), allow_dwell=rng.random() < 0.5)
        if validate_instance(inst).ok:
            return inst
