"""Exact special-case solvers: arborescences and series-parallel graphs.

Both assume fixed departure times and no headway interaction; instances
outside those assumptions are rejected with a diagnostic so the caller can
fall back to the full model.  The series-parallel solver also needs one
origin, destination and departure for all trains, window = horizon, at most
one scenario, and every source-to-sink path within the time allowed.  Then
a train chooses only its path, and the number of trains on each arc alone
decides the cost.
Only the series-parallel solver takes an arc of multiplicity above 1, as
that many parallel copies; the arborescence solver declines one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import RoutedStep, Solution, effective_scenarios, priced

INF = float("inf")


class UnsupportedInstance(ValueError):
    """Instance shape outside what the special-case solver covers."""


def _require(cond, why):
    if not cond:
        raise UnsupportedInstance(why)


def _no_headways(instance):
    net = instance.network
    return not any(net.headways.applies(a.frm, a.to) for a in net.arcs)


# ---------------------------------------------------------------------------
# Arborescences


def is_arborescence(network):
    """Root id if the network is a directed tree fanning out of one root."""
    nodes = network.node_ids()
    if not nodes:
        return None
    indeg = {n: 0 for n in nodes}
    children = {n: [] for n in nodes}
    for a in network.arcs:
        indeg[a.to] += 1
        children[a.frm].append(a.to)
    roots = [n for n in nodes if indeg[n] == 0]
    if len(roots) != 1 or any(indeg[n] != 1 for n in nodes if n != roots[0]):
        return None
    # connectivity from the root; with in-degrees as above this also rules
    # out cycles (a cycle node would be unreachable)
    seen = {roots[0]}
    frontier = [roots[0]]
    while frontier:
        n = frontier.pop()
        for ch in children[n]:
            if ch not in seen:
                seen.add(ch)
                frontier.append(ch)
    if len(seen) != len(nodes):
        return None
    return roots[0]


def _tree_path(parent, origin, destination):
    """Arcs from origin to destination up the ``parent`` arc map, or None."""
    path = []
    node = destination
    while node != origin:
        arc = parent.get(node)
        if arc is None:
            return None
        path.append(arc)
        node = arc.frm
    path.reverse()
    return path


def solve_arborescence(instance) -> Solution | None:
    """Count forced departures per arc and window; None means infeasible.

    Requires the fixed-departure regime: each train's arrival window must
    pin its departure to the earliest departure time exactly.
    """
    net = instance.network
    _require(is_arborescence(net) is not None, "network is not an arborescence")
    _require(all(a.multiplicity == 1 for a in net.arcs), "multi-arcs are not supported here")
    _require(not instance.allow_dwell, "dwell must be disabled for the arborescence solver")
    _require(_no_headways(instance), "nontrivial headways are not supported here")
    _require(all(not t.optional for t in instance.trains),
             "optional trains are not supported here")

    window = instance.capacity_window
    horizon = instance.horizon
    routes = {}
    arrivals = {}  # (train, node) -> arrival time there
    departures = {}  # (arc key) -> list of (train id, depart t)
    parent = {a.to: a for a in net.arcs}
    for t in instance.trains:
        path = _tree_path(parent, t.origin, t.destination)
        if path is None:
            return None
        total_tt = sum(a.travel_time for a in path)
        if t.earliest_departure + total_tt > t.latest_arrival:
            return None
        _require(t.earliest_departure + total_tt == t.latest_arrival,
                 f"train {t.id}: arrival window leaves departure slack; "
                 "the fixed-departure assumption does not hold")
        if t.earliest_departure + total_tt > horizon:
            return None
        now = t.earliest_departure
        steps = []
        for arc in path:
            steps.append(RoutedStep(arc.frm, arc.to, now))
            departures.setdefault(arc.key, []).append((t.id, now))
            now += arc.travel_time
            arrivals[(t.id, arc.to)] = now
        arrivals[(t.id, t.origin)] = t.earliest_departure
        for v in t.via_nodes:
            if all(s.frm != v for s in steps):
                return None
        routes[t.id] = tuple(steps)

    for c in instance.connections:
        dep_t = next((s.depart for s in routes[c.connecting] if s.frm == c.station), None)
        arr_t = arrivals.get((c.feeder, c.station))
        if dep_t is None or arr_t is None or arr_t > dep_t:
            return None

    expanded = []
    by_key = net.arc_by_key()
    for sc in effective_scenarios(instance):
        members = set(sc.train_ids)
        for key, deps in departures.items():
            times = sorted(t for (tid, t) in deps if tid in members)
            if not times:
                continue
            arc = by_key[key]
            worst = 0
            for t0 in range(0, horizon - window + 2):
                worst = max(worst, sum(1 for t in times if t0 <= t < t0 + window))
            if worst > arc.capacity + arc.expandable_capacity:
                return None
            if worst > arc.capacity and key not in expanded:
                expanded.append(key)
    return priced(instance, sorted(expanded), routes)


# ---------------------------------------------------------------------------
# Series-parallel graphs


@dataclass
class SpTree:
    kind: str  # leaf | series | parallel
    source: str
    sink: str
    arc: object = None  # model.Arc, leaf only
    left: "SpTree | None" = None
    right: "SpTree | None" = None


def sp_decompose(network) -> SpTree | None:
    """SP-tree for a two-terminal series-parallel network, else None.

    Arcs with multiplicity m enter as m parallel leaf copies.  Recognition
    is by exhaustive series/parallel reduction on the multigraph.
    """
    nodes = network.node_ids()
    if not nodes:
        return None
    indeg = {n: 0 for n in nodes}
    outdeg = {n: 0 for n in nodes}
    edges = []  # [u, v, SpTree]
    for a in network.arcs:
        for _ in range(a.multiplicity):
            edges.append([a.frm, a.to, SpTree("leaf", a.frm, a.to, arc=a)])
            indeg[a.to] += 1
            outdeg[a.frm] += 1
    sources = [n for n in nodes if indeg[n] == 0]
    sinks = [n for n in nodes if outdeg[n] == 0]
    if len(sources) != 1 or len(sinks) != 1 or not edges:
        return None
    s, t = sources[0], sinks[0]

    changed = True
    while changed and len(edges) > 1:
        changed = False
        # parallel merges first: earliest pair with equal endpoints
        seen = {}
        for i, e in enumerate(edges):
            key = (e[0], e[1])
            if key in seen:
                j = seen[key]
                a, b = edges[j], edges[i]
                merged = [a[0], a[1], SpTree("parallel", a[0], a[1], left=a[2], right=b[2])]
                edges = [e2 for k2, e2 in enumerate(edges) if k2 not in (i, j)]
                edges.insert(j, merged)
                changed = True
                break
            seen[key] = i
        if changed:
            continue
        # series merge at an interior node with one in- and one out-edge
        inc = {}
        out = {}
        for i, e in enumerate(edges):
            inc.setdefault(e[1], []).append(i)
            out.setdefault(e[0], []).append(i)
        for n in nodes:
            if n in (s, t):
                continue
            if len(inc.get(n, [])) == 1 and len(out.get(n, [])) == 1:
                i, j = inc[n][0], out[n][0]
                a, b = edges[i], edges[j]
                if a[0] == b[1]:
                    continue  # two-cycle through n is not series-reducible
                merged = [a[0], b[1], SpTree("series", a[0], b[1], left=a[2], right=b[2])]
                pos = min(i, j)
                edges = [e2 for k2, e2 in enumerate(edges) if k2 not in (i, j)]
                edges.insert(pos, merged)
                changed = True
                break

    if len(edges) == 1 and edges[0][0] == s and edges[0][1] == t:
        return edges[0][2]
    return None


def sp_leaves(tree: SpTree):
    if tree.kind == "leaf":
        return [tree.arc]
    return sp_leaves(tree.left) + sp_leaves(tree.right)


def sp_cost_base(arc, v: int):
    """Expansion cost of pushing v trains over one arc; inf when impossible."""
    if v < 0:
        raise ValueError("train count must be non-negative")
    if v <= arc.capacity:
        return Fraction(0)
    if v <= arc.capacity + arc.expandable_capacity:
        return Fraction(arc.expansion_cost)
    return INF


def sp_longest(tree: SpTree) -> int:
    """Travel time of the longest source-to-sink path through the SP tree."""
    if tree.kind == "leaf":
        return tree.arc.travel_time
    left, right = sp_longest(tree.left), sp_longest(tree.right)
    return left + right if tree.kind == "series" else max(left, right)


def _sp_preconditions(instance, tree):
    _require(not instance.allow_dwell, "dwell must be disabled for the SP solver")
    _require(_no_headways(instance), "nontrivial headways are not supported here")
    _require(all(not t.optional for t in instance.trains),
             "optional trains are not supported here")
    _require(not instance.connections, "connections are not supported here")
    _require(all(not t.via_nodes for t in instance.trains),
             "VIA nodes are not supported here")
    _require(instance.capacity_window == instance.horizon,
             "the SP solver needs aggregate capacity (window = horizon)")
    _require(len(instance.scenarios) <= 1, "the SP solver takes at most one scenario")
    trains = instance.trains
    if trains:
        t = trains[0]
        _require(all(u.origin == tree.source and u.destination == tree.sink for u in trains),
                 "all trains must run from the SP source to the SP sink")
        _require(all(u.earliest_departure == t.earliest_departure
                     and u.latest_arrival == t.latest_arrival for u in trains),
                 "all trains must share the fixed departure and the latest arrival")
        _require(t.earliest_departure + sp_longest(tree)
                 <= min(t.latest_arrival, instance.horizon),
                 "the longest path arrives after the latest arrival or the "
                 "horizon, so the choice of path would depend on time")


def sp_cost_table(tree: SpTree, n_trains: int):
    """Bottom-up tables of the least expansion cost of routing v = 0..n
    trains through each SP block.

    Returns (cost, split) dicts keyed by id(tree node): ``cost[...][v]``,
    and for a parallel node ``split[...][v]``, the trains sent left.
    """
    cost = {}
    split = {}

    def fill(node):
        if node.kind == "leaf":
            cost[id(node)] = [sp_cost_base(node.arc, v) for v in range(n_trains + 1)]
            return
        fill(node.left)
        fill(node.right)
        lt, rt = cost[id(node.left)], cost[id(node.right)]
        if node.kind == "series":  # every train crosses both halves
            cost[id(node)] = [a + b for a, b in zip(lt, rt)]
            return
        # ties go to the fewest trains on the left
        best = [min((lt[v1] + rt[v - v1], v1) for v1 in range(v + 1))
                for v in range(n_trains + 1)]
        cost[id(node)] = [c for c, _ in best]
        split[id(node)] = [v1 for _, v1 in best]

    fill(tree)
    return cost, split


def _recover_paths(tree, split, v):
    """List of v leaf-node paths realizing the optimal table entry.

    Paths hold leaf SpTree nodes rather than arcs so that multiplicity
    copies of one arc keep separate capacities.
    """
    if v == 0:
        return []
    if tree.kind == "leaf":
        return [[tree] for _ in range(v)]
    if tree.kind == "series":
        left = _recover_paths(tree.left, split, v)
        right = _recover_paths(tree.right, split, v)
        return [lp + rp for lp, rp in zip(left, right)]
    v1 = split[id(tree)][v]
    return _recover_paths(tree.left, split, v1) + _recover_paths(tree.right, split, v - v1)


def solve_series_parallel(instance) -> Solution | None:
    tree = sp_decompose(instance.network)
    _require(tree is not None, "network is not two-terminal series-parallel")
    _sp_preconditions(instance, tree)
    trains = instance.trains
    nv = len(trains)
    cost, split = sp_cost_table(tree, nv)
    root = cost[id(tree)][nv]
    if root == INF:
        return None

    paths = _recover_paths(tree, split, nv)
    # interchangeable trains: assign ids to paths in lexicographic order
    order = sorted(t.id for t in trains)
    routes = {}
    usage = {}  # id(leaf) -> (leaf, trains on it)
    for tid, path in zip(order, paths):
        now = trains[0].earliest_departure
        steps = []
        for leaf in path:
            arc = leaf.arc
            steps.append(RoutedStep(arc.frm, arc.to, now))
            usage[id(leaf)] = (leaf, usage.get(id(leaf), (leaf, 0))[1] + 1)
            now += arc.travel_time
        routes[tid] = tuple(steps)

    sol = priced(instance, sorted(leaf.arc.key for leaf, count in usage.values()
                                  if count > leaf.arc.capacity), routes)
    if sol.objective_value != root:
        raise RuntimeError("recovered paths disagree with the cost table")
    return sol
