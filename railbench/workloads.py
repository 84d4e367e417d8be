"""Seeded instance generators for the benchmark's three workloads.

Every generator is a pure function of the seed it is given, so one seed
always yields byte-identical instance files.  Corridor and scenario
instances are written straight in the instance JSON format; exact-cover
instances go through the program's own reduction (``gen_random_x3c`` and
``x3c_to_instance``), which is the generator the paper's hardness proof
describes.  Each workload is a list of entries; ``write_workload`` turns it
into files under one directory and returns the manifest the runner reads.
"""

from __future__ import annotations

import json
import os
import random
import zlib

# Each class lists its parameters and how many instances of it a round
# holds.  Seeds vary every instance, so the per-seed spread of a round's
# time comes from how much one class's instances differ; classes whose
# solve time varies little from draw to draw get more copies, and the heavy
# ones few, so that ten seeds agree within the benchmark's bounds.

# Exact-cover instances: (q, number of subsets, planted, copies), q = 2..6.
# Planted instances have a cover (optimum 3q) and one subset more than a
# cover needs, so each takes a few LP-bound nodes.  Unplanted ones have a
# single subset beyond q and, in practice, no cover: the infeasible status,
# proved within a few nodes, in a time that varies little from draw to
# draw.  More extra subsets made the node count, and so the round time,
# swing by a third from seed to seed.  The round is built around its median:
# 25 unplanted q = 4 instances (one node each, the middle of the time range)
# sit between 13 smaller and 13 larger ones, so the median instance is the
# middle of that block, and a few instances of the other classes that take
# more or fewer nodes than usual move it by a rank or two inside the block
# rather than across a gap between classes.  The search (1 to 9 nodes per
# planted instance) sits mostly in the small classes, where a node is cheap;
# the large ones are mostly unplanted q = 5 and 6, one node each, since a
# planted q = 5 or 6 instance that happens to branch costs three times one
# that does not, and a few of them made the round time follow the seed.
X3C_CLASSES = ((2, 3, False, 3), (3, 4, False, 3), (2, 3, True, 4), (3, 4, True, 3),
               (4, 5, False, 25),
               (4, 5, True, 1), (5, 6, True, 2), (6, 7, True, 1),
               (5, 6, False, 5), (6, 7, False, 4))

# Corridor instances: (stations, trains, departure gaps, slacks, copies).
# Travel times alternate 1, 2, 1, ..., capacity 1 with 1 expandable, costs
# 1-9, headway 2, capacity window 2, dwell allowed.  A gap of 0 bunches two
# trains, which must be split by slack or paid for by an expansion; the LP
# relaxation prices that poorly, so each instance takes 20 to 100 nodes.
# The two classes take about the same time, so the median instance falls
# inside their common range rather than between two clusters.  The costs
# are what the seed draws, and they set the amount of search, so each
# class draws them as a Latin hypercube: on every arc, the class's copies
# take a seeded shuffle of the same evenly spread costs, and the seed
# decides which copy gets which combination rather than how many cheap
# arcs the class has.
CORRIDOR_CLASSES = ((4, 5, (0, 2, 3), (2,), 12), (3, 8, (0, 2, 3), (2,), 12))

# Scenario instances: (stations, trains, departure gaps, optional trains,
# scenarios, copies).  Many scenarios over one train pool make the model
# large (rows grow with scenarios x trains^2 x times), while the search
# stays within a few nodes.  One class only: its instances take within a
# tenth of each other, so the median and the total hardly move with the seed.
SCENARIO_CLASSES = ((4, 8, (0, 2, 3), 3, 6, 14),)


def _sub_seed(seed, name):
    """Independent, reproducible stream per instance, stable across Python
    runs (``hash`` of a string is salted per process, crc32 is not)."""
    return zlib.crc32(f"{seed}:{name}".encode())


def _line(rng, n_stations, costs=None):
    """The travel times alternate 1, 2, 1, ..., so the horizon, and with it
    the size of the time-expanded model, is fixed per class; drawn travel
    times doubled the spread of solve times within a class.  The expansion
    costs are ``costs`` or, without it, drawn from 1-9."""
    if costs is None:
        costs = [rng.randint(1, 9) for _ in range(n_stations - 1)]
    nodes = [{"id": f"S{i}"} for i in range(n_stations)]
    arcs = [{"from": f"S{i}", "to": f"S{i + 1}", "travel_time": 1 + i % 2,
             "capacity": 1, "expandable_capacity": 1,
             "expansion_cost": costs[i]}
            for i in range(n_stations - 1)]
    return nodes, arcs


def cost_hypercube(seed, n_arcs, copies):
    """Expansion costs for ``copies`` lines of ``n_arcs`` arcs: on each arc,
    a seeded shuffle of ``copies`` costs spread evenly over 1-9."""
    rng = random.Random(seed)
    columns = []
    for _ in range(n_arcs):
        column = [1 + 9 * i // copies for i in range(copies)]
        rng.shuffle(column)
        columns.append(column)
    return [[column[c] for column in columns] for c in range(copies)]


def corridor(seed, n_stations, n_trains, gaps, slacks, costs=None):
    """Line of ``n_stations`` with ``n_trains`` from the first station to the
    last, on a periodic timetable: successive departures are ``gaps[0]``,
    ``gaps[1]``, ... steps apart, cycling, so a gap of 0 puts two trains on
    the same departure.  The seed draws the line's expansion costs, unless
    ``costs`` gives them, and each train's slack from ``slacks``: the
    arrival window exceeds the running time by that much.  Keeping the timetable fixed per class keeps
    the amount of search close from one seed to the next."""
    rng = random.Random(seed)
    nodes, arcs = _line(rng, n_stations, costs)
    run = sum(a["travel_time"] for a in arcs)
    trains, dep = [], 0
    for k in range(n_trains):
        slack = rng.choice(slacks)
        trains.append({"id": f"T{k:02d}", "origin": "S0",
                       "destination": f"S{n_stations - 1}",
                       "earliest_departure": dep, "latest_arrival": dep + run + slack})
        dep += gaps[k % len(gaps)]
    horizon = max(t["latest_arrival"] for t in trains)
    return {"nodes": nodes, "arcs": arcs, "trains": trains,
            "horizon": horizon, "capacity_window": 2, "headway_default": 2,
            "allow_dwell": True}


def scenarios(seed, n_stations, n_trains, gaps, n_optional, n_scenarios):
    """Robust corridor: overlapping scenarios over a shared train pool.

    Mandatory trains have slack 1 or 2.  Optional trains run to a fixed
    timetable (slack 0) and carry a penalty: each conflict they meet is
    settled by expanding an arc or by dropping the train.  Each scenario
    holds a random 60% of the trains, so scenarios overlap heavily; the few
    trains no scenario drew join one at random.
    """
    rng = random.Random(seed)
    inst = corridor(rng.randrange(1 << 30), n_stations, n_trains, gaps, (1, 2))
    run = sum(a["travel_time"] for a in inst["arcs"])
    ids = [t["id"] for t in inst["trains"]]
    for t in rng.sample(inst["trains"], n_optional):
        t["optional"] = True
        t["penalty"] = rng.randint(2, 12)
        t["latest_arrival"] = t["earliest_departure"] + run
    members = [set(rng.sample(ids, round(0.6 * n_trains))) for _ in range(n_scenarios)]
    for tid in ids:
        if not any(tid in m for m in members):
            members[rng.randrange(n_scenarios)].add(tid)
    inst["scenarios"] = [{"id": f"sc{s}", "train_ids": sorted(m)}
                         for s, m in enumerate(members)]
    return inst


def write_workload(workload, seed, out_dir):
    """Generate and write every instance of one workload; returns the manifest.

    The manifest lists, per instance, its file and what the oracles need:
    the ground set and subsets for exact-cover instances.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    if workload == "x3c":
        from raildesign import reduction
        from raildesign.model import save_instance
        for q, m, planted, copies in X3C_CLASSES:
            for c in range(copies):
                name = f"x3c-q{q}-m{m}-{'p' if planted else 'u'}{c}"
                x3c = reduction.gen_random_x3c(q, m, _sub_seed(seed, name), planted=planted)
                inst, _ = reduction.x3c_to_instance(x3c)
                path = os.path.join(out_dir, name + ".json")
                save_instance(inst, path)
                entries.append({"path": path, "ground_set": list(x3c.ground_set),
                                "subsets": [sorted(s) for s in x3c.subsets]})
    elif workload in ("corridor", "scenarios"):
        classes = CORRIDOR_CLASSES if workload == "corridor" else SCENARIO_CLASSES
        for *spec, copies in classes:
            label = "-".join(".".join(map(str, x)) if isinstance(x, tuple) else str(x)
                             for x in spec)
            if workload == "corridor":
                costs = cost_hypercube(_sub_seed(seed, f"{workload}-{label}"),
                                       spec[0] - 1, copies)
            for c in range(copies):
                name = f"{workload}-{label}-{c}"
                if workload == "corridor":
                    data = corridor(_sub_seed(seed, name), *spec, costs=costs[c])
                else:
                    data = scenarios(_sub_seed(seed, name), *spec)
                path = os.path.join(out_dir, name + ".json")
                with open(path, "w") as fh:
                    json.dump(data, fh, indent=1)
                entries.append({"path": path})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return entries
