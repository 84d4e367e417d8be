"""Times at a reference speed, so the benchmark's figures follow the program
rather than the machine.

On a shared host the CPU's speed drifts by half or more within minutes, and
the same code on the same input can take a third longer in one run than in
the next (contention for the core, its caches and its clock, which the
process's CPU time does not leave out).  The runner therefore takes a few
samples of a fixed piece of pure-Python work, ``reference_loop``, before each
operation, outside the timed region, and scales each operation's CPU time by

    REF_SECONDS / (median of the samples taken around it)

The samples around an operation are those taken before it and before the
``WINDOW`` operations on either side of it, in the order they ran.  The
result reads as CPU seconds on a machine where ``reference_loop`` takes
``REF_SECONDS``, about what it takes on a quiet 2-vCPU VM.  The loop uses only
the standard library and no code of the program, so a change to the program
moves the scaled times and not the scale.  The collector is off while a
sample runs, so the program's heap does not leak into it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from fractions import Fraction

REF_SECONDS = 0.0005  # the loop's CPU time at the reference speed
SAMPLES = 3  # samples taken before each operation
WINDOW = 8  # operations on each side whose samples scale one operation


def _reference_text():
    rng = random.Random(0)
    return json.dumps([{"id": f"n{i}", "w": [rng.randint(0, 99) for _ in range(6)]}
                       for i in range(100)])


REFERENCE_TEXT = _reference_text()


def reference_loop():
    """Two halves, of the kinds of work the program's path does.  The first
    parses a fixed JSON text and builds, sorts and indexes records with
    ``Fraction`` fields (reading an instance file, building rows with exact
    coefficients); the second is a tight loop of dict updates and small
    ``Fraction`` sums (the search's bookkeeping around its LP calls)."""
    records = json.loads(REFERENCE_TEXT)
    rows = [(r["id"], sum(r["w"]), Fraction(r["w"][0] + 1, r["w"][1] + 1))
            for r in records]
    rows.sort(key=lambda row: (row[1], row[0]))
    index = {row[0]: k for k, row in enumerate(rows)}
    total = sum((row[2] for row in rows), Fraction(0))
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 50 == 0:
            total += Fraction(i, 7)
    return total, len(index), len(table)


def sample(clock, n=SAMPLES):
    """CPU seconds of ``n`` runs of the reference loop, one each."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(n):
            t = clock()
            reference_loop()
            out.append(clock() - t)
        return out
    finally:
        if enabled:
            gc.enable()


def scale(rounds_times, rounds_refs, window=WINDOW):
    """Each operation's time at the reference speed.

    ``rounds_times[r][i]`` is operation i's CPU time in round r and
    ``rounds_refs[r][i]`` the samples taken just before it; the rounds ran
    one after the other, so the flattened lists are in time order.
    """
    times = [t for per_round in rounds_times for t in per_round]
    refs = [s for per_round in rounds_refs for s in per_round]
    scaled = []
    for j, t in enumerate(times):
        near = [x for s in refs[max(0, j - window):j + window + 1] for x in s]
        scaled.append(t * REF_SECONDS / statistics.median(near))
    n = len(rounds_times[0])
    return [scaled[r * n:(r + 1) * n] for r in range(len(rounds_times))]


def reference_median(rounds_refs):
    return statistics.median(x for per_round in rounds_refs for s in per_round for x in s)
