"""Per-layer spans and counters for the traced run.

The program itself is not instrumented.  ``Tracer.install`` replaces a few
module attributes with timing wrappers and ``Tracer.remove`` puts the
originals back:

  raildesign.milp.expand          -> timegraph.expand_s
  raildesign.solver_bb._linprog   -> solver_bb.lp_s, lp_calls, root LP value
  raildesign.solver_bb.PropEngine -> kernel.engine_s (propagate_root, assign,
                                     backtrack, mark), kernel.assign_calls,
                                     kernel.value_calls

The runner adds spans around its own calls into each layer (load and
validate, the special-case solvers, build, solve, decode, verify) through
``lap``.  A wrapped name that the program no longer has is recorded in
``missing`` and the metrics that depend on it are left out of the report,
so a renamed entry point reads as missing, never as zero.
"""

from __future__ import annotations

import time
from collections import defaultdict

# the clock the runner times operations with, so layer times add up to them
CLOCK = time.process_time

WRAPPED = {
    ("milp", "expand"): ("timegraph.expand_s",),
    ("solver_bb", "_linprog"): ("solver_bb.lp_s", "solver_bb.lp_calls",
                                "solver_bb.lp_ms_per_call", "solver_bb.root_gap",
                                "solver_bb.self_s"),
    ("solver_bb", "PropEngine"): ("kernel.engine_s", "kernel.assign_calls",
                                  "kernel.value_calls", "solver_bb.self_s"),
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.acc = defaultdict(float)  # metric -> total over the current round
        self.root_lp = None  # (status, objective) of the current solve's first LP
        self.gaps = []  # root gap of each solve in the current round
        self.missing = set()
        self._saved = []
        self._t = 0.0

    # -- spans around the runner's own calls --------------------------------

    def start(self):
        self._t = CLOCK()

    def lap(self, name):
        """Charge the time since the previous lap to ``name``."""
        now = CLOCK()
        self.acc[name] += now - self._t
        self._t = now

    # -- wrappers inside the program ----------------------------------------

    def install(self):
        for (mod_name, attr), metrics in WRAPPED.items():
            mod = self.modules[mod_name]
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.update(metrics)
                continue
            wrapper = getattr(self, "_wrap_" + attr.lower())(original)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def remove(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap_expand(self, original):
        acc = self.acc

        def expand(*args, **kwargs):
            t = CLOCK()
            try:
                return original(*args, **kwargs)
            finally:
                acc["timegraph.expand_s"] += CLOCK() - t
        return expand

    def _wrap__linprog(self, original):
        acc = self.acc
        tracer = self

        def linprog(*args, **kwargs):
            t = CLOCK()
            res = original(*args, **kwargs)
            acc["solver_bb.lp_s"] += CLOCK() - t
            acc["solver_bb.lp_calls"] += 1
            if tracer.root_lp is None:
                tracer.root_lp = (res.status, res.fun)
            return res
        return linprog

    def _wrap_propengine(self, original):
        acc = self.acc
        clock = CLOCK

        class TracedEngine:
            """Delegates to the program's engine, timing the search calls."""

            def __init__(self, *args):
                self._engine = original(*args)

            def propagate_root(self):
                t = clock()
                ok = self._engine.propagate_root()
                acc["kernel.engine_s"] += clock() - t
                return ok

            def assign(self, var, val):
                t = clock()
                ok = self._engine.assign(var, val)
                acc["kernel.engine_s"] += clock() - t
                acc["kernel.assign_calls"] += 1
                return ok

            def backtrack(self, mark):
                t = clock()
                self._engine.backtrack(mark)
                acc["kernel.engine_s"] += clock() - t

            def mark(self):
                t = clock()
                m = self._engine.mark()
                acc["kernel.engine_s"] += clock() - t
                return m

            def value(self, var):
                acc["kernel.value_calls"] += 1
                return self._engine.value(var)

            def __getattr__(self, name):
                return getattr(self._engine, name)

        return TracedEngine
