"""Propagation engine for the branch-and-bound search.

Works on a system of <=-rows with integer coefficients over binary
variables.  Keeps, per row, the minimum and maximum achievable left-hand
side under the current partial assignment; fixing a variable triggers a
bound update, a conflict check, and unit-style forcing of other
variables.  A trail records every change so the search can backtrack.
"""

from __future__ import annotations

FREE = -1


class PropEngine:
    def __init__(self, nvars, row_cols, row_coefs, row_rhs):
        self.nvars = nvars
        self.nrows = len(row_rhs)
        self.row_cols = [list(c) for c in row_cols]
        self.row_coefs = [list(c) for c in row_coefs]
        self.rhs = list(row_rhs)
        # var -> list of (row, coef)
        self.watch = [[] for _ in range(nvars)]
        for r in range(self.nrows):
            for v, c in zip(self.row_cols[r], self.row_coefs[r]):
                self.watch[v].append((r, c))
        self.values = [FREE] * nvars
        self.minact = [0] * self.nrows
        self.maxact = [0] * self.nrows
        self.settled = [False] * self.nrows
        self.num_unsettled = self.nrows
        for r in range(self.nrows):
            lo = sum(c for c in self.row_coefs[r] if c < 0)
            hi = sum(c for c in self.row_coefs[r] if c > 0)
            self.minact[r] = lo
            self.maxact[r] = hi
            if hi <= self.rhs[r]:
                self.settled[r] = True
                self.num_unsettled -= 1
        # trail entries: ('v', var) for assignments, ('s', row) for settles
        self.trail = []

    # -- search interface ---------------------------------------------------

    def mark(self):
        return len(self.trail)

    def backtrack(self, mark):
        while len(self.trail) > mark:
            kind, idx = self.trail.pop()
            if kind == "s":
                self.settled[idx] = False
                self.num_unsettled += 1
            else:
                val = self.values[idx]
                self.values[idx] = FREE
                for r, c in self.watch[idx]:
                    if c > 0:
                        if val == 1:
                            self.minact[r] -= c
                        else:
                            self.maxact[r] += c
                    else:
                        if val == 0:
                            self.minact[r] += c
                        else:
                            self.maxact[r] -= c

    def all_settled(self):
        return self.num_unsettled == 0

    def propagate_root(self):
        """Initial feasibility and forcing pass; False means infeasible."""
        for r in range(self.nrows):
            if self.minact[r] > self.rhs[r]:
                return False
        queue = list(range(self.nrows))
        return self._drain(queue)

    def assign(self, var, val):
        """Fix var and propagate; False on conflict (state needs backtrack)."""
        if self.values[var] != FREE:
            return self.values[var] == val
        queue = []
        if not self._fix(var, val, queue):
            return False
        return self._drain(queue)

    # -- internals ----------------------------------------------------------

    def _fix(self, var, val, queue):
        self.values[var] = val
        self.trail.append(("v", var))
        ok = True
        for r, c in self.watch[var]:
            if c > 0:
                if val == 1:
                    self.minact[r] += c
                    if self.minact[r] > self.rhs[r]:
                        ok = False
                    queue.append(r)
                else:
                    self.maxact[r] -= c
                    if not self.settled[r] and self.maxact[r] <= self.rhs[r]:
                        self.settled[r] = True
                        self.num_unsettled -= 1
                        self.trail.append(("s", r))
            else:
                if val == 0:
                    self.minact[r] -= c
                    if self.minact[r] > self.rhs[r]:
                        ok = False
                    queue.append(r)
                else:
                    self.maxact[r] += c
                    if not self.settled[r] and self.maxact[r] <= self.rhs[r]:
                        self.settled[r] = True
                        self.num_unsettled -= 1
                        self.trail.append(("s", r))
        return ok

    def _drain(self, queue):
        values = self.values
        while queue:
            r = queue.pop()
            slack = self.rhs[r] - self.minact[r]
            if slack < 0:
                return False
            cols = self.row_cols[r]
            coefs = self.row_coefs[r]
            for v, c in zip(cols, coefs):
                if values[v] != FREE:
                    continue
                if c > 0:
                    if c > slack:
                        if not self._fix(v, 0, queue):
                            return False
                        slack = self.rhs[r] - self.minact[r]
                elif -c > slack:
                    if not self._fix(v, 1, queue):
                        return False
                    slack = self.rhs[r] - self.minact[r]
        return True
