"""Propagation engine for the branch-and-bound search.

Works on <=-rows ``(cols, coefs, rhs)`` over binary variables; coefficients
and right-hand sides are ints or Fractions, compared exactly.  Keeps, per
row, the minimum activity: the least left-hand side any completion of the
current partial assignment can reach.  Fixing a variable raises the minimum
activity of the rows where that value costs something; a row whose minimum
activity exceeds its right-hand side is a conflict, and a free variable
whose costly value would exceed it is forced the other way.  A trail of the
fixed variables lets the search backtrack.
"""

from __future__ import annotations

FREE = -1


class PropEngine:
    def __init__(self, nvars, rows):
        self.rows = rows
        # var -> list of (row, coef)
        self.watch = [[] for _ in range(nvars)]
        for r, (cols, coefs, _rhs) in enumerate(rows):
            for v, c in zip(cols, coefs):
                self.watch[v].append((r, c))
        self.values = [FREE] * nvars
        self.minact = [sum(c for c in coefs if c < 0) for _cols, coefs, _rhs in rows]
        self.trail = []  # fixed variables, in order

    # -- search interface ---------------------------------------------------

    def mark(self):
        return len(self.trail)

    def backtrack(self, mark):
        while len(self.trail) > mark:
            var = self.trail.pop()
            one = self.values[var] == 1
            self.values[var] = FREE
            for r, c in self.watch[var]:
                if (c > 0) == one:
                    self.minact[r] -= abs(c)

    def propagate_root(self):
        """Initial feasibility and forcing pass; False means infeasible."""
        return self._drain(list(range(len(self.rows))))

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
        """Set var; queue every row whose minimum activity rises."""
        self.values[var] = val
        self.trail.append(var)
        ok = True
        for r, c in self.watch[var]:
            if (c > 0) == (val == 1):
                self.minact[r] += abs(c)
                if self.minact[r] > self.rows[r][2]:
                    ok = False
                queue.append(r)
        return ok

    def _drain(self, queue):
        values = self.values
        while queue:
            r = queue.pop()
            cols, coefs, rhs = self.rows[r]
            slack = rhs - self.minact[r]
            if slack < 0:
                return False
            for v, c in zip(cols, coefs):
                if values[v] != FREE or abs(c) <= slack:
                    continue
                if not self._fix(v, 0 if c > 0 else 1, queue):
                    return False
                slack = rhs - self.minact[r]
        return True
