"""Reference answers computed without the program's solver.

``x3c_expected`` reads only the ground set and the subsets: the encoding
opens a subset arc at cost 3 for every subset that carries trains, so the
optimum is three times the smallest set cover, and the instance is
infeasible exactly when the subsets do not cover the ground set.

``highs_expected`` solves the 0-1 model that ``milp.build`` produced with
HiGHS as a MIP (``scipy.optimize.milp``, ``mip_rel_gap=0``) and rounds the
float optimum onto the objective's rational grid, so it can be compared
exactly with the program's ``Fraction`` result.  It cross-checks the
branch-and-bound, not how ``milp.build`` models the instance; ``verify``
covers that.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm


def min_set_cover(ground, subsets):
    """Size of the smallest family of subsets whose union is the ground set,
    or None when all of them together do not cover it."""
    ground = frozenset(ground)
    sets = [frozenset(s) for s in subsets]
    if frozenset().union(*sets) != ground:
        return None
    for k in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            if frozenset().union(*combo) == ground:
                return k
    raise AssertionError("unreachable: the full family covers the ground set")


def x3c_expected(entry):
    """(status, objective or None) for an exact-cover instance."""
    k = min_set_cover(entry["ground_set"], entry["subsets"])
    if k is None:
        return "infeasible", None
    return "optimal", Fraction(3 * k)


def highs_expected(system):
    """(status, objective or None) of the built model, solved by HiGHS."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(system.variables)
    c = np.zeros(n)
    for vid, coeff in system.objective:
        c[vid] += float(coeff)
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, row in enumerate(system.rows):
        for vid, coeff in row.terms:
            rows.append(r)
            cols.append(vid)
            vals.append(float(coeff))
        rhs = float(row.rhs)
        lo.append(-np.inf if row.sense == "<=" else rhs)
        hi.append(np.inf if row.sense == ">=" else rhs)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(len(system.rows), n))
    res = milp(c, constraints=LinearConstraint(A, lo, hi), integrality=np.ones(n),
               bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        return f"highs-status-{res.status}", None
    const = Fraction(system.objective_constant)
    den = lcm(const.denominator,
              *(Fraction(coeff).denominator for _, coeff in system.objective))
    return "optimal", const + Fraction(round(res.fun * den), den)
