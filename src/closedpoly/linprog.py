"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

The instances this package generates are tiny (a few dozen constraints), so
a dense tableau over `Fraction` is both simple and fast enough.  Bland's
anticycling rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def _phase_one(rows: list, rhs: list, n: int) -> Optional[list]:
    """Find x >= 0 with A x = b (A given as Fraction rows/rhs, n columns).

    Returns a feasible x of length n, or None when the system is infeasible.
    """
    m = len(rows)
    # b must be nonnegative for the artificial start.
    A = []
    b = []
    for row, r in zip(rows, rhs):
        if r < 0:
            A.append([-x for x in row])
            b.append(-r)
        else:
            A.append(list(row))
            b.append(r)
    total = n + m  # real columns then one artificial per row
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(A[i] + art + [b[i]])
    basis = [n + i for i in range(m)]
    # objective: minimize the artificial sum; reduced costs with the
    # artificial basis priced out.
    obj = [Fraction(0)] * (total + 1)
    for j in range(n):
        obj[j] = -sum(tableau[i][j] for i in range(m))
    obj[total] = -sum(tableau[i][total] for i in range(m))

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # pragma: no cover - phase 1 is bounded below
            raise RuntimeError("phase-1 simplex reported an unbounded direction")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tableau[leave])]
        basis[leave] = enter

    if obj[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    return x


def feasible_point(
    n: int,
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    A_ge: Sequence[Sequence] = (),
    b_ge: Sequence = (),
) -> Optional[list]:
    """Find x >= 0 (length n) with A_eq x = b_eq and A_ge x >= b_ge, or None.

    Inequalities get surplus variables; everything is solved by one phase-1
    run.
    """
    rows = []
    rhs = []
    n_ge = len(A_ge)
    for row, r in zip(A_eq, b_eq):
        rows.append([Fraction(x) for x in row] + [Fraction(0)] * n_ge)
        rhs.append(Fraction(r))
    for i, (row, r) in enumerate(zip(A_ge, b_ge)):
        surplus = [Fraction(0)] * n_ge
        surplus[i] = Fraction(-1)
        rows.append([Fraction(x) for x in row] + surplus)
        rhs.append(Fraction(r))
    sol = _phase_one(rows, rhs, n + n_ge)
    if sol is None:
        return None
    return sol[:n]
