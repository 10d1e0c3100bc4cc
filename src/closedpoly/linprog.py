"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

The instances this package generates are tiny (a few dozen constraints), so
a dense tableau is simple and fast enough; Bland's anticycling rule
guarantees termination.

LP numbers are integers throughout.  The tableau is fraction-free (Edmonds
1967, Bareiss 1968): integers over one common denominator d, updated by
`pivot`, which `monoid` uses too.  Each division is exact, because every
entry (objective row included) stays a minor of the initial integer matrix
[A | I | b] and d is the determinant of the current basis.  d starts at 1
and each pivot element is positive, so d > 0.  A solution is returned as it
is held: d and the integer numerators of x over it.
"""

from __future__ import annotations

from typing import Optional, Sequence


def pivot(rows: list, r: int, c: int, d: int) -> int:
    """Pivot on rows[r][c] = p, in place: every other row, one with a zero in
    column c too, becomes (p*row - row[c]*rows[r]) // d.  Returns p, the new
    common denominator."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    return p


def _phase_one(rows: list, n: int) -> Optional[tuple]:
    """Find x >= 0 with A x = b, given integer rows [a_1, ..., a_n, b].

    Returns (d, numerators) of a feasible x of length n, or None when the
    system is infeasible.
    """
    m = len(rows)
    total = n + m  # real columns then one artificial per row
    tableau = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1  # b must be nonnegative for the artificial start
        unit = [int(k == i) for k in range(m)]
        tableau.append([sign * x for x in row[:-1]] + unit + [sign * row[-1]])
    basis = list(range(n, total))
    # the last row is the objective: minimize the artificial sum; reduced
    # costs with the artificial basis priced out.
    tableau.append([-sum(t[j] for t in tableau) for j in range(n)] + [0] * m
                   + [-sum(t[total] for t in tableau)])
    d = 1  # the common denominator of the tableau

    while True:
        enter = next((j for j in range(total) if tableau[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, t in enumerate(tableau[:m]):
            if t[enter] <= 0:
                continue
            if leave is not None:  # t[total] / t[enter] against the best ratio, cross-multiplied
                diff = t[total] * tableau[leave][enter] - tableau[leave][total] * t[enter]
            if leave is None or diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave is None:  # pragma: no cover - phase 1 is bounded below
            raise RuntimeError("phase-1 simplex reported an unbounded direction")
        d = pivot(tableau, leave, enter, d)
        basis[leave] = enter

    if tableau[m][total] != 0:
        return None
    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    return d, x


def feasible_point(
    n: int,
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    A_ge: Sequence[Sequence] = (),
    b_ge: Sequence = (),
) -> Optional[tuple]:
    """Find x >= 0 (length n) with A_eq x = b_eq and A_ge x >= b_ge, or None.

    Entries are ints.  A solution comes back as (d, numerators): d > 0 and
    x = numerators / d.  Inequalities get surplus variables; everything is
    solved by one phase-1 run.
    """
    n_ge = len(A_ge)
    rows = [[*row, *[0] * n_ge, r] for row, r in zip(A_eq, b_eq)]
    for i, (row, r) in enumerate(zip(A_ge, b_ge)):
        rows.append([*row, *(-int(k == i) for k in range(n_ge)), r])
    sol = _phase_one(rows, n + n_ge)
    return None if sol is None else (sol[0], sol[1][:n])
