"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

The instances this package generates are tiny (a few dozen constraints), so
a dense tableau is simple and fast enough; Bland's anticycling rule
guarantees termination.

LP numbers are integers throughout.  The tableau is fraction-free (Edmonds
1967, Bareiss 1968): integers over one common denominator d, updated by
`pivot`, which `monoid` uses too.  Each division is exact, because every
entry (objective row included) stays a minor of the initial integer matrix
[A | -I | b] and d is the determinant of the current basis.  d starts at 1
and each pivot element is positive, so d > 0.  A solution is returned as it
is held: d and the integer numerators of x over it.

Every row i, equality or >=, is sign_i·[a_i | −e_i | b_i]: s_i = n + i is
its surplus column, and sign_i makes its b nonnegative.  No artificial
column is stored: that of row i stays a_i = d·e_obj − sign_i·s_i, as the two
start as e_i and −sign_i·e_i, objective entries 0 and sign_i, and each pivot
on a constraint row keeps the relation with its new d.  Bland's rule reads
a_i's reduced cost as d − sign_i·obj[s_i].  An equality row's surplus column
never enters, so every pivot is that of the tableau with every artificial
column stored and no surplus column for an equality row.
"""

from __future__ import annotations

from typing import Optional, Sequence


def pivot(rows: list, r: int, col: list, d: int) -> int:
    """Pivot on p = col[r], where col holds the entering column's entries,
    one per row, in place: every other row becomes (p*row - col[i]*rows[r])
    // d, which is p*row // d when col[i] is 0, and the row itself when p is
    d too.  Returns p, the new common denominator."""
    prow = rows[r]
    p = col[r]
    for i, f in enumerate(col):
        if f and i != r:
            rows[i] = [(p * x - f * y) // d for x, y in zip(rows[i], prow)]
        elif not f and p != d:
            rows[i] = [p * x // d for x in rows[i]]
    return p


def feasible_point(
    n: int,
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    A_ge: Sequence[Sequence] = (),
    b_ge: Sequence = (),
) -> Optional[tuple]:
    """Find x >= 0 (length n) with A_eq x = b_eq and A_ge x >= b_ge, or None.

    Entries are ints.  A solution comes back as (d, numerators): d > 0 and
    x = numerators / d.  Every row gets a surplus variable; everything is
    solved by one phase-1 run.
    """
    rows = [*zip(A_eq, b_eq), *zip(A_ge, b_ge)]
    m = len(rows)
    signs = [-1 if r < 0 else 1 for _, r in rows]  # b >= 0 for the artificial start
    tableau = [[*(sign * a for a in row), *(-sign * (k == i) for k in range(m)), sign * r]
               for i, (sign, (row, r)) in enumerate(zip(signs, rows))]
    # the last row is the objective: minimize the artificial sum; reduced
    # costs with the artificial basis priced out.
    tableau.append([-sum(t[j] for t in tableau) for j in range(n + m + 1)])
    # Bland's column order: x, the >= rows' surplus columns, then row i's artificial as n + m + i
    free = [*range(n), *range(n + len(A_eq), n + m)]
    basis = list(range(n + m, n + 2 * m))
    d = 1  # the common denominator of the tableau

    while True:
        obj = tableau[m]
        enter = next((j for j in free if obj[j] < 0), None)
        if enter is not None:
            col = [t[enter] for t in tableau]
        else:
            i = next((i for i, sign in enumerate(signs) if d < sign * obj[n + i]), None)
            if i is None:
                break
            enter = n + m + i
            col = [-signs[i] * t[n + i] for t in tableau]
            col[m] += d
        leave = None
        for i, t in enumerate(tableau[:m]):
            if col[i] <= 0:
                continue
            if leave is not None:  # t[-1] / col[i] against the best ratio, cross-multiplied
                diff = t[-1] * col[leave] - tableau[leave][-1] * col[i]
            if leave is None or diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave is None:  # pragma: no cover - phase 1 is bounded below
            raise RuntimeError("phase-1 simplex reported an unbounded direction")
        d = pivot(tableau, leave, col, d)
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return d, x
