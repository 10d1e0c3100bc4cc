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

Phase 1 stores only the equality rows' artificial columns.  That of a >=
row i stays a_i = d·e_obj − sign_i·s_i, with s_i its surplus column and
sign_i the sign that made its b nonnegative: the two start as e_i and
−sign_i·e_i, objective entries 0 and sign_i, and each pivot on a constraint
row keeps the relation with its new d.  Bland's rule reads a_i's reduced cost
as d − sign_i·obj[s_i] at a_i's place in the column order, so every pivot is
that of the tableau with all artificial columns stored.
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
    x = numerators / d.  Inequalities get surplus variables; everything is
    solved by one phase-1 run.
    """
    n_eq, n_ge = len(A_eq), len(A_ge)
    m = n_eq + n_ge
    rows = [[*row, *[0] * n_ge, r] for row, r in zip(A_eq, b_eq)]
    for i, (row, r) in enumerate(zip(A_ge, b_ge)):
        rows.append([*row, *(-int(k == i) for k in range(n_ge)), r])
    real = n + n_ge  # x, then one surplus column per >= row
    total = real + m  # Bland's column order: real columns, then one artificial per row
    width = real + n_eq  # the stored columns: the >= rows' artificials are not stored
    signs = [-1 if row[-1] < 0 else 1 for row in rows]  # b >= 0 for the artificial start
    tableau = [[sign * x for x in row[:-1]] + [int(k == i) for k in range(n_eq)] + [sign * row[-1]]
               for i, (sign, row) in enumerate(zip(signs, rows))]
    basis = list(range(real, total))
    # the last row is the objective: minimize the artificial sum; reduced
    # costs with the artificial basis priced out.
    tableau.append([-sum(t[j] for t in tableau) for j in range(real)] + [0] * n_eq
                   + [-sum(t[-1] for t in tableau)])
    d = 1  # the common denominator of the tableau

    while True:
        obj = tableau[m]
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is not None:
            col = [t[enter] for t in tableau]
        else:  # artificial j >= width belongs to row j - real, its surplus column is j - m
            enter = next((j for j in range(width, total) if d < signs[j - real] * obj[j - m]), None)
            if enter is None:
                break
            col = [-signs[enter - real] * t[enter - m] for t in tableau]
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
