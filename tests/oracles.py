"""Independent routes to the library's answers, kept as test oracles.

Nothing in the library calls them.  `v0_lp` (strict weight argmax) and
`v0_combinatorial` (hull vertices that the polytope does not dominate) decide
V0 two other ways than `newton.v0_set`; `generative_d1_first` decides d1 from
the whole V0 before any divisor attempt, against which the attempt-first
`generative(pruned=True)` is checked; `reference_attempt` is the dense
divisor attempt, solving h at every monomial of `monomials_below` in
`MultiPoly` arithmetic, against which the residual-led `attempt_divisor` is
checked; `monoid_members` lists a bounded
piece of the generated monoid by dynamic programming; `row_reduce` is
Gauss–Jordan elimination over Q, against which `monoid._eliminate` is checked.
The `dense_*` functions are univariate arithmetic and rendering on coefficient
lists, lowest degree first, against which the sparse `UniPoly` is checked.
"""

from fractions import Fraction
from math import gcd

from closedpoly.decompose import MISMATCH, VERIFIED, DecompositionResult, attempt_divisor
from closedpoly.linprog import feasible_point
from closedpoly.monoid import MonoidGens
from closedpoly.newton import (
    _dominated,
    _dominating_combination,
    descending_divisors,
    multiplicity,
    realizing_weights,
    v0_set,
)
from closedpoly.orders import OrderSpec, leading_term, monomials_below, normalize
from closedpoly.poly import Monomial, MultiPoly, PolyError, UniPoly


def _is_hull_vertex(p: Monomial, points: list) -> bool:
    """p is a vertex of conv(points) iff it is not a convex combination of
    the others (decided by exact LP feasibility)."""
    others = [q for q in points if q != p]
    if not others:
        return True
    A_eq = [[q[s] for q in others] for s in range(len(p))] + [[1] * len(others)]
    return feasible_point(len(others), A_eq=A_eq, b_eq=[*p, 1]) is None


def v0_lp(f: MultiPoly) -> set:
    return {v for v in f.support() if realizing_weights(f, v) is not None}


def v0_combinatorial(f: MultiPoly) -> set:
    """Hull vertices filtered by coordinate dominance.

    Pairwise dominance between vertices is only a necessary filter: in three
    or more variables a vertex can be dominated by a point in the interior
    of a face without any single vertex dominating it.  The decisive test is
    dominance against the whole polytope.
    """
    points = sorted(f.support())
    vertices = [p for p in points if _is_hull_vertex(p, points)]
    out = set()
    for v in vertices:
        if any(u != v and _dominated(v, by=u) for u in vertices):
            continue
        if _dominating_combination(v, [q for q in points if q != v]) is None:
            out.add(v)
    return out


def generative_d1_first(f: MultiPoly, order: OrderSpec) -> DecompositionResult:
    """The pruned generative pair in the paper's order: d1, the gcd of d(v)
    over the whole V0, first, then one attempt per divisor of d1, descending,
    up to the first that verifies."""
    if f.is_zero() or f.is_constant():
        raise PolyError("cannot decompose a constant polynomial")
    d = multiplicity(leading_term(f, order)[0])
    d1 = gcd(d, *map(multiplicity, v0_set(f))) if d > 1 else 1
    trace = []
    for k in descending_divisors(d1):
        result = attempt_divisor(f, k, order)
        trace.append((k, VERIFIED if result else MISMATCH))
        if result:
            h, F = result
            break
    else:
        nf = normalize(f, order)
        h, F = nf.core, nf.leading_scalar * UniPoly.identity() + nf.constant_term
    return DecompositionResult(h=h, F=F, closed=F.degree() == 1, trace=tuple(trace), order=order)


def reference_attempt(f: MultiPoly, k: int, order: OrderSpec):
    """The attempt without the early exit, in MultiPoly arithmetic: every power
    of the candidate is recomputed from h after each solved term."""
    lm, _ = leading_term(f, order)
    m1 = tuple(e // k for e in lm)
    h = MultiPoly.from_term(f.nvars, m1)
    top = tuple(e * (k - 1) for e in m1)
    for mj in monomials_below(m1, order):
        target = tuple(a + b for a, b in zip(top, mj))
        diff = f.coefficient(target) - (h**k).coefficient(target)
        if diff:
            h = h + MultiPoly.from_term(f.nvars, mj, diff / k)
    coeffs = [Fraction(0)] * k + [Fraction(1)]
    residual = f - h**k
    for l in range(k - 1, 0, -1):
        coeffs[l] = residual.coefficient(tuple(e * l for e in m1))
        residual = residual - coeffs[l] * h**l
    return (h, UniPoly(coeffs)) if residual.is_zero() else None


def monoid_members(gens: MonoidGens) -> set:
    """All nonnegative-integer combinations of the generators with
    coordinate sum <= bound (bounded dynamic programming)."""
    reached = {(0,) * gens.nvars}
    frontier = list(reached)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens.gens:
                q = tuple(a + b for a, b in zip(p, g))
                if sum(q) <= gens.bound and q not in reached:
                    reached.add(q)
                    nxt.append(q)
        frontier = nxt
    return reached


def row_reduce(rows, ncols: int):
    """Reduced row echelon form over Q: the nonzero rows, their pivot columns,
    and the product of the pivots signed by the row swaps (the determinant
    when the rows form a square matrix of full rank)."""
    rows = [[Fraction(e) for e in row] for row in rows]
    pivots, det = [], Fraction(1)
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k][col]
        det *= pivot
        rows[k] = [e / pivot for e in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    return rows[: len(pivots)], pivots, det


def dense_trim(coeffs) -> tuple:
    """Fractions with the trailing zeros removed."""
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def dense_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return dense_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def dense_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_trim(out)


def dense_evaluate(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def dense_render(a) -> str:
    """Descending powers of t, as "-t^2 + 3/2*t - 1"; "0" for no terms."""
    pieces = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"
