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
`reference_feasible_point` is phase 1 with every artificial column stored,
pivoting through `reference_pivot` by column index, against which
`linprog.feasible_point` is checked; `reference_minors` and
`reference_derivation` are the Jacobian minors and D_ij(g) in `MultiPoly`
arithmetic, against which `depend` is checked.
The `dense_*` functions are univariate arithmetic and rendering on coefficient
lists, lowest degree first, against which the sparse `UniPoly` is checked.
`reference_parse` reads valid text by itself, merges its dense monomials and
then drops the zeros, against which `parsing.parse_poly`, which reads packed
keys and drops none when it read no zero and merged no terms, is checked, term
order included.
`reference_build_parser` is the command-line parser with every subcommand's
options, written out by hand and bound to the same handlers, against which
`cli.build_parser`, built from its table of options, is checked.
"""

import argparse
import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional

from closedpoly import __version__
from closedpoly.cli import (
    _cmd_decompose,
    _cmd_depend,
    _cmd_family,
    _cmd_is_closed,
    _cmd_newton,
    _cmd_saturate,
    _cmd_stein,
)
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
from closedpoly.orders import GREVLEX, GRLEX, OrderSpec, leading_term, monomials_below, normalize
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


def reference_pivot(rows: list, r: int, c: int, d: int) -> int:
    """Pivot on rows[r][c] = p, in place: every other row, one with a zero in
    column c too, becomes (p*row - row[c]*rows[r]) // d.  Returns p."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    return p


def reference_phase_one(rows: list, n: int) -> Optional[tuple]:
    """Phase 1 over integer rows [a_1, ..., a_n, b] with one stored artificial
    column per row and Bland's rule: (d, numerators) of x >= 0 with A x = b,
    or None."""
    m = len(rows)
    total = n + m
    tableau = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        unit = [int(k == i) for k in range(m)]
        tableau.append([sign * x for x in row[:-1]] + unit + [sign * row[-1]])
    basis = list(range(n, total))
    tableau.append([-sum(t[j] for t in tableau) for j in range(n)] + [0] * m
                   + [-sum(t[total] for t in tableau)])
    d = 1
    while True:
        enter = next((j for j in range(total) if tableau[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, t in enumerate(tableau[:m]):
            if t[enter] <= 0:
                continue
            if leave is not None:
                diff = t[total] * tableau[leave][enter] - tableau[leave][total] * t[enter]
            if leave is None or diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        d = reference_pivot(tableau, leave, enter, d)
        basis[leave] = enter
    if tableau[m][total] != 0:
        return None
    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    return d, x


def reference_feasible_point(n, A_eq=(), b_eq=(), A_ge=(), b_ge=()) -> Optional[tuple]:
    """`linprog.feasible_point`'s rows, solved by `reference_phase_one`."""
    n_ge = len(A_ge)
    rows = [[*row, *[0] * n_ge, r] for row, r in zip(A_eq, b_eq)]
    for i, (row, r) in enumerate(zip(A_ge, b_ge)):
        rows.append([*row, *(-int(k == i) for k in range(n_ge)), r])
    sol = reference_phase_one(rows, n + n_ge)
    return None if sol is None else (sol[0], sol[1][:n])


def reference_minors(f: MultiPoly, g: MultiPoly) -> dict:
    """The 2x2 Jacobian minors of (f, g) in MultiPoly arithmetic, keyed (i, j)."""
    n = f.nvars
    df = [f.partial(i) for i in range(1, n + 1)]
    dg = [g.partial(i) for i in range(1, n + 1)]
    return {(i + 1, j + 1): df[i] * dg[j] - df[j] * dg[i] for i, j in combinations(range(n), 2)}


def reference_derivation(f: MultiPoly, i: int, j: int, g: MultiPoly) -> MultiPoly:
    """D_ij(g) = (df/dx_i)(dg/dx_j) - (df/dx_j)(dg/dx_i) in MultiPoly arithmetic."""
    return f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)


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


def reference_parse(text: str, min_nvars: int = 1) -> tuple:
    """(nvars, [(monomial, coefficient), ...]) of valid text, read here on its
    own: each term's dense monomial, merged in order of first appearance,
    then every zero dropped."""
    terms, nvars = [], min_nvars
    for sign, body in re.findall(r"([-+]?)([^-+]+)", "".join(text.split())):
        coeff, exps = Fraction(-1 if sign == "-" else 1), {}
        for part in body.split("*"):
            if part.startswith("x"):
                index, _, power = part[1:].partition("^")
                exps[int(index)] = exps.get(int(index), 0) + int(power or 1)
            else:
                coeff *= Fraction(part)
        terms.append((exps, coeff))
        nvars = max([nvars, *exps])
    full = {}
    for exps, coeff in terms:
        m = tuple(exps.get(i, 0) for i in range(1, nvars + 1))
        full[m] = full.get(m, Fraction(0)) + coeff
    return nvars, [(m, c) for m, c in full.items() if c]


def reference_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closedpoly",
        description="Closed-polynomial decomposition and related checks over the rationals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument("--order", choices=[GRLEX, GREVLEX], default=GRLEX)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("decompose", help="compute the generative polynomial h and F with f = F(h)")
    p.add_argument("--poly", required=True, metavar="FILE", help="polynomial file, or - for stdin")
    add_order(p)
    p.add_argument("--no-newton", action="store_true", help="disable Newton-polytope pruning of the divisor sequence")
    add_json(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("is-closed", help="decide whether a polynomial is closed")
    p.add_argument("--poly", required=True, metavar="FILE")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_is_closed)

    p = sub.add_parser("newton", help="Newton-polytope support analysis")
    p.add_argument("--poly", required=True, metavar="FILE")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("depend", help="Jacobian algebraic-dependence test")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--g", required=True, metavar="FILE")
    add_json(p)
    p.set_defaults(func=_cmd_depend)

    p = sub.add_parser("family", help="factor f + mu through the generative pair")
    p.add_argument("--poly", required=True, metavar="FILE")
    p.add_argument("--mu", required=True, help="rational shift value")
    p.add_argument("--eh", metavar="RATS", help="comma-separated exceptional set of h")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("stein", help="Stein-Lorenzini-Najib inequality on supplied data")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--mode", required=True, choices=["h", "f"])
    p.add_argument("--d", help="generic factor degree (f mode)")
    add_json(p)
    p.set_defaults(func=_cmd_stein)

    p = sub.add_parser("saturate", help="saturation of a monomial exponent monoid")
    p.add_argument("--gens", required=True, help='generators, e.g. "1,0;1,2"')
    p.add_argument("--bound", help="max coordinate sum for enumeration")
    add_json(p)
    p.set_defaults(func=_cmd_saturate)

    return parser
