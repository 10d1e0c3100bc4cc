"""Jacobian-based algebraic dependence and the associated derivations.

Two non-constant polynomials over ℚ are algebraically dependent exactly
when every 2x2 minor of their Jacobian vanishes identically; the minors
double as derivations D_ij whose common kernel contains f and any
generative polynomial of f.

A minor a·b − c·d is computed fraction-free: f and g, and so their partials,
are held as integer numerators over the lcm of their denominators, made by
`poly.integer_form`, and their partials by `poly.derivative`, the rule of
`MultiPoly.partial`.  `poly.add_product`, `MultiPoly.__mul__`'s checked
term-product loop, adds a·b and then c·(−d) into one int dict, so a·b's
exponent bound is checked before c·d's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .poly import MultiPoly, PolyError, add_product, derivative, integer_form


def _partials(f: MultiPoly, indices) -> tuple:
    """L, the lcm of f's denominators, and the numerators over L of df/dx_(i+1), i in indices."""
    L, num = integer_form(f.terms.values())
    return L, [derivative(zip(f.terms, num), i) for i in indices]


def _minor(nvars: int, den: int, a: dict, b: dict, c: dict, d: dict) -> MultiPoly:
    """(a·b − c·d) / den, for integer numerators a, b, c and d."""
    acc: dict = {}
    add_product(acc, a, b)
    add_product(acc, c, {m: -v for m, v in d.items()})
    return MultiPoly._checked(nvars, {m: Fraction(v, den) for m, v in acc.items() if v})


def jacobian_minors(f: MultiPoly, g: MultiPoly) -> dict:
    """All 2x2 Jacobian minors of the pair (f, g), keyed by (i, j), i < j."""
    if f.nvars != g.nvars:
        raise PolyError("variable-count mismatch")
    if f.is_constant() or g.is_constant():
        raise PolyError("jacobian minors require non-constant polynomials")
    n = f.nvars
    Lf, df = _partials(f, range(n))
    Lg, dg = _partials(g, range(n))
    return {(i + 1, j + 1): _minor(n, Lf * Lg, df[i], dg[j], df[j], dg[i])
            for i, j in combinations(range(n), 2)}


def alg_dependent(f: MultiPoly, g: MultiPoly) -> bool:
    """Exact zero-test of all minors; valid over ℚ (characteristic zero)."""
    return all(m.is_zero() for m in jacobian_minors(f, g).values())


def apply_derivation(f: MultiPoly, i: int, j: int, g: MultiPoly) -> MultiPoly:
    """D_ij(g) where D_ij = (df/dx_i) d/dx_j - (df/dx_j) d/dx_i."""
    if not 1 <= i < j <= f.nvars:
        raise PolyError(f"need 1 <= i < j <= {f.nvars}, got ({i}, {j})")
    if f.nvars != g.nvars:
        raise PolyError("variable-count mismatch")
    Lf, (fi, fj) = _partials(f, (i - 1, j - 1))
    Lg, (gi, gj) = _partials(g, (i - 1, j - 1))
    return _minor(f.nvars, Lf * Lg, fi, gj, fj, gi)
