"""Jacobian-based algebraic dependence and the associated derivations.

Two non-constant polynomials over ℚ are algebraically dependent exactly
when every 2x2 minor of their Jacobian vanishes identically; the minors
double as derivations D_ij whose common kernel contains f and any
generative polynomial of f.
"""

from __future__ import annotations

from itertools import combinations

from .poly import MultiPoly, PolyError


def jacobian_minors(f: MultiPoly, g: MultiPoly) -> dict:
    """All 2x2 Jacobian minors of the pair (f, g), keyed by (i, j), i < j."""
    if f.nvars != g.nvars:
        raise PolyError("variable-count mismatch")
    if f.is_constant() or g.is_constant():
        raise PolyError("jacobian minors require non-constant polynomials")
    n = f.nvars
    df = [f.partial(i) for i in range(1, n + 1)]
    dg = [g.partial(i) for i in range(1, n + 1)]
    return {(i + 1, j + 1): df[i] * dg[j] - df[j] * dg[i] for i, j in combinations(range(n), 2)}


def alg_dependent(f: MultiPoly, g: MultiPoly) -> bool:
    """Exact zero-test of all minors; valid over ℚ (characteristic zero)."""
    return all(m.is_zero() for m in jacobian_minors(f, g).values())


def apply_derivation(f: MultiPoly, i: int, j: int, g: MultiPoly) -> MultiPoly:
    """D_ij(g) where D_ij = (df/dx_i) d/dx_j - (df/dx_j) d/dx_i."""
    if not 1 <= i < j <= f.nvars:
        raise PolyError(f"need 1 <= i < j <= {f.nvars}, got ({i}, {j})")
    if f.nvars != g.nvars:
        raise PolyError("variable-count mismatch")
    return f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)
