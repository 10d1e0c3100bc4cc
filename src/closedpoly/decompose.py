"""Generative-polynomial computation by divisor-driven coefficient solving.

For a leading-monic, constant-free f and a divisor k of the leading
monomial's multiplicity, the candidate inner polynomial h is built term by
term: its leading monomial is the k-th root of f's, and each further
coefficient is forced by matching one coefficient of f against the k-th
power of the partial candidate.  The outer polynomial F is then matched
against the remaining leading powers, and the exact identity f = F(h)
decides acceptance.  The first divisor (descending) that verifies wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Optional

from .newton import divisor_sequence, multiplicity
from .orders import OrderSpec, leading_term, monomials_below, normalize
from .poly import MultiPoly, PolyError, UniPoly, compose_uni, mono_pow

VERIFIED = "verified"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class DecompositionResult:
    h: MultiPoly  # generative polynomial: closed, h(0)=0, leading coeff 1
    F: UniPoly  # outer polynomial with f = F(h)
    closed: bool  # deg F == 1
    trace: tuple  # ((divisor, "verified"|"mismatch"), ...) in attempt order
    order: OrderSpec

    def reconstruct(self) -> MultiPoly:
        return compose_uni(self.F, self.h)


def _powers_with_term(powers: list, mono, coeff: Fraction, k: int) -> list:
    """Given powers[p] = q^p for p in 0..k, return the powers of q + c*m.

    The added term is a single monomial, so each update is a binomial
    expansion with cheap scale-and-shift products.
    """
    nvars = powers[0].nvars
    term_pows = [MultiPoly.from_term(nvars, mono_pow(mono, i), coeff**i) for i in range(k + 1)]
    new = [powers[0]]
    for p in range(1, k + 1):
        acc = powers[p]
        for i in range(1, p + 1):
            acc = acc + comb(p, i) * (powers[p - i] * term_pows[i])
        new.append(acc)
    return new


def attempt_divisor(
    f_norm: MultiPoly, k: int, order: OrderSpec
) -> Optional[tuple]:
    """One divisor attempt on a normalized f.  Returns (h, F_norm) with
    F_norm monic, F_norm(0) = 0 and f_norm = F_norm(h), or None on mismatch.
    """
    lm, lc = leading_term(f_norm, order)
    if lc != 1:
        raise PolyError("attempt_divisor expects a leading-monic polynomial")
    if f_norm.constant_term():
        raise PolyError("attempt_divisor expects a zero constant term")
    if k <= 1 or multiplicity(lm) % k:
        raise PolyError(f"{k} does not divide the leading multiplicity")
    nvars = f_norm.nvars
    m1 = tuple(e // k for e in lm)
    m1_pows = [mono_pow(m1, i) for i in range(k + 1)]

    # Step: solve for h = m1 + sum alpha_j m_j, coefficient by coefficient.
    powers = [MultiPoly.from_term(nvars, m, 1) for m in m1_pows]
    h = powers[1]
    for mj in monomials_below(m1, order):
        target = tuple(map(add, m1_pows[k - 1], mj))
        bj = f_norm.terms.get(target, 0)
        kj = powers[k].terms.get(target, 0)
        if bj != kj:
            alpha = (bj - kj) / k
            powers = _powers_with_term(powers, mj, alpha, k)
            h = h + MultiPoly.from_term(nvars, mj, alpha)

    # Step: solve for F(t) = t^k + beta_1 t^{k-1} + ... + beta_{k-1} t by
    # peeling coefficients of m1^{k-l} off the residual.
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    residual = f_norm - powers[k]
    for l in range(1, k):
        unit_coeff = powers[k - l].coefficient(m1_pows[k - l])
        if unit_coeff != 1:  # pragma: no cover - monic leading powers
            raise RuntimeError("leading power of candidate h is not monic")
        beta = residual.coefficient(m1_pows[k - l])
        if beta:
            residual = residual - beta * powers[k - l]
            coeffs[k - l] = beta

    if residual.is_zero():
        return h, UniPoly(coeffs)
    return None


def generative(
    f: MultiPoly, order: OrderSpec = OrderSpec(), pruned: bool = True
) -> DecompositionResult:
    """Compute the generative polynomial h and outer F with f = F(h).

    Arbitrary non-constant input is reduced to the leading-monic,
    constant-free case and the outer polynomial is rescaled back.  With
    ``pruned`` the divisor sequence is restricted by the Newton-polytope
    bound d1(f).
    """
    if f.is_zero() or f.is_constant():
        raise PolyError("cannot decompose a constant polynomial")
    nf = normalize(f, order)
    core = nf.core
    trace = []
    found = None
    for k in divisor_sequence(core, order, pruned=pruned):
        result = attempt_divisor(core, k, order)
        trace.append((k, VERIFIED if result else MISMATCH))
        if result:
            found = result
            break
    if found is None:
        h = core
        f_outer = UniPoly.identity()
    else:
        h, f_outer = found
    F = nf.leading_scalar * f_outer + nf.constant_term
    return DecompositionResult(
        h=h,
        F=F,
        closed=F.degree() == 1,
        trace=tuple(trace),
        order=order,
    )


def is_closed(f: MultiPoly, order: OrderSpec = OrderSpec()) -> bool:
    """True iff f admits no representation F(g) with deg F > 1."""
    return generative(f, order).closed
