"""Generative-polynomial computation by divisor-driven coefficient solving.

For a non-constant f and a divisor k of the leading monomial's
multiplicity, the candidate inner polynomial h is built term by term: its
leading monomial is the k-th root of f's, and each further coefficient is
forced by matching one coefficient of core = (f - f(0))/lc(f) against the
k-th power of the partial candidate.  The outer polynomial is then matched
against the remaining leading powers, and f = F(h) decides acceptance.
The first divisor (descending) that verifies wins; if none does, h = core.

A divisor is rejected before any coefficient is solved when the leading
term T of core - m1^k (the second non-constant term of f) cannot come from
a verified pair.  For core = G(h) with h = m1 + alpha*m2 + ... (m2 != 1)
and G = t^k + sum_l beta_l t^l (1 <= l <= k-1), the leading terms
k*alpha*m1^(k-1)*m2 of h^k - m1^k and beta_l*m1^l of beta_l*h^l have
pairwise distinct monomials, so none cancel and T is one of them: under a
graded order, m1^(k-1) divides T or T = beta*m1^l.  This is the
approximate-root step of Kozen-Landau (1989) and von zur Gathen (1990),
which also leads the solve.  No beta_l*h^l with l < k reaches the band
above degree (k-1)*deg m1, so there core - h^k is the whole residual.  Its
multiples m1^(k-1)*m_j, the only terms a solve clears, are a heap of
negated sort keys of m_j (lazy deletion) fed by B and by the monomials each
solved term adds to H^k; the final check decides the rest.  Until ROADMAP
item 2, `orders.check_enumerable` refuses a large m1 (the dense cap).

Both steps are fraction-free, in the manner of Bareiss (1968).  core = B/D
with B the integer numerators of f's non-constant terms over L, the lcm of
f's denominators taken with the sign of lc(f), and D = B[lm] = lc(f)*L > 0.
The candidate is h = H/E with E the lcm of the denominators of h's
coefficients so far; the powers H^p are integer term dicts.  At m_j, with
T = m1^(k-1)*m_j, H's new coefficient is (B[T]*E^k - D*H^k[T]) /
(k*D*E^(k-1)), reduced by its gcd; a reduced denominator e > 1 multiplies E
by e and each H^p by e^p, so every coefficient of H stays an integer.  G is
peeled off the residual R/S, starting from R = B*E^k and S = D*E^k:
beta_p = R[m1^p]/S, and R/S - beta_p*H^p/E^p = (q*R - (R[m1^p]/g)*H^p) /
(q*S) with g = gcd(R[m1^p], E^p) and q = E^p/g, in which every division is
exact.  F = lc(f)*G + f(0).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush, nlargest
from math import comb, gcd, lcm
from operator import add, ge, neg, sub
from typing import NamedTuple, Optional

from .newton import d1_bound, descending_divisors, divisor_sequence, multiplicity
from .orders import OrderError, OrderSpec, check_enumerable, normalize, sort_key
from .orders import monomials_below  # noqa: F401 -- kept for the benchmark's binding (ROADMAP item 2)
from .poly import MultiPoly, PolyError, UniPoly, compose_uni

VERIFIED = "verified"
MISMATCH = "mismatch"


class DecompositionResult(NamedTuple):
    h: MultiPoly  # generative polynomial: closed, h(0)=0, leading coeff 1
    F: UniPoly  # outer polynomial with f = F(h)
    closed: bool  # deg F == 1
    trace: tuple  # ((divisor, "verified"|"mismatch"), ...) in attempt order
    order: OrderSpec

    def reconstruct(self) -> MultiPoly:
        return compose_uni(self.F, self.h)


def _powers_with_term(powers: list, mono, coeff: int, k: int) -> list:
    """Given powers[p] = q^p as term dicts for p in 0..k, update them in place
    to the powers of q + c*m, and return the monomials that q^k gains.

    (q + c*m)^p = q^p + sum_i C(p, i) c^i m^i q^(p-i), so each power gains
    scaled, shifted copies of the lower ones; from p = k down, the lower
    powers still hold those of q.  attempt_divisor passes the integer
    numerator H of the candidate and an integer c, so every product here is
    an int product and nothing is divided.  The powers are scratch: a zero
    left by cancellation compares equal to an absent term, and h leaves
    through MultiPoly._checked.
    """
    shifts = [tuple(e * i for e in mono) for i in range(k + 1)]
    known = len(powers[k])
    for p in range(k, 0, -1):
        acc = powers[p]
        for i in range(1, p + 1):
            scale = comb(p, i) * coeff**i
            shift = shifts[i]
            for m, c in powers[p - i].items():
                m = tuple(map(add, m, shift))
                acc[m] = acc[m] + scale * c if m in acc else scale * c
    return list(powers[k])[known:]  # no term is ever removed


def _band_entries(monos, base, low: int, order: OrderSpec) -> list:
    """Heap entries (key, m/base, m), ≻-largest first: each m above degree low that base divides."""
    entries = []
    for m in monos:
        if sum(m) > low and all(map(ge, m, base)):
            q = tuple(map(sub, m, base))
            d, t = sort_key(q, order)
            entries.append((-d, tuple(map(neg, t)), q, m))
    return entries


def attempt_divisor(f: MultiPoly, k: int, order: OrderSpec) -> Optional[tuple]:
    """One divisor attempt on a non-constant f.  Returns (h, F) with h(0) = 0,
    h leading-monic, deg F = k and f = F(h), or None on mismatch.  Both steps
    run on integer numerators (module docstring).
    """
    top = nlargest(2, f.terms, key=lambda m: sort_key(m, order))
    if not top:
        raise PolyError("the zero polynomial has no leading term")
    lm = top[0]
    if k <= 1 or multiplicity(lm) % k:
        raise PolyError(f"{k} does not divide the leading multiplicity")
    m1 = tuple(e // k for e in lm)

    # Early mismatch (module docstring): T is the second non-constant term of
    # f.  T = m1^l needs l = deg T / deg m1, so the k + 1 powers of m1 are
    # listed only after it.
    if order.is_graded and len(top) == 2 and any(top[1]):
        t = top[1]
        l, rem = divmod(sum(t), sum(m1))
        is_power = not rem and 1 <= l < k and t == tuple(e * l for e in m1)
        if not is_power and any(a < e * (k - 1) for a, e in zip(t, m1)):
            return None

    check_enumerable(m1, order)
    # each m1^i divides lm, so no power exceeds the exponent bound
    m1_pows = [tuple(e * i for e in m1) for i in range(k + 1)]
    a = f.terms[lm]
    L = lcm(*(c.denominator for c in f.terms.values()))
    if a < 0:
        L = -L
    B = {m: c.numerator * (L // c.denominator) for m, c in f.terms.items() if any(m)}
    D = B[lm]

    # Step: solve for h = m1 + sum alpha_j m_j, led by the band of B*E^k - D*H^k.
    # powers[p] = H^p; H's coefficient at m_j is E*alpha_j = num / (k*D*E^(k-1)).
    E = Ek = 1
    powers = [{m: 1} for m in m1_pows]
    base, low = m1_pows[k - 1], (k - 1) * sum(m1)
    band = _band_entries(B, base, low, order)
    heapify(band)
    while band:
        _, _, mj, target = heappop(band)
        num = B.get(target, 0) * Ek - D * powers[k].get(target, 0)
        if not num:  # cancelled, or a repeated entry
            continue
        den = k * D * (Ek // E)
        g = gcd(num, den)
        num //= g
        den //= g
        if den > 1:  # E becomes lcm(E, denominator of alpha_j)
            for p in range(1, k + 1):
                scale = den**p
                powers[p] = {m: c * scale for m, c in powers[p].items()}
            E *= den
            Ek = E**k
        for entry in _band_entries(_powers_with_term(powers, mj, num, k), base, low, order):
            heappush(band, entry)

    # Step: solve for core = G(h), G(t) = t^k + beta_{k-1} t^{k-1} + ... +
    # beta_1 t, by peeling each beta_p * h^p off the residual R/S = B/D, from
    # p = k down (beta_k = R[m1^k]/S = 1); F = lc(f) * G + f(0) gains each
    # term as it is peeled.
    F = {}
    S = D * Ek
    residual = {m: b * Ek for m, b in B.items()}
    for p in range(k, 0, -1):
        Ep = E**p
        if powers[p][m1_pows[p]] != Ep:  # pragma: no cover - monic leading powers
            raise RuntimeError("leading power of candidate h is not monic")
        r = residual.get(m1_pows[p], 0)
        if r:
            F[(p,)] = a * Fraction(r, S)
            g = gcd(r, Ep)
            if g < Ep:
                q = Ep // g
                residual = {m: c * q for m, c in residual.items()}
                S *= q
            r //= g
            for m, c in powers[p].items():
                residual[m] = residual[m] - r * c if m in residual else -r * c

    if any(residual.values()):
        return None
    F[(0,)] = f.constant_term()
    h = {m: Fraction(c, E) for m, c in powers[1].items()}
    return MultiPoly._checked(f.nvars, h), UniPoly._checked(1, F)


def generative(
    f: MultiPoly, order: OrderSpec = OrderSpec(), pruned: bool = True
) -> DecompositionResult:
    """Compute the generative polynomial h and outer F with f = F(h).

    The divisors are tried on f itself, in descending order, and the first
    that verifies wins; when none does, f is closed and h is its
    leading-monic, constant-free core.  Without ``pruned`` they are the
    divisors of d(lm).  With it, the trace is that of the divisors of the
    Newton-polytope bound d1(f), reached without deciding d1 when the first
    attempt verifies:
    - the attempts run over the divisors of g0 (`newton.d1_bound`), a multiple
      of d1 found with no LP.  A verified k divides d1, since every V0 point
      of F(h) with deg F = k is k times a point of supp h, so the first k
      that verifies is the same;
    - d1 is decided (`divisor_sequence`) only at the first attempt that does
      not verify.  A mismatched k that does not divide d1 is dropped from the
      trace, and the divisors of g0 that do not divide d1 are not tried;
    - an attempt that raises OrderError (a weighted order, or the monomial
      cap) at a k that does not divide d1 is dropped the same way; at a k
      that divides d1 the error is raised.
    """
    if f.is_zero() or f.is_constant():
        raise PolyError("cannot decompose a constant polynomial")
    # kept: the divisors of d1 once decided; without pruning, every candidate
    if pruned:
        candidates, kept = descending_divisors(d1_bound(f, order)), None
    else:
        candidates = kept = divisor_sequence(f, order)
    trace = []
    for k in candidates:
        if kept is not None and k not in kept:
            continue
        error = None
        try:
            result = attempt_divisor(f, k, order)
        except OrderError as exc:
            result, error = None, exc
        if not result:
            if kept is None:
                kept = divisor_sequence(f, order, pruned=True)
            if k not in kept:
                continue
            if error:
                raise error
        trace.append((k, VERIFIED if result else MISMATCH))
        if result:
            h, F = result
            break
    else:
        nf = normalize(f, order)
        h = nf.core
        F = UniPoly._checked(1, {(1,): nf.leading_scalar, (0,): nf.constant_term})
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
