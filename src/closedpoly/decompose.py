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
multiples m1^(k-1)*m_j, the only terms a solve clears, are a heap
(lazy deletion) fed by B and by the monomials each solved term adds to H^k;
the final check decides the rest.  Until ROADMAP item 2,
`orders.check_enumerable` refuses a large m1 (the dense cap); until ROADMAP
item 4, a k above MAX_DIVISOR is refused with the same MonomialCapExceeded.

Both steps are fraction-free, in the manner of Bareiss (1968).  core = B/D
with B the integer numerators of f's non-constant terms over L, the lcm of
f's denominators (`poly.integer_form`), times sign(lc(f)): D = B[lm] > 0.
The candidate is h = H/E with E the lcm of the denominators of h's
coefficients so far; the powers H^p are integer term dicts.  At m_j, with
T = m1^(k-1)*m_j, H's new coefficient is (B[T]*E^k - D*H^k[T]) /
(k*D*E^(k-1)), reduced by its gcd; a reduced denominator e > 1 multiplies E
by e and each H^p by e^p, so every coefficient of H stays an integer.  G is
peeled off the residual R/S, starting from R = B*E^k and S = D*E^k:
beta_p = R[m1^p]/S, and R/S - beta_p*H^p/E^p = (q*R - (R[m1^p]/g)*H^p) /
(q*S) with g = gcd(R[m1^p], E^p) and q = E^p/g, in which every division is
exact.  F = lc(f)*G + f(0).

Under a graded order an attempt keys each monomial m by one int K(m), a
packed exponent vector (Bachmann-Schoenemann 1998, Monagan-Pearce 2007).
All it touches (f's terms, those of each H^p, each m_j) have exponents and
degree at most d = deg lm, so each exponent gets a field of 8, 16, 32 or 64
bits whose top (guard) bit d leaves clear.  K(m) = Q(m) + s*deg(m)*W, Q the
fields (e_1 first and s = 1 under grlex, e_n and s = -1 under grevlex), W
the weight above them: s*K rises with m in the order, K(m*m') = K(m) +
K(m'), and with G the guard bits, ((K(m) | G) - K(base)) & G == G iff base
divides m: no field borrows, and a guard bit clears iff m's exponent is less.
A generative call converts f once (`_Form`): one pass over its monomials
gives their degrees, d and the keys, whose top is lm's; B is built at the
first attempt that solves, and later attempts reuse all of it.  Without
pruning, the divisors tried are those of d(lm) for that lm.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd
from operator import neg
from struct import Struct
from typing import NamedTuple, Optional

from .newton import d1_bound, descending_divisors, divisor_sequence, multiplicity
from .orders import GRLEX, WEIGHTED, MonomialCapExceeded, OrderError, OrderSpec
from .orders import check_enumerable, check_graded, normalize
from .orders import monomials_below  # noqa: F401 -- kept for the benchmark's binding (ROADMAP item 2)
from .poly import MultiPoly, PolyError, UniPoly, compose_uni, integer_form

VERIFIED = "verified"
MISMATCH = "mismatch"
# attempt_divisor builds the k + 1 powers of m1 before it solves, about 0.3 KiB
# each: a larger k, which can take all memory (x1^2147483647), is refused first
MAX_DIVISOR = 500_000


class DecompositionResult(NamedTuple):
    h: MultiPoly  # generative polynomial: closed, h(0)=0, leading coeff 1
    F: UniPoly  # outer polynomial with f = F(h)
    closed: bool  # deg F == 1
    trace: tuple  # ((divisor, "verified"|"mismatch"), ...) in attempt order
    order: OrderSpec

    def reconstruct(self) -> MultiPoly:
        return compose_uni(self.F, self.h)


class _Packing:
    """The keys K of the module docstring for monomials of degree at most d."""

    def __init__(self, nvars: int, d: int, kind: str):
        j = (d.bit_length() // 8).bit_length()  # 2^j bytes: the fewest that leave the guard bit clear
        size, grlex = 1 << j, kind == GRLEX
        self.byteorder = "big" if grlex else "little"  # e_1 or e_n most significant
        self.struct = Struct(f"{'>' if grlex else '<'}{nvars}{'BHIQ'[j]}")
        self.sign = 1 if grlex else -1
        self.unit = self.sign << 8 * self.struct.size  # s*W
        self.guard = int.from_bytes((b"\x80" + bytes(size - 1)) * nvars, "big")

    def pack(self, monos, degrees) -> list:
        pack, from_bytes, byteorder, unit = self.struct.pack, int.from_bytes, self.byteorder, self.unit
        return [from_bytes(pack(*m), byteorder) + t * unit for m, t in zip(monos, degrees)]

    def unpack(self, key: int) -> tuple:
        return self.struct.unpack((key % abs(self.unit)).to_bytes(self.struct.size, self.byteorder))

    def band(self, monos, base: int) -> list:
        """Heap keys -s*K(m), ≻-largest first, of each m other than base that base divides."""
        guard, flip = self.guard, -self.sign
        return [flip * m for m in monos if m != base and ((m | guard) - base) & guard == guard]


class _Form:
    """f packed once for all divisor attempts: its keys in f's term order, lm's
    key top (the ≻-largest), the next largest key second (0 if none), lm and
    lc; B is built by the first attempt that solves (`numerators`)."""

    def __init__(self, f: MultiPoly, order: OrderSpec):
        check_graded(order)
        degrees = list(map(sum, f.terms))
        d = max(degrees) if degrees else f.total_degree()  # the zero polynomial raises there
        self.packing = packing = _Packing(f.nvars, d, order.kind)
        self.keys = keys = packing.pack(f.terms, degrees)
        pick = max if packing.sign > 0 else min
        self.top = top = pick(keys)
        self.second = pick(filter(top.__ne__, keys), default=0)
        self.lm = packing.unpack(top)
        self.lc = f.terms[self.lm]
        self.coeffs = f.terms.values()
        self.B = None

    def numerators(self) -> dict:
        """B: f's non-constant terms, as key: numerator over L times sign(lc)."""
        if self.B is None:
            nums = integer_form(self.coeffs)[1]
            self.B = dict(zip(self.keys, map(neg, nums) if self.lc < 0 else nums))
            self.B.pop(0, None)  # the constant term's key
        return self.B


def _powers_with_term(powers: list, mono: int, coeff: int, k: int) -> list:
    """Given powers[p] = q^p as term dicts for p in 0..k, update them in place
    to the powers of q + c*m, and return the monomials that q^k gains.

    (q + c*m)^p = q^p + sum_i C(p, i) c^i m^i q^(p-i), so each power gains
    scaled, shifted copies of the lower ones; from p = k down, the lower
    powers still hold those of q.  attempt_divisor passes the integer
    numerator H of the candidate, an integer c and packed monomials, so every
    product here is an int product, every monomial product an int sum, and
    nothing is divided.  The powers are scratch: a zero left by cancellation
    compares equal to an absent term, and h leaves through MultiPoly._checked.
    """
    known = len(powers[k])
    for p in range(k, 0, -1):
        acc = powers[p]
        for i in range(1, p + 1):
            scale = comb(p, i) * coeff**i
            shift = i * mono
            for m, c in powers[p - i].items():
                m += shift
                acc[m] = acc[m] + scale * c if m in acc else scale * c
    return list(powers[k])[known:]  # no term is ever removed


def attempt_divisor(
    f: MultiPoly, k: int, order: OrderSpec, *, _form: Optional[_Form] = None
) -> Optional[tuple]:
    """One divisor attempt on a non-constant f.  Returns (h, F) with h(0) = 0,
    h leading-monic, deg F = k and f = F(h), or None on mismatch.  Both steps
    run on integer numerators and packed monomials (module docstring);
    `generative` hands every attempt the one `_Form` of f it builds.
    """
    form = _form or _Form(f, order)  # a weighted order, then the zero polynomial, stop here
    packing, top, lm = form.packing, form.top, form.lm
    if k <= 1 or multiplicity(lm) % k:
        raise PolyError(f"{k} does not divide the leading multiplicity")
    m1, base = top // k, (k - 1) * top // k
    # Early mismatch (module docstring): T = m1^l (1 <= l < k) iff K(T) = l*K(m1)
    t = form.second
    if t:
        l, rem = divmod(t, m1)
        if (rem or not 1 <= l < k) and not packing.band([t], base):
            return None
    if k > MAX_DIVISOR:
        raise MonomialCapExceeded(f"divisor {k} exceeds the supported bound {MAX_DIVISOR}")

    check_enumerable(tuple(e // k for e in lm), order)
    B = form.numerators()
    D = B[top]

    # Step: solve for h = m1 + sum alpha_j m_j, led by the band of B*E^k - D*H^k.
    # powers[p] = H^p; H's coefficient at m_j is E*alpha_j = num / (k*D*E^(k-1)).
    E = Ek = 1
    powers = [{i * m1: 1} for i in range(k + 1)]
    band = packing.band(B, base)
    heapify(band)
    while band:
        target = -packing.sign * heappop(band)
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
        for entry in packing.band(_powers_with_term(powers, target - base, num, k), base):
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
        if powers[p][p * m1] != Ep:  # pragma: no cover - monic leading powers
            raise RuntimeError("leading power of candidate h is not monic")
        r = residual.get(p * m1, 0)
        if r:
            F[(p,)] = form.lc * Fraction(r, S)
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
    h = {packing.unpack(m): Fraction(c, E) for m, c in powers[1].items()}
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
    - an attempt that raises OrderError (a weighted order, the monomial cap
      or a k above MAX_DIVISOR) at a k that does not divide d1 is dropped the
      same way; at a k that divides d1 the error is raised.
    """
    if f.is_constant():
        raise PolyError("cannot decompose a constant polynomial")
    # f packed once for all attempts (_Form), unpruned before the divisors,
    # pruned at the first attempt; a weighted order has none and raises there
    graded = order.kind != WEIGHTED
    form = _Form(f, order) if graded and not pruned else None
    # kept: the divisors of d1 once decided; without pruning, every candidate
    if pruned:
        candidates, kept = descending_divisors(d1_bound(f, order)), None
    else:
        candidates = kept = descending_divisors(multiplicity(form.lm)) if form else divisor_sequence(f, order)
    trace = []
    for k in candidates:
        if kept is not None and k not in kept:
            continue
        if graded and form is None:
            form = _Form(f, order)
        error = None
        try:
            result = attempt_divisor(f, k, order, _form=form)
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
