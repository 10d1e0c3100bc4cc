"""Shifted factorization families f + mu and the Stein–Lorenzini–Najib check.

Given a decomposition f = F(h), the splitting of F(t) + mu over ℚ turns
into a factorization of f + mu through shifts of h; roots outside ℚ stay
bundled in a rootless monic residual.  The exceptional set of f is the
image of the (user-supplied) exceptional set of h.

The split runs on integers end to end: the roots are bracketed by integer
bisection with one Horner evaluation per step, and the product identity is
checked on integer numerators, with no `Fraction` polynomial built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .decompose import DecompositionResult
from .parsing import ascii_number, short_number
from .poly import PolyError, UniPoly, check_scalar, fraction_parts, integer_form
from .poly import compose_uni  # noqa: F401 -- unused, kept for the benchmark's binding (ROADMAP item 2)


class DataFormatError(ValueError):
    """Malformed decomposition-data input."""


class FamilyFactorization(NamedTuple):
    mu: Fraction
    alpha: Fraction  # leading scalar
    shifts: tuple  # ((lambda, multiplicity), ...), lambda descending
    residual: UniPoly  # monic, no rational roots; the constant 1 when fully split

    def shift_count(self) -> int:
        return sum(mult for _, mult in self.shifts)


def _horner(c: list, x: int) -> int:
    """c(x) for integer coefficients c, lowest degree first."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _brackets(g: list, bound: int) -> list:
    """Sorted integers in [-bound, bound] holding the floor and ceiling of each real
    root of g, if g and its derivatives have all real roots inside the bound (by
    Gauss-Lucas, true of any bound on the roots of g).  Between brackets of g^(k+1)
    more than 1 apart, g^(k) is monotone, so one integer bisection finds its root.
    g^(k) is evaluated once at each bracket and once per bisection step, and signs
    are compared, not multiplied: the sign at lo holds while lo moves, and the
    bisection stops at an integer root."""
    edges, binom = [-bound, bound], []
    for k in reversed(range(len(g))):
        binom = [1] + [b * (k + 1) // (j + 1) for j, b in enumerate(binom)]  # comb(k + j, k)
        c = [b * a for b, a in zip(binom, g[k:])]  # g^(k) / k!
        values = [_horner(c, x) for x in edges]
        found = []
        for lo, hi, at_lo, at_hi in zip(edges, edges[1:], values, values[1:]):
            if (at_lo < 0 < at_hi) or (at_hi < 0 < at_lo):
                positive = at_lo > 0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    at_mid = _horner(c, mid)
                    if not at_mid:
                        hi = mid
                        break
                    lo, hi = (mid, hi) if (at_mid > 0) == positive else (lo, mid)
                found += (lo, hi)
        edges = sorted(set(edges + found))
    return edges


def _split(G: UniPoly) -> tuple:
    """(roots, residual): the rational roots of G with multiplicities, sorted
    descending, and the monic residual of G with each root divided out.

    With G scaled to primitive integers a_i, a_n > 0, the roots are the u / a_n
    for the integer roots u of the monic g_i = a_i a_n^(n-1-i).  Each root is
    divided out of g once, by integer synthetic division, and the quotient q
    maps back to the residual q(a_n t) / a_n^deg(q)."""
    if G.is_zero():
        raise PolyError("the zero polynomial has every root")
    _, ints = integer_form(G.coeffs)
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    lead, n = ints[-1] // content, len(ints) - 1
    g = [a // content * lead ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    # Fujiwara: every root has |u| <= 2 max |g_(n-i)|^(1/i) < 2 max 2^ceil(bitlen(g_(n-i)) / i)
    bound = 2 * max((1 << -(-abs(a).bit_length() // i) for i, a in enumerate(reversed(g[:-1]), 1)),
                    default=1)  # a constant G gives g = [1], which has no roots
    q = g
    roots = []
    for u in reversed(_brackets(g, bound)):
        mult = 0
        while _horner(q, u) == 0:
            acc, quotient = 0, []
            for a in reversed(q):
                acc = acc * u + a
                quotient.append(acc)
            q = quotient[-2::-1]  # the last value is the remainder q(u) = 0
            mult += 1
        if mult:
            roots.append((Fraction(u, lead), mult))
    m = len(q) - 1
    return roots, UniPoly._checked(1, {(i,): Fraction(a, lead ** (m - i)) for i, a in enumerate(q)})


def rational_roots(G: UniPoly) -> list:
    """All rational roots of G with multiplicities, sorted descending."""
    return _split(G)[0]


def factor_shift(result: DecompositionResult, mu) -> FamilyFactorization:
    """Split f + mu through the pair (h, F): f + mu = alpha * prod (h + lambda_i)^e_i * residual(h).
    The identity F + mu = alpha * prod (t + lambda_i)^e_i * residual is checked in ℚ[t], on the
    returned alpha, shifts and residual; the ring map t -> h carries it to ℚ[x], where f = F(h)
    is certified by the decomposition."""
    mu = check_scalar(mu, "mu")
    G = result.F + mu
    if G.is_constant():
        raise PolyError("F + mu must be non-constant")
    alpha = G.leading_coefficient()
    roots, residual = _split(G)
    shifts = [(-root, mult) for root, mult in reversed(roots)]  # so the shifts -root descend
    if not _product_holds(G, alpha, shifts, residual):
        raise RuntimeError("product identity for f + mu failed to verify")
    return FamilyFactorization(mu=mu, alpha=alpha, shifts=tuple(shifts), residual=residual)


def _product_holds(G: UniPoly, alpha: Fraction, shifts: list, residual: UniPoly) -> bool:
    """G = alpha * prod (t + p/q)^e * residual, on integer numerators: with G = g / L_G,
    residual = r / L_R and alpha = a / b, whether
    b * prod q^e * L_R * g = a * L_G * prod (q t + p)^e * r."""
    L_G, g = integer_form(G.coeffs)
    L_R, product = integer_form(residual.coeffs)
    a, b = fraction_parts(alpha)
    scale_g, scale_product = b * L_R, a * L_G
    for lam, mult in shifts:
        p, q = fraction_parts(lam)
        scale_g *= q**mult
        for _ in range(mult):  # times q t + p
            product = [p * x + q * y for x, y in zip(product + [0], [0] + product)]
    return [scale_product * x for x in product] == [scale_g * x for x in g]


def exceptional_image(F: UniPoly, E_h) -> set:
    """E(f) from E(h): the elementwise image lambda -> -F(-lambda)."""
    return {-F.evaluate(-check_scalar(lam, "exceptional value")) for lam in E_h}


# -- Stein–Lorenzini–Najib checker on supplied decomposition data ----------

GENERIC = None  # shift marker for the generic (non-exceptional) line

H_FORM = "h"
F_FORM = "f"


class ShiftEntry(NamedTuple):
    shift: Optional[Fraction]  # None marks the generic entry
    factors: tuple  # ((degree, multiplicity), ...)


class DecompositionData(NamedTuple):
    entries: tuple
    d: Optional[int] = None  # generic factor degree (f-form only)


class SteinReport(NamedTuple):
    mode: str
    lhs: int
    rhs: int
    holds: bool


def _validate_entries(entries: Sequence[ShiftEntry]):
    if not entries:
        raise DataFormatError("no decomposition entries supplied")
    for entry in entries:
        if not entry.factors:
            raise DataFormatError("entry with no factors")
        for deg, mult in entry.factors:
            if deg <= 0 or mult <= 0:
                raise DataFormatError(
                    "degrees and multiplicities must be positive, "
                    f"got {short_number(deg)}^{short_number(mult)}"
                )


def stein_check(data: DecompositionData, mode: str) -> SteinReport:
    """Evaluate the strict inequality on the supplied decomposition data.

    h-form: sum over entries of (n - 1)  <  min over entries of sum of degrees.
    f-form: sum over entries of (n - deg(f)/d)  <  the same minimum; requires
    d, every listed degree <= d, and consistent total degrees.
    """
    if mode not in (H_FORM, F_FORM):
        raise DataFormatError(f"mode must be 'h' or 'f', got {mode!r}")
    _validate_entries(data.entries)
    totals = {sum(deg * mult for deg, mult in e.factors) for e in data.entries}
    if len(totals) > 1:
        raise DataFormatError("entries disagree on the total degree: "
                              f"[{', '.join(map(short_number, sorted(totals)))}]")
    total_degree = totals.pop()
    if mode == F_FORM:
        if data.d is None:
            raise DataFormatError("f-form requires the generic factor degree d")
        if data.d <= 0:
            raise DataFormatError("d must be positive")
        for e in data.entries:
            for deg, _ in e.factors:
                if deg > data.d:
                    raise DataFormatError(f"factor degree {short_number(deg)} exceeds "
                                          f"the generic degree d={short_number(data.d)}")
        if total_degree % data.d:
            raise DataFormatError(f"total degree {short_number(total_degree)} is not a "
                                  f"multiple of d={short_number(data.d)}")
        base = total_degree // data.d
    else:
        base = 1
    lhs = sum(len(e.factors) - base for e in data.entries)
    rhs = min(sum(deg for deg, _ in e.factors) for e in data.entries)
    return SteinReport(mode=mode, lhs=lhs, rhs=rhs, holds=lhs < rhs)


def parse_decomposition_data(text: str, d: Optional[int] = None) -> DecompositionData:
    """Parse the line format ``shift: deg^mult, deg^mult, ...``.

    A shift of ``*`` marks the generic entry; ``^mult`` defaults to 1.
    Blank lines and ``#`` comments are skipped.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DataFormatError(f"line {lineno}: expected 'shift: factors'")
        shift_text, factors_text = line.split(":", 1)
        shift_text = shift_text.strip()
        if shift_text == "*":
            shift = GENERIC
        else:
            try:
                shift = ascii_number(shift_text, Fraction, "a shift value")
            except ZeroDivisionError:
                raise DataFormatError(f"line {lineno}: bad shift value {shift_text!r}") from None
            except ValueError as exc:
                message = str(exc) or f"bad shift value {shift_text!r}"
                raise DataFormatError(f"line {lineno}: {message}") from None
        factors = []
        for piece in factors_text.split(","):
            piece = piece.strip()
            if not piece:
                raise DataFormatError(f"line {lineno}: empty factor")
            deg_text, caret, mult_text = piece.partition("^")
            try:
                deg = ascii_number(deg_text, int, "a factor")
                mult = ascii_number(mult_text, int, "a factor") if caret else 1
            except ValueError as exc:
                message = str(exc) or f"bad factor {piece!r}"
                raise DataFormatError(f"line {lineno}: {message}") from None
            factors.append((deg, mult))
        entries.append(ShiftEntry(shift=shift, factors=tuple(factors)))
    return DecompositionData(entries=tuple(entries), d=d)
