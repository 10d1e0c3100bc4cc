"""Sparse polynomials over exact rationals: `MultiPoly` in nvars variables,
and `UniPoly`, the one-variable MultiPoly, which adds a dense `coeffs` view.

Coefficients are `fractions.Fraction` throughout; no floating point enters
the core.  Monomials are plain tuples of nonnegative ints (one entry per
variable), so they can key dicts directly.

Validation happens once, at the boundary.  The public `MultiPoly(nvars,
terms)` constructor checks the variable count (an int up to
`MAX_VARIABLES`), every monomial (a tuple of ints: its length, sign and
exponent bound) and every coefficient (an int or a Fraction, stored as a
Fraction); the parser enforces the same checks as it reads and builds its
result without repeating them.  Arithmetic on checked operands builds its
result unchecked, except for the exponent bound, which a product can
overflow: one check per product bounds the sum of the two operands'
largest exponents in each variable, and `p ** k` checks k times p's
largest exponents once, before any product.  An int or Fraction operand
of `+`, `-` or `==` is wrapped unchecked, as is every polynomial the
library builds below the public constructors (through `_checked`, or
`_adopt` when its caller knows the terms hold no zero).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence, Union

Monomial = tuple  # exponent vector; length == nvars

# Desk-scale tool: exponents beyond 2^31 and more than 2^16 variables are
# rejected outright (a monomial is a dense tuple of nvars exponents).
MAX_EXPONENT = 2**31 - 1
MAX_VARIABLES = 2**16

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)  # the default of every missing-term lookup; Fraction is immutable


class PolyError(ValueError):
    """Domain error in polynomial construction or arithmetic."""


def mono_unit(nvars: int) -> Monomial:
    return (0,) * nvars


def _check_exponent(e: int) -> int:
    if e > MAX_EXPONENT:
        raise PolyError(f"exponent {e} exceeds the supported bound {MAX_EXPONENT}")
    return e


def add_product(acc: dict, s: Mapping, t: Mapping) -> None:
    """Add the product of the term dicts s and t into acc, in place; raise
    PolyError, with acc untouched, if it exceeds the exponent bound."""
    # a term pair overflows in x_i iff the two largest exponents of x_i do
    for top1, top2 in zip(map(max, zip(*s)), map(max, zip(*t))):
        _check_exponent(top1 + top2)
    for m1, c1 in s.items():
        for m2, c2 in t.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2


def derivative(pairs: Iterable[tuple], i: int) -> dict:
    """The term dict of d/dx_(i+1) of the (monomial, coefficient) pairs, i 0-based."""
    # lowering the exponent of x_(i+1) is one-to-one on the terms that have it
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in pairs if m[i]}


def integer_form(coeffs: Collection[Fraction]) -> tuple:
    """(L, [n_i]): L > 0 the lcm of the coeffs' denominators, n_i = c_i * L, in
    input order; L // d is computed once per distinct denominator d."""
    parts = [c.as_integer_ratio() for c in coeffs]  # one call, not two property reads
    dens = {d for _, d in parts}
    L = lcm(*dens)
    scale = {d: L // d for d in dens}
    return L, [n * scale[d] for n, d in parts]


def fraction_parts(c: Scalar) -> tuple:
    """(numerator, denominator) of one int or Fraction c, the denominator positive."""
    return c.numerator, c.denominator


def check_nvars(nvars: int) -> int:
    """Reject nvars outside 1..MAX_VARIABLES, before anything nvars long is built."""
    if not isinstance(nvars, int):
        raise PolyError(f"nvars must be an int, got {nvars!r}")
    if nvars < 1:
        raise PolyError("nvars must be positive")
    if nvars > MAX_VARIABLES:
        raise PolyError(f"{nvars} variables exceed the supported bound {MAX_VARIABLES}")
    return nvars


def check_scalar(c, what: str = "coefficient") -> Fraction:
    """c as a Fraction, if it has a type the arithmetic promotes (int or Fraction)."""
    if not isinstance(c, (int, Fraction)):
        raise PolyError(f"{what} {c!r} is not an int or a Fraction")
    return Fraction(c)


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over ℚ."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        check_nvars(nvars)
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if not (isinstance(m, tuple) and all(isinstance(e, int) for e in m)):
                    raise PolyError(f"monomial {m!r} is not a tuple of ints")
                if len(m) != nvars:
                    raise PolyError(
                        f"monomial {m} has length {len(m)}, expected {nvars}"
                    )
                if any(e < 0 for e in m):
                    raise PolyError(f"negative exponent in monomial {m}")
                for e in m:
                    _check_exponent(e)
                c = check_scalar(c)
                if c:
                    clean[tuple(m)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # as the constructor's arguments, so that unpickling validates
        return MultiPoly, (self.nvars, self.terms)

    @classmethod
    def _checked(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap terms already known valid (an arithmetic result of checked
        operands, a scalar operand, or the parser's output) whose
        coefficients are Fractions; only zeros are dropped."""
        return cls._adopt(nvars, {m: c for m, c in terms.items() if c})

    @classmethod
    def _adopt(cls, nvars: int, terms: dict) -> "MultiPoly":
        """`_checked` without the copy, for a dict with no zero that no other code keeps."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls.from_term(nvars, mono_unit(check_nvars(nvars)), c)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The variable x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise PolyError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * check_nvars(nvars)
        exps[i - 1] = 1
        return cls.from_term(nvars, tuple(exps))

    @classmethod
    def from_term(cls, nvars: int, m: Monomial, c: Scalar = 1) -> "MultiPoly":
        return cls(nvars, {m: c})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_term(self) -> Fraction:
        return self.terms.get(mono_unit(self.nvars), _ZERO)

    def coefficient(self, m: Monomial) -> Fraction:
        if len(m) != self.nvars:
            raise PolyError("monomial length mismatch")
        return self.terms.get(tuple(m), _ZERO)

    def support(self) -> set:
        return set(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise PolyError("the zero polynomial has no degree")
        return max(map(sum, self.terms))

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise PolyError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._checked(self.nvars, {mono_unit(self.nvars): Fraction(other)})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return self._checked(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._checked(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._checked(self.nvars, {m: a * c for m, a in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_ring(other)
        terms: dict[Monomial, Fraction] = {}
        add_product(terms, self.terms, other.terms)
        return self._checked(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative polynomial power")
        # the x_i-leading part of self is nonzero, so its k-th power reaches k * top_i
        for top in map(max, zip(*self.terms)):
            _check_exponent(k * top)
        result = self._checked(self.nvars, {mono_unit(self.nvars): Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._checked(self.nvars, {mono_unit(self.nvars): Fraction(other)})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self.is_constant():  # equal to its constant term, so hashed as it
            return hash(self.constant_term())
        return hash((self.nvars, frozenset(self.terms.items())))

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """self(point) over one common denominator: with x_i = p_i / q_i and top_i
        the largest exponent of x_i, each integer numerator of `integer_form` is
        multiplied by prod p_i^e_i q_i^(top_i - e_i), and one Fraction is built of
        their sum over L prod q_i^top_i."""
        if len(point) != self.nvars:
            raise PolyError("evaluation point has wrong dimension")
        pt = [check_scalar(v, "point value") for v in point]
        den, nums = integer_form(self.terms.values())
        scales = []  # (i, {e: p_i^e q_i^(top_i - e)}) for each x_i in some term
        for i, (x, column) in enumerate(zip(pt, zip(*self.terms))):
            top = max(column)
            if top:
                p, q = fraction_parts(x)
                scales.append((i, {e: p**e * q ** (top - e) for e in set(column)}))
                den *= q**top
        total = 0
        for m, n in zip(self.terms, nums):
            for i, scale in scales:
                n *= scale[m[i]]
            total += n
        return Fraction(total, den)

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise PolyError(f"variable index {i} out of range 1..{self.nvars}")
        return self._checked(self.nvars, derivative(self.terms.items(), i - 1))

    def __repr__(self):
        from .parsing import render_poly

        return f"MultiPoly({render_poly(self)!r})"


class UniPoly(MultiPoly):
    """F(t) over ℚ: the one-variable MultiPoly, keyed (i,) for t^i, with the
    arithmetic of MultiPoly and a dense view `coeffs`."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar]):
        """coeffs[i] is the t^i coefficient."""
        terms = {(i,): c for i, c in enumerate(map(check_scalar, coeffs)) if c}
        object.__setattr__(self, "nvars", 1)
        object.__setattr__(self, "terms", terms)

    def __reduce__(self):  # sparse: the coeffs of t^(2^31 - 1) are 2^31 entries
        return _unipoly, (self.terms,)

    @property
    def coeffs(self) -> tuple:
        """Dense, lowest degree first, with no trailing zeros."""
        if not self.terms:
            return ()
        return tuple(self.terms.get((i,), _ZERO) for i in range(self.degree() + 1))

    @classmethod
    def from_term(cls, nvars: int, m: Monomial, c: Scalar = 1) -> "UniPoly":
        """c*t^i for m = (i,); `constant` and `variable` build through it."""
        if nvars != 1:
            raise PolyError(f"a UniPoly has 1 variable, got nvars={nvars}")
        return cls._checked(1, MultiPoly.from_term(1, m, c).terms)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls([])

    @classmethod
    def identity(cls) -> "UniPoly":
        return cls([0, 1])

    def degree(self) -> int:
        return self.total_degree()

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise PolyError("zero polynomial")
        return self.terms[(self.degree(),)]

    def evaluate(self, x: Scalar) -> Fraction:
        return super().evaluate((x,))

    def __repr__(self):
        from .parsing import render_uni

        return f"UniPoly({render_uni(self)!r})"


def _unipoly(terms: dict) -> UniPoly:
    return UniPoly._checked(1, MultiPoly(1, terms).terms)  # validated as MultiPoly(1, terms)


def compose_uni(F: UniPoly, h: MultiPoly) -> MultiPoly:
    """Exact F(h) via Horner's scheme."""
    acc = MultiPoly._checked(h.nvars, {})
    for c in reversed(F.coeffs):
        acc = acc * h + c
    return acc


class NormalizedForm(NamedTuple):
    """f = leading_scalar * core + constant_term, with core leading-monic
    (w.r.t. the active order) and core(0,...,0) = 0."""

    core: MultiPoly
    leading_scalar: Fraction
    constant_term: Fraction

    def reconstruct(self) -> MultiPoly:
        return self.leading_scalar * self.core + self.constant_term
