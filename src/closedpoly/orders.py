"""Homogeneous monomial orders, leading terms, and bounded descending
enumeration of monomials.

Supported kinds: graded-lex (default, x1 ≻ x2 ≻ ...), graded-revlex, and
weighted orders given by a positive rational weight vector with graded-lex
as tie-break.  A weight functional that is injective on a finite support
behaves exactly like a generic irrational-weight order there, which is all
the decomposition machinery ever compares.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import neg
from typing import NamedTuple, Optional

from .poly import Monomial, MultiPoly, NormalizedForm, PolyError, check_scalar

GRLEX = "grlex"
GREVLEX = "grevlex"
WEIGHTED = "weighted"

# monomials_below refuses to enumerate more than this many monomials.
DEFAULT_MONOMIAL_CAP = 200_000


class OrderError(ValueError):
    pass


class MonomialCapExceeded(OrderError):
    """The requested enumeration would produce too many monomials."""


class _OrderFields(NamedTuple):
    kind: str
    weights: Optional[tuple]


class OrderSpec(_OrderFields):
    __slots__ = ()

    def __new__(cls, kind: str = GRLEX, weights: Optional[tuple] = None):
        if kind not in (GRLEX, GREVLEX, WEIGHTED):
            raise OrderError(f"unknown order kind {kind!r}")
        if kind == WEIGHTED:
            if not weights:
                raise OrderError("weighted order requires a weight vector")
            weights = tuple(check_scalar(w, "weight") for w in weights)
            if any(w <= 0 for w in weights):
                raise OrderError("weights must be positive")
        elif weights is not None:
            raise OrderError(f"{kind} order takes no weights")
        return super().__new__(cls, kind, weights)

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


def sort_key(m: Monomial, order: OrderSpec):
    """A key tuple whose natural comparison realizes the order."""
    if order.kind == GRLEX:
        return (sum(m), m)
    if order.kind == GREVLEX:
        return (sum(m), tuple(map(neg, reversed(m))))
    weights = order.weights
    if len(weights) != len(m):
        raise OrderError("weight vector length does not match monomial")
    w = sum(wi * e for wi, e in zip(weights, m))
    return (w, sum(m), m)


def compare(m1: Monomial, m2: Monomial, order: OrderSpec) -> int:
    """-1, 0 or 1 as m1 ≺, =, ≻ m2."""
    if len(m1) != len(m2):
        raise PolyError("monomial length mismatch")
    k1, k2 = sort_key(m1, order), sort_key(m2, order)
    return (k1 > k2) - (k1 < k2)


def leading_term(f: MultiPoly, order: OrderSpec) -> tuple:
    """The ≻-maximal monomial of the support and its coefficient."""
    if f.is_zero():
        raise PolyError("the zero polynomial has no leading term")
    m = max(f.terms, key=lambda mono: sort_key(mono, order))
    return m, f.terms[m]


def check_graded(order: OrderSpec) -> None:
    """Raise unless higher total degree always wins (a degree-compatible order)."""
    if order.kind == WEIGHTED:
        raise OrderError(f"{order.kind} is not a graded (degree-compatible) order")


def check_enumerable(m1: Monomial, order: OrderSpec) -> None:
    """Raise what monomials_below(m1, order) refuses, before it lists any."""
    check_graded(order)
    estimate = comb(sum(m1) + len(m1), len(m1))
    if estimate > DEFAULT_MONOMIAL_CAP:
        raise MonomialCapExceeded(
            f"enumeration of ~{estimate} monomials exceeds the cap of {DEFAULT_MONOMIAL_CAP}"
        )


def monomials_below(m1: Monomial, order: OrderSpec) -> list:
    """All monomials m with m1 ≻ m ≻ 1, strictly descending under the order.

    Only degree-compatible (graded) kinds are allowed, so every such m has
    degree 1..deg(m1): each of those is listed once, and the ones below m1
    are sorted by `sort_key`.
    """
    check_enumerable(m1, order)
    nvars = len(m1)
    top = sort_key(m1, order)
    below = []
    for d in range(1, sum(m1) + 1):
        for chosen in combinations_with_replacement(range(nvars), d):
            m = tuple(map(chosen.count, range(nvars)))
            if sort_key(m, order) < top:
                below.append(m)
    return sorted(below, key=lambda m: sort_key(m, order), reverse=True)


def normalize(f: MultiPoly, order: OrderSpec) -> NormalizedForm:
    """Split f as leading_scalar * core + constant_term with core
    leading-monic and constant-free."""
    if f.is_constant():
        raise PolyError("cannot normalize a constant polynomial")
    _, a = leading_term(f, order)
    core = MultiPoly._checked(f.nvars, {m: c / a for m, c in f.terms.items() if any(m)})
    return NormalizedForm(core=core, leading_scalar=a, constant_term=f.constant_term())
