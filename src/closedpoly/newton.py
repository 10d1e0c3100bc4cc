"""Newton-polytope support analysis: monomial multiplicities, the set of
potential leading terms V0, divisor sequences, and realizing weight vectors.

V0 is decided in two steps.  One scan in descending lexicographic order keeps
the Pareto front of the support (Kung, Luccio, Preparata, JACM 1975): a point
is dropped when a front point dominates it coordinatewise, and in this order a
dominating point always comes first.  Then one dominance LP per front point,
with the other front points as columns, decides it (Motzkin's transposition
theorem): v is outside V0 iff some convex combination of them is
coordinatewise >= v, and each such exclusion witness is checked exactly.
This gives the V0 of the LP over all support points:
- a dropped point v is excluded by a point u >= v, u != v, exact integer data;
- a dominating convex combination over all points moves onto the front by
  replacing each point with a front point above it; the weight that lands on
  v itself is below 1, since points <= v other than v cannot average to v, so
  it divides out.
Two other routes to V0, the strict weight argmax and the hull vertices that
the polytope does not dominate, are test oracles in `tests/oracles.py`;
criterion 6 compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

from .linprog import feasible_point
from .orders import OrderSpec, leading_term
from .poly import Monomial, MultiPoly, PolyError, mono_unit


@dataclass(frozen=True)
class NewtonSummary:
    support: frozenset
    v0: frozenset
    d_leading: int
    d1: int
    divisors_plain: tuple
    divisors_pruned: tuple


def multiplicity(m: Monomial) -> int:
    """d(m): the GCD of the exponents."""
    if not any(m):
        raise PolyError("multiplicity is undefined for the unit monomial")
    return gcd(*m)


def realizing_weights(f: MultiPoly, v: Monomial) -> Optional[tuple]:
    """Positive weights (Fractions) making v the strict weight-argmax over the
    support, checked exactly; RuntimeError if the LP's answer fails the check.

    Returns None when no such weights exist, i.e. v is not in V0.  Strictness
    is encoded as a >= 1 margin; any feasible solution scales.  A one-term
    support leaves the LP no rows, and its zero point makes every weight 1.
    """
    v = tuple(v)
    support = f.support()
    if v not in support:
        raise PolyError("v is not in the support of f")
    # substitute w = 1 + y with y >= 0 so the LP variables are nonnegative:
    # <w, v-u> >= 1  becomes  <y, v-u> >= 1 - <1, v-u>.
    A_ge = [[a - b for a, b in zip(v, u)] for u in support if u != v]
    y = feasible_point(f.nvars, A_ge=A_ge, b_ge=[1 - sum(diff) for diff in A_ge])
    if y is None:
        return None
    weights = tuple(Fraction(1) + yi for yi in y)
    if min(weights) <= 0 or any(sum(w * e for w, e in zip(weights, diff)) <= 0 for diff in A_ge):
        raise RuntimeError(f"realizing weights for {v} failed their check")
    return weights


def _dominated(v: Monomial, by: Monomial) -> bool:
    return all(b >= a for a, b in zip(v, by))


def _dominating_combination(v: Monomial, others: list) -> Optional[list]:
    """Convex weights over the points `others` whose combination is
    coordinatewise >= v, or None.  Equivalent to the shifted Newton polytope
    meeting the nonnegative orthant away from the origin."""
    if not others:
        return None
    A_ge = [[q[s] for q in others] for s in range(len(v))]
    return feasible_point(len(others), A_eq=[[1] * len(others)], b_eq=[1], A_ge=A_ge, b_ge=v)


def v0_set(f: MultiPoly) -> set:
    """Support points that are the leading monomial for some monomial order.
    Raises RuntimeError when an exclusion witness fails its exact check."""
    if f.is_zero() or f.is_constant():
        raise PolyError("V0 requires a non-constant polynomial")
    front = []  # the Pareto front: a point above v comes before v in this order
    for v in sorted(f.support(), reverse=True):
        if not any(_dominated(v, by=u) for u in front):
            front.append(v)
    out = set()
    for v in front:
        others = [q for q in front if q != v]
        lam = _dominating_combination(v, others)
        if lam is None:
            out.add(v)
        elif not (
            all(x >= 0 for x in lam)
            and sum(lam) == 1
            and all(sum(x * q[s] for x, q in zip(lam, others)) >= e for s, e in enumerate(v))
        ):
            raise RuntimeError(f"dominance witness excluding {v} from V0 failed its check")
    return out


def _descending_divisors(d: int) -> tuple:
    """The divisors k > 1 of d, descending: each k <= isqrt(d) that divides d
    pairs with d // k."""
    small = [k for k in range(1, isqrt(d) + 1) if d % k == 0]
    large = [d // k for k in small if k * k != d]
    return tuple(k for k in large + small[::-1] if k > 1)


def _gcd_multiplicity(v0: set) -> int:
    """d1 of a non-constant f.  Its V0 lacks the unit point, which every other
    point dominates, and holds the lex-largest point v: a convex combination
    >= v of the other points, all lex-below v, could weigh only points that
    match v coordinate by coordinate, and there are none."""
    return gcd(*map(multiplicity, v0))


def divisor_sequence(f: MultiPoly, order: OrderSpec, pruned: bool = False) -> tuple:
    """Descending divisors (> 1) of d(leading monomial), or of d1 when pruned.

    An empty sequence means f is immediately closed.
    """
    if f.is_zero() or f.is_constant():
        raise PolyError("divisor sequence requires a non-constant polynomial")
    lm, _ = leading_term(f, order)
    d = multiplicity(lm)
    if d == 1:
        return ()
    if pruned:
        d = _gcd_multiplicity(v0_set(f))
    return _descending_divisors(d)


def newton_summary(f: MultiPoly, order: OrderSpec) -> NewtonSummary:
    lm, _ = leading_term(f, order)
    if lm == mono_unit(f.nvars):
        raise PolyError("newton summary requires a non-constant polynomial")
    v0 = v0_set(f)
    d_leading = multiplicity(lm)
    d1 = _gcd_multiplicity(v0)
    return NewtonSummary(
        support=frozenset(f.support()),
        v0=frozenset(v0),
        d_leading=d_leading,
        d1=d1,
        divisors_plain=_descending_divisors(d_leading),
        divisors_pruned=_descending_divisors(d1),
    )
