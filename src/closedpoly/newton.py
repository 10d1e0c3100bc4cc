"""Newton-polytope support analysis: monomial multiplicities, the set of
potential leading terms V0, divisor sequences, and realizing weight vectors.

V0 is decided in two steps.  One scan in descending lexicographic order keeps
the Pareto front of the support (Kung, Luccio, Preparata, JACM 1975): a point
is dropped when a front point dominates it coordinatewise, and in this order a
dominating point always comes first.  Then one dominance LP per front point,
with the other front points as columns, decides it (Motzkin's transposition
theorem): v is outside V0 iff some convex combination of them is
coordinatewise >= v, and each such exclusion witness is checked exactly, in
the integers the LP returns.
This gives the V0 of the LP over all support points:
- a dropped point v is excluded by a point u >= v, u != v, exact integer data;
- a dominating convex combination over all points moves onto the front by
  replacing each point with a front point above it; the weight that lands on
  v itself is below 1, since points <= v other than v cannot average to v, so
  it divides out.
Two other routes to V0, the strict weight argmax and the hull vertices that
the polytope does not dominate, are test oracles in `tests/oracles.py`;
criterion 6 compares them.

The pruned divisor sequence needs only d1, the gcd of d(v) over V0.  It
starts from g0, the gcd of d(lm) and of d(v_i) for each variable i, where v_i
maximizes (v_i, v) over the support, v compared lexicographically.  g0 takes
two scans per variable and no LP, and d1 divides it.  Then the LP runs only
for a front point v with g not dividing d(v), so for none once g = 1.  This
is exact:
- the LP never excludes the leading monomial m of any monomial order: if
  sum lambda_u*u >= m with every u < m, clearing denominators by N makes
  x^(sum N*lambda_u*u) a multiple of x^(N*m), so not below it, yet a product
  of N monomials each below m;
- v_i is the leading monomial under the monomial order "x_i-degree, then
  lex", so lm and every v_i are in V0;
- a point whose multiplicity g divides cannot change the gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter
from typing import NamedTuple, Optional

from .linprog import feasible_point
from .orders import OrderSpec, leading_term
from .poly import Monomial, MultiPoly, PolyError


class NewtonSummary(NamedTuple):
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
    The LP's answer (d, y) is checked in integers, on W = d + y, the weights
    times d: d > 0, min W > 0 and W.(v - u) > 0 for every other support u.
    """
    v = tuple(v)
    support = f.support()
    if v not in support:
        raise PolyError("v is not in the support of f")
    # substitute w = 1 + y with y >= 0 so the LP variables are nonnegative:
    # <w, v-u> >= 1  becomes  <y, v-u> >= 1 - <1, v-u>.  The rows are sorted:
    # the set's order follows f's term order, and the LP's vertex follows the rows.
    A_ge = [[a - b for a, b in zip(v, u)] for u in sorted(support) if u != v]
    sol = feasible_point(f.nvars, A_ge=A_ge, b_ge=[1 - sum(diff) for diff in A_ge])
    if sol is None:
        return None
    d, y = sol
    W = [d + yi for yi in y]
    if d <= 0 or min(W) <= 0 or any(sum(w * e for w, e in zip(W, diff)) <= 0 for diff in A_ge):
        raise RuntimeError(f"realizing weights for {v} failed their check")
    return tuple(Fraction(w, d) for w in W)


def _dominated(v: Monomial, by: Monomial) -> bool:
    return all(b >= a for a, b in zip(v, by))


def _dominating_combination(v: Monomial, others: list) -> Optional[tuple]:
    """Convex weights over the points `others` whose combination is
    coordinatewise >= v, as the LP's (d, numerators), or None.  Equivalent to
    the shifted Newton polytope meeting the nonnegative orthant off the origin."""
    if not others:
        return None
    A_ge = [[q[s] for q in others] for s in range(len(v))]
    return feasible_point(len(others), A_eq=[[1] * len(others)], b_eq=[1], A_ge=A_ge, b_ge=v)


def _pareto_front(f: MultiPoly) -> list:
    """The support points no other point dominates, in descending lex order:
    a point above v comes before v in this order."""
    front = []
    for v in sorted(f.support(), reverse=True):
        if not any(_dominated(v, by=u) for u in front):
            front.append(v)
    return front


def _in_v0(v: Monomial, front: list) -> bool:
    """Whether the front point v is in V0: no convex combination of the other
    front points dominates it.  An exclusion witness (d, lambda), the weights
    lambda/d, is checked in integers: d > 0, lambda >= 0, sum lambda = d and
    sum lambda_u*u >= d*v; RuntimeError if it fails."""
    others = [q for q in front if q != v]
    sol = _dominating_combination(v, others)
    if sol is None:
        return True
    d, lam = sol
    if not (
        0 < d == sum(lam)
        and min(lam) >= 0
        and all(sum(x * q[s] for x, q in zip(lam, others)) >= d * e for s, e in enumerate(v))
    ):
        raise RuntimeError(f"dominance witness excluding {v} from V0 failed its check")
    return False


def v0_set(f: MultiPoly) -> set:
    """Support points that are the leading monomial for some monomial order.
    Raises RuntimeError when an exclusion witness fails its exact check."""
    if f.is_constant():
        raise PolyError("V0 requires a non-constant polynomial")
    front = _pareto_front(f)
    return {v for v in front if _in_v0(v, front)}


def descending_divisors(d: int) -> tuple:
    """The divisors k > 1 of d, descending: each k <= isqrt(d) that divides d
    pairs with d // k."""
    small = [k for k in range(1, isqrt(d) + 1) if d % k == 0]
    large = [d // k for k in small if k * k != d]
    return tuple(k for k in large + small[::-1] if k > 1)


def d1_bound(f: MultiPoly, order: OrderSpec) -> int:
    """g0, a multiple of d1 found with no LP: the gcd of d(lm) and of d(v_i),
    v_i the support point maximizing (v_i, v) (module docstring)."""
    g = multiplicity(leading_term(f, order)[0])
    for i in range(f.nvars):
        if g == 1:
            break
        top = max(map(itemgetter(i), f.terms))
        g = gcd(g, multiplicity(max(u for u in f.terms if u[i] == top)))
    return g


def divisor_sequence(f: MultiPoly, order: OrderSpec, pruned: bool = False) -> tuple:
    """Descending divisors (> 1) of d(leading monomial), or of d1 when pruned.
    The pruned walk lowers g0 (`d1_bound`) to d1 with one dominance LP per
    front point whose multiplicity the running gcd does not divide.

    An empty sequence means f is immediately closed.
    """
    if f.is_constant():
        raise PolyError("divisor sequence requires a non-constant polynomial")
    if not pruned:
        return descending_divisors(multiplicity(leading_term(f, order)[0]))
    d = d1_bound(f, order)
    if d > 1:
        front = _pareto_front(f)
        for v in front:
            dv = multiplicity(v)
            if dv % d and _in_v0(v, front):
                d = gcd(d, dv)
    return descending_divisors(d)


def newton_summary(f: MultiPoly, order: OrderSpec) -> NewtonSummary:
    if f.is_constant():
        raise PolyError("newton summary requires a non-constant polynomial")
    lm, _ = leading_term(f, order)
    v0 = v0_set(f)
    d_leading = multiplicity(lm)
    d1 = gcd(*map(multiplicity, v0))  # V0 holds lm, not the unit point
    return NewtonSummary(
        support=frozenset(f.support()),
        v0=frozenset(v0),
        d_leading=d_leading,
        d1=d1,
        divisors_plain=descending_divisors(d_leading),
        divisors_pruned=descending_divisors(d1),
    )
