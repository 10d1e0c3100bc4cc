"""Saturation of monomial subalgebras at the exponent-monoid level.

The saturated semigroup of a generator set A is the set of lattice points
in the rational cone spanned by A.  Up to a coordinate-sum bound, its
minimal generators come from one sieve over the lattice points by degree:
a point is reducible iff it is a lower-degree basis element plus a cone
point, and only the other points need a cone-membership LP.  An irreducible
element of the monoid generated by A is an element of A, so A is
saturated iff that basis lies in A.  The default bound makes this exact;
a lower explicit bound is a documented heuristic beyond two variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .linprog import feasible_point
from .parsing import short_number
from .poly import monomials_of_degree

# Lattice-point enumeration refuses to scan more than this many candidates.
DEFAULT_POINT_CAP = 500_000


class MonoidError(ValueError):
    pass


class EnumerationCapExceeded(MonoidError):
    pass


@dataclass(frozen=True)
class MonoidGens:
    nvars: int
    gens: frozenset  # nonzero vectors in Z_{>=0}^nvars
    bound: Optional[int] = None  # max coordinate sum for enumeration; None = _complete_bound

    def __post_init__(self):
        gens = frozenset(tuple(g) for g in self.gens)
        if not gens:
            raise MonoidError("at least one generator is required")
        for g in gens:
            if len(g) != self.nvars:
                raise MonoidError(f"generator {g} has wrong dimension")
            if any(e < 0 for e in g):
                raise MonoidError(f"generator {g} has a negative entry")
            if not any(g):
                raise MonoidError("the zero vector is not a valid generator")
        object.__setattr__(self, "gens", gens)
        if self.bound is None:
            object.__setattr__(self, "bound", self._complete_bound)
        elif self.bound < max(sum(g) for g in gens):
            raise MonoidError("bound is below the largest generator degree")

    @property
    def _complete_bound(self) -> int:
        """A bound that provably covers the whole basis: the largest generator
        degree for nvars <= 2.  Beyond that, by Carathéodory, a Hilbert-basis
        element that is not a generator is a sum of lambda_i g_i with
        lambda_i < 1 over linearly independent g_i."""
        degrees = sorted(sum(g) for g in self.gens)
        if self.nvars <= 2:
            return degrees[-1]
        return max(degrees[-1], sum(degrees[-self.nvars:]) - 1)

    @property
    def exact(self) -> bool:
        """Whether the bound provably covers the whole basis (always for nvars <= 2)."""
        return self.bound >= self._complete_bound


def cone_member(v, gens: MonoidGens) -> bool:
    """True iff v is a nonnegative rational combination of the generators."""
    v = tuple(v)
    if len(v) != gens.nvars:
        raise MonoidError("dimension mismatch")
    if any(e < 0 for e in v):
        raise MonoidError("cone membership is only defined for nonnegative vectors")
    if not any(v):
        return True
    gen_list = sorted(gens.gens)
    A_eq = [[g[s] for g in gen_list] for s in range(gens.nvars)]
    return feasible_point(len(gen_list), A_eq=A_eq, b_eq=v) is not None


def saturation_generators(gens: MonoidGens) -> set:
    """Minimal generators of the saturated semigroup, up to the bound.

    The nonzero lattice points are visited by ascending degree, so every
    point componentwise below p, all of lower degree, comes before p.  A
    point p is reducible, and so in the cone, iff p - b is a cone point
    already seen for some basis element b found so far: a sum of nonzero
    cone points is also a basis element plus a nonzero cone point, both
    below p.  Only the other points go to the cone-membership LP, and those
    inside the cone are exactly the basis.  Raises EnumerationCapExceeded
    before any point is visited when the scan would exceed DEFAULT_POINT_CAP.
    """
    if comb(gens.bound + gens.nvars, gens.nvars) > DEFAULT_POINT_CAP:
        raise EnumerationCapExceeded(f"lattice-point scan up to degree {short_number(gens.bound)} "
                                     f"exceeds the cap of {DEFAULT_POINT_CAP}")
    seen = set()  # nonzero cone points visited so far
    basis = set()
    for d in range(1, gens.bound + 1):
        for p in monomials_of_degree(gens.nvars, d):
            if any(tuple(a - c for a, c in zip(p, b)) in seen for b in basis):
                seen.add(p)
            elif cone_member(p, gens):
                seen.add(p)
                basis.add(p)
    return basis


def is_saturated(gens: MonoidGens) -> bool:
    """True iff the monoid generated by gens is saturated up to the bound.

    Every generator is a cone point under the bound, so a saturation
    generator that lies in the generated monoid is irreducible there and
    must be a single generator.
    """
    return saturation_generators(gens) <= gens.gens
