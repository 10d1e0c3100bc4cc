"""Saturation of monomial subalgebras at the exponent-monoid level.

The saturated semigroup of a generator set A is the set of lattice points
in the rational cone spanned by A.  Up to a coordinate-sum bound we
enumerate those points, reduce to the irreducible ones (the Hilbert-basis
elements within the bound), and compare against the monoid actually
generated by A.  Exact for two variables; a documented heuristic beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .linprog import feasible_point
from .poly import monomials_of_degree_at_most

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
    bound: int = 0  # max coordinate sum for enumeration; 0 = derive from gens

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
        bound = self.bound or max(sum(g) for g in gens)
        if bound < max(sum(g) for g in gens):
            raise MonoidError("bound is below the largest generator degree")
        object.__setattr__(self, "bound", bound)

    @property
    def exact(self) -> bool:
        """Whether the bounded computation is provably complete (nvars == 2)."""
        return self.nvars == 2


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


def _cone_points(gens: MonoidGens, cap: int) -> list:
    if comb(gens.bound + gens.nvars, gens.nvars) > cap:
        raise EnumerationCapExceeded(
            f"lattice-point scan up to degree {gens.bound} exceeds the cap of {cap}"
        )
    return [
        p
        for p in monomials_of_degree_at_most(gens.nvars, gens.bound)
        if any(p) and cone_member(p, gens)
    ]


def saturation_generators(gens: MonoidGens, cap: int = DEFAULT_POINT_CAP) -> set:
    """Minimal generators of the saturated semigroup, up to the bound.

    A cone lattice point is kept iff it is not the sum of two nonzero cone
    lattice points; any decomposition has both parts under the bound, so
    the irreducibility test is exact for the points returned.
    """
    points = _cone_points(gens, cap)
    point_set = set(points)
    basis = set()
    for p in points:
        reducible = False
        for q in points:
            if all(a <= b for a, b in zip(q, p)) and q != p:
                remainder = tuple(b - a for a, b in zip(q, p))
                if any(remainder) and remainder in point_set:
                    reducible = True
                    break
        if not reducible:
            basis.add(p)
    return basis


def monoid_members(gens: MonoidGens) -> set:
    """All nonnegative-integer combinations of the generators with
    coordinate sum <= bound (bounded dynamic programming)."""
    reached = {(0,) * gens.nvars}
    frontier = list(reached)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens.gens:
                q = tuple(a + b for a, b in zip(p, g))
                if sum(q) <= gens.bound and q not in reached:
                    reached.add(q)
                    nxt.append(q)
        frontier = nxt
    return reached


def is_saturated(gens: MonoidGens, cap: int = DEFAULT_POINT_CAP) -> bool:
    """True iff every saturation generator already lies in the monoid
    generated by gens."""
    members = monoid_members(gens)
    return all(v in members for v in saturation_generators(gens, cap))
