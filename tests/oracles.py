"""Independent routes to the library's answers, kept as test oracles.

Nothing in the library calls them.  `v0_lp` (strict weight argmax) and
`v0_combinatorial` (hull vertices that the polytope does not dominate) decide
V0 two other ways than `newton.v0_set`; `monoid_members` lists a bounded
piece of the generated monoid by dynamic programming.
"""

from closedpoly.linprog import feasible_point
from closedpoly.monoid import MonoidGens
from closedpoly.newton import _dominated, _dominating_combination, realizing_weights
from closedpoly.poly import Monomial, MultiPoly


def _is_hull_vertex(p: Monomial, points: list) -> bool:
    """p is a vertex of conv(points) iff it is not a convex combination of
    the others (decided by exact LP feasibility)."""
    others = [q for q in points if q != p]
    if not others:
        return True
    A_eq = [[q[s] for q in others] for s in range(len(p))] + [[1] * len(others)]
    return feasible_point(len(others), A_eq=A_eq, b_eq=[*p, 1]) is None


def v0_lp(f: MultiPoly) -> set:
    return {v for v in f.support() if realizing_weights(f, v) is not None}


def v0_combinatorial(f: MultiPoly) -> set:
    """Hull vertices filtered by coordinate dominance.

    Pairwise dominance between vertices is only a necessary filter: in three
    or more variables a vertex can be dominated by a point in the interior
    of a face without any single vertex dominating it.  The decisive test is
    dominance against the whole polytope.
    """
    points = sorted(f.support())
    vertices = [p for p in points if _is_hull_vertex(p, points)]
    out = set()
    for v in vertices:
        if any(u != v and _dominated(v, by=u) for u in vertices):
            continue
        if _dominating_combination(v, [q for q in points if q != v]) is None:
            out.add(v)
    return out


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
