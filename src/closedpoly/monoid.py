"""Saturation of monomial subalgebras at the exponent-monoid level.

The saturated semigroup of a generator set A is the set of lattice points
in the rational cone C spanned by A.  Its minimal generators, the Hilbert
basis, are found in integer arithmetic with no LP.  In two variables they
are the lattice points on the compact edges of the hull of C's nonzero
lattice points, walked from one extreme ray u to the other, w, by a
Hirzebruch–Jung continued fraction (Oda 1988, §1.6; Cox–Little–Schenck
2011, §10.2); the cap counts det(u, w), which bounds the steps.  Otherwise
they come from fundamental-parallelepiped candidates (Bruns–Koch,
"Computing the integral closure of an affine semigroup", 2001; Bruns–Ichim,
Normaliz, J. Algebra 2010): every elimination goes through `linprog.pivot`,
and an inverse is |det S|·S^-1.  Generators are divided by the gcd of their
entries, which leaves C unchanged, and C, of dimension r, is read in r
coordinates on which the generators keep rank r: that projection is
injective on their span, so lower-rank cones take the same path.  An
irreducible element of the monoid generated by A is an element of A, so A
is saturated iff that basis lies in A.  The answer is exactly the basis
elements of degree at most the bound: the default one lists the whole
basis, and below it `is_saturated` holds only up to the bound.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, islice
from math import comb, gcd
from operator import ge, mul
from typing import NamedTuple, Optional

from .linprog import feasible_point, pivot
from .parsing import short_number

# Each stage of saturation_generators refuses to run past this size.
DEFAULT_POINT_CAP = 500_000


class MonoidError(ValueError):
    pass


class EnumerationCapExceeded(MonoidError):
    pass


class _MonoidFields(NamedTuple):
    nvars: int
    gens: frozenset  # nonzero vectors in Z_{>=0}^nvars
    bound: int  # max coordinate sum for enumeration; None given = _complete_bound


def _complete_bound(nvars: int, gens: frozenset) -> int:
    """A bound that provably covers the whole basis: the largest generator
    degree for nvars <= 2.  Beyond that, by Carathéodory, a Hilbert-basis
    element that is not a generator is a sum of lambda_i g_i with
    lambda_i < 1 over linearly independent g_i."""
    degrees = sorted(sum(g) for g in gens)
    if nvars <= 2:
        return degrees[-1]
    return max(degrees[-1], sum(degrees[-nvars:]) - 1)


class MonoidGens(_MonoidFields):
    __slots__ = ()

    def __new__(cls, nvars: int, gens: frozenset, bound: Optional[int] = None):
        if not isinstance(nvars, int) or nvars < 1:
            raise MonoidError(f"nvars {nvars!r} is not a positive integer")
        try:
            gens = frozenset(tuple(g) for g in gens)
        except TypeError:  # a generator, or gens itself, is not iterable
            raise MonoidError("generators are not sequences of integers") from None
        if not gens:
            raise MonoidError("at least one generator is required")
        for g in gens:
            if len(g) != nvars:
                raise MonoidError(f"generator {g} has wrong dimension")
            if not all(isinstance(e, int) for e in g):
                raise MonoidError(f"generator {g} has an entry that is not an integer")
            if any(e < 0 for e in g):
                raise MonoidError(f"generator {g} has a negative entry")
            if not any(g):
                raise MonoidError("the zero vector is not a valid generator")
        if bound is None:
            bound = _complete_bound(nvars, gens)
        elif not isinstance(bound, int):
            raise MonoidError("bound is not an integer")
        elif bound < max(sum(g) for g in gens):
            raise MonoidError("bound is below the largest generator degree")
        return super().__new__(cls, nvars, gens, bound)

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def exact(self) -> bool:
        """Whether the bound provably covers the whole basis (always for nvars <= 2)."""
        return self.bound >= _complete_bound(self.nvars, self.gens)


def cone_member(v, gens: MonoidGens) -> bool:
    """True iff v is a nonnegative rational combination of the generators."""
    v = tuple(v)
    if len(v) != gens.nvars:
        raise MonoidError("dimension mismatch")
    if not all(isinstance(e, int) for e in v):
        raise MonoidError(f"vector {v} has an entry that is not an integer")
    if any(e < 0 for e in v):
        raise MonoidError("cone membership is only defined for nonnegative vectors")
    gen_list = sorted(gens.gens)
    A_eq = [[g[s] for g in gen_list] for s in range(gens.nvars)]
    return feasible_point(len(gen_list), A_eq=A_eq, b_eq=v) is not None


def _eliminate(rows, ncols: int):
    """Integer Gauss–Jordan elimination through `linprog.pivot`, which reorders
    and overwrites rows.  Returns the nonzero rows, each d times its row of the
    reduced echelon form, their pivot columns, and d: ± det for a full-rank square."""
    pivots, d = [], 1
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        d = pivot(rows, k, [row[col] for row in rows], d)
        pivots.append(col)
    return rows[: len(pivots)], pivots, d


def _check_cap(count: int, what: str) -> None:
    if count > DEFAULT_POINT_CAP:
        raise EnumerationCapExceeded(f"{what} {short_number(count)} exceeds the cap of {DEFAULT_POINT_CAP}")


def _primitive(v) -> tuple:
    g = gcd(*v)
    return tuple(e // g for e in v)


def _inverse(rows: list, r: int):
    """D = |det S| and the integer rows of D·S^-1 for an r x r integer matrix
    S, or None when it is singular."""
    reduced, pivots, d = _eliminate([[*row, *(int(i == j) for j in range(r))]
                                     for i, row in enumerate(rows)], 2 * r)
    if pivots[-1] >= r:
        return None
    return abs(d), [[e if d > 0 else -e for e in row[r:]] for row in reduced]


def _facet_normals(proj: list, first: list) -> list:
    """The primitive integer normals a of the facets of the full-rank cone
    spanned by proj in Q^r, each with a·z >= 0 on the cone, by double
    description (Motzkin et al. 1953; Fukuda–Prodon 1996).  The facets of the
    cone of the r independent generators indexed by first are the columns of
    |det|·inverse.  A later generator outside the current cone keeps the
    facets it does not violate and replaces the others by the combinations,
    zero on it, of each adjacent pair of facets on its two sides; two facets
    are adjacent iff no third facet holds every generator that both hold.  A
    generator inside the current cone changes nothing, so interior generators
    cost one pass over the facets each.  Raises EnumerationCapExceeded once
    the work passes DEFAULT_POINT_CAP."""
    r = len(first)
    normals = [_primitive(column) for column in zip(*_inverse([proj[i] for i in first], r)[1])]
    tight = [set(first) - {i} for i in first]  # the generators on each facet
    work = 0
    for k, g in enumerate(proj):
        values = [sum(map(mul, a, g)) for a in normals]
        work += len(normals)
        _check_cap(work, "facet search size")
        if min(values) >= 0:
            continue
        above = [i for i, v in enumerate(values) if v > 0]
        below = [j for j, v in enumerate(values) if v < 0]
        work += len(above) * len(below)
        kept = [(normals[i], tight[i] | {k} if v == 0 else tight[i])
                for i, v in enumerate(values) if v >= 0]
        for i in above:
            for j in below:
                common = tight[i] & tight[j]
                if len(common) < r - 2:
                    continue
                work += len(normals)
                _check_cap(work, "facet search size")
                if not any(common <= t for l, t in enumerate(tight) if l != i and l != j):
                    kept.append((_primitive([values[i] * b - values[j] * a
                                             for a, b in zip(normals[i], normals[j])]), common | {k}))
        normals, tight = (list(c) for c in zip(*kept))
    return sorted(normals)


def _parallelepiped_points(rays: list, D: int, inverse: list):
    """The nonzero points of Z^n in {sum lambda_i s_i : 0 <= lambda_i < 1} for
    r independent rays s_i, given D·S^-1, D = |det S|, for the matrix S whose
    rows are their projections.  Those points' projections reach every class
    of the group Z^r / S·Z^r, which has D elements: lambda(y) = y·S^-1, and
    D·lambda (mod D) is generated by the rows of D·S^-1, images of the unit
    vectors.  A class is kept iff its lift is integral in all n coordinates."""
    group = {(0,) * len(rays)}
    for row in inverse:
        step = [e % D for e in row]
        grown = set()
        for mu in group:
            while mu not in grown:
                grown.add(mu)
                mu = tuple((a + b) % D for a, b in zip(mu, step))
        group = grown
    for mu in group:
        x = [sum(map(mul, mu, column)) for column in zip(*rays)]
        if any(x) and not any(e % D for e in x):
            yield tuple(e // D for e in x)


def _det(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _plane_basis(prim: set) -> set:
    """The Hilbert basis of the cone spanned by prim, primitive vectors in
    Z_{>=0}^2, walked from the extreme ray u to the extreme ray w: from v, the
    next element is the first cone point -v_prev + k·v on the line det(v, x) = 1."""
    u = w = next(iter(prim))
    for g in prim:  # the directions in the quadrant are totally ordered
        u, w = (g if _det(g, u) > 0 else u), (g if _det(w, g) > 0 else w)
    if u == w:
        return {u}
    _check_cap(_det(u, w), "parallelepiped point count")
    a, b = u  # a >= 1, since w is counterclockwise of u
    x = pow(-b, -1, a)
    basis, cur, p = {u}, u, (x, (1 + b * x) // a)  # det(u, p) = 1
    while dw := _det(cur, w):
        k = -(_det(p, w) // dw)  # the least k with det(p + k·cur, w) >= 0
        cur, p = (p[0] + k * cur[0], p[1] + k * cur[1]), (-cur[0], -cur[1])
        basis.add(cur)
    return basis


def saturation_generators(gens: MonoidGens) -> set:
    """Minimal generators of the saturated semigroup, up to the bound: in two
    variables by `_plane_basis`, whose cap counts det(u, w), and which the
    bound never cuts, as no element has degree above the larger ray's;
    otherwise by `_sieve_basis`."""
    if gens.nvars == 2:
        return _plane_basis({_primitive(g) for g in gens.gens})
    return _sieve_basis(gens)


def _sieve_basis(gens: MonoidGens) -> set:
    """The basis elements of degree at most the bound, in any number of
    variables.  The candidates, all in the cone, are the primitive extreme
    rays and the parallelepiped points of each independent r-subset of them.
    The sieve visits them by ascending degree: x is reducible iff x - h is in
    the cone for some basis element h with deg h <= deg x / 2 (a reducible x
    is a sum of at least two basis elements, and the smallest of them
    qualifies), which compares the facet values of x and h.  Raises
    EnumerationCapExceeded when a stage would run past DEFAULT_POINT_CAP: the
    facet search, charged as it goes; the simplicial cones, C(e, r) subsets of
    the e extreme rays, r^3 steps each; the parallelepiped points, the sum of
    their |det|; and the sieve's tests, counted before each candidate's."""
    prim = sorted({_primitive(g) for g in gens.gens})
    first = _eliminate(list(zip(*prim)), len(prim))[1]  # r independent generators
    coords = _eliminate([prim[i] for i in first], gens.nvars)[1]
    r = len(coords)

    def project(v):
        return tuple(v[c] for c in coords)

    normals = _facet_normals([project(g) for g in prim], first)
    # a generator spans an extreme ray iff the facets through it have rank r - 1
    rays = []
    for g in prim:
        through = [a for a in normals if not sum(map(mul, a, project(g)))]
        if len(through) >= r - 1 and len(_eliminate(through, r)[1]) == r - 1:
            rays.append(g)
    _check_cap(comb(len(rays), r) * r ** 3, "simplicial cone search size")
    cones = [(subset, *inverse) for subset in combinations(rays, r)
             if (inverse := _inverse([project(s) for s in subset], r))]
    _check_cap(sum(D for _, D, _ in cones), "parallelepiped point count")

    candidates = set(rays)
    for subset, D, inverse in cones:
        candidates.update(_parallelepiped_points(subset, D, inverse))
    points = sorted((sum(x), x) for x in candidates if sum(x) <= gens.bound)
    basis, degrees, basis_values = [], [], []
    tests = 0
    for d, x in points:
        k = bisect_right(degrees, d // 2)
        tests += k
        _check_cap(tests, "sieve test count")
        vx = [sum(map(mul, a, project(x))) for a in normals]
        if not any(all(map(ge, vx, vh)) for vh in islice(basis_values, k)):
            basis.append(x)
            degrees.append(d)
            basis_values.append(vx)
    return set(basis)


def is_saturated(gens: MonoidGens) -> bool:
    """True iff the monoid generated by gens is saturated up to the bound.

    Every generator is a cone point under the bound, so a saturation
    generator that lies in the generated monoid is irreducible there and
    must be a single generator.
    """
    return saturation_generators(gens) <= gens.gens
