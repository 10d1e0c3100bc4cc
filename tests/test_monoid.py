import random
import time
from fractions import Fraction
from itertools import product

import pytest

import closedpoly.monoid
from closedpoly.monoid import (
    DEFAULT_POINT_CAP,
    EnumerationCapExceeded,
    MonoidError,
    MonoidGens,
    _eliminate,
    _inverse,
    _sieve_basis,
    cone_member,
    is_saturated,
    saturation_generators,
)

from oracles import monoid_members, row_reduce


def gens2(*vectors, bound=None):
    return MonoidGens(nvars=2, gens=frozenset(vectors), bound=bound)


@pytest.fixture
def lp_calls(monkeypatch):
    """Records the cone_member and feasible_point calls made through the monoid module."""
    calls = []
    for name in ("cone_member", "feasible_point"):
        def counting(*args, real=getattr(closedpoly.monoid, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(closedpoly.monoid, name, counting)
    return calls


def pointwise_saturation(g):
    """The bounded definition point by point: one LP per lattice point, a cone
    point is kept iff it is not the sum of two nonzero cone points, and g is
    saturated iff every kept point lies in the generated monoid."""
    points = [
        p for p in product(range(g.bound + 1), repeat=g.nvars)
        if 0 < sum(p) <= g.bound and cone_member(p, g)
    ]
    point_set = set(points)
    basis = {
        p
        for p in points
        if not any(tuple(a - b for a, b in zip(p, q)) in point_set for q in points)
    }
    members = monoid_members(g)
    return basis, all(v in members for v in basis)


class TestConeMember:
    def test_rational_combination(self):
        assert cone_member((1, 1), gens2((1, 0), (1, 2)))

    def test_outside_cone(self):
        assert not cone_member((0, 1), gens2((1, 0), (1, 2)))

    def test_generators_in_own_cone(self):
        g = gens2((1, 0), (1, 2))
        for v in g.gens:
            assert cone_member(v, g)

    def test_origin(self):
        assert cone_member((0, 0), gens2((1, 0)))
        assert cone_member((0,), MonoidGens(nvars=1, gens=frozenset({(3,)})))
        assert cone_member((0, 0, 0), MonoidGens(nvars=3, gens=frozenset({(1, 0, 0), (0, 2, 1), (1, 1, 1)})))
        # rank 1 in three variables
        assert cone_member((0, 0, 0), MonoidGens(nvars=3, gens=frozenset({(1, 1, 0), (2, 2, 0)})))

    def test_dimension_mismatch(self):
        with pytest.raises(MonoidError):
            cone_member((1, 0, 0), gens2((1, 0)))

    def test_negative_rejected(self):
        with pytest.raises(MonoidError):
            cone_member((-1, 0), gens2((1, 0)))

    @pytest.mark.parametrize("v", [(0.5, 0), ("1", 0), (Fraction(1), 0)])
    def test_non_integer_entry_rejected(self, v):
        with pytest.raises(MonoidError, match="not an integer"):
            cone_member(v, gens2((1, 0), (1, 2)))


class TestSaturationGenerators:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_staircase_family(self, m):
        # k[x1, x1 x2^m] saturates to k[x1, x1 x2, ..., x1 x2^m]; in three
        # variables the same rank-2 cone goes through the sieve
        for pad in [(), (0,)]:
            g = MonoidGens(nvars=2 + len(pad), gens=frozenset({(1, 0, *pad), (1, m, *pad)}))
            assert saturation_generators(g) == {(1, j, *pad) for j in range(m + 1)}
            assert not is_saturated(g)

    def test_already_saturated(self):
        g = gens2((1, 0), (0, 1))
        assert saturation_generators(g) == {(1, 0), (0, 1)}
        assert is_saturated(g)

    def test_parity_sublattice(self):
        g = gens2((2, 0), (0, 2), (1, 1))
        assert saturation_generators(g) == {(1, 0), (0, 1)}
        assert not is_saturated(g)

    def test_cap(self, lp_calls):
        # the one parallelepiped of (1,0) and (1,600000) has |det| = 600000 points
        g = gens2((1, 0), (1, 600_000))
        with pytest.raises(EnumerationCapExceeded, match=f"cap of {DEFAULT_POINT_CAP}"):
            saturation_generators(g)
        assert lp_calls == []

    def test_primitive_generators(self):
        # (100,0,0,0) spans the same cone as (1,0,0,0): the parallelepiped has |det| = 1
        g = MonoidGens(nvars=4, gens=frozenset({(100, 0, 0, 0), (0, 100, 0, 0)}))
        assert saturation_generators(g) == {(1, 0, 0, 0), (0, 1, 0, 0)}
        assert not is_saturated(g)
        # unreduced, (10^6,0) and (0,10^6) would span 10^12 parallelepiped points
        assert saturation_generators(gens2((10**6, 0), (0, 10**6))) == {(1, 0), (0, 1)}

    def test_dependent_extreme_rays(self):
        # four of the five extreme rays lie in the facet w = 0, so one 4-subset
        # of them is dependent and spans no parallelepiped
        g = MonoidGens(nvars=4, gens=frozenset(
            {(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (0, 0, 0, 1)}))
        basis, saturated = pointwise_saturation(g)
        assert saturation_generators(g) == basis
        assert is_saturated(g) is saturated

    @pytest.mark.parametrize("nvars, degree", [(2, 41), (2, 200), (3, 7), (4, 4)])
    def test_interior_generators(self, nvars, degree):
        # every monomial up to the degree: hundreds of generators, few facets
        vectors = {p for p in product(range(degree + 1), repeat=nvars) if 0 < sum(p) <= degree}
        g = MonoidGens(nvars=nvars, gens=frozenset(vectors))
        units = {tuple(int(i == j) for j in range(nvars)) for i in range(nvars)}
        assert saturation_generators(g) == units
        assert is_saturated(g)

    @pytest.mark.parametrize("proj, facets", [
        # the cone over the points (1, j, j^2) has one facet per polygon edge
        ([(1, j, j * j) for j in range(12)], 12),
        # (1,0,1,1,1) is the mean of (1,0,1,1,0) and (1,0,1,1,2), so two facets
        # can share r - 2 = 3 generators and still not be adjacent
        ([(0, 0, 1, 1, 1), (0, 0, 2, 1, 1), (0, 1, 2, 1, 0), (1, 0, 1, 1, 0),
          (1, 0, 1, 1, 1), (1, 0, 1, 1, 2), (1, 1, 0, 1, 2), (1, 1, 0, 2, 0)], 12),
    ], ids=["polygon", "five-dimensional"])
    def test_facet_count(self, proj, facets):
        # combining facets that are not adjacent would keep redundant normals
        r = len(proj[0])
        assert len(closedpoly.monoid._facet_normals(proj, list(range(r)))) == facets

    def test_saturated_staircase_of_500(self):
        # two extreme rays and 498 generators between them
        vectors = {(1, j) for j in range(500)}
        assert saturation_generators(gens2(*vectors)) == vectors
        assert is_saturated(gens2(*vectors))

    @pytest.mark.parametrize("m", [5, 20, 80, 1000])
    def test_lp_only_where_reduction_fails(self, lp_calls, m):
        # cone membership is read off the facet values, so no point needs an
        # LP, in the plane route and in the sieve
        for pad in [(), (0,)]:
            g = MonoidGens(nvars=2 + len(pad), gens=frozenset({(1, 0, *pad), (1, m, *pad)}))
            assert saturation_generators(g) == {(1, j, *pad) for j in range(m + 1)}
        assert lp_calls == []

    def test_staircase_of_100001(self):
        # the sieve refused (1,0),(1,m) from m = 1,414 on: its test count grows as m^2
        start = time.perf_counter()
        basis = saturation_generators(gens2((1, 0), (1, 100_000)))
        assert time.perf_counter() - start < 1
        assert basis == {(1, j) for j in range(100_001)}

    def test_plane_route_agrees_with_the_sieve(self):
        # in two variables saturation_generators walks the cone's boundary;
        # the sieve, which serves every other nvars, is its oracle
        rng = random.Random(2032)
        seen = {"collinear": 0, "interior": 0, "few": 0, "bounded": 0}
        for i in range(1200):
            kind = ["collinear", "interior", "few"][i % 3]
            if kind == "collinear":
                base = (rng.randint(0, 6), rng.randint(1, 6))[::rng.choice([1, -1])]
                vectors = {tuple(c * e for e in base) for c in rng.sample(range(1, 9), rng.randint(1, 4))}
            else:
                entry = rng.choice([3, 12, 40, 80]) if kind == "few" else rng.choice([5, 20])
                count = rng.randint(1, 7) if kind == "few" else rng.randint(8, 40)
                vectors = {(rng.randint(0, entry), rng.randint(0, entry)) for _ in range(count)} - {(0, 0)}
                if not vectors:
                    continue
            degree = max(map(sum, vectors))
            bound = rng.choice([None, degree, degree + rng.randint(1, 50)])
            g = MonoidGens(nvars=2, gens=frozenset(vectors), bound=bound)
            assert saturation_generators(g) == _sieve_basis(g), g
            seen[kind] += 1
            seen["bounded"] += bound is not None
        assert seen["collinear"] + seen["interior"] + seen["few"] >= 1000, seen
        assert min(seen.values()) > 0, seen

    def test_agrees_with_pointwise_definition(self):
        rng = random.Random(2026)
        max_entry = {2: 4, 3: 2, 4: 2}
        for _ in range(300):
            nvars = rng.randint(2, 4)
            count = rng.randint(1, 4)
            vectors = set()
            while len(vectors) < count:
                v = tuple(rng.randint(0, max_entry[nvars]) for _ in range(nvars))
                if 0 < sum(v) <= 5:
                    vectors.add(v)
            degree = max(sum(v) for v in vectors)
            bound = rng.choice([None, degree + rng.randint(0, 2)])
            g = MonoidGens(nvars=nvars, gens=frozenset(vectors), bound=bound)
            basis, saturated = pointwise_saturation(g)
            assert saturation_generators(g) == basis, g
            assert is_saturated(g) is saturated, g

    def test_agrees_with_pointwise_definition_many_generators(self):
        # up to nine generators in 3 or 4 variables, so that adding a generator
        # replaces several facets at once
        rng = random.Random(2030)
        for _ in range(60):
            nvars, count = rng.choice([3, 4]), rng.randint(5, 9)
            vectors = set()
            while len(vectors) < count:
                v = tuple(rng.randint(0, 2) for _ in range(nvars))
                if 0 < sum(v) <= 4:
                    vectors.add(v)
            degree = max(sum(v) for v in vectors)
            g = MonoidGens(nvars=nvars, gens=frozenset(vectors), bound=degree + rng.randint(0, 1))
            basis, saturated = pointwise_saturation(g)
            assert saturation_generators(g) == basis, g
            assert is_saturated(g) is saturated, g

    def test_agrees_with_pointwise_definition_lower_rank(self):
        # generators in a 1- or 2-dimensional sublattice of Z^3 or Z^4: the cone
        # is read in coordinates where it has full rank
        rng = random.Random(2027)
        max_degree = {3: 4, 4: 3}
        for _ in range(200):
            nvars = rng.choice([3, 4])
            base = [tuple(rng.randint(0, 1) for _ in range(nvars)) for _ in range(rng.randint(1, 2))]
            vectors = set()
            for _ in range(8):
                c = [rng.randint(0, 3) for _ in base]
                v = tuple(sum(ci * b[s] for ci, b in zip(c, base)) for s in range(nvars))
                if 0 < sum(v) <= max_degree[nvars] and len(vectors) < 3:
                    vectors.add(v)
            if not vectors:
                continue
            degree = max(sum(v) for v in vectors)
            bound = rng.choice([None, degree + rng.randint(0, 2)])
            g = MonoidGens(nvars=nvars, gens=frozenset(vectors), bound=bound)
            basis, saturated = pointwise_saturation(g)
            assert saturation_generators(g) == basis, g
            assert is_saturated(g) is saturated, g

    def test_agrees_with_pointwise_definition_one_variable(self):
        rng = random.Random(2028)
        for _ in range(20):
            vectors = {(rng.randint(1, 9),) for _ in range(rng.randint(1, 3))}
            degree = max(v[0] for v in vectors)
            bound = rng.choice([None, degree + rng.randint(0, 3)])
            g = MonoidGens(nvars=1, gens=frozenset(vectors), bound=bound)
            basis, saturated = pointwise_saturation(g)
            assert saturation_generators(g) == basis == {(1,)}, g
            assert is_saturated(g) is saturated, g

    def test_scaling_generators_keeps_the_saturation(self):
        # g and c*g span the same cone, and the default bound is exact for both
        rng = random.Random(2029)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            draws = (tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4)))
            vectors = {v for v in draws if any(v)}
            if not vectors:
                continue
            scaled = {tuple(c * e for e in v) for v in vectors for c in [rng.randint(1, 5)]}
            g = MonoidGens(nvars=nvars, gens=frozenset(vectors))
            assert saturation_generators(MonoidGens(nvars=nvars, gens=frozenset(scaled))) == (
                saturation_generators(g)), (vectors, scaled)


class TestInvariants:
    @pytest.mark.parametrize(
        "vectors",
        [
            ((1, 0), (1, 2)),
            ((1, 0), (1, 3)),
            ((2, 0), (0, 2), (1, 1)),
            ((2, 1), (1, 2)),
            ((3, 0), (0, 3), (2, 2)),
        ],
    )
    def test_output_inside_cone_and_generates_inputs(self, vectors):
        g = gens2(*vectors)
        sat = saturation_generators(g)
        for v in sat:
            assert cone_member(v, g)
            assert all(e >= 0 for e in v)
        out = MonoidGens(nvars=2, gens=frozenset(sat), bound=g.bound)
        members = monoid_members(out)
        for v in g.gens:
            assert v in members

    @pytest.mark.parametrize(
        "vectors", [((1, 0), (1, 2)), ((2, 0), (0, 2), (1, 1)), ((2, 1), (1, 2))]
    )
    def test_idempotent(self, vectors):
        g = gens2(*vectors)
        sat = saturation_generators(g)
        again = saturation_generators(
            MonoidGens(nvars=2, gens=frozenset(sat), bound=g.bound)
        )
        assert again == sat

    def test_minimality(self):
        g = gens2((1, 0), (1, 3))
        sat = sorted(saturation_generators(g))
        for v in sat:
            rest = [u for u in sat if u != v]
            members = monoid_members(
                MonoidGens(nvars=2, gens=frozenset(rest), bound=g.bound)
            )
            assert v not in members

    @pytest.mark.parametrize(
        "vectors", [((1, 0), (1, 2)), ((1, 0), (1, 5)), ((2, 1), (1, 2))]
    )
    def test_bound_independence_two_vars(self, vectors):
        g = gens2(*vectors)
        doubled = gens2(*vectors, bound=2 * g.bound)
        assert saturation_generators(g) == saturation_generators(doubled)

    def test_explicit_bound_cuts_the_default_answer(self):
        # the bound only filters the candidates before the sieve, which reduces
        # a point by basis elements of lower degree: every bound gives exactly
        # the basis elements of degree up to it, and is_saturated up to it
        rng = random.Random(2031)
        for _ in range(60):
            nvars = rng.randint(3, 4)
            draws = (tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(2, 5)))
            vectors = frozenset(v for v in draws if any(v))
            if not vectors:
                continue
            full = MonoidGens(nvars=nvars, gens=vectors)
            basis = saturation_generators(full)
            for bound in range(max(map(sum, vectors)), full.bound + 1):
                g = MonoidGens(nvars=nvars, gens=vectors, bound=bound)
                cut = {x for x in basis if sum(x) <= bound}
                assert saturation_generators(g) == cut, (vectors, bound)
                assert is_saturated(g) is (cut <= vectors), (vectors, bound)


class TestElimination:
    def test_agrees_with_rational_reduction(self):
        rng = random.Random(16)
        seen = {"rank-deficient": 0, "zero column": 0, "negative determinant": 0}
        for _ in range(800):
            nrows = rng.randint(1, 5)
            ncols = nrows if rng.random() < 0.6 else rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.25:  # a row dependent on earlier ones
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(nrows - 1) // 2])]
            if rng.random() < 0.25:
                col = rng.randrange(ncols)
                for row in rows:
                    row[col] = 0
            reduced, pivots, d = _eliminate([list(row) for row in rows], ncols)
            expected, expected_pivots, det = row_reduce(rows, ncols)
            assert pivots == expected_pivots
            assert reduced == [[d * e for e in row] for row in expected]
            seen["zero column"] += any(not any(col) for col in zip(*rows))
            if nrows != ncols:
                continue
            inverse = _inverse(rows, nrows)
            if len(pivots) < nrows:
                seen["rank-deficient"] += 1
                assert inverse is None
                continue
            seen["negative determinant"] += det < 0
            assert abs(d) == abs(det)
            D, scaled = inverse
            assert D == abs(det)
            assert [[sum(a * b for a, b in zip(row, column)) for column in zip(*scaled)] for row in rows] \
                == [[D * (i == j) for j in range(nrows)] for i in range(nrows)]
        assert min(seen.values()) > 0, seen


class TestValidation:
    def test_zero_generator_rejected(self):
        with pytest.raises(MonoidError):
            gens2((0, 0))

    def test_negative_generator_rejected(self):
        with pytest.raises(MonoidError):
            gens2((1, -1))

    def test_bound_below_generators_rejected(self):
        with pytest.raises(MonoidError):
            gens2((2, 3), bound=4)

    def test_zero_bound_rejected(self):
        # None, not 0, asks for the default bound
        with pytest.raises(MonoidError, match="below the largest generator degree"):
            gens2((1, 0), (1, 3), bound=0)

    @pytest.mark.parametrize("entry", [1.5, 1.0, Fraction(1, 2), Fraction(1), "1"])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(MonoidError, match="has an entry that is not an integer"):
            gens2((entry, 0), (0, 1))

    @pytest.mark.parametrize("bound", [2.5, 4.0, Fraction(5, 2), Fraction(4), "4"])
    def test_non_integer_bound_rejected(self, bound):
        with pytest.raises(MonoidError, match="bound is not an integer"):
            gens2((1, 0), (1, 3), bound=bound)

    @pytest.mark.parametrize("nvars, gens, message", [
        (2.0, {(1, 0)}, "nvars 2.0 is not a positive integer"),
        (0, {()}, "nvars 0 is not a positive integer"),
        (-1, {()}, "nvars -1 is not a positive integer"),
        (2, {5}, "generators are not sequences of integers"),
        (2, 5, "generators are not sequences of integers"),
        (2, {(1, 2, 3)}, r"generator \(1, 2, 3\) has wrong dimension"),
    ], ids=["float-nvars", "zero-nvars", "negative-nvars", "int-generator", "int-gens",
            "wrong-dimension"])
    def test_malformed_nvars_or_generator_rejected(self, nvars, gens, message):
        with pytest.raises(MonoidError, match=message):
            MonoidGens(nvars=nvars, gens=gens)

    def test_empty_rejected(self):
        with pytest.raises(MonoidError):
            MonoidGens(nvars=2, gens=frozenset())

    def test_exactness_flag(self):
        assert gens2((1, 0)).exact
        # n = 1: every bound is at least the largest degree, and the basis is {(1,)}
        assert MonoidGens(nvars=1, gens=frozenset({(1,)})).exact
        assert MonoidGens(nvars=1, gens=frozenset({(2,), (3,)})).exact
        # n >= 3: exact once the bound reaches the Carathéodory degree 2 + 4 + 4 - 1
        three = frozenset({(0, 1, 1), (1, 2, 1), (1, 3, 0)})
        assert MonoidGens(nvars=3, gens=three).bound == 9
        assert MonoidGens(nvars=3, gens=three).exact
        assert not MonoidGens(nvars=3, gens=three, bound=8).exact
