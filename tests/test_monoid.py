import random
from itertools import product

import pytest

import closedpoly.monoid
from closedpoly.monoid import (
    DEFAULT_POINT_CAP,
    EnumerationCapExceeded,
    MonoidError,
    MonoidGens,
    cone_member,
    is_saturated,
    saturation_generators,
)

from oracles import monoid_members


def gens2(*vectors, bound=None):
    return MonoidGens(nvars=2, gens=frozenset(vectors), bound=bound)


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the cone_member calls made through the monoid module."""
    calls = []
    real = closedpoly.monoid.cone_member

    def counting(v, gens):
        calls.append(tuple(v))
        return real(v, gens)

    monkeypatch.setattr(closedpoly.monoid, "cone_member", counting)
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

    def test_dimension_mismatch(self):
        with pytest.raises(MonoidError):
            cone_member((1, 0, 0), gens2((1, 0)))

    def test_negative_rejected(self):
        with pytest.raises(MonoidError):
            cone_member((-1, 0), gens2((1, 0)))


class TestSaturationGenerators:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_staircase_family(self, m):
        # k[x1, x1 x2^m] saturates to k[x1, x1 x2, ..., x1 x2^m]
        g = gens2((1, 0), (1, m))
        expected = {(1, j) for j in range(m + 1)}
        assert saturation_generators(g) == expected
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
        g = MonoidGens(nvars=4, gens=frozenset({(100, 0, 0, 0), (0, 100, 0, 0)}))
        with pytest.raises(EnumerationCapExceeded, match=f"cap of {DEFAULT_POINT_CAP}"):
            saturation_generators(g)
        assert lp_calls == []

    @pytest.mark.parametrize("m", [5, 20, 80])
    def test_lp_only_where_reduction_fails(self, lp_calls, m):
        # The m + 1 points (0, j) outside the cone and the m + 1 basis points
        # (1, j) need an LP; every other cone point reduces against the basis.
        assert saturation_generators(gens2((1, 0), (1, m))) == {(1, j) for j in range(m + 1)}
        assert len(lp_calls) == 2 * (m + 1)

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
