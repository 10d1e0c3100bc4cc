import random
import re
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from closedpoly.decompose import _Packing
from closedpoly.orders import (
    GREVLEX,
    GRLEX,
    WEIGHTED,
    MonomialCapExceeded,
    OrderError,
    OrderSpec,
    compare,
    leading_term,
    monomials_below,
    sort_key,
)
from closedpoly.poly import MultiPoly, PolyError

from conftest import P, random_poly

GL = OrderSpec()
GR = OrderSpec(kind=GREVLEX)


class TestCompare:
    def test_same_degree_lex(self):
        assert compare((2, 0), (1, 1), GL) == 1

    def test_degree_dominates(self):
        assert compare((0, 3), (2, 0), GL) == 1

    def test_weighted_with_tiebreak(self):
        w = OrderSpec(kind=WEIGHTED, weights=(1, 2))
        # weight 1*1 + 2*2 = 5 beats 2*1 + 1*2 = 4
        assert compare((1, 2), (2, 1), w) == 1

    def test_equal(self):
        assert compare((1, 2), (1, 2), GL) == 0

    def test_weighted_requires_weights(self):
        with pytest.raises(OrderError):
            OrderSpec(kind=WEIGHTED)

    @pytest.mark.parametrize("w", [0.1, "1/3", None])
    def test_weight_types(self, w):
        # weights follow the coefficient rule: an int or a Fraction
        with pytest.raises(PolyError, match="weight"):
            OrderSpec(kind=WEIGHTED, weights=(w, 1))
        assert OrderSpec(kind=WEIGHTED, weights=(Fraction(1, 3), 1)).weights == (Fraction(1, 3), 1)

    def test_grevlex_same_degree(self):
        # x1 x2 vs x1^2: grevlex prefers the power of the earlier variable
        assert compare((2, 0), (1, 1), GR) == 1
        assert compare((1, 1, 0), (1, 0, 1), GR) == 1


class TestLeadingTerm:
    def test_quartic(self, ex1):
        assert leading_term(ex1, GL) == ((4, 0), 1)

    def test_single_term(self):
        assert leading_term(P("5*x2", 2), GL) == ((0, 1), 5)

    def test_degree_six(self, deg6):
        assert leading_term(deg6, GL) == ((2, 4), 1)

    def test_zero_rejected(self):
        with pytest.raises(PolyError):
            leading_term(MultiPoly.zero(2), GL)

    @pytest.mark.parametrize("kind", [GRLEX, GREVLEX, WEIGHTED])
    def test_seeded_against_the_sort_key(self, kind):
        """Under grlex and grevlex the ≻-largest packed key of a divisor attempt
        unpacks to the leading monomial; a weighted order takes the grlex
        leading term of the terms of greatest weight."""
        rng = random.Random(31)
        for trial in range(200):
            nvars = 1 + trial % 5
            weights = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(nvars))
            order = OrderSpec(kind=kind, weights=weights if kind == WEIGHTED else None)
            f = random_poly(rng, nvars, rng.choice([2, 4, 9]), 12)
            m, c = leading_term(f, order)
            if kind == WEIGHTED:
                top = max(sum(map(mul, weights, u)) for u in f.terms)
                heavy = {u: a for u, a in f.terms.items() if sum(map(mul, weights, u)) == top}
                assert (m, c) == leading_term(MultiPoly(nvars, heavy), GL), (f.terms, order)
            else:
                packing = _Packing(nvars, f.total_degree(), kind)
                keys = packing.pack(f.terms, map(sum, f.terms))
                assert packing.unpack(max(keys) if packing.sign > 0 else min(keys)) == m, (f.terms, order)
                assert c == f.terms[m]


class TestMonomialsBelow:
    def test_quadratic_ansatz(self):
        # the candidate support below x1^2 in two variables
        assert monomials_below((2, 0), GL) == [(1, 1), (0, 2), (1, 0), (0, 1)]

    def test_univariate_empty(self):
        assert monomials_below((1,), GL) == []

    def test_linear_two_vars(self):
        assert monomials_below((1, 0), GL) == [(0, 1)]

    def test_cap(self):
        # C(54, 4) = 316,251 monomials of degree <= 50 in 4 variables
        with pytest.raises(MonomialCapExceeded, match="~316251 monomials exceeds the cap of 200000"):
            monomials_below((50, 0, 0, 0), GL)

    def test_weighted_rejected(self):
        w = OrderSpec(kind=WEIGHTED, weights=(1, 2))
        with pytest.raises(OrderError):
            monomials_below((2, 0), w)

    @pytest.mark.parametrize("order", [GL, GR])
    def test_against_brute_force(self, order):
        # every exponent vector in the box, filtered and sorted by sort_key
        rng = random.Random(3)
        for _ in range(40):
            nvars = rng.randint(1, 5)
            m1 = tuple(rng.randint(0, 9 // nvars) for _ in range(nvars))
            if not any(m1):
                m1 = (1,) * nvars
            top = sort_key(m1, order)
            expected = sorted(
                (m for m in product(range(sum(m1) + 1), repeat=nvars)
                 if any(m) and sort_key(m, order) < top),
                key=lambda m: sort_key(m, order),
                reverse=True,
            )
            assert monomials_below(m1, order) == expected


def random_orders(rng, nvars):
    yield GL
    yield GR
    for _ in range(3):
        yield OrderSpec(
            kind=WEIGHTED,
            weights=tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(nvars)
            ),
        )


class TestOrderLaws:
    def test_total_order_properties(self):
        rng = random.Random(5)
        for _ in range(50):
            nvars = rng.randint(1, 4)
            for order in random_orders(rng, nvars):
                ms = [
                    tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(3)
                ]
                a, b, c = ms
                # antisymmetry
                assert compare(a, b, order) == -compare(b, a, order)
                # transitivity
                if compare(a, b, order) >= 0 and compare(b, c, order) >= 0:
                    assert compare(a, c, order) >= 0
                # multiplicativity
                m = tuple(rng.randint(0, 3) for _ in range(nvars))
                ma = tuple(x + y for x, y in zip(m, a))
                mb = tuple(x + y for x, y in zip(m, b))
                assert compare(ma, mb, order) == compare(
                    a, b, order
                )

    def test_units_are_minimal(self):
        rng = random.Random(6)
        for _ in range(20):
            nvars = rng.randint(1, 4)
            for order in random_orders(rng, nvars):
                m = tuple(rng.randint(0, 4) for _ in range(nvars))
                if any(m):
                    assert compare(m, (0,) * nvars, order) == 1

    @pytest.mark.parametrize("order", [GL, GR])
    def test_leading_term_multiplicative(self, order):
        rng = random.Random(8)
        for _ in range(30):
            nvars = rng.randint(1, 3)
            p = random_poly(rng, nvars, 4, 6)
            q = random_poly(rng, nvars, 4, 6)
            mp, _ = leading_term(p, order)
            mq, _ = leading_term(q, order)
            mpq, _ = leading_term(p * q, order)
            assert mpq == tuple(x + y for x, y in zip(mp, mq))


@pytest.mark.parametrize("call, error, message", [
    (lambda: OrderSpec(kind="lex"), OrderError, "unknown order kind 'lex'"),
    (lambda: OrderSpec(kind=WEIGHTED, weights=(1, 0)), OrderError, "weights must be positive"),
    (lambda: OrderSpec(kind=GRLEX, weights=(1, 2)), OrderError, "grlex order takes no weights"),
    (lambda: sort_key((1, 2, 3), OrderSpec(kind=WEIGHTED, weights=(1, 2))), OrderError,
     "weight vector length does not match monomial"),
    (lambda: compare((1, 2), (1,), GL), PolyError, "monomial length mismatch"),
], ids=["unknown-kind", "zero-weight", "grlex-with-weights", "weight-length", "compare-lengths"])
def test_rejected_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
