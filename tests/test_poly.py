import operator
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closedpoly.orders import GREVLEX, GRLEX, WEIGHTED, OrderSpec, leading_term, normalize
from closedpoly.parsing import render_uni
from closedpoly.poly import (
    MAX_EXPONENT,
    MAX_VARIABLES,
    MultiPoly,
    PolyError,
    UniPoly,
    add_product,
    compose_uni,
    integer_form,
)

from conftest import P, random_poly
from oracles import dense_add, dense_evaluate, dense_mul, dense_render, dense_trim, reference_evaluate


class TestMul:
    def test_difference_of_squares(self):
        assert P("x1 + x2", 2) * P("x1 - x2") == P("x1^2 - x2^2")

    def test_square_of_shifted_inner(self, deg6):
        h = P("x1*x2^2 - x1*x2 + x2")
        assert h * h == deg6 - 1

    def test_square_matches_published_factored_form(self):
        # x2^2 (x1 x2 - x1 + 1)^2 expanded
        h = P("x1*x2^2 - x1*x2 + x2")
        factored = P("x2", 2) ** 2 * P("x1*x2 - x1 + 1") ** 2
        assert h * h == factored

    def test_zero_absorbs(self):
        p = P("3*x1^2 - x2", 2)
        assert p * MultiPoly.zero(2) == MultiPoly.zero(2)

    def test_nvars_mismatch(self):
        with pytest.raises(PolyError):
            P("x1") * P("x1 + x2")


class TestComposeUni:
    def test_square_of_binomial(self, ex1):
        F = UniPoly([0, 0, 1])
        assert compose_uni(F, P("x1^2 + x2")) == ex1

    def test_identity(self):
        h = P("x1^3 - 2*x2 + 1/2", 2)
        assert compose_uni(UniPoly.identity(), h) == h

    def test_degree_six_example(self, deg6):
        F = UniPoly([1, 0, 1])
        assert compose_uni(F, P("x1*x2^2 - x1*x2 + x2")) == deg6


class TestPartialDerivative:
    def test_power_rule(self):
        assert P("x1^2*x2").partial(1) == P("2*x1*x2")

    def test_termwise(self, ex1):
        # termwise oracle: d/dx2 of each stored term
        expected = MultiPoly.zero(2)
        for m, c in ex1.terms.items():
            if m[1]:
                expected = expected + MultiPoly.from_term(
                    2, (m[0], m[1] - 1), c * m[1]
                )
        assert ex1.partial(2) == expected
        assert ex1.partial(2) == P("2*x1^2 + 2*x2")

    def test_constant(self):
        assert MultiPoly.constant(3, Fraction(7, 2)).partial(1).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(PolyError):
            P("x1").partial(2)


class TestNormalize:
    def test_scalar_and_constant_split(self):
        nf = normalize(P("2*x1^2 + 4*x2 + 6"), OrderSpec())
        assert nf.core == P("x1^2 + 2*x2")
        assert nf.leading_scalar == 2
        assert nf.constant_term == 6

    def test_degree_six_example(self, deg6):
        nf = normalize(deg6, OrderSpec())
        h = P("x1*x2^2 - x1*x2 + x2")
        assert nf.core == h * h
        assert nf.leading_scalar == 1
        assert nf.constant_term == 1

    def test_idempotent_on_normalized(self):
        nf = normalize(P("x1^2 + x2"), OrderSpec())
        assert nf.core == P("x1^2 + x2")
        assert nf.leading_scalar == 1
        assert nf.constant_term == 0

    def test_constant_rejected(self):
        with pytest.raises(PolyError):
            normalize(MultiPoly.constant(2, 5), OrderSpec())

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_poly(rng, rng.randint(1, 4), 5, 8)
            nf = normalize(f, OrderSpec())
            assert nf.reconstruct() == f

    def test_matches_reference_arithmetic(self):
        """The core has the terms of (f - c) * (1 / a), in the same dict order."""
        rng = random.Random(21)
        seen = set()
        for _ in range(300):
            nvars = rng.randint(1, 4)
            kind = rng.choice([GRLEX, GREVLEX, WEIGHTED])
            weights = None
            if kind == WEIGHTED:
                weights = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(nvars))
            order = OrderSpec(kind=kind, weights=weights)
            f = random_poly(rng, nvars, 5, 8)
            f = f - f.constant_term() + rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
            c = f.constant_term()
            _, a = leading_term(f, order)
            reference = (f - c) * (1 / a)
            nf = normalize(f, order)
            assert list(nf.core.terms.items()) == list(reference.terms.items())
            assert nf.leading_scalar == a and type(nf.leading_scalar) is Fraction
            assert nf.constant_term == c and type(nf.constant_term) is Fraction
            seen |= {kind, "constant" if c else "no constant"}
            seen |= {"negative" if a < 0 else "positive", "integer" if a.denominator == 1 else "non-integer"}
        assert seen == {GRLEX, GREVLEX, WEIGHTED, "constant", "no constant",
                        "negative", "positive", "integer", "non-integer"}


class TestCoefficientOf:
    def test_present(self, ex1):
        assert ex1.coefficient((2, 1)) == 2

    def test_absent(self, ex1):
        assert ex1.coefficient((1, 1)) == 0

    def test_rational(self):
        assert P("3/2*x1").coefficient((1,)) == Fraction(3, 2)


def small_polys(nvars=2):
    monos = st.tuples(*([st.integers(0, 3)] * nvars))
    coeffs = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    return st.dictionaries(monos, coeffs, max_size=6).map(
        lambda terms: MultiPoly(nvars, terms)
    )


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p


@pytest.mark.parametrize("poly", [P("x1^2 + x2"), UniPoly([1, 0, 2])], ids=["MultiPoly", "UniPoly"])
def test_fields_are_read_only(poly):
    terms = dict(poly.terms)
    for name in ("nvars", "terms"):
        with pytest.raises(AttributeError, match="^MultiPoly is immutable$"):
            setattr(poly, name, None)
    assert poly.terms == terms


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=360), min_size=1, max_size=20))
@example([Fraction(0)])
@example([Fraction(-3, 4), Fraction(0), Fraction(5, 6), Fraction(-7)])
def test_integer_form_is_over_the_least_common_denominator(coeffs):
    L, numerators = integer_form(coeffs)
    assert L > 0
    assert L == lcm(*(c.denominator for c in coeffs))
    assert [Fraction(n, L) for n in numerators] == coeffs
    assert all(type(n) is int for n in numerators)
    assert gcd(L, *numerators) == 1


def test_integer_form_matches_its_definition_on_seeded_fractions():
    rng = random.Random(49)
    for size in [0, 1, 2, 5, 40, 300] * 20:
        coeffs = [Fraction(rng.randint(-10**rng.randint(1, 30), 10**rng.randint(1, 30)),
                           rng.choice([1, 1, rng.randint(1, 10**rng.randint(1, 25))])) for _ in range(size)]
        L = lcm(*(c.denominator for c in coeffs))
        assert integer_form(coeffs) == (L, [c.numerator * (L // c.denominator) for c in coeffs])


def test_add_product_refuses_an_overflowing_product_before_adding():
    acc = {(3,): 5}
    with pytest.raises(PolyError, match=r"^exponent 2147483648 exceeds the supported bound 2147483647$"):
        add_product(acc, {(2**31 - 1,): 1}, {(1,): 1})
    assert acc == {(3,): 5}


def test_evaluation_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        h = random_poly(rng, nvars, 4, 6)
        F = UniPoly(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        )
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
        assert compose_uni(F, h).evaluate(point) == F.evaluate(h.evaluate(point))


def test_product_rule():
    rng = random.Random(13)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        p = random_poly(rng, nvars, 4, 5)
        q = random_poly(rng, nvars, 4, 5)
        i = rng.randint(1, nvars)
        assert (p * q).partial(i) == p * q.partial(i) + q * p.partial(i)


def test_power_matches_repeated_multiplication():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, 2, 3, 4)
        acc = MultiPoly.constant(2, 1)
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_exponent_overflow_rejected():
    with pytest.raises(PolyError):
        MultiPoly.from_term(1, (2**31 - 1,)) * MultiPoly.variable(1, 1)
    with pytest.raises(PolyError):
        MultiPoly.from_term(1, (2**30,)) ** 2


def test_power_bound_checked_before_any_product(monkeypatch):
    """(x1 + 1) ** 2**31 would square up to 2^30 + 1 terms before a product's
    check fired; the power checks k times each largest exponent up front."""
    def no_product(*args):
        raise AssertionError("a product was attempted")

    p = P("x1 + x2^2 + 1")
    monkeypatch.setattr(MultiPoly, "__mul__", no_product)
    for base, k in [(p, 2**31), (p, 2**30), (P("x1"), 2**31)]:
        with pytest.raises(PolyError, match=f"^exponent {2**31} exceeds the supported bound"):
            base ** k


def test_product_matches_naive_product_at_the_exponent_bound():
    """The product checks the bound once, on the largest exponents; it must
    agree with a term-by-term product that checks every monomial."""
    rng = random.Random(29)
    near = [0, 1, 2, 3, MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1, MAX_EXPONENT - 1, MAX_EXPONENT]

    def operand(nvars):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            m = tuple(rng.choice(near) if rng.random() < 0.3 else rng.randint(0, 3)
                      for _ in range(nvars))
            terms[m] = rng.choice([1, -2, Fraction(3, 5)])
        return MultiPoly(nvars, terms)

    def naive(p, q):
        terms = {}
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                if max(m) > MAX_EXPONENT:
                    return None
                terms[m] = terms.get(m, 0) + c1 * c2
        return MultiPoly(p.nvars, terms)

    sums = set()
    for _ in range(3000):
        nvars = rng.randint(1, 3)
        p, q = operand(nvars), operand(nvars)
        if p.terms and q.terms:
            sums.add(max(max(a + b for a, b in zip(m1, m2)) for m1 in p.terms for m2 in q.terms))
        expected = naive(p, q)
        if expected is None:
            with pytest.raises(PolyError, match="exceeds the supported bound"):
                p * q
        else:
            assert p * q == expected
    # both sides of the bound are exercised
    assert {MAX_EXPONENT, MAX_EXPONENT + 1} <= sums
    # the largest exponents of x1 come from different terms, and only their pair overflows
    p = MultiPoly(2, {(MAX_EXPONENT - 1, 0): 1, (0, 5): 1})
    assert p * MultiPoly(2, {(1, 0): 1, (0, 7): 1}) == MultiPoly(
        2, {(MAX_EXPONENT, 0): 1, (MAX_EXPONENT - 1, 7): 1, (1, 5): 1, (0, 12): 1})
    with pytest.raises(PolyError):
        p * MultiPoly(2, {(2, 0): 1, (0, 7): 1})


def test_variable_count_bound():
    assert MultiPoly(MAX_VARIABLES).is_zero()
    with pytest.raises(PolyError):
        MultiPoly(MAX_VARIABLES + 1)
    with pytest.raises(PolyError):
        MultiPoly.zero(10**8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: P("x1 + x2", min_nvars=10**6),
        lambda: MultiPoly.constant(10**6, 1),
        lambda: MultiPoly.variable(10**6, 1),
    ],
    ids=["parse_poly", "constant", "variable"],
)
def test_variable_count_rejected_before_allocation(build):
    tracemalloc.start()
    try:
        with pytest.raises(PolyError, match="supported bound"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_arithmetic_results_are_validated_form():
    """Results built without re-validation store exactly what the public
    constructor would: nonzero Fraction coefficients, nothing else."""
    rng = random.Random(23)

    def assert_valid(r):
        assert all(type(c) is Fraction and c for c in r.terms.values())
        assert r == MultiPoly(r.nvars, r.terms)

    for _ in range(150):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, 4, 5, allow_constant=True)
        q = random_poly(rng, nvars, 4, 5, allow_constant=True)
        q = rng.choice([q, -p, p, q - p])  # include sums that cancel
        c = rng.choice([0, 1, -3, Fraction(2, 7)])
        results = [p + q, p - q, p - p, p * q, p * (q - q), c * p, p * c,
                   p ** rng.randint(0, 3), (p - q) ** 2, p + c, c - p]
        results += [p.partial(i) for i in range(1, nvars + 1)]
        for r in results:
            assert_valid(r)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: MultiPoly(1, {(1.5,): 1}), r"monomial \(1\.5,\) is not a tuple of ints"),
        (lambda: MultiPoly(1, {1: 1}), "monomial 1 is not a tuple of ints"),
        (lambda: MultiPoly(1, {("1",): 1}), r"monomial \('1',\) is not a tuple of ints"),
        (lambda: MultiPoly.from_term(2, (1, 2.0)), "is not a tuple of ints"),
        (lambda: MultiPoly(1, {(2,): 0.1}), "coefficient 0.1 is not an int or a Fraction"),
        (lambda: MultiPoly.from_term(1, (2,), 0.5), "coefficient 0.5 is not"),
        (lambda: UniPoly([0.1, 1]), "coefficient 0.1 is not an int or a Fraction"),
        (lambda: UniPoly([1, "2"]), "coefficient '2' is not"),
        (lambda: MultiPoly(2.0, {(1, 0): 1}), "nvars must be an int, got 2.0"),
        (lambda: MultiPoly.constant(2.0, 1), "nvars must be an int"),
        (lambda: MultiPoly(2, {(1,): 1}), r"^monomial \(1,\) has length 1, expected 2$"),
        (lambda: MultiPoly(2, {(1, -1): 1}), r"^negative exponent in monomial \(1, -1\)$"),
    ],
    ids=["float-exponent", "int-monomial", "str-exponent", "from_term-float-exponent",
         "float-coefficient", "from_term-float-coefficient", "unipoly-float", "unipoly-str",
         "float-nvars", "constant-float-nvars", "monomial-length", "negative-exponent"],
)
def test_constructor_rejects_malformed_input(build, match):
    """Only tuples of ints as monomials, ints or Fractions as coefficients and an
    int nvars reach the core; the parser cannot produce e.g. x1^1.5."""
    with pytest.raises(PolyError, match=match):
        build()


def test_evaluate_against_fraction_reference():
    rng = random.Random(53)
    coordinates = [0, 0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7), Fraction(-1, 9)]
    seen = {"zero": 0, "constant": 0, "absent variable": 0}
    for _ in range(400):
        nvars = rng.randint(1, 4)
        used = [rng.random() < 0.8 for _ in range(nvars)]
        terms = {}
        for _ in range(rng.choice([0, 1, 1, 2, 4, 8])):
            m = tuple(rng.randint(0, 20) if u and rng.random() < 0.7 else 0 for u in used)
            terms[m] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        poly = MultiPoly(nvars, terms)
        point = [rng.choice(coordinates) for _ in range(nvars)]
        value = poly.evaluate(point)
        assert value == reference_evaluate(poly, point), (poly, point)
        assert type(value) is Fraction
        seen["zero"] += poly.is_zero()
        seen["constant"] += poly.is_constant() and not poly.is_zero()
        seen["absent variable"] += not all(map(any, zip(*poly.terms))) and not poly.is_constant()
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "evaluate",
    [lambda: UniPoly([0, 1]).evaluate(0.1), lambda: MultiPoly(1, {(1,): 1}).evaluate([0.1]),
     lambda: UniPoly([0, 1]).evaluate("1/2")],
    ids=["unipoly-float", "multipoly-float", "unipoly-str"],
)
def test_evaluate_rejects_non_rational_point(evaluate):
    """A float point value would become its binary fraction, 3602879701896397/2^55 for 0.1."""
    with pytest.raises(PolyError, match="point value .* is not an int or a Fraction"):
        evaluate()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: P("x1*x2").coefficient((1,)), "monomial length mismatch"),
        (lambda: P("x1") ** -1, "negative polynomial power"),
        (lambda: P("x1*x2").evaluate([1]), "evaluation point has wrong dimension"),
    ],
    ids=["coefficient-length", "negative-power", "evaluate-dimension"],
)
def test_rejects_out_of_range_input(call, message):
    with pytest.raises(PolyError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "op, operand, message",
    [
        (operator.add, 0.1, "unsupported operand type(s) for +: 'MultiPoly' and 'float'"),
        (operator.sub, 0.1, "unsupported operand type(s) for -: 'MultiPoly' and 'float'"),
        (operator.mul, 0.1, "unsupported operand type(s) for *: 'MultiPoly' and 'float'"),
        (operator.add, "1", "unsupported operand type(s) for +: 'MultiPoly' and 'str'"),
        (operator.sub, "1", "unsupported operand type(s) for -: 'MultiPoly' and 'str'"),
        (operator.mul, "1", "can't multiply sequence by non-int of type 'MultiPoly'"),
    ],
    ids=["add-float", "sub-float", "mul-float", "add-str", "sub-str", "mul-str"],
)
def test_float_or_str_operand(op, operand, message):
    """Arithmetic takes ints and Fractions only, as `p + 0.1` raises TypeError;
    `==` with such an operand is False."""
    p = P("x1 + 1")
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        op(p, operand)
    assert (p == operand) is False


def test_equality_with_scalars():
    assert MultiPoly.constant(2, 3) == 3
    assert MultiPoly.constant(2, Fraction(1, 2)) == Fraction(1, 2)
    assert P("x1 + 1") != 1


@pytest.mark.parametrize("c", [3, Fraction(-2, 3), 0], ids=["int", "Fraction", "zero"])
def test_scalar_operands_act_as_constants(c):
    p, constant = P("x1^2 - 1/2*x2"), MultiPoly.constant(2, c)
    assert p + c == c + p == p + constant
    assert p - c == p - constant
    assert c - p == constant - p
    assert (p - p) + c == c and p != c


def test_constant_hashes_as_the_scalar_it_equals():
    for p, c in [(MultiPoly.constant(2, 3), 3), (UniPoly([Fraction(1, 2)]), Fraction(1, 2)),
                 (MultiPoly.zero(3), 0), (P("x1 - x1 + 5"), 5)]:
        assert p == c and hash(p) == hash(c)
        assert {c: "c"}.get(p) == "c"
        assert len({p, c}) == 1


def test_repr_reparses():
    p, F = P("2*x1^2 - 1/3*x1*x2 + 1"), UniPoly([1, 0, Fraction(-2, 3)])
    assert repr(p) == "MultiPoly('2*x1^2 - 1/3*x1*x2 + 1')"
    assert repr(F) == "UniPoly('-2/3*t^2 + 1')"
    assert P(repr(p)[len("MultiPoly('"):-2]) == p
    assert P(repr(F)[len("UniPoly('"):-2].replace("t", "x1")) == F


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_arithmetic(self):
        F = UniPoly([1, 2])
        G = UniPoly([0, 1, 1])
        assert F * G == UniPoly([0, 1, 3, 2])
        assert F + G == UniPoly([1, 3, 1])
        assert (F - F).is_zero()

    def test_evaluate_horner(self):
        F = UniPoly([Fraction(1, 2), 0, 3])
        assert F.evaluate(Fraction(1, 3)) == Fraction(1, 2) + Fraction(3, 9)

    def test_against_dense_reference(self):
        rng = random.Random(17)
        pool = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
        for _ in range(300):
            a = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
            b = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
            c = rng.choice(pool[1:])
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            F, G = UniPoly(a), UniPoly(b)
            fa, gb = dense_trim(a), dense_trim(b)
            assert F.coeffs == fa and G.coeffs == gb
            assert (F + G).coeffs == dense_add(fa, gb)
            assert (F - G).coeffs == dense_add(fa, [-v for v in gb])
            assert (F * G).coeffs == dense_mul(fa, gb)
            assert (F * c).coeffs == (c * F).coeffs == dense_mul(fa, [c])
            assert (F + c).coeffs == (c + F).coeffs == dense_add(fa, [c])
            assert F.evaluate(x) == dense_evaluate(fa, x)
            assert render_uni(F) == dense_render(fa)
            if fa:
                assert F.degree() == len(fa) - 1
                assert F.leading_coefficient() == fa[-1]
            for result in (F + G, F - G, F * G, F * c, c * F, F + c, c + F, -F, F ** 3):
                assert type(result) is UniPoly

    def test_zero_has_no_degree(self):
        with pytest.raises(PolyError, match="the zero polynomial has no degree"):
            UniPoly.zero().degree()
        with pytest.raises(PolyError, match="zero polynomial"):
            UniPoly([0, 0]).leading_coefficient()

    def test_one_variable_multipoly_with_the_same_terms(self):
        assert UniPoly([1, 0, 2]) == P("2*x1^2 + 1")
        assert hash(UniPoly([1, 0, 2])) == hash(P("2*x1^2 + 1"))
        assert UniPoly([0, 1]) + P("x1") == UniPoly([0, 2])

    def test_inherited_constructors(self):
        built = [UniPoly.constant(1, 3), UniPoly.variable(1, 1), UniPoly.from_term(1, (2,))]
        assert built == [UniPoly([3]), UniPoly([0, 1]), UniPoly([0, 0, 1])]
        assert [type(F) for F in built] == [UniPoly] * 3
        assert UniPoly.from_term(1, (3,), Fraction(1, 2)).coeffs == (0, 0, 0, Fraction(1, 2))
        for build in (
            lambda: UniPoly.constant(2, 3),
            lambda: UniPoly.variable(2, 1),
            lambda: UniPoly.from_term(2, (2, 0)),
            lambda: UniPoly.constant(0, 3),
        ):
            with pytest.raises(PolyError):
                build()
        # on MultiPoly the same constructors still build MultiPolys
        assert type(MultiPoly.constant(1, 3)) is MultiPoly
        assert MultiPoly.variable(2, 2).terms == {(0, 1): 1}
        with pytest.raises(PolyError, match=r"variable index 3 out of range 1\.\.2"):
            MultiPoly.variable(2, 3)

    def test_lacunary_storage_is_sparse(self):
        F = UniPoly([1] + [0] * 10**6 + [1])
        assert len(F.terms) == 2
        assert F.degree() == 10**6 + 1
        assert render_uni(F) == "t^1000001 + 1"
