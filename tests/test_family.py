import random
import re
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest

import closedpoly.family
from closedpoly.decompose import DecompositionResult, generative
from closedpoly.family import (
    DataFormatError,
    DecompositionData,
    ShiftEntry,
    exceptional_image,
    factor_shift,
    parse_decomposition_data,
    rational_roots,
    stein_check,
)
from closedpoly.orders import OrderSpec
from closedpoly.poly import PolyError, UniPoly, compose_uni

from conftest import P, product_identity_holds, random_closed_normalized, random_outer


class TestRationalRoots:
    def test_nonzero_constant_has_no_roots(self):
        assert rational_roots(UniPoly([5])) == []

    def test_difference_of_squares(self):
        assert rational_roots(UniPoly([-1, 0, 1])) == [
            (Fraction(1), 1),
            (Fraction(-1), 1),
        ]

    def test_double_root_at_zero(self):
        assert rational_roots(UniPoly([0, 0, 1])) == [(Fraction(0), 2)]

    def test_no_rational_roots(self):
        assert rational_roots(UniPoly([1, 0, 1])) == []

    def test_fractional_roots(self):
        # (2t - 1)(3t + 2) = 6t^2 + t - 2
        assert rational_roots(UniPoly([-2, 1, 6])) == [
            (Fraction(1, 2), 1),
            (Fraction(-2, 3), 1),
        ]

    def test_high_multiplicity(self):
        # (t - 2)^3 (t + 1)
        F = UniPoly([-8, 12, -6, 1]) * UniPoly([1, 1])
        assert rational_roots(F) == [(Fraction(2), 3), (Fraction(-1), 1)]

    def test_zero_rejected(self):
        with pytest.raises(PolyError):
            rational_roots(UniPoly.zero())

    def test_agrees_with_divisor_enumeration(self):
        rng = random.Random(1983)
        for _ in range(600):
            scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            G = UniPoly([scalar])
            for _ in range(rng.randint(1, 6)):  # repeated roots, and often 0
                G = G * UniPoly([-Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 1])
            if rng.random() < 0.4:  # a quadratic, often without rational roots
                G = G * UniPoly([rng.randint(-9, 9), rng.randint(-4, 4), rng.randint(1, 3)])
            assert rational_roots(G) == divisor_enumeration_roots(G), G

    def test_planted_large_roots(self):
        big = 10**29 + 7  # 30 digits
        planted = [(Fraction(big), 2), (Fraction(2 * 10**15, 3), 1), (Fraction(-big - 2), 1)]
        G = UniPoly([Fraction(-5, 7)]) * UniPoly([1, 1, 1])  # t^2 + t + 1 is irreducible
        for root, mult in planted:
            for _ in range(mult):
                G = G * UniPoly([-root, 1])
        assert rational_roots(G) == planted


def divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def divisor_enumeration_roots(G):
    """Oracle: every 0 or +-p/q with p | a_0 and q | a_n (after the factor t^m
    is taken out), with multiplicity the number of derivatives vanishing there."""
    scale = lcm(*(c.denominator for c in G.coeffs))
    ints = [int(c * scale) for c in G.coeffs]
    m = next(i for i, a in enumerate(ints) if a)
    a0, an = abs(ints[m]), abs(ints[-1])
    candidates = {Fraction(s * p, q) for s in (1, -1) for p in divisors(a0)
                  for q in divisors(an)} | ({Fraction(0)} if m else set())
    roots = []
    for r in sorted(candidates, reverse=True):
        c, mult = ints, 0
        p, q = r.numerator, r.denominator
        while sum(a * p**i * q ** (len(c) - 1 - i) for i, a in enumerate(c)) == 0:
            c, mult = [i * a for i, a in enumerate(c)][1:], mult + 1
        if mult:
            roots.append((r, mult))
    return roots


class TestFactorShift:
    @pytest.fixture
    def result(self, deg6):
        return generative(deg6)

    def test_mu_minus_one_full_square(self, result, deg6):
        fam = factor_shift(result, -1)
        assert fam.alpha == 1
        assert fam.shifts == ((Fraction(0), 2),)
        assert fam.residual == UniPoly([1])
        assert product_identity_holds(result, fam)
        assert result.h * result.h == deg6 - 1

    def test_mu_minus_two_split(self, result, deg6):
        fam = factor_shift(result, -2)
        assert fam.shifts == ((Fraction(1), 1), (Fraction(-1), 1))
        assert fam.residual == UniPoly([1])
        assert (result.h + 1) * (result.h - 1) == deg6 - 2

    def test_mu_five_rootless(self, result, deg6):
        fam = factor_shift(result, 5)
        assert fam.shifts == ()
        assert fam.residual == UniPoly([6, 0, 1])
        assert result.h * result.h + 6 == deg6 + 5
        assert product_identity_holds(result, fam)

    def test_random_triples(self):
        rng = random.Random(60)
        count = 0
        while count < 40:
            nvars = rng.randint(1, 3)
            h = random_closed_normalized(rng, nvars, 3, 4)
            F = random_outer(rng, 3)
            f = compose_uni(F, h)
            r = generative(f)
            mu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if (r.F + mu).degree() < 1:
                continue
            fam = factor_shift(r, mu)
            assert product_identity_holds(r, fam)
            assert fam.shift_count() + fam.residual.degree() == r.F.degree()
            count += 1

    def test_agrees_with_divisor_enumeration_oracle(self):
        # non-monic F + mu = G with planted multiple roots, often times a quadratic
        rng = random.Random(1984)
        h = P("x1^2 + x2")
        seen = {"multiple root": 0, "no rational root": 0}
        for _ in range(60):
            G = UniPoly([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))])
            for _ in range(rng.randint(0, 2)):
                root = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3)):
                    G = G * UniPoly([-root, 1])
            if G.degree() == 0 or rng.random() < 0.5:
                G = G * UniPoly([rng.randint(1, 9), rng.randint(-3, 3), rng.randint(1, 3)])
            mu = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            r = generative(compose_uni(G - mu, h))
            fam = factor_shift(r, mu)
            roots = divisor_enumeration_roots(r.F + mu)
            assert fam.shifts == tuple((-root, mult) for root, mult in reversed(roots))
            product = UniPoly([fam.alpha])
            for lam, mult in fam.shifts:
                for _ in range(mult):
                    product = product * UniPoly([lam, 1])
            assert product * fam.residual == r.F + mu
            assert fam.residual.leading_coefficient() == 1
            assert divisor_enumeration_roots(fam.residual) == []
            assert product_identity_holds(r, fam)
            seen["multiple root"] += any(mult > 1 for _, mult in roots)
            seen["no rational root"] += not roots
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize(
        "mu, shifts",
        [(-3 * (10**9 + 7) ** 2, ()),
         (-((10**30 + 57) ** 2), ((Fraction(10**30 + 57), 1), (Fraction(-(10**30) - 57), 1)))],
        ids=["no-rational-root", "30-digit-root"],
    )
    def test_huge_mu_is_fast(self, mu, shifts):
        r = generative(P("x1^2 + 2*x1*x2 + x2^2"))
        start = time.perf_counter()
        fam = factor_shift(r, mu)
        assert time.perf_counter() - start < 1.0
        assert fam.shifts == shifts
        assert product_identity_holds(r, fam)

    def test_float_mu_rejected(self, result):
        with pytest.raises(PolyError, match="mu 0.1 is not an int or a Fraction"):
            factor_shift(result, 0.1)

    def test_failed_identity_raises(self, result, monkeypatch):
        real = closedpoly.family._split
        monkeypatch.setattr(closedpoly.family, "_split", lambda G: (real(G)[0], real(G)[1] + 1))
        with pytest.raises(RuntimeError, match=r"^product identity for f \+ mu failed to verify$"):
            factor_shift(result, -2)

    def test_high_degree_with_small_roots_is_fast(self):
        # the Cauchy bound 1 + 2^300 would put the brackets at x ~ 2^300
        start = time.perf_counter()
        roots = rational_roots(UniPoly([-(2**300)] + [0] * 299 + [1]))
        assert time.perf_counter() - start < 1.0
        assert roots == [(Fraction(2), 1), (Fraction(-2), 1)]

    def test_distinct_mu_disjoint_shifts(self, result):
        seen = {}
        for mu in (Fraction(-1), Fraction(-2), Fraction(0), Fraction(3, 2)):
            fam = factor_shift(result, mu)
            for lam, _ in fam.shifts:
                assert lam not in seen, f"shift {lam} shared by {seen.get(lam)} and {mu}"
                seen[lam] = mu


class TestExceptionalImage:
    def test_paper_values(self):
        F = UniPoly([1, 0, 1])
        assert exceptional_image(F, [0, -1]) == {Fraction(-1), Fraction(-2)}

    def test_identity_outer(self):
        F = UniPoly.identity()
        assert exceptional_image(F, [Fraction(1, 2), -3]) == {Fraction(1, 2), Fraction(-3)}

    def test_square(self):
        assert exceptional_image(UniPoly([0, 0, 1]), [1]) == {Fraction(-1)}

    def test_float_value_rejected(self):
        with pytest.raises(PolyError, match="exceptional value 0.1 is not an int or a Fraction"):
            exceptional_image(UniPoly([0, 0, 1]), [0.1])

    def test_cardinality_bound(self, deg6):
        r = generative(deg6)
        image = exceptional_image(r.F, [0, -1])
        assert len(image) <= 2
        # non-trivial decomposition: e(f) < deg(f) / 2
        assert r.F.degree() >= 2
        assert len(image) < Fraction(deg6.total_degree(), 2)


PAPER_DATA = "-1: 1^2, 2^2\n-2: 1, 2, 3\n*: 3, 3\n"


class TestSteinCheck:
    def test_paper_example(self):
        data = parse_decomposition_data(PAPER_DATA, d=3)
        report = stein_check(data, "f")
        assert (report.lhs, report.rhs, report.holds) == (1, 3, True)

    def test_single_generic_entry(self):
        data = DecompositionData(
            entries=(ShiftEntry(shift=None, factors=((3, 1), (3, 1))),), d=3
        )
        report = stein_check(data, "f")
        assert report.lhs == 0
        assert report.rhs == 6
        assert report.holds

    def test_fabricated_violation(self):
        # four exceptional lines each fully split into linear factors
        entries = tuple(
            ShiftEntry(shift=Fraction(i), factors=((1, 1), (1, 1), (1, 1)))
            for i in range(4)
        )
        report = stein_check(DecompositionData(entries=entries), "h")
        assert report.lhs == 8
        assert report.rhs == 3
        assert not report.holds

    def test_h_form_paper_shape(self):
        # the h-side data for the worked example: h and h+1 each split in two
        data = parse_decomposition_data("0: 1, 2\n-1: 1, 2\n*: 3\n")
        report = stein_check(data, "h")
        assert (report.lhs, report.rhs, report.holds) == (2, 3, True)

    def test_f_mode_requires_d(self):
        with pytest.raises(DataFormatError):
            stein_check(parse_decomposition_data(PAPER_DATA), "f")

    def test_degree_above_d_rejected(self):
        data = parse_decomposition_data("*: 4\n", d=3)
        with pytest.raises(DataFormatError):
            stein_check(data, "f")

    def test_inconsistent_totals_rejected(self):
        data = parse_decomposition_data("0: 1, 2\n1: 1\n")
        with pytest.raises(DataFormatError, match=r"^entries disagree on the total degree: \[1, 3\]$"):
            stein_check(data, "h")

    def test_bad_mode(self):
        data = parse_decomposition_data("0: 1\n")
        with pytest.raises(DataFormatError):
            stein_check(data, "x")


class TestDataParsing:
    def test_full_format(self):
        data = parse_decomposition_data("# comment\n\n-1/2: 1^2, 3\n*: 5\n")
        assert data.entries[0].shift == Fraction(-1, 2)
        assert data.entries[0].factors == ((1, 2), (3, 1))
        assert data.entries[1].shift is None

    def test_missing_colon(self):
        with pytest.raises(DataFormatError):
            parse_decomposition_data("1 2 3\n")

    def test_bad_shift(self):
        with pytest.raises(DataFormatError):
            parse_decomposition_data("abc: 1\n")

    def test_bad_factor(self):
        with pytest.raises(DataFormatError):
            parse_decomposition_data("0: x^2\n")

    def test_nonpositive_factor(self):
        with pytest.raises(DataFormatError):
            stein_check(parse_decomposition_data("0: 0^1\n"), "h")


def hand_built(F):
    return DecompositionResult(h=P("x1"), F=F, closed=False, trace=(), order=OrderSpec())


@pytest.mark.parametrize("call, error, message", [
    (lambda: factor_shift(hand_built(UniPoly([2])), 1), PolyError, "F + mu must be non-constant"),
    (lambda: factor_shift(hand_built(UniPoly([1])), -1), PolyError, "F + mu must be non-constant"),
    (lambda: stein_check(DecompositionData(entries=()), "h"), DataFormatError,
     "no decomposition entries supplied"),
    (lambda: stein_check(DecompositionData(entries=(ShiftEntry(None, ()),)), "h"), DataFormatError,
     "entry with no factors"),
    (lambda: stein_check(parse_decomposition_data("*: 3\n", d=0), "f"), DataFormatError,
     "d must be positive"),
    (lambda: parse_decomposition_data("1: 2,,3\n"), DataFormatError, "line 1: empty factor"),
], ids=["constant-F-plus-mu", "zero-F-plus-mu", "no-entries", "entry-without-factors", "zero-d",
        "empty-factor"])
def test_rejected_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
