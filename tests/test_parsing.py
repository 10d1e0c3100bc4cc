import random
import sys
from fractions import Fraction

import pytest

from closedpoly.orders import GREVLEX, OrderSpec
from closedpoly.parsing import ParseError, parse_poly, render_poly
from closedpoly.poly import MAX_EXPONENT, MAX_VARIABLES, MultiPoly

from conftest import P, random_poly


class TestParse:
    def test_quartic(self, ex1):
        parsed = parse_poly("x1^4 + 2*x1^2*x2 + x2^2")
        assert parsed.poly == ex1
        assert parsed.nvars == 2

    def test_rational_coefficients(self):
        p = parse_poly("3/2*x1 - x2").poly
        assert p.coefficient((1, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 1)) == -1

    def test_repeated_factors_multiply(self):
        assert parse_poly("x1*x1").poly == P("x1^2")
        assert parse_poly("x1^2*x1^3").poly == P("x1^5")

    def test_like_terms_combine(self):
        assert parse_poly("x1 + x1").poly == P("2*x1")
        assert parse_poly("x1 - x1").poly.is_zero()

    def test_leading_sign(self):
        assert parse_poly("-x1 + 2").poly == P("2") - P("x1")
        assert parse_poly("+x1").poly == P("x1")

    def test_whitespace_insensitive(self):
        assert parse_poly("  x1^2+ 2 * x1 ^ 2 * x2\n+ x2 ^ 2 ").poly == P(
            "x1^2 + 2*x1^2*x2 + x2^2"
        )

    def test_constant(self):
        assert parse_poly("7/3").poly == MultiPoly.constant(1, Fraction(7, 3))

    def test_min_nvars(self):
        assert parse_poly("x1", min_nvars=3).poly.nvars == 3

    def test_coefficients_are_fractions(self):
        p = parse_poly("2*x1^2 + 1/2*x2 - x2 + 3 + x1 + 1/2*x1 - 3/2*x1").poly
        assert p.terms == {(2, 0): 2, (0, 1): Fraction(-1, 2), (0, 0): 3}
        assert all(type(c) is Fraction for c in p.terms.values())


_LIMIT = sys.get_int_max_str_digits()

REJECTED = [  # (text, line, column of the offending token, message)
    ("", 1, 1, "expected a coefficient or variable, got 'end of input'"),
    ("x0", 1, 1, "variable index 0 is not allowed"),
    ("x1 +", 1, 5, "expected a coefficient or variable, got 'end of input'"),
    ("* x1", 1, 1, "expected a coefficient or variable, got '*'"),
    ("x1 ^", 1, 5, "expected an exponent after '^'"),
    ("x1 ^ x2", 1, 6, "expected an exponent after '^'"),
    ("1/0", 1, 3, "denominator must be positive"),
    ("x1 @ x2", 1, 4, "unexpected character '@'"),
    ("2 ** x1", 1, 4, "expected a variable, got '*'"),
    ("x1 x2", 1, 4, "expected '+' or '-', got 'x2'"),
    ("3/", 1, 3, "expected a denominator after '/'"),
    ("^2", 1, 1, "expected a coefficient or variable, got '^'"),
    ("x1 +\n\n  x0", 3, 3, "variable index 0 is not allowed"),
    ("x1\n@", 2, 1, "unexpected character '@'"),
    # Arabic-Indic digits are outside the grammar
    ("x1 + \u0661\u0662", 1, 6, "unexpected character '\u0661'"),
    # an unexpected character anywhere wins over a syntax error before it
    ("x1 x2 @", 1, 7, "unexpected character '@'"),
    # a '*' not followed by a variable ends a monomial, but not a coefficient
    ("x1*3", 1, 3, "expected '+' or '-', got '*'"),
    ("2*3", 1, 3, "expected a variable, got '3'"),
    (f"x{MAX_VARIABLES + 1}", 1, 1,
     f"variable index {MAX_VARIABLES + 1} exceeds the supported bound {MAX_VARIABLES}"),
    (f"x1^{MAX_EXPONENT + 1}", 1, 4, f"exponent {MAX_EXPONENT + 1} exceeds the supported bound"),
    (f"x1*x1^{MAX_EXPONENT}", 1, 4, "accumulated exponent for x1 exceeds the supported bound"),
    # digit runs past Python's 4,300-digit int-string conversion limit
    ("x1 + x1^" + "9" * 5000, 1, 9, "exponent " + "9" * 5000 + " exceeds the supported bound"),
    ("x1 +\n x" + "9" * 5000, 2, 2,
     "variable index " + "9" * 5000 + f" exceeds the supported bound {MAX_VARIABLES}"),
    ("x1 - " + "9" * 5000 + "*x1", 1, 6,
     f"a number of 5000 digits exceeds the limit of {_LIMIT} digits"),
    ("x1 + 1/" + "7" * 5000, 1, 8, f"a number of 5000 digits exceeds the limit of {_LIMIT} digits"),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, line, column, message", REJECTED, ids=[case[0][:40] for case in REJECTED]
    )
    def test_rejected_with_position(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_poly(f"x1^{2**31}")

    @pytest.mark.parametrize("index", [MAX_VARIABLES + 1, 10**8, 99999999999])
    def test_variable_index_bound(self, index):
        text = f"x1 +\n 2*x{index}^3"
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (2, 4)
        assert "supported bound" in exc.value.message

    def test_over_long_coefficient_names_the_limit(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("9" * 5000 + "*x1")
        limit = sys.get_int_max_str_digits()
        assert exc.value.message == f"a number of 5000 digits exceeds the limit of {limit} digits"

    def test_non_ascii_digit_is_unexpected(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x1 + \u0661\u0662")
        assert exc.value.message == "unexpected character '\u0661'"

    def test_leading_zeros_do_not_count(self):
        zeros = "0" * 5000
        assert parse_poly(f"x{zeros}2^{zeros}3").poly == P("x2^3")

    def test_position_points_at_offender(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x1 +\n x0")
        assert exc.value.line == 2


class TestRender:
    def test_zero(self):
        assert render_poly(MultiPoly.zero(2)) == "0"

    def test_canonical_form(self):
        assert render_poly(P("x2 + x1^2")) == "x1^2 + x2"

    def test_signs_and_fractions(self):
        assert render_poly(P("-1/2*x1 + x2 - 3")) == "-1/2*x1 + x2 - 3"

    def test_respects_order(self):
        f = P("x1^2*x2 + x1*x2^2", 2)
        assert render_poly(f, OrderSpec()) == "x1^2*x2 + x1*x2^2"
        assert render_poly(f, OrderSpec(kind=GREVLEX)) == "x1^2*x2 + x1*x2^2"

    def test_unit_coefficient_suppressed(self):
        assert render_poly(P("1*x1")) == "x1"
        assert render_poly(P("-1*x1")) == "-x1"


class TestRoundTrip:
    def test_random_round_trips(self):
        rng = random.Random(70)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            f = random_poly(rng, nvars, 6, 8, allow_constant=True)
            text = render_poly(f)
            reparsed = parse_poly(text, min_nvars=f.nvars).poly
            assert reparsed == f
            # render∘parse∘render is a fixed point
            assert render_poly(reparsed) == text

    def test_mutations_never_crash(self):
        rng = random.Random(71)
        alphabet = "x123456789+-*/^ ()abc.\n"
        for _ in range(300):
            f = random_poly(rng, rng.randint(1, 3), 5, 5, allow_constant=True)
            chars = list(render_poly(f))
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars) + 1) if chars else 0
                if op == 0 and chars:
                    chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
                elif op == 1:
                    chars.insert(pos, rng.choice(alphabet))
                elif op == 2 and chars:
                    del chars[min(pos, len(chars) - 1)]
            text = "".join(chars)
            try:
                parse_poly(text)
            except ParseError:
                pass
