import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import closedpoly.parsing as parsing
from closedpoly.orders import GREVLEX, OrderSpec
from closedpoly.parsing import ParseError, parse_poly, render_poly, render_uni
from closedpoly.poly import MAX_EXPONENT, MAX_VARIABLES, MultiPoly, PolyError, UniPoly, compose_uni

from conftest import P, random_outer, random_poly
from oracles import reference_parse


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

    def test_zero_power_factors_combine(self):
        # x2^0*x1 and x1 are one monomial although they are written differently
        assert parse_poly("x1^0 + 1").poly == MultiPoly.constant(1, 2)
        assert parse_poly("x1*x2^0 + x1").poly == MultiPoly(2, {(1, 0): 2})
        assert parse_poly("x2^0*x1 - x1").poly.is_zero()
        assert parse_poly("2 + x3^0").nvars == 3
        # so are terms whose factors differ in order or repeat
        assert parse_poly("x2*x1 + x1*x2").poly == MultiPoly(2, {(1, 1): 2})
        assert parse_poly("x1*x1 - x1^2").poly.is_zero()
        assert parse_poly("x3^0*x2*x1 + x1*x2").nvars == 3

    @pytest.mark.parametrize("text, nvars, items", [
        ("0*x1 + x2", 2, [((0, 1), 1)]),
        ("x1*x2 - x2*x1 + x1", 2, [((1, 0), 1)]),
        ("x1 + x2 - x1 + x1", 2, [((1, 0), 1), ((0, 1), 1)]),
        ("0*x2 + x1 + x2", 2, [((0, 1), 1), ((1, 0), 1)]),  # where x2 first appeared
        ("x1 - x1", 1, []),
        ("x1 + 2*x2 - 1/2", 2, [((1, 0), 1), ((0, 1), 2), ((0, 0), Fraction(-1, 2))]),
    ])
    def test_zeros_dropped_in_first_appearance_order(self, text, nvars, items):
        parsed = parse_poly(text)
        assert (parsed.nvars, parsed.poly.nvars, list(parsed.poly.terms.items())) == (nvars, nvars, items)
        assert all(type(c) is Fraction for c in parsed.poly.terms.values())

    def test_matches_merge_then_filter(self, monkeypatch):
        """Seeded texts with repeated monomials, zero coefficients and
        cancelling terms, through both readers: the same nvars, terms and term
        order as merging every term and then dropping the zeros."""
        rng = random.Random(4901)
        seen = {"zero read": 0, "merged": 0, "neither": 0}
        for _ in range(1500):
            nvars, pool = rng.randint(1, 4), []
            for _ in range(rng.randint(1, 6)):
                pool.append("*".join(rng.sample([f"x{i}^{rng.randint(0, 3)}" for i in range(1, nvars + 1)],
                                                rng.randint(0, nvars))))
            pieces = []
            for _ in range(rng.randint(1, 8)):
                num = rng.choice([0, 1, 2, 3, 7]) if rng.random() < 0.8 else 0
                coeff = f"{num}/{rng.randint(1, 3)}" if rng.random() < 0.3 else str(num)
                mono = rng.choice(pool)
                term = f"{coeff}*{mono}" if mono else coeff
                pieces.append(rng.choice("+-") + " " + term)
            text = " ".join(pieces)
            want = reference_parse(text)
            _, coeffs, zero, _ = parsing._scan(text)
            seen["zero read" if zero else "merged" if len(want[1]) < len(coeffs) else "neither"] += 1
            for reader in (parsing._accepted, lambda text: None):
                with monkeypatch.context() as patch:
                    patch.setattr(parsing, "_accepted", reader)
                    parsed = parse_poly(text)
                assert (parsed.nvars, list(parsed.poly.terms.items())) == want, text
        assert min(seen.values()) > 100, seen

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
    # an x that no ASCII digit follows, and an upper-case X
    ("x + 1", 1, 1, "unexpected character 'x'"),
    ("2*x", 1, 3, "unexpected character 'x'"),
    ("x1*x\u0661", 1, 4, "unexpected character 'x'"),
    ("x1^2 +\n  x^3", 2, 3, "unexpected character 'x'"),
    ("x1 + X2", 1, 6, "unexpected character 'X'"),
    # a str carries no byte-order mark: only the CLI's file and stdin reader drops one
    ("\ufeffx1", 1, 1, "unexpected character '\\ufeff'"),
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
    ("x1 + x1^" + "9" * 5000, 1, 9, "exponent <5000 digits> exceeds the supported bound"),
    ("x1 +\n x" + "9" * 5000, 2, 2,
     f"variable index <5000 digits> exceeds the supported bound {MAX_VARIABLES}"),
    # a bounded run is quoted in full up to 40 digits (leading zeros aside)
    ("x2^00" + "9" * 40, 1, 4, "exponent " + "9" * 40 + " exceeds the supported bound"),
    ("x3^" + "9" * 41, 1, 4, "exponent <41 digits> exceeds the supported bound"),
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

    def test_numbers_past_the_int_string_limit(self):
        # computed, not parsed: both parts of a coefficient are printed in full
        big = 10 ** (_LIMIT + 1) + 1
        f = MultiPoly(1, {(1,): Fraction(big, 3), (0,): Fraction(-1, big)})
        assert render_poly(f) == f"{Decimal(big)}/3*x1 - 1/{Decimal(big)}"
        assert render_uni(UniPoly([big, 0, -big])) == f"-{Decimal(big)}*t^2 + {Decimal(big)}"


class TestRoundTrip:
    def test_random_round_trips(self):
        rng = random.Random(70)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            f = random_poly(rng, nvars, 6, 8, allow_constant=True)
            text = render_poly(f)
            reparsed = parse_poly(text, min_nvars=f.nvars).poly
            assert reparsed == f
            # built unchecked, yet the same as the validating constructor's result
            assert reparsed == MultiPoly(reparsed.nvars, reparsed.terms)
            assert all(type(c) is Fraction and c for c in reparsed.terms.values())
            # render∘parse∘render is a fixed point
            assert render_poly(reparsed) == text

    def test_mutations_never_crash(self):
        rng = random.Random(71)
        for _ in range(300):
            f = random_poly(rng, rng.randint(1, 3), 5, 5, allow_constant=True)
            try:
                parse_poly(mutated(rng, render_poly(f)))
            except ParseError:
                pass


def mutated(rng, text, alphabet="x123456789+-*/^ ()abc.\n"):
    """text with one to four random characters replaced, inserted or deleted."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1) if chars else 0
        if op == 0 and chars:
            chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
        elif op == 1:
            chars.insert(pos, rng.choice(alphabet))
        elif op == 2 and chars:
            del chars[min(pos, len(chars) - 1)]
    return "".join(chars)


def outcome(text, min_nvars=1):
    """What parse_poly gives for text: the parsed terms in order, with nvars and
    each coefficient's type, or the error raised."""
    try:
        parsed = parse_poly(text, min_nvars)
    except ParseError as e:
        return "ParseError", e.message, e.line, e.column
    except PolyError as e:
        return "PolyError", str(e)
    terms = parsed.poly.terms
    return parsed.nvars, parsed.poly.nvars, list(terms.items()), [type(c) for c in terms.values()]


TOKENS = ["-", "3", "/", "2", "*", "x1", "^", "2", "*", "x2", "+", "x13", "^", "0", "-", "7"]
BLANKS = [" ", "\t", "\r\n", "\u00a0", "\u2003", "\u3000", " \t\n "]
ZEROS = "0" * 5000
EDGES = [(blank + blank.join(TOKENS) + blank, 1) for blank in BLANKS] + [(text, 1) for text in [
    "x1*x1^2", "x2^3*x1*x2", "x1^0", "x2^0*x1 - x1", "2 + x3^0",
    f"x{ZEROS}2^{ZEROS}3", "x1^0007 + 00012/0004*x2", f"{ZEROS}7*x1", f"1/{ZEROS}3", "1/00", "1/0",
    "9" * 5000 + "*x1", "x1 + 1/" + "7" * 5000, "x1^" + "9" * 5000, "x" + "9" * 5000,
    "x0", "x00", f"x{MAX_VARIABLES}", f"x{MAX_VARIABLES + 1}", f"x1^{MAX_EXPONENT}",
    f"x1^{MAX_EXPONENT + 1}", f"x1*x1^{MAX_EXPONENT}", f"x1^{MAX_EXPONENT - 1}*x1",
    "", " ", "+", "- -x1", "+x1", "-x1 -", "x1 x2", "2 3", "2*3", "x1*3", "3/", "x1^", "x1 @ x2",
]] + [("x1", MAX_VARIABLES + 1), ("x1 x2", MAX_VARIABLES + 1), ("3", 0), ("x2", 0)]


_TOP = parsing._FAST_INDICES  # the highest index the fast pass reads
KEYS = [  # (text, min_nvars, whether the fast pass reads it): packed-key and factor-text edge cases
    (f"x2^{MAX_EXPONENT - 1}*x2 - x1", 1, True),  # a repeated variable's powers sum to the bound
    (f"x1^{MAX_EXPONENT - 3}*x1*x1^2", 1, True),  # three factors summing to the bound
    ("x3*x1^2*x3^4*x3 + 2*x1", 1, True),  # three factors of x3, apart in the term
    ("2 + x3^0", 1, False),  # a zero exponent adds nothing to the key but raises nvars
    ("x2^0*x1 - x1", 1, False),  # the zero polynomial in 2 variables
    (f"x{_TOP}^5 - x1", 1, True),
    (f"x{_TOP + 1}^5 - x1", 1, False),
    (f"3*x{MAX_VARIABLES} + 1", 1, False),
    ("x1*x2", 5, True),  # min_nvars above the top index
    ("7/3 - 1/3 + 2", 1, True),  # constants only
    ("x2 + 0*x1 - 3 + x2 + 0 - x3 + x1 - 2*x2", 1, True),  # merged terms and zeros: x1 keeps its place
    ("x01^007", 1, True),  # leading zeros within the bounded digit runs
    ("x" + "0" * 10 + "1", 1, False),  # an 11-digit index: past the bounded run
    ("x1^" + "0" * 3999 + "3", 1, False),  # a 4,000-digit power
]
KEY_FAULTS = [  # (text, min_nvars, outcome)
    (f"x2^{MAX_EXPONENT - 1}*x2^2", 1,
     ("ParseError", "accumulated exponent for x2 exceeds the supported bound", 1, len(f"x2^{MAX_EXPONENT - 1}*") + 1)),
    (f"x1^{MAX_EXPONENT - 2}*x1*x1^2", 1,
     ("ParseError", "accumulated exponent for x1 exceeds the supported bound", 1, len(f"x1^{MAX_EXPONENT - 2}*x1*") + 1)),
    ("3", 0, ("PolyError", "nvars must be positive")),
    # monomial runs that _factor, their only check, refuses
    ("x1*12", 1, ("ParseError", "expected '+' or '-', got '*'", 1, 3)),
    ("x1^", 1, ("ParseError", "expected an exponent after '^'", 1, 4)),
    ("x^2", 1, ("ParseError", "unexpected character 'x'", 1, 1)),
    ("x1x2", 1, ("ParseError", "expected '+' or '-', got 'x2'", 1, 3)),
    ("x1^2x3", 1, ("ParseError", "expected '+' or '-', got 'x3'", 1, 5)),
    ("x1**x2", 1, ("ParseError", "expected '+' or '-', got '*'", 1, 3)),
    ("2*x1*", 1, ("ParseError", "expected '+' or '-', got '*'", 1, 5)),
    ("x1^2^3", 1, ("ParseError", "expected '+' or '-', got '^'", 1, 5)),
]


class TestAcceptedInputPass:
    """The regex pass is checked against the token scanner, which is the
    reference: both give the same parse, or the same error."""

    @staticmethod
    def assert_same_as_scanner(monkeypatch, text, min_nvars=1):
        accepted = parsing._accepted(text)
        if accepted is not None:  # the scanner gives the same keys, coefficients, zero flag and top index
            scanned = parsing._scan(text)
            assert scanned == accepted
            assert [type(c) for c in scanned[1]] == [type(c) for c in accepted[1]] == [Fraction] * len(scanned[1])
        got = outcome(text, min_nvars)
        with monkeypatch.context() as patch:
            patch.setattr(parsing, "_accepted", lambda text: None)
            assert outcome(text, min_nvars) == got

    @pytest.mark.parametrize("text, min_nvars", EDGES, ids=[repr(text[:30]) for text, _ in EDGES])
    def test_edge_cases(self, monkeypatch, text, min_nvars):
        self.assert_same_as_scanner(monkeypatch, text, min_nvars)

    @pytest.mark.parametrize("text, min_nvars, fast", KEYS, ids=[repr(text[:30]) for text, _, _ in KEYS])
    def test_packed_key_edges(self, monkeypatch, text, min_nvars, fast):
        assert (parsing._accepted(text) is not None) == fast
        parsed = parse_poly(text, min_nvars)
        assert (parsed.nvars, list(parsed.poly.terms.items())) == reference_parse(text, min_nvars)
        self.assert_same_as_scanner(monkeypatch, text, min_nvars)

    @pytest.mark.parametrize("text, min_nvars, want", KEY_FAULTS, ids=[repr(text[:30]) for text, _, _ in KEY_FAULTS])
    def test_packed_key_faults(self, monkeypatch, text, min_nvars, want):
        assert outcome(text, min_nvars) == want
        self.assert_same_as_scanner(monkeypatch, text, min_nvars)

    def test_rendered_and_mutated(self, monkeypatch):
        rng = random.Random(72)
        for _ in range(300):
            f = random_poly(rng, rng.randint(1, 3), 5, 5, allow_constant=True)
            text = render_poly(f)
            self.assert_same_as_scanner(monkeypatch, text, f.nvars)
            self.assert_same_as_scanner(monkeypatch, mutated(rng, text))

    @pytest.mark.parametrize("text", [
        "x1 +" + " " * 20000, " " * 20000, "\n" * 20000, "2 *" + " " * 20000,
        "2" + " " * 20000 + "/" + " " * 20000 + "x", "x1" + " " * 20000 + "+" + " " * 20000 + "@",
    ], ids=["sign", "blanks", "newlines", "star", "slash", "gap"])
    def test_long_blank_runs_fail_fast(self, monkeypatch, text):
        # one way to split a blank run, and the pass stops at its first miss: no cubic search
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_poly(text)
        assert time.perf_counter() - start < 1.0
        self.assert_same_as_scanner(monkeypatch, text)

    def test_cached_factor_texts_are_short(self, monkeypatch):
        # the factor cache outlives a call, so no long run of the input may become
        # a key: _factor refuses every long text it is handed, and lru_cache
        # stores no call that raised
        seen = []
        factor = parsing._factor
        monkeypatch.setattr(parsing, "_factor", lambda text: seen.append(text) or factor(text))
        for text in ["x1" + " " * 5000 + "^2", "x1 *" + " " * 5000 + "x2", f"x{ZEROS}1 + x2",
                     f"x1^{ZEROS}2*x2", f"x2*x1^{MAX_EXPONENT} - 3*x{MAX_VARIABLES}"]:
            parse_poly(text)
        long = [text for text in seen if len(text) > 2 * parsing._BOUND_DIGITS + 2]
        assert long
        for text in long:
            with pytest.raises(ValueError):
                factor.__wrapped__(text)

    def test_factor_cache_holds_little(self):
        # the factor cache outlives a call: fill it with the highest-index
        # factors that input can put there, then bound what its keys take
        factor = parsing._factor
        factor.cache_clear()
        texts = [f"x{index}^{power}" for index in range(1, 400) for power in range(1, 21)]
        for text in texts:
            parse_poly(text)

        def keyed(text):
            try:
                return factor.__wrapped__(text)
            except ValueError:
                return None

        # distinct texts, one lookup each, so the cache holds the last keys made
        cached = [key for key in map(keyed, texts) if key is not None][-factor.cache_info().maxsize:]
        assert factor.cache_info().currsize == len(cached) > 0
        assert sum(map(sys.getsizeof, cached)) <= 2**20

    def test_rendered_input_never_reaches_the_scanner(self, monkeypatch):
        def scanner(text):
            raise AssertionError(f"the scanner read {text[:40]!r}")

        rng = random.Random(73)
        texts = [render_poly(random_poly(rng, rng.randint(1, 4), 6, 8, allow_constant=True))
                 for _ in range(200)]
        # a composite like the benchmark's largest: h of 10 terms in 6 variables, deg F 5
        h = MultiPoly(6, {tuple(rng.randint(0, 2) for _ in range(6)):
                          Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(10)})
        F = random_outer(rng, 5)
        while F.degree() < 5:
            F = random_outer(rng, 5)
        big = compose_uni(F, h)
        assert len(big.terms) > 1000 and big.nvars == 6
        assert any(c.denominator > 1 for c in big.terms.values())
        monkeypatch.setattr(parsing, "_scan", scanner)
        for text in texts:
            parse_poly(text)
        assert parse_poly(render_poly(big)).poly == big

    def test_term_regex_matches_as_the_greedy_pattern(self):
        # the same pieces with no possessive marks, the oracle
        mono = r"x[0-9^*x]*"
        greedy = re.compile(rf"\s*(?:([-+])\s*)?(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*\s*({mono}))?|({mono}))\s*")
        # the speed-up cannot be dropped silently
        assert all(mark in parsing._TERM_RE.pattern for mark in (r"\s*+", "?+", "[0-9]++", "]*+"))
        alphabet = [" ", "\t", "\n", "\xa0", "x", "x1", "x2", "0", "1", "9", "007",
                    "1" * (parsing._BOUND_DIGITS + 2), "+", "-", "*", "/", "^"]
        rng = random.Random(74)
        texts = ["".join(rng.choices(alphabet, k=rng.randint(0, 16))) for _ in range(6000)]
        # rendered terms, with coefficients and several factors, mutated by the same tokens
        texts += [mutated(rng, render_poly(random_poly(rng, 3, 4, 3)), alphabet) for _ in range(1000)]
        for text in texts:
            for pos in range(len(text) + 1):  # rejected text and offsets included
                got, want = parsing._TERM_RE.match(text, pos), greedy.match(text, pos)
                assert (got and (got.span(), got.groups())) == (want and (want.span(), want.groups())), (text, pos)
