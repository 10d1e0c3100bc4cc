import argparse
import codecs
import io
import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import closedpoly.family
import closedpoly.newton
from closedpoly.cli import _COMMANDS, build_parser, main
from closedpoly.parsing import render_poly
from closedpoly.poly import MultiPoly, compose_uni
from conftest import P, random_outer, random_poly, run_cli_capped
from oracles import reference_build_parser

EX1 = "x1^4 + 2*x1^2*x2 + x2^2\n"
DEG6 = (
    "x1^2*x2^4 - 2*x1^2*x2^3 + 2*x1*x2^3 + x1^2*x2^2"
    " - 2*x1*x2^2 + x2^2 + 1\n"
)
STEIN_F = "-1: 1^2, 2^2\n-2: 1, 2, 3\n*: 3, 3\n"


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="poly.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def byte_stdin(data):
    """A stdin as the interpreter opens it in a cp1252 locale: text over bytes,
    str given as its UTF-8 encoding."""
    return io.TextIOWrapper(io.BytesIO(data.encode() if isinstance(data, str) else data), encoding="cp1252")


def run(capsys, *argv, stdin=None):
    with pytest.MonkeyPatch.context() as mp:
        if stdin is not None:
            mp.setattr("sys.stdin", byte_stdin(stdin))
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, stdin=None):
    code, out, err = run(capsys, *argv, "--json", stdin=stdin)
    assert code == 0, err
    return json.loads(out)


class TestDecompose:
    def test_human_output(self, capsys, poly_file):
        code, out, _ = run(capsys, "decompose", "--poly", poly_file(EX1))
        assert code == 0
        assert "h:      x1^2 + x2" in out
        assert "F(t):   t^2" in out
        assert "closed: False" in out

    def test_json_output(self, capsys, poly_file):
        payload = run_json(capsys, "decompose", "--poly", poly_file(DEG6))
        assert payload["h"] == "x1*x2^2 - x1*x2 + x2"
        assert payload["F"] == "t^2 + 1"
        assert payload["closed"] is False
        assert payload["trace"] == [[2, "verified"]]

    def test_no_newton_trace(self, capsys, poly_file):
        payload = run_json(
            capsys, "decompose", "--poly", poly_file(EX1), "--no-newton"
        )
        assert payload["trace"] == [[4, "mismatch"], [2, "verified"]]
        assert payload["pruned"] is False

    def test_stdin(self, capsys):
        payload = run_json(capsys, "decompose", "--poly", "-", stdin=EX1)
        assert payload["h"] == "x1^2 + x2"

    @pytest.mark.parametrize("text, extra, trace", [
        ("x1^4 + x2\n", [], "(empty; d1 = 1 after Newton pruning)"),
        ("x1^3*x2 + x2\n", [], "(empty; leading multiplicity 1)"),
        ("x1^3*x2 + x2\n", ["--no-newton"], "(empty; leading multiplicity 1)"),
    ], ids=["pruned", "leading-multiplicity-1", "leading-multiplicity-1-unpruned"])
    def test_empty_trace_says_why(self, capsys, poly_file, text, extra, trace):
        code, out, err = run(capsys, "decompose", "--poly", poly_file(text), *extra)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"trace:  {trace}"
        assert run_json(capsys, "decompose", "--poly", poly_file(text), *extra)["trace"] == []

    def test_attempt_over_the_cap_is_dropped(self, capsys, poly_file):
        # d(lm) = 24, g0 = 2, d1 = 1: the attempt at k = 2 would list the
        # monomials below x1^12 in 9 variables, over the cap
        text = "x1^24 + 2*x1^12*x9 + x9^2 + x2^4 + x3^4 + x2^3*x3^3\n"
        code, out, err = run(capsys, "decompose", "--poly", poly_file(text), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["closed"], payload["trace"]) == (True, [])

    def test_grevlex(self, capsys, poly_file):
        payload = run_json(
            capsys, "decompose", "--poly", poly_file(EX1), "--order", "grevlex"
        )
        assert payload["order"] == "grevlex"
        assert payload["h"] == "x1^2 + x2"


class TestIsClosed:
    def test_closed(self, capsys, poly_file):
        payload = run_json(capsys, "is-closed", "--poly", poly_file("x1*x2 + x1\n"))
        assert payload["closed"] is True
        assert payload["fast_path"] is True

    def test_not_closed(self, capsys, poly_file):
        payload = run_json(capsys, "is-closed", "--poly", poly_file(EX1))
        assert payload["closed"] is False
        assert payload["fast_path"] is False


class TestNewton:
    def test_quartic(self, capsys, poly_file):
        payload = run_json(capsys, "newton", "--poly", poly_file(EX1))
        assert payload["support"] == [[0, 2], [2, 1], [4, 0]]
        assert payload["v0"] == [[0, 2], [4, 0]]
        assert payload["d_leading"] == 4
        assert payload["d1"] == 2
        assert payload["divisors_plain"] == [4, 2]
        assert payload["divisors_pruned"] == [2]
        # each V0 point has a positive realizing weight vector
        assert set(payload["realizing_weights"]) == {"[0, 2]", "[4, 0]"}
        for ws in payload["realizing_weights"].values():
            assert len(ws) == 2


class TestDepend:
    def test_dependent(self, capsys, poly_file):
        code, out, _ = run(
            capsys,
            "depend",
            "--f",
            poly_file(EX1, "f.txt"),
            "--g",
            poly_file("x1^2 + x2\n", "g.txt"),
        )
        assert code == 0
        assert "algebraically dependent: True" in out

    def test_independent_lists_minors(self, capsys, poly_file):
        payload = run_json(
            capsys,
            "depend",
            "--f",
            poly_file("x2\n", "f.txt"),
            "--g",
            poly_file("x1 + x2\n", "g.txt"),
        )
        assert payload["dependent"] is False
        assert payload["nonzero_minors"] == {"(1,2)": "-1"}

    @pytest.mark.parametrize("f, g, minor", [
        ("x1^2", "x1*x2 + x2", "2*x1^2 + 2*x1"),
        ("x1*x2 + x2", "x1^2", "-2*x1^2 - 2*x1"),
    ], ids=["g-has-more", "f-has-more"])
    def test_inputs_with_different_variable_counts(self, capsys, poly_file, f, g, minor):
        payload = run_json(
            capsys,
            "depend",
            "--f",
            poly_file(f + "\n", "f.txt"),
            "--g",
            poly_file(g + "\n", "g.txt"),
        )
        assert payload["dependent"] is False
        assert payload["nonzero_minors"] == {"(1,2)": minor}

    def test_both_inputs_on_stdin_rejected(self, capsys, monkeypatch):
        stdin = byte_stdin(EX1)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "depend", "--f", "-", "--g", "-")
        assert (code, out, err) == (2, "", "error: --f and --g cannot both read stdin\n")
        assert stdin.buffer.tell() == 0  # rejected before anything is read

    @pytest.mark.parametrize("flag", ["--f", "--g"])
    def test_a_parse_error_names_its_option(self, capsys, poly_file, flag):
        files = {"--f": poly_file(EX1, "f.txt"), "--g": poly_file("x1^2 + x2\n", "g.txt")}
        files[flag] = poly_file("x1 + @\n", "bad.txt")
        code, out, err = run(capsys, "depend", "--f", files["--f"], "--g", files["--g"])
        assert (code, out, err) == (1, "", f"error: {flag}: line 1, column 6: unexpected character '@'\n")

    def test_minors_past_the_int_string_limit(self, capsys, poly_file):
        # 3,000-digit coefficients are read; their 6,000-digit product is printed in full
        a, b = int("7" * 3000), int("3" * 3000)
        argv = ("depend", "--f", poly_file(f"{a}*x1*x2 + x1\n", "f.txt"),
                "--g", poly_file(f"{b}*x1^2 + x2^3\n", "g.txt"))
        minor = f"{Decimal(3 * a)}*x2^3 - {Decimal(2 * a * b)}*x1^2 + 3*x2^2"
        assert run(capsys, *argv) == (0, f"algebraically dependent: False\n  minor (1,2) = {minor}\n", "")
        assert run_json(capsys, *argv)["nonzero_minors"] == {"(1,2)": minor}


class TestFamily:
    def test_split_case(self, capsys, poly_file):
        payload = run_json(
            capsys, "family", "--poly", poly_file(DEG6), "--mu", "-2"
        )
        assert payload["alpha"] == "1"
        assert payload["shifts"] == [["1", 1], ["-1", 1]]
        assert payload["residual"] == "1"
        assert payload["verified"] is True

    def test_rootless_case(self, capsys, poly_file):
        code, out, _ = run(capsys, "family", "--poly", poly_file(DEG6), "--mu", "5")
        assert code == 0
        assert "shifts:   (none)" in out
        assert "residual: t^2 + 6" in out

    def test_exceptional_image(self, capsys, poly_file):
        payload = run_json(
            capsys, "family", "--poly", poly_file(DEG6), "--mu", "-1",
            "--eh", "0,-1",
        )
        assert payload["E_f"] == ["-2", "-1"]

    def test_text_output(self, capsys, poly_file):
        code, out, _ = run(capsys, "family", "--poly", poly_file(EX1), "--mu=-1/4", "--eh=1/3,-2")
        assert code == 0
        assert out == (
            "h:        x1^2 + x2\n"
            "F(t):     t^2\n"
            "mu:       -1/4\n"
            "alpha:    1\n"
            "shifts:   (h + 1/2), (h - 1/2)\n"
            "residual: 1\n"
            "verified: True\n"
            "E(f):     {-4, -1/9}\n"
        )
        code, out, _ = run(capsys, "family", "--poly", poly_file(EX1), "--mu", "0")
        assert "shifts:   (h + 0)^2\n" in out

    def test_rational_mu(self, capsys, poly_file):
        payload = run_json(
            capsys, "family", "--poly", poly_file(EX1), "--mu", "1/4"
        )
        assert payload["verified"] is True

    @pytest.mark.parametrize("separate, attached", [
        (["--mu", "-1/4"], ["--mu=-1/4"]),
        (["--mu", "-3", "--eh", "-1/2,3"], ["--mu=-3", "--eh=-1/2,3"]),
    ], ids=["mu", "mu-and-eh"])
    def test_negative_value_as_separate_argument(self, capsys, poly_file, separate, attached):
        path = poly_file(EX1)
        got = run(capsys, "family", "--poly", path, *separate, "--json")
        assert got == run(capsys, "family", "--poly", path, *attached, "--json")
        assert (got[0], got[2]) == (0, "")

    def test_numbers_past_the_int_string_limit(self, capsys, poly_file):
        # a 3,000-digit e is read; E(f) = -F(-e) = -e^2, 6,000 digits, is printed in full
        e = int("9" * 3000)
        argv = ("family", "--poly", poly_file(EX1), "--mu", "-1", "--eh", f"0,{e}")
        image = f"-{Decimal(e * e)}"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"E(f):     {{{image}, 0}}"
        payload = run_json(capsys, *argv)
        assert (payload["E_h"], payload["E_f"]) == (["0", str(Decimal(e))], [image, "0"])

    def test_flag_takes_no_negative_value(self, capsys, poly_file):
        with pytest.raises(SystemExit) as exc:
            main(["family", "--poly", poly_file(EX1), "--mu", "1", "--json", "-1/4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: -1/4\n")


class TestStein:
    def test_f_mode(self, capsys, poly_file):
        payload = run_json(
            capsys, "stein", "--data", poly_file(STEIN_F, "data.txt"),
            "--mode", "f", "--d", "3",
        )
        assert (payload["lhs"], payload["rhs"], payload["holds"]) == (1, 3, True)

    def test_h_mode(self, capsys, poly_file):
        code, out, _ = run(
            capsys, "stein",
            "--data", poly_file("0: 1, 2\n-1: 1, 2\n*: 3\n", "data.txt"),
            "--mode", "h",
        )
        assert code == 0
        assert "holds: True" in out


class TestSaturate:
    def test_staircase(self, capsys):
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,3")
        assert payload["saturation_generators"] == [[1, 0], [1, 1], [1, 2], [1, 3]]
        assert payload["is_saturated"] is False
        assert payload["bound"] == 4
        assert payload["exact"] is True

    def test_saturated(self, capsys):
        payload = run_json(capsys, "saturate", "--gens", "1,0;0,1")
        assert payload["is_saturated"] is True

    def test_three_variables_default_bound_is_complete(self, capsys):
        # (1,3,1) is half the sum of the generators: in the cone, not in the monoid
        code, out, _ = run(capsys, "saturate", "--gens", "0,1,1;1,2,1;1,3,0")
        assert code == 0
        assert out == (
            "bound:                 9\n"
            "saturation generators: [(0, 1, 1), (1, 2, 1), (1, 3, 0), (1, 3, 1)]\n"
            "is saturated:          False\n"
        )

    def test_one_variable_is_exact(self, capsys):
        code, out, err = run(capsys, "saturate", "--gens", "2")
        assert (code, err) == (0, "")
        assert out == (
            "bound:                 2\n"
            "saturation generators: [(1,)]\n"
            "is saturated:          False\n"
        )
        assert run_json(capsys, "saturate", "--gens", "2;3")["exact"] is True

    def test_unit_cone_in_three_variables(self, capsys):
        # the primitive generators are the unit vectors: one parallelepiped, |det| = 1
        start = time.perf_counter()
        payload = run_json(capsys, "saturate", "--gens", "50,0,0;0,50,0;0,0,50")
        assert time.perf_counter() - start < 60
        assert payload["saturation_generators"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert payload["is_saturated"] is False
        assert payload["exact"] is True
        assert payload["bound"] == 149

    def test_staircase_of_1001(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,1000")
        assert time.perf_counter() - start < 60
        assert payload["saturation_generators"] == [[1, j] for j in range(1001)]
        assert payload["is_saturated"] is False

    def test_staircase_of_1415(self, capsys):
        # the parallelepiped sieve refused this one: 500,556 tests, over the cap
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,1414")
        assert payload["saturation_generators"] == [[1, j] for j in range(1415)]
        assert payload["exact"] is True

    @pytest.mark.parametrize("bound", ["1000000", "9" * 4000])
    def test_large_explicit_bound(self, capsys, bound):
        # the bound only cuts the answer: no work grows with it
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,2", "--bound", bound)
        assert payload["saturation_generators"] == run_json(
            capsys, "saturate", "--gens", "1,0;1,2")["saturation_generators"]
        assert payload["bound"] == int(bound)

    def test_explicit_bound_does_not_cut_the_enumeration(self, capsys):
        # the bound filters the answer, but every parallelepiped is enumerated
        # whole: |det| of these three generators is 970,300, above the cap
        assert run(capsys, "saturate", "--gens", "99,1,0;0,99,1;1,0,99", "--bound", "100") == (
            2, "", "error: parallelepiped point count 970300 exceeds the cap of 500000\n")

    def test_explicit_bound(self, capsys):
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,2", "--bound", "8")
        assert payload["bound"] == 8
        assert payload["saturation_generators"] == [[1, 0], [1, 1], [1, 2]]

    def test_bound_below_the_default_warns(self, capsys):
        # the default bound is 2 + 2 + 2 - 1 = 5; the whole basis has degree 1
        assert run(capsys, "saturate", "--gens", "2,0,0;0,2,0;0,0,2;1,1,0", "--bound", "3") == (0, (
            "bound:                 3\n"
            "saturation generators: [(0, 0, 1), (0, 1, 0), (1, 0, 0)]\n"
            "is saturated:          False\n"
            "warning: basis elements of degree above the bound are not listed, "
            "and 'is saturated' holds only up to the bound\n"), "")

    @pytest.mark.parametrize("bound", ["0", "1", "-1"])
    def test_bound_below_largest_degree(self, capsys, bound):
        # 0 is an explicit bound like any other, not a request for the default
        assert run(capsys, "saturate", "--gens", "1,0;1,3", "--bound", bound) == (
            2, "", "error: bound is below the largest generator degree\n")


class TestByteOrderMark:
    """Input as Windows editors save it: a UTF-8 byte-order mark first, CRLF
    line ends.  It answers as the plain text does."""

    @pytest.fixture
    def bom_file(self, tmp_path):
        def write(text):
            path = tmp_path / "bom.txt"
            path.write_bytes(codecs.BOM_UTF8 + text.replace("\n", "\r\n").encode())
            return str(path)

        return write

    def test_poly_file(self, capsys, poly_file, bom_file):
        plain = run(capsys, "decompose", "--poly", poly_file(EX1), "--json")
        assert plain[0] == 0
        assert run(capsys, "decompose", "--poly", bom_file(EX1), "--json") == plain

    def test_stein_data(self, capsys, poly_file, bom_file):
        mode = ("--mode", "f", "--d", "3")
        plain = run(capsys, "stein", "--data", poly_file(STEIN_F, "data.txt"), *mode)
        assert plain[0] == 0
        assert run(capsys, "stein", "--data", bom_file(STEIN_F), *mode) == plain

    def test_stdin(self, capsys):
        plain = run(capsys, "is-closed", "--poly", "-", stdin=EX1)
        assert plain[0] == 0
        assert run(capsys, "is-closed", "--poly", "-", stdin="\ufeff" + EX1) == plain


# the line break is read as one, wherever it is read from
AT_LINE_2 = "error: line 2, column 12: unexpected character '@'\n"


@pytest.mark.parametrize("data, code, err", [
    (codecs.BOM_UTF8 + EX1.encode(), 0, ""),
    (b"x1^4 + 2*x1^2*x2\r\n + x2^2\r\n", 0, ""),
    (b"x1^4 +\r\n 2*x1^2*x2 @\r\n", 1, AT_LINE_2),
    (b"x1^4 +\r 2*x1^2*x2 @\r", 1, AT_LINE_2),
    ("x1^2 + x2\u00a0\n".encode(), 0, ""),
    (b"x1^2 + \xff\n", 1, "error: line 1, column 8: invalid UTF-8 byte 0xff\n"),
], ids=["byte-order-mark", "crlf", "crlf-error", "lone-cr-error", "no-break-space", "invalid-utf-8"])
def test_stdin_reads_as_a_file(capsys, tmp_path, data, code, err):
    """stdin's bytes answer as a file's do, whatever the locale's encoding."""
    path = tmp_path / "poly.bin"
    path.write_bytes(data)
    got = run(capsys, "is-closed", "--poly", str(path))
    assert (got[0], got[2]) == (code, err)
    assert run(capsys, "is-closed", "--poly", "-", stdin=data) == got


@pytest.mark.parametrize("data, place, byte", [
    (b"\xff", "line 1, column 1", "0xff"),
    (b"x1^4 +\r\n 2*x1^2*x2 \x80 + x2^2\r\n", "line 2, column 12", "0x80"),
    (b"x1^4 +\r 2*x1^2*x2 \xc0\xaf\r", "line 2, column 12", "0xc0"),
    # the mark and a two-byte no-break space count as the parser counts them
    (codecs.BOM_UTF8 + "x1\u00a0+ x2\u00a0+ ".encode() + b"\xe9\n", "line 1, column 11", "0xe9"),
    (codecs.BOM_UTF8 + b"x1 + \xe2\x82", "line 1, column 6", "0xe2"),
], ids=["first-byte", "crlf", "lone-cr", "after-bom-and-multibyte", "truncated-sequence"])
def test_invalid_utf_8_is_a_parse_error(capsys, tmp_path, data, place, byte):
    """A byte that is not UTF-8 exits 1, placed at the character the parser would read there."""
    path = tmp_path / "in.bin"
    path.write_bytes(data)
    err = f"error: {place}: invalid UTF-8 byte {byte}\n"
    assert run(capsys, "decompose", "--poly", str(path)) == (1, "", err)
    assert run(capsys, "decompose", "--poly", "-", stdin=data) == (1, "", err)
    assert run(capsys, "stein", "--data", str(path), "--mode", "h") == (1, "", err)
    g = tmp_path / "g.txt"
    g.write_text(EX1)
    for flag, argv in (("--g", ("--f", str(g), "--g", str(path))),
                       ("--f", ("--f", str(path), "--g", str(g)))):
        got = run(capsys, "depend", *argv, "--json")
        assert got == (1, "", f"error: {flag}: {place}: invalid UTF-8 byte {byte}\n")


class TestExitCodes:
    def test_parse_error(self, capsys, poly_file):
        code, _, err = run(capsys, "decompose", "--poly", poly_file("x1 + @\n"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("index", ["65537", "99999999999"])
    def test_variable_index_out_of_bound(self, capsys, poly_file, index):
        code, _, err = run(capsys, "decompose", "--poly", poly_file(f"x1 + x{index}\n"))
        assert code == 1
        assert "line 1, column 6" in err and "supported bound" in err

    @pytest.mark.parametrize(
        "text, column",
        [("x1^" + "9" * 5000, 4), ("x1 + " + "9" * 5000, 6)],
        ids=["exponent", "coefficient"],
    )
    def test_over_long_digit_run(self, capsys, poly_file, text, column):
        code, _, err = run(capsys, "decompose", "--poly", poly_file(text + "\n"))
        assert code == 1
        assert f"line 1, column {column}" in err

    def test_data_format_error(self, capsys, poly_file):
        code, _, err = run(
            capsys, "stein", "--data", poly_file("garbage\n", "d.txt"), "--mode", "h"
        )
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "decompose", "--poly", str(tmp_path / "absent.txt")
        )
        assert code == 2

    def test_constant_domain_error(self, capsys, poly_file):
        code, _, err = run(capsys, "decompose", "--poly", poly_file("7\n"))
        assert code == 2
        assert "error:" in err

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize(
        "args, message, limit",
        [
            (["--mu", "1/0"], "error: --mu: zero denominator in '1/0'", LIMIT),
            (["--mu", "1/4", "--eh", "0,-1/0"], "error: --eh: zero denominator in '-1/0'", LIMIT),
            (["--mu", "abc"], "error: --mu: 'abc' is not a rational number", LIMIT),
            (["--mu", "1", "--eh", "0,x1"], "error: --eh: 'x1' is not a rational number", LIMIT),
            (["--mu", "9" * 5000],
             f"error: --mu: a value of 5000 characters exceeds the limit of {LIMIT} digits", LIMIT),
            (["--mu", "1", "--eh", "1/" + "7" * 5000],
             f"error: --eh: a value of 5002 characters exceeds the limit of {LIMIT} digits", LIMIT),
            # no limit (0): a malformed value is not blamed on it
            (["--mu", "abc"], "error: --mu: 'abc' is not a rational number", 0),
            # Fraction() reads these as 10 and 1/2; the polynomial grammar takes ASCII digits only
            (["--mu", "1_0"], "error: --mu: '1_0' is not a rational number", LIMIT),
            (["--mu", "1", "--eh", "0,\u0661/2"], "error: --eh: '\u0661/2' is not a rational number",
             LIMIT),
            # a decimal Fraction() reads fails only by its length
            (["--mu", "1." + "9" * 5000],
             f"error: --mu: a value of 5002 characters exceeds the limit of {LIMIT} digits", LIMIT),
            # Fraction() reads exponents, with which a few characters ask for a huge number;
            # the polynomial grammar has none, at any limit
            (["--mu", "1e16000"], "error: --mu: '1e16000' is not a rational number", LIMIT),
            (["--mu", "1e16000"], "error: --mu: '1e16000' is not a rational number", 0),
            (["--mu", "1E-5"], "error: --mu: '1E-5' is not a rational number", LIMIT),
            (["--mu", "1E-5"], "error: --mu: '1E-5' is not a rational number", 0),
            (["--mu", "1", "--eh", "0,2e3"], "error: --eh: '2e3' is not a rational number", LIMIT),
            (["--mu", "1", "--eh", "0,2e3"], "error: --eh: '2e3' is not a rational number", 0),
            (["--mu", "1", "--eh", "1e99999999"], "error: --eh: '1e99999999' is not a rational number",
             LIMIT),
            (["--mu", "1", "--eh", "1e99999999"], "error: --eh: '1e99999999' is not a rational number",
             0),
        ],
        ids=["mu-zero-denominator", "eh-zero-denominator", "mu-malformed", "eh-malformed",
             "mu-over-long", "eh-over-long", "mu-malformed-no-limit", "mu-underscore",
             "eh-arabic-indic-digit", "mu-decimal-over-long", "mu-exponent", "mu-exponent-no-limit",
             "mu-capital-exponent", "mu-capital-exponent-no-limit", "eh-exponent",
             "eh-exponent-no-limit", "eh-huge-exponent", "eh-huge-exponent-no-limit"],
    )
    def test_bad_rational_argument(self, capsys, poly_file, args, message, limit):
        argv = ("family", "--poly", poly_file(EX1), *args)
        sys.set_int_max_str_digits(limit)
        start = time.perf_counter()
        try:
            text, json_text = run(capsys, *argv), run(capsys, *argv, "--json")
        finally:
            sys.set_int_max_str_digits(self.LIMIT)
        assert time.perf_counter() - start < 10
        assert text == json_text == (2, "", message + "\n")

    @pytest.mark.parametrize("args, mu, residual, shifts", [
        (["--mu", "-1.5"], "-3/2", "t^2 - 3/2", []),
        (["--mu= 3 "], "3", "t^2 + 3", []),
        (["--mu", "-1/4"], "-1/4", "1", [["1/2", 1], ["-1/2", 1]]),
    ], ids=["decimal", "blanks", "fraction"])
    def test_rational_argument_forms(self, capsys, poly_file, args, mu, residual, shifts):
        # a sign, ASCII digits and one "/" or decimal point, with blanks around them
        payload = run_json(capsys, "family", "--poly", poly_file(EX1), *args)
        assert (payload["mu"], payload["residual"], payload["shifts"]) == (mu, residual, shifts)

    @pytest.mark.parametrize(
        "data, message, limit",
        [
            ("ab: 1\n", "error: line 1: bad shift value 'ab'\n", 0),
            ("*: 1\n*: " + "9" * 5000 + "\n",
             f"error: line 2: a factor of 5000 characters exceeds the limit of {LIMIT} digits\n",
             LIMIT),
            # the limit is blamed on the multiplicity alone
            ("*: 1\n*: 1^" + "9" * 5000 + "\n",
             f"error: line 2: a factor of 5000 characters exceeds the limit of {LIMIT} digits\n",
             LIMIT),
            # int() and Fraction() read these as 2 and 10
            ("*: \uff12^2\n", "error: line 1: bad factor '\uff12^2'\n", LIMIT),
            ("1_0: 1\n*: 1\n", "error: line 1: bad shift value '1_0'\n", LIMIT),
            ("1/0: 1\n", "error: line 1: bad shift value '1/0'\n", LIMIT),
            # malformed at any limit, however long
            ("*: a^" + "9" * 5000 + "\n", f"error: line 1: bad factor {'a^' + '9' * 5000!r}\n", LIMIT),
            # Fraction() reads an exponent; the polynomial grammar has none, at any limit
            ("1e100000000: 1\n", "error: line 1: bad shift value '1e100000000'\n", LIMIT),
            ("1e100000000: 1\n", "error: line 1: bad shift value '1e100000000'\n", 0),
        ],
        ids=["shift-malformed-no-limit", "degree-over-long", "multiplicity-over-long",
             "degree-fullwidth-digit", "shift-underscore", "shift-zero-denominator",
             "degree-malformed-over-long", "shift-exponent", "shift-exponent-no-limit"],
    )
    def test_bad_stein_number(self, capsys, poly_file, data, message, limit):
        argv = ("stein", "--data", poly_file(data, "d.txt"), "--mode", "h")
        sys.set_int_max_str_digits(limit)
        start = time.perf_counter()
        try:
            text, json_text = run(capsys, *argv), run(capsys, *argv, "--json")
        finally:
            sys.set_int_max_str_digits(self.LIMIT)
        assert time.perf_counter() - start < 10
        assert text == json_text == (1, "", message)

    @pytest.mark.parametrize("flag, value", [
        ("--d", "1_0"), ("--bound", "\u0661\u0660"),
        # not an integer at any limit, however long
        pytest.param("--bound", "x" + "9" * 5000, id="bound-malformed-over-long"),
        pytest.param("--d", "1/" + "9" * 5000, id="d-fraction-over-long"),
    ])
    def test_int_option_takes_ascii_digits_only(self, capsys, poly_file, flag, value):
        # int() reads 1_0 and \u0661\u0660 as 10; the polynomial grammar reads neither
        argv = {"--d": ["stein", "--data", poly_file(STEIN_F, "d.txt"), "--mode", "f"],
                "--bound": ["saturate", "--gens", "1,0"]}[flag]
        assert run(capsys, *argv, flag, value) == (2, "", f"error: {flag}: {value!r} is not an integer\n")

    @pytest.mark.parametrize("flag", ["--d", "--bound"])
    def test_over_long_int_option(self, capsys, poly_file, flag):
        argv = {"--d": ["stein", "--data", poly_file(STEIN_F, "d.txt"), "--mode", "f"],
                "--bound": ["saturate", "--gens", "1,0"]}[flag]
        code, out, err = run(capsys, *argv, flag, "9" * 5000)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {flag}: a value of 5000 characters exceeds the limit of {self.LIMIT} digits\n"
        )

    @pytest.mark.parametrize(
        "argv, data, code, message",
        [
            # the one parallelepiped of (1,0) and (1,99...9) has |det| = 99...9 points
            (["saturate", "--gens", "1,0;1," + "9" * 4000], None, 2,
             "parallelepiped point count <4000 digits> exceeds the cap of 500000"),
            # the default bound, a generator's degree, is past the int-string limit
            (["saturate", "--gens", ",".join(["9" * LIMIT] * 2)], None, 2,
             f"bound <{LIMIT + 1} digits> is too long to print"),
            (["stein", "--mode", "f", "--d", "9" * 4000], STEIN_F, 1,
             "total degree 6 is not a multiple of d=<4000 digits>"),
            (["stein", "--mode", "f", "--d", "9" * 41], STEIN_F, 1,
             "total degree 6 is not a multiple of d=<41 digits>"),
            (["stein", "--mode", "f", "--d", "9" * 40], STEIN_F, 1,
             "total degree 6 is not a multiple of d=" + "9" * 40),
            (["stein", "--mode", "f", "--d", "3"], "*: 3, " + "9" * 4000 + "\n", 1,
             "factor degree <4000 digits> exceeds the generic degree d=3"),
            (["stein", "--mode", "h"], "*: 3\n-1: " + "9" * 4000 + "\n", 1,
             "entries disagree on the total degree: [3, <4000 digits>]"),
            (["stein", "--mode", "h"], "*: 0^" + "9" * 4000 + "\n", 1,
             "degrees and multiplicities must be positive, got 0^<4000 digits>"),
            # each side of the inequality is printed: rhs = 2 * (10^LIMIT - 1), lhs = 2 - rhs
            (["stein", "--mode", "h"], f"*: {'9' * LIMIT}, {'9' * LIMIT}\n", 2,
             f"rhs <{LIMIT + 1} digits> is too long to print"),
            (["stein", "--mode", "h", "--json"], f"*: {'9' * LIMIT}, {'9' * LIMIT}\n", 2,
             f"rhs <{LIMIT + 1} digits> is too long to print"),
            (["stein", "--mode", "f", "--d", "1"], f"*: 1^{'9' * LIMIT}, 1^{'9' * LIMIT}\n", 2,
             f"lhs <{LIMIT + 1} digits> is too long to print"),
            (["stein", "--mode", "f", "--d", "1", "--json"], f"*: 1^{'9' * LIMIT}, 1^{'9' * LIMIT}\n", 2,
             f"lhs <{LIMIT + 1} digits> is too long to print"),
        ],
        ids=["parallelepiped-count", "derived-bound", "stein-d", "stein-d-41-digits", "stein-d-40-digits", "factor-degree",
             "stein-totals", "stein-nonpositive-factor", "stein-h-rhs", "stein-h-rhs-json", "stein-f-lhs",
             "stein-f-lhs-json"],
    )
    def test_long_number_worded_by_digit_count(self, capsys, poly_file, argv, data, code, message):
        if data is not None:
            argv = argv + ["--data", poly_file(data, "d.txt")]
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_over_long_shift(self, capsys, poly_file):
        data = poly_file("*: 1\n" + "9" * 5000 + ": 1\n", "d.txt")
        code, out, err = run(capsys, "stein", "--data", data, "--mode", "h")
        assert code == 1
        assert out == ""
        assert err == (
            f"error: line 2: a shift value of 5000 characters exceeds the limit of {self.LIMIT} digits\n"
        )

    def test_bad_gens(self, capsys):
        code, _, err = run(capsys, "saturate", "--gens", "1,0;1")
        assert code == 2

    def test_over_long_generator_entry(self, capsys):
        code, out, err = run(capsys, "saturate", "--gens", "1,0;1," + "9" * 5000)
        assert (code, out) == (2, "")
        assert err == (
            "error: bad generator tuple: an entry of 5000 characters exceeds the limit of "
            f"{self.LIMIT} digits\n"
        )

    def test_malformed_generator_entry_is_echoed(self, capsys):
        code, _, err = run(capsys, "saturate", "--gens", "1,0;1,a")
        assert (code, err) == (2, "error: bad generator tuple '1,a'\n")
        # int() reads the first two as (10, 0) and (1, 0), though the polynomial grammar
        # takes ASCII digits only; the third is malformed at any limit, however long
        for chunk in ["1_0,0", "\uff11,0", "a," + "9" * 5000]:
            assert run(capsys, "saturate", "--gens", chunk) == (2, "", f"error: bad generator tuple {chunk!r}\n")
        sys.set_int_max_str_digits(0)  # no limit: no entry can exceed it
        try:
            assert run(capsys, "saturate", "--gens", "1,a")[2] == "error: bad generator tuple '1,a'\n"
        finally:
            sys.set_int_max_str_digits(self.LIMIT)

    def test_stein_f_without_d(self, capsys, poly_file):
        code, _, _ = run(
            capsys, "stein", "--data", poly_file(STEIN_F, "d.txt"), "--mode", "f"
        )
        assert code == 1

    @pytest.mark.parametrize("fault, message", [
        ("missing", "V0 point [0, 2] has no checked realizing weights"),
        ("not-argmax", "realizing weights for (0, 2) failed their check"),
    ], ids=["missing", "not-argmax"])
    def test_newton_unchecked_weights(self, capsys, monkeypatch, poly_file, fault, message):
        if fault == "missing":
            monkeypatch.setattr("closedpoly.cli.realizing_weights", lambda f, v: None)
        else:
            # answer each weight LP with y = 0, so all weights are 1 and (4, 0)
            # outscores (0, 2); v0_set's dominance LPs (with A_eq) run as they are
            real = closedpoly.newton.feasible_point
            monkeypatch.setattr(
                "closedpoly.newton.feasible_point",
                lambda n, **kw: real(n, **kw) if "A_eq" in kw else (1, [0] * n),
            )
        code, out, err = run(capsys, "newton", "--poly", poly_file(EX1))
        assert (code, out, err) == (3, "", f"internal error: {message}\n")

    def test_family_failed_identity(self, capsys, monkeypatch, poly_file):
        # a residual off by a constant: F + mu no longer equals the product
        real = closedpoly.family._split
        monkeypatch.setattr("closedpoly.family._split", lambda G: (real(G)[0], real(G)[1] + 1))
        code, out, err = run(capsys, "family", "--poly", poly_file(DEG6), "--mu", "-2")
        assert (code, out, err) == (3, "", "internal error: product identity for f + mu failed to verify\n")

    @pytest.mark.parametrize("command, flag", [
        (name, flag) for name, (_, _, options) in _COMMANDS.items()
        for flag, keywords in options if "action" not in keywords])
    def test_value_given_as_double_dash(self, capsys, command, flag):
        # argparse reads --mu=-- as an empty list (3.11, 3.12) or as "--" (3.13);
        # main refuses it, and an abbreviation of the option, as --mu --
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "--"])
        assert exc.value.code == 2
        refusal = capsys.readouterr()
        assert refusal.err.endswith(f"error: argument {flag}: expected one argument\n")
        abbreviated = [f"{flag[:-1]}=--"] if len(flag) > 3 else []  # --mu=-- and --m=--
        for token in [f"{flag}=--", *abbreviated]:
            with pytest.raises(SystemExit) as exc:
                main([command, token])
            assert exc.value.code == 2
            assert capsys.readouterr() == refusal

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


# h = x1^2 + 2/5*x1*x2 + 5/7*x1 - 1/3*x2 and F = t^3 - 3/2*t^2 + 1/11*t over the
# primes 2, 3, 5, 7 and 11: f = F(h) has 21 terms with denominators up to 1078
MIXED = (
    "x1^6 + 6/5*x1^5*x2 + 12/25*x1^4*x2^2 + 8/125*x1^3*x2^3 + 15/7*x1^5 + 5/7*x1^4*x2"
    " - 16/35*x1^3*x2^2 - 4/25*x1^2*x2^3 + 3/98*x1^4 - 494/245*x1^3*x2 - 251/525*x1^2*x2^2"
    " + 2/15*x1*x2^3 - 610/343*x1^3 - 18/49*x1^2*x2 + 67/105*x1*x2^2 - 1/27*x2^3"
    " - 727/1078*x1^2 + 289/385*x1*x2 - 1/6*x2^2 + 5/77*x1 - 1/33*x2\n"
)
NEGATIVE = "-3*x1^4 - 6*x1^2*x2 - 3*x2^2 + 7/2\n"
CUBIC = "x1^6 + 3*x1^4*x2 + 3*x1^2*x2^2 + x2^3 - x1^2 - x2\n"  # (h + 1) h (h - 1), h = x1^2 + x2
HUGE = "x1^2147483646 + x2\n"
# 2^31 - 2 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331 has 192 divisors, 191 of them > 1
HUGE_DIVISORS = sorted({prod(c) for c in product(
    (1, 2), (1, 3, 9), (1, 7), (1, 11), (1, 31), (1, 151), (1, 331))} - {1}, reverse=True)
# every monomial of degree <= 100 in two variables: 5,150 generators in one argument
MONOMIALS = ";".join(f"{i},{j}" for i in range(101) for j in range(101 - i) if i + j)


@pytest.mark.parametrize("argv, stdin, code, expected", [
    (["decompose", "--poly", "-", "--no-newton", "--json"], MIXED, 0,
     {"h": "x1^2 + 2/5*x1*x2 + 5/7*x1 - 1/3*x2", "F": "t^3 - 3/2*t^2 + 1/11*t",
      "trace": [[6, "mismatch"], [3, "verified"]]}),
    # the divisors are tried on f as given: F carries the leading coefficient and f(0)
    (["decompose", "--poly", "-", "--json"], NEGATIVE, 0,
     {"h": "x1^2 + x2", "F": "-3*t^2 + 7/2", "trace": [[2, "verified"]]}),
    (["decompose", "--poly", "-", "--no-newton", "--json"], NEGATIVE, 0,
     {"h": "x1^2 + x2", "F": "-3*t^2 + 7/2", "trace": [[4, "mismatch"], [2, "verified"]]}),
    # a divisor whose second term rules it out is rejected before the monomial cap is reached
    (["decompose", "--poly", "-", "--no-newton", "--json"], "x1^24 + x9\n", 0, {"closed": True}),
    # 191 divisors, each rejected before the powers of its candidate leading monomial are listed
    (["newton", "--poly", "-", "--json"], HUGE, 0, {"divisors_plain": HUGE_DIVISORS}),
    (["decompose", "--poly", "-", "--no-newton", "--json"], HUGE, 0, {"closed": True}),
    # a one-term support gives the weight LP no rows; its zero point makes both weights 1
    (["newton", "--poly", "-", "--json"], "x1^2*x2\n", 0, {"realizing_weights": {"[2, 1]": ["1", "1"]}}),
    (["decompose", "--poly", "-"], "x1^" + "9" * 4000 + "\n", 1,
     "error: line 1, column 4: exponent <4000 digits> exceeds the supported bound\n"),
    (["family", "--poly", "-", "--mu", "-1", "--json"], EX1, 0,
     {"F": "t^2", "shifts": [["1", 1], ["-1", 1]], "residual": "1", "verified": True}),
    (["family", "--poly", "-", "--mu", "0", "--json"], CUBIC, 0,
     {"F": "t^3 - t", "shifts": [["1", 1], ["0", 1], ["-1", 1]], "residual": "1", "verified": True}),
    (["saturate", "--gens", "2,0,0;0,2,0;0,0,2;1,1,0", "--json"], None, 0,
     {"saturation_generators": [[0, 0, 1], [0, 1, 0], [1, 0, 0]], "is_saturated": False}),
    (["saturate", "--gens", MONOMIALS, "--json"], None, 0,
     {"saturation_generators": [[0, 1], [1, 0]], "is_saturated": True}),
    # empty chunks are skipped
    (["saturate", "--gens", "1,0;;1,3;", "--json"], None, 0,
     {"generators": [[1, 0], [1, 3]], "saturation_generators": [[1, 0], [1, 1], [1, 2], [1, 3]]}),
    (["saturate", "--gens", ";"], None, 2, "error: no generators supplied\n"),
], ids=["mixed-denominators-unpruned", "negative-leading", "negative-leading-unpruned",
        "sparse-24-unpruned", "huge-exponent-newton", "huge-exponent-unpruned", "one-term-newton",
        "long-exponent", "family-square", "family-cubic", "saturate-three-variables",
        "saturate-monomials-to-100", "saturate-empty-chunks", "saturate-no-generators"])
def test_command(capsys, argv, stdin, code, expected):
    """One call: its exit code, and its JSON fields or its exact stderr, in under 60 s."""
    start = time.perf_counter()
    got = run(capsys, *argv, stdin=stdin)
    assert time.perf_counter() - start < 60
    if isinstance(expected, dict):
        assert (got[0], got[2]) == (code, "")
        payload = json.loads(got[1])
        assert {key: payload[key] for key in expected} == expected
    else:
        assert got == (code, "", expected)


@pytest.mark.parametrize("text, argv", [
    ("x1^2147483647", ["decompose", "--poly", "-"]),
    ("x1^2147483647", ["is-closed", "--poly", "-"]),
    ("x1^2147483646 + x1", ["decompose", "--poly", "-", "--no-newton"]),
], ids=["prime-exponent", "prime-exponent-is-closed", "unpruned-second-term"])
def test_huge_divisor_fails_fast_in_bounded_memory(text, argv):
    # a divisor k that passes the early exit would build k + 1 powers of the
    # candidate's leading monomial, all of the machine's memory at k = 2^31 - 1
    k = int(text.split()[0][3:])
    code, out, err, seconds = run_cli_capped(argv, text + "\n")
    assert (code, out, err) == (2, "", f"error: divisor {k} exceeds the supported bound 500000\n")
    assert seconds < 1.0


def test_large_divisor_under_the_bound_answers():
    code, out, err, _ = run_cli_capped(["decompose", "--poly", "-", "--json"], "x1^400000\n")
    assert (code, err) == (0, "")
    assert json.loads(out)["trace"] == [[400000, "verified"]]


# argv lists on which main answers as with the parser that gives every subcommand
# its options; sys.argv[1:] stands in for argv=None (None below).  EX1 is on
# stdin, and g.txt and data.txt are in the working directory.
SYS_ARGV = ["newton", "--poly", "-", "--json"]
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["no-such-command"], ["-h", "decompose"],
    ["decompose", "-h"], ["is-closed", "-h"], ["newton", "-h"], ["depend", "-h"],
    ["family", "-h"], ["stein", "-h"], ["saturate", "-h"],
    ["decompose"], ["decompose", "--poly", "-", "--order", "lex"],
    ["is-closed", "--poly", "-", "--js"], ["decompose", "--poly", "-", "extra", "--more"],
    ["--json", "decompose", "--poly", "-"], ["--", "decompose", "--poly", "-"],
    ["-", "decompose", "--poly", "-"], ["-3", "decompose", "--poly", "-"],
    None,
    # every subcommand with all its options, parsed in one pass by its own parser
    ["decompose", "--poly", "-", "--order=grevlex", "--no-newton", "--json"],
    ["is-closed", "--order", "grevlex", "--poly", "-", "--json"],
    ["newton", "--poly", "g.txt", "--poly", "-", "--order=grlex", "--json"],
    ["depend", "--f", "-", "--g", "g.txt", "--json"],
    ["family", "--poly", "-", "--mu", "-1/4", "--eh", "0,1", "--order", "grevlex", "--json"],
    ["family", "--poly", "-", "--mu=-3", "--eh", "-1/2,3"],
    ["stein", "--data", "data.txt", "--mode", "f", "--d", "3", "--json"],
    ["saturate", "--gens", "1,0", "--gens=1,0;1,3", "--bound", "8", "--json"],
    ["saturate", "--gens", "1,0;1,3", "--bound", "-1"],
    # help and refusals after a subcommand: its parser's, or the full parser's for a leftover
    ["family", "--poly", "-", "--mu", "1", "--he"], ["stein", "--mode", "h", "-h"],
    ["family", "--poly", "-", "--mu"], ["family", "--poly", "-", "--mu", "1", "--json=1"],
    ["stein", "--data", "data.txt", "--mode", "g"], ["saturate", "--gens", "1,0", "--"],
    ["saturate", "--gens", "1,0", "--", "--json"], ["newton", "--poly", "-", "--version"],
    # tokens left over, a top-level option's prefix, "--" and a repeated flag after the
    # subcommand; "--=x", which the full parser refuses as ambiguous before it dispatches
    ["decompose", "--poly", "-", "extra"], ["decompose", "--poly", "-", "--vers"],
    ["decompose", "--", "--poly", "-"], ["decompose", "--poly", "-", "--json", "--json"],
    ["depend", "--f", "-", "--g", "g.txt", "extra", "more"],
    ["decompose", "--poly", "-", "--=x"], ["family", "--=x", "--poly", "-", "--mu", "1"],
]


def answer(capsys, monkeypatch, argv):
    """main's exit code (or SystemExit code), stdout and stderr, with EX1 on stdin."""
    monkeypatch.setattr("sys.stdin", byte_stdin(EX1))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_passes(monkeypatch) -> list:
    """The parser of every argparse pass from now on (parse_args makes one too)."""
    passes = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **keywords):
        passes.append(self)
        return real(self, *args, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return passes


def whole_reference_parser() -> argparse.ArgumentParser:
    """The reference parser with no subcommand map, so main parses every call whole."""
    parser = reference_build_parser()
    parser.subcommands = {}
    return parser


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: repr(argv))
def test_parser_matches_reference(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.argv", ["closedpoly", *SYS_ARGV])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("x1^2 + x2\n")
    (tmp_path / "data.txt").write_text(STEIN_F)
    got = answer(capsys, monkeypatch, argv)
    monkeypatch.setattr("closedpoly.cli.build_parser", whole_reference_parser)
    passes = record_passes(monkeypatch)
    assert got == answer(capsys, monkeypatch, argv)
    assert passes[0].prog == "closedpoly"  # the reference answer comes from a full parse


def test_a_valid_call_makes_one_parse_pass(capsys, monkeypatch, poly_file):
    argv = ("stein", "--data", poly_file(STEIN_F), "--mode", "f", "--d", "3", "--json")
    first = run(capsys, *argv)
    assert first[0] == 0
    passes = record_passes(monkeypatch)
    assert run(capsys, *argv) == first
    assert [p.prog for p in passes] == ["closedpoly stein"]
    assert passes[0] is build_parser().subcommands["stein"]  # the one the full parser hands on to


def test_a_leftover_token_is_refused_by_the_full_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    passes = record_passes(monkeypatch)
    code, out, err = answer(capsys, monkeypatch, ["decompose", "--poly", "-", "extra"])
    assert (code, out) == ("SystemExit(2)", "")
    assert err.startswith("usage: closedpoly [-h] [--version]\n")
    assert err.endswith("\nclosedpoly: error: unrecognized arguments: extra\n")
    # the subcommand's pass leaves "extra" over, then the full parse hands it on again
    assert [p.prog for p in passes] == ["closedpoly decompose", "closedpoly", "closedpoly decompose"]


def test_a_second_call_builds_no_parser(capsys, monkeypatch, poly_file):
    argv = ("stein", "--data", poly_file(STEIN_F), "--mode", "f", "--d", "3")
    first = run(capsys, *argv)
    assert first[0] == 0
    built = []
    real_init, real_add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def init(self, *args, **keywords):
        built.append(("ArgumentParser", args, keywords))
        real_init(self, *args, **keywords)

    def add(self, *flags, **keywords):
        built.append(("add_argument", flags, keywords))
        return real_add(self, *flags, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", add)
    assert run(capsys, *argv) == first
    assert built == []


def test_the_shared_parser_keeps_no_state_between_calls(capsys, poly_file):
    """One parser answers every call in a process; no option value, default or
    refusal of one call reaches the next."""
    path = poly_file(EX1)
    assert run_json(capsys, "decompose", "--poly", path, "--no-newton")["pruned"] is False
    assert run_json(capsys, "decompose", "--poly", path)["pruned"] is True
    assert "E_h" in run_json(capsys, "family", "--poly", path, "--mu", "1", "--eh", "0,1")
    plain = run(capsys, "family", "--poly", path, "--mu", "1", "--json")
    assert "E_h" not in json.loads(plain[1])
    with pytest.raises(SystemExit) as refused:
        main(["family", "--poly", path, "--mu", "1", "--eh", "0,1", "--json", "--no-such-option"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    assert run(capsys, "family", "--poly", path, "--mu", "1", "--json") == plain


def shuffled_text(rng, f):
    """f written with its terms in a random order."""
    items = list(f.terms.items())
    rng.shuffle(items)
    text = ""
    for m, c in items:
        term = render_poly(MultiPoly(f.nvars, {m: c}))
        text += term if not text else f" - {term[1:]}" if term[0] == "-" else f" + {term}"
    return text


def term_order_inputs(rng, command):
    """argv after the command, with "{}" for each input file, and the inputs."""
    if command == "newton":  # supports of 16 points, exponents 0..7, as in the benchmark
        nvars = rng.randint(2, 4)
        support = set()
        while len(support) < 16:
            support.add(tuple(rng.randint(0, 7) for _ in range(nvars - 1)) + (rng.randint(1, 7),))
        return ["--poly", "{}"], [MultiPoly(nvars, {m: Fraction(rng.choice([-9, -1, 2, 5]), rng.randint(1, 4))
                                                    for m in support})]
    f = compose_uni(random_outer(rng, 3), random_poly(rng, rng.randint(1, 3), 4, 5)) + rng.randint(-2, 2)
    if command == "depend":
        return ["--f", "{}", "--g", "{}"], [f, random_poly(rng, f.nvars, 3, 4)]
    if command == "family":
        return ["--poly", "{}", "--mu", str(rng.randint(-20, 20))], [f]
    return ["--poly", "{}"] + (["--no-newton"] if rng.random() < 0.5 and command == "decompose" else []), [f]


# realizing weights (3, 1) or (2, 1) for (6, 6), as the LP's rows followed the term order
NEWTON_TIE = ("1/3*x1^6*x2^6 - 3*x1^5*x2^7 - 2*x1^6*x2^5 - 3*x1^4*x2^7 + 7/4*x1^7*x2^2 - 3*x1^6*x2^3"
              " - 2*x1^4*x2^5 - x1^2*x2^7 + 1/4*x1^5*x2^3 + 7/2*x1^4*x2^4 - 7*x1^4*x2^3 + 5/3*x1^3*x2^4"
              " - 8*x1^3 - 5/2*x1*x2^2 - 1/2*x1*x2 - 9/2*x2^2")


@pytest.mark.parametrize("command", ["decompose", "is-closed", "newton", "family", "depend"])
def test_stdout_does_not_depend_on_term_order(capsys, poly_file, command):
    """The same seeded polynomials, their terms written in shuffled orders,
    print the same bytes, text and JSON (newton's realizing weights are
    one LP vertex among several, which followed the term order)."""
    rng = random.Random(f"term order {command}")
    cases = [term_order_inputs(rng, command) for _ in range(12)]
    if command == "newton":
        cases.append((["--poly", "{}"], [P(NEWTON_TIE)]))
    for trial, (args, polys) in enumerate(cases):
        outputs = set()
        for _ in range(8):
            paths = iter([poly_file(shuffled_text(rng, f), f"p{i}.txt") for i, f in enumerate(polys)])
            argv = [next(paths) if a == "{}" else a for a in args]
            for extra in ([], ["--json"]):
                code, out, err = run(capsys, command, *argv, *extra)
                assert code == 0, err
                outputs.add((tuple(extra), out))
        assert len(outputs) == 2, (command, trial, sorted(outputs))
