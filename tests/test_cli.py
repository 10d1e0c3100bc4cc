import json
import sys
from fractions import Fraction

import pytest

from closedpoly.cli import main
from closedpoly.newton import WeightVector

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
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

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(EX1))
        payload = run_json(capsys, "decompose", "--poly", "-")
        assert payload["h"] == "x1^2 + x2"

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

    def test_inputs_with_different_variable_counts(self, capsys, poly_file):
        payload = run_json(
            capsys,
            "depend",
            "--f",
            poly_file("x1^2\n", "f.txt"),
            "--g",
            poly_file("x1*x2 + x2\n", "g.txt"),
        )
        assert payload["dependent"] is False
        assert payload["nonzero_minors"] == {"(1,2)": "2*x1^2 + 2*x1"}


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

    def test_rational_mu(self, capsys, poly_file):
        payload = run_json(
            capsys, "family", "--poly", poly_file(EX1), "--mu", "1/4"
        )
        assert payload["verified"] is True


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

    def test_explicit_bound(self, capsys):
        payload = run_json(capsys, "saturate", "--gens", "1,0;1,2", "--bound", "8")
        assert payload["bound"] == 8
        assert payload["saturation_generators"] == [[1, 0], [1, 1], [1, 2]]


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
        "args, message",
        [
            (["--mu", "1/0"], "error: --mu: zero denominator in '1/0'"),
            (["--mu", "1/4", "--eh", "0,-1/0"], "error: --eh: zero denominator in '-1/0'"),
            (["--mu", "abc"], "error: --mu: 'abc' is not a rational number"),
            (["--mu", "1", "--eh", "0,x1"], "error: --eh: 'x1' is not a rational number"),
            (["--mu", "9" * 5000],
             f"error: --mu: a value of 5000 characters exceeds the limit of {LIMIT} digits"),
            (["--mu", "1", "--eh", "1/" + "7" * 5000],
             f"error: --eh: a value of 5002 characters exceeds the limit of {LIMIT} digits"),
        ],
        ids=["mu-zero-denominator", "eh-zero-denominator", "mu-malformed", "eh-malformed",
             "mu-over-long", "eh-over-long"],
    )
    def test_bad_rational_argument(self, capsys, poly_file, args, message):
        code, out, err = run(capsys, "family", "--poly", poly_file(EX1), *args)
        assert code == 2
        assert out == ""
        assert err == message + "\n"

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

    def test_stein_f_without_d(self, capsys, poly_file):
        code, _, _ = run(
            capsys, "stein", "--data", poly_file(STEIN_F, "d.txt"), "--mode", "f"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "fake",
        [None, WeightVector(weights=(Fraction(1), Fraction(1)))],
        ids=["missing", "not-argmax"],
    )
    def test_newton_unchecked_weights(self, capsys, monkeypatch, poly_file, fake):
        monkeypatch.setattr("closedpoly.cli.realizing_weights", lambda f, v: fake)
        code, _, err = run(capsys, "newton", "--poly", poly_file(EX1))
        assert code == 3
        assert "internal error" in err

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
