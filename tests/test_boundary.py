"""Validation happens at the API boundary only.

Below the public constructors (`MultiPoly(...)`, `UniPoly(coeffs)`,
`constant`, `zero`, `variable`, `from_term`, `identity`), the library
builds every polynomial from already-checked data through `_checked`.
Likewise only `poly` takes `Fraction` coefficients apart: every other module
gets integer numerators over a common denominator from `poly.integer_form`,
or one number's numerator and denominator from `poly.fraction_parts`.
Only `parsing.ascii_number` reads Python's int-string limit, and only
`parsing.error_at` makes a `ParseError`.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import closedpoly
from closedpoly.decompose import generative
from closedpoly.depend import jacobian_minors
from closedpoly.family import factor_shift
from closedpoly.orders import GREVLEX, GRLEX, OrderSpec, normalize

from conftest import P

VALIDATING_CLASSES = {"MultiPoly", "UniPoly"}
VALIDATING_METHODS = {"constant", "zero", "variable", "from_term", "identity"}


def validating_calls(path: Path) -> list:
    """(line, call) for each validating constructor the module calls."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in VALIDATING_CLASSES:
            found.append((node.lineno, f"{func.id}(...)"))
        elif isinstance(func, ast.Attribute) and func.attr in VALIDATING_METHODS:
            found.append((node.lineno, f".{func.attr}(...)"))
    return found


def test_only_poly_calls_validating_constructors():
    package = Path(closedpoly.__file__).parent
    calls = {path.name: validating_calls(path)
             for path in sorted(package.glob("*.py")) if path.name != "poly.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def fraction_part_reads(path: Path) -> list:
    """Lines on which the module reads an attribute named numerator or denominator."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in {"numerator", "denominator"}]


def test_only_poly_reads_numerators_and_denominators():
    package = Path(closedpoly.__file__).parent
    assert fraction_part_reads(package / "poly.py")  # the check sees integer_form's reads
    reads = {path.name: fraction_part_reads(path)
             for path in sorted(package.glob("*.py")) if path.name != "poly.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def callers(name: str) -> set:
    """(module, top-level definition) of each call to a function or class named name."""
    found = set()
    for path in sorted(Path(closedpoly.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_only_ascii_number_reads_the_int_string_limit():
    assert callers("get_int_max_str_digits") == {("parsing.py", "ascii_number")}


def test_only_error_at_makes_a_parse_error():
    assert callers("ParseError") == {("parsing.py", "error_at")}


f = P("x1^4 + 2*x1^2*x2 + x2^2")  # (x1^2 + x2)^2
r = generative(f)
shifted = P("3*x1^2*x2 - x2 + 5")
p = P("x1^2 - 1/2*x2")
CASES = {
    "factor_shift-rational-roots": lambda: factor_shift(r, -4),
    "factor_shift-no-rational-root": lambda: factor_shift(r, 2),
    "reconstruct": lambda: r.reconstruct(),
    "normalize-reconstruct-grlex": lambda: normalize(shifted, OrderSpec(kind=GRLEX)).reconstruct(),
    "normalize-reconstruct-grevlex": lambda: normalize(shifted, OrderSpec(kind=GREVLEX)).reconstruct(),
    "jacobian_minors": lambda: jacobian_minors(f, p),
}
for c in (3, Fraction(-2, 3)):
    kind = type(c).__name__
    CASES.update({
        f"p+{kind}": lambda c=c: p + c,
        f"{kind}+p": lambda c=c: c + p,
        f"p-{kind}": lambda c=c: p - c,
        f"{kind}-p": lambda c=c: c - p,
        f"p=={kind}": lambda c=c: p == c,
    })


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_no_validating_constructor_on_parsed_input(count_validating_inits, build):
    calls = count_validating_inits()
    build()
    assert calls == []
