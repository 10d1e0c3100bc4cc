"""Polynomial expression parsing and canonical rendering.

Grammar (whitespace-insensitive):

    poly   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := coeff [ '*' mono ] | mono
    coeff  := int | int '/' posint
    mono   := factor ( '*' factor )*
    factor := 'x' posint [ '^' nonneg-int ]

Integers are runs of the ASCII digits 0-9.  Variables are x1, x2, ...;
the variable count is inferred as the largest index that appears.

The parser is one scan.  One regex search finds the first character no
token can start with, so an unexpected character is reported before any
syntax error earlier in the text (``x1 x2 @`` fails at the ``@``).  The
tokens are plain strings from one ``findall``, read by index in one loop;
a token's line and column are computed only when an error is raised.

Rendered output sorts terms descending under the requested monomial
order and is always re-parseable.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .orders import OrderSpec, sort_key
from .poly import MAX_EXPONENT, MAX_VARIABLES, MultiPoly, UniPoly, check_nvars


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ParsedInput:
    poly: MultiPoly
    nvars: int
    source: str


_BAD_CHAR_RE = re.compile(r"x(?![0-9])|[^\sx0-9+\-*/^]")
_TOKEN_RE = re.compile(r"x[0-9]+|[0-9]+|[-+*/^]")
_BOUND_DIGITS = len(str(max(MAX_EXPONENT, MAX_VARIABLES)))


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset``; line and column are computed only here."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _fail(text: str, i: int, message: str) -> ParseError:
    """A ParseError at token ``i``; its offset is found by scanning the tokens
    again (past the last token is the end of the text)."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return _error(text, m.start() if m else len(text), message)


def _integer(text: str, i: int, digits: str) -> int:
    """int(digits) for token i (coefficients have no bound of their own)."""
    try:
        return int(digits)
    except ValueError:  # past Python's int-string conversion limit
        limit = sys.get_int_max_str_digits()
        raise _fail(text, i, f"a number of {len(digits)} digits exceeds the limit of {limit} digits")


def _bounded(text: str, i: int, digits: str, bound: int, message: str) -> int:
    """int(digits), or a ParseError at token i above bound; a run longer than
    every bound, leading zeros aside, is rejected by its length before int()."""
    if len(digits) > _BOUND_DIGITS:
        digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= _BOUND_DIGITS else bound + 1
    if value > bound:
        raise _fail(text, i, message.format(digits.lstrip("0"), bound))
    return value


def parse_poly(text: str, min_nvars: int = 1) -> ParsedInput:
    """Parse a polynomial expression; nvars is the largest variable index
    seen (at least ``min_nvars``)."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise _error(text, bad.start(), f"unexpected character {bad.group()!r}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    terms: dict = {}  # {sorted ((index, exponent), ...): coefficient}
    sign = -1 if tokens[0] == "-" else 1
    i = 1 if tokens[0] in ("+", "-") else 0
    while True:
        tok = tokens[i]
        exps: dict = {}
        if tok[:1].isdigit():
            coeff = sign * _integer(text, i, tok)
            i += 1
            if tokens[i] == "/":
                i += 1
                if not tokens[i][:1].isdigit():
                    raise _fail(text, i, "expected a denominator after '/'")
                den = _integer(text, i, tokens[i])
                if den == 0:
                    raise _fail(text, i, "denominator must be positive")
                coeff = Fraction(coeff, den)
                i += 1
            factors = tokens[i] == "*"
            i += factors  # past the '*'
        elif tok[:1] == "x":
            coeff = sign
            factors = True
        else:
            raise _fail(text, i, f"expected a coefficient or variable, got {tok or 'end of input'!r}")
        while factors:  # x<index>[^<power>], then a '*' only if a variable follows it
            tok = tokens[i]
            if tok[:1] != "x":
                raise _fail(text, i, f"expected a variable, got {tok or 'end of input'!r}")
            index = _bounded(text, i, tok[1:], MAX_VARIABLES,
                             "variable index {0} exceeds the supported bound {1}")
            if index == 0:
                raise _fail(text, i, "variable index 0 is not allowed")
            var_i = i
            i += 1
            power = 1
            if tokens[i] == "^":
                i += 1
                if not tokens[i][:1].isdigit():
                    raise _fail(text, i, "expected an exponent after '^'")
                power = _bounded(text, i, tokens[i], MAX_EXPONENT,
                                 "exponent {0} exceeds the supported bound")
                i += 1
            power += exps.get(index, 0)
            if power > MAX_EXPONENT:
                raise _fail(text, var_i, f"accumulated exponent for x{index} exceeds the supported bound")
            exps[index] = power
            factors = tokens[i] == "*" and tokens[i + 1][:1] == "x"
            i += factors  # past the '*'
        key = tuple(sorted(exps.items()))
        terms[key] = terms[key] + coeff if key in terms else coeff
        tok = tokens[i]
        if not tok:
            break
        if tok != "+" and tok != "-":
            raise _fail(text, i, f"expected '+' or '-', got {tok!r}")
        sign = -1 if tok == "-" else 1
        i += 1
    nvars = check_nvars(max([min_nvars] + [idx for key in terms for idx, _ in key]))
    full = {}
    for key, coeff in terms.items():
        exps = [0] * nvars
        for idx, power in key:
            exps[idx - 1] = power
        full[tuple(exps)] = coeff
    return ParsedInput(poly=MultiPoly(nvars, full), nvars=nvars, source=text)


def _render_mono(m) -> str:
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _join_signed(signed) -> str:
    """Join (coefficient, body) pairs as "-a + b - c"; "0" when there are none."""
    pieces = []
    for c, body in signed:
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def render_poly(f: MultiPoly, order: OrderSpec = OrderSpec()) -> str:
    """Canonical rendering, descending under the order; re-parseable."""
    signed = []
    for m, c in sorted(f.terms.items(), key=lambda t: sort_key(t[0], order), reverse=True):
        mono = _render_mono(m)  # "" for the unit monomial
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        signed.append((c, body))
    return _join_signed(signed)


def render_uni(F: UniPoly, var: str = "t") -> str:
    """Rendering of F in descending powers of ``var``; "0" for the zero polynomial."""
    signed = []
    for i in range(len(F.coeffs) - 1, -1, -1):
        c = F.coeffs[i]
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        signed.append((c, body))
    return _join_signed(signed)
