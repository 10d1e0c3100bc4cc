"""Polynomial expression parsing and canonical rendering.

Grammar (whitespace-insensitive):

    poly   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := coeff [ '*' mono ] | mono
    coeff  := int | int '/' posint
    mono   := factor ( '*' factor )*
    factor := 'x' posint [ '^' nonneg-int ]

Integers are runs of the ASCII digits 0-9.  Variables are x1, x2, ...;
the variable count is inferred as the largest index that appears.
Rendered output sorts terms descending under the requested monomial
order and is always re-parseable.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .orders import OrderSpec, sort_key
from .poly import MAX_EXPONENT, MAX_VARIABLES, MultiPoly, UniPoly, check_nvars, mono_unit


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


_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<var>x[0-9]+)|(?P<num>[0-9]+)|(?P<op>[-+*/^])")
_BOUND_DIGITS = len(str(max(MAX_EXPONENT, MAX_VARIABLES)))


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset``; line and column are computed only here."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list:
    """Tokens are (kind, text, offset); kind is 'var', 'num', the operator
    character itself, or 'end'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise _error(text, pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        end = m.end()
        if kind != "ws":
            tok = text[pos:end]
            tokens.append((tok if kind == "op" else kind, tok, pos))
        pos = end
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple | None = None):
        """Raise at ``tok``, by default the next unread token."""
        raise _error(self.text, (tok or self.peek())[2], message)

    def parse(self) -> dict:
        """Returns a map {exponent tuple (ragged): coefficient}."""
        terms: dict = {}
        sign = 1
        kind = self.peek()[0]
        if kind in "+-":
            self.advance()
            sign = -1 if kind == "-" else 1
        self.term(terms, sign)
        while self.peek()[0] != "end":
            tok = self.advance()
            if tok[0] == "+":
                self.term(terms, 1)
            elif tok[0] == "-":
                self.term(terms, -1)
            else:
                self.fail(f"expected '+' or '-', got {tok[1]!r}", tok)
        return terms

    def term(self, terms: dict, sign: int):
        kind, text, _ = self.peek()
        exps = {}
        if kind == "num":
            coeff = sign * self.coeff()
            if self.peek()[0] == "*":
                self.advance()
                self.mono(exps)
        elif kind == "var":
            coeff = Fraction(sign)
            self.mono(exps)
        else:
            self.fail(f"expected a coefficient or variable, got {text or 'end of input'!r}")
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff

    def integer(self) -> int:
        """Read a number token (coefficients have no bound of their own)."""
        tok = self.advance()
        try:
            return int(tok[1])
        except ValueError:  # past Python's int-string conversion limit
            limit = sys.get_int_max_str_digits()
            self.fail(f"a number of {len(tok[1])} digits exceeds the limit of {limit} digits", tok)

    def bounded(self, tok: tuple, digits: str, bound: int, message: str) -> int:
        """int(digits), or a ParseError at tok above bound; a run longer than every
        bound, leading zeros aside, is rejected by its length before int()."""
        if len(digits) > _BOUND_DIGITS:
            digits = digits.lstrip("0") or "0"
        value = int(digits) if len(digits) <= _BOUND_DIGITS else bound + 1
        if value > bound:
            self.fail(message.format(digits.lstrip("0"), bound), tok)
        return value

    def coeff(self) -> Fraction:
        num = self.integer()
        if self.peek()[0] == "/":
            self.advance()
            tok = self.peek()
            if tok[0] != "num":
                self.fail("expected a denominator after '/'")
            den = self.integer()
            if den == 0:
                self.fail("denominator must be positive", tok)
            return Fraction(num, den)
        return Fraction(num)

    def mono(self, exps: dict):
        self.factor(exps)
        while self.peek()[0] == "*":
            save = self.pos
            self.advance()
            if self.peek()[0] != "var":
                self.pos = save  # the '*' belongs to an outer context or is an error
                break
            self.factor(exps)

    def factor(self, exps: dict):
        """Read one x<i>[^e] and add e to exps[i] in place."""
        tok = self.peek()
        if tok[0] != "var":
            self.fail(f"expected a variable, got {tok[1] or 'end of input'!r}")
        self.advance()
        index = self.bounded(tok, tok[1][1:], MAX_VARIABLES,
                             "variable index {0} exceeds the supported bound {1}")
        if index == 0:
            self.fail("variable index 0 is not allowed", tok)
        power = 1
        if self.peek()[0] == "^":
            self.advance()
            ptok = self.peek()
            if ptok[0] != "num":
                self.fail("expected an exponent after '^'")
            self.advance()
            power = self.bounded(ptok, ptok[1], MAX_EXPONENT,
                                 "exponent {0} exceeds the supported bound")
        total = exps.get(index, 0) + power
        if total > MAX_EXPONENT:
            self.fail(f"accumulated exponent for x{index} exceeds the supported bound", tok)
        exps[index] = total


def parse_poly(text: str, min_nvars: int = 1) -> ParsedInput:
    """Parse a polynomial expression; nvars is the largest variable index
    seen (at least ``min_nvars``)."""
    terms = _Parser(text).parse()
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


def render_poly(f: MultiPoly, order: OrderSpec = OrderSpec()) -> str:
    """Canonical rendering, descending under the order; re-parseable."""
    if f.is_zero():
        return "0"
    pieces = []
    ordered = sorted(f.terms.items(), key=lambda t: sort_key(t[0], order), reverse=True)
    for m, c in ordered:
        mono = _render_mono(m) if m != mono_unit(f.nvars) else ""
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def render_uni(F: UniPoly, var: str = "t") -> str:
    """Rendering of F in descending powers of ``var``; "0" for the zero polynomial."""
    if F.is_zero():
        return "0"
    parts = []
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
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
