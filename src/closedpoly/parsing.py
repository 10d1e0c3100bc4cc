"""Polynomial expression parsing and canonical rendering.

Grammar (whitespace-insensitive):

    poly   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := coeff [ '*' mono ] | mono
    coeff  := int | int '/' posint
    mono   := factor ( '*' factor )*
    factor := 'x' posint [ '^' nonneg-int ]

Integers are runs of the ASCII digits 0-9.  Variables are x1, x2, ...;
the variable count is inferred as the largest index that appears.

Accepted input takes one pass of a compiled term regex, each match
anchored where the last one ended.  Its quantifiers are possessive and
match as greedy ones would, as each is followed only by optional parts or
by a character it cannot take.  At the first place that pass does not
accept cleanly, the text goes to the token scanner.  It first searches for
a character no token can start with, so ``x1 x2 @`` fails at the ``@``, not
at an earlier syntax error.  Every ``ParseError`` is made by ``error_at``,
which places an offset at its line and column.

Rendered output sorts terms descending under the requested monomial
order and is always re-parseable.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .orders import OrderSpec, sort_key
from .poly import MAX_EXPONENT, MAX_VARIABLES, MultiPoly, UniPoly, check_nvars, fraction_parts


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ParsedInput(NamedTuple):
    poly: MultiPoly
    nvars: int


_BAD_CHAR_RE = re.compile(r"x(?![0-9])|[^\sx0-9+\-*/^]")
_TOKEN_RE = re.compile(r"x[0-9]+|[0-9]+|[-+*/^]")
_BOUND_DIGITS = len(str(max(MAX_EXPONENT, MAX_VARIABLES)))
# a term: blanks, a sign (required after the first term), num[/den][*mono] or mono,
# blanks; a longer digit run in a factor leaves a digit where no term can start
_FACTOR = rf"x[0-9]{{1,{_BOUND_DIGITS}}}+(?:\^[0-9]{{1,{_BOUND_DIGITS}}}+)?+"
_MONO = rf"{_FACTOR}(?:\*{_FACTOR})*+"
_TERM_RE = re.compile(rf"\s*+(?:([-+])\s*+)?+(?:([0-9]++)(?:\s*+/\s*+([0-9]++))?+"
                      rf"(?:\s*+\*\s*+({_MONO}))?+|({_MONO}))\s*+")


def error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset`` of text; the only code that computes a line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def ascii_number(text: str, kind, what: str, unit: str = "characters"):
    """kind(text), int or Fraction, for a number from outside the program.
    A ValueError has no message, for the caller to word, if text holds "_",
    "e", "E" or a character outside ASCII (Python reads them, the polynomial
    grammar does not, and an exponent builds a huge number from short text)
    or kind cannot read it with each digit run cut to one digit; else the
    int-string limit is to blame, and its message gives text's length."""
    if not text.isascii() or re.search("[_eE]", text):
        raise ValueError()
    try:
        return kind(text)
    except ValueError:
        try:
            kind(re.sub("[0-9]+", "1", text))
        except ValueError:
            raise ValueError() from None
    limit = sys.get_int_max_str_digits()
    raise ValueError(f"{what} of {len(text)} {unit} exceeds the limit of {limit} digits")


def short_number(n: int | str) -> str:
    """n, an int or a run of digits without leading zeros, as an error message
    quotes it: in full up to 40 digits, else by its digit count (an int's
    comes from Decimal, which, unlike str, has no int-string limit)."""
    digits = len(n) if isinstance(n, str) else Decimal(abs(n)).adjusted() + 1
    return str(n) if digits <= 40 else f"<{digits} digits>"


def check_printable(what: str, n: int) -> None:
    """A ValueError, quoting n by its digit count, if str(n) fails: the output prints n."""
    try:
        str(n)
    except ValueError:  # past Python's int-string conversion limit
        raise ValueError(f"{what} {short_number(n)} is too long to print") from None


def _bounded(digits: str, bound: int, message: str) -> int:
    """int(digits), or a ValueError above bound; a run longer than every
    bound, leading zeros aside, is rejected by its length before int()."""
    if len(digits) > _BOUND_DIGITS:
        digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= _BOUND_DIGITS else bound + 1
    if value > bound:
        raise ValueError(message.format(short_number(digits.lstrip("0")), bound))
    return value


@lru_cache(maxsize=1024)  # shared by calls, since few factor texts recur within a small input
def _factor(text: str) -> tuple:
    """(index, exponent) of a factor the term regex accepted; ValueError past a bound."""
    name, _, power = text.partition("^")
    index, power = int(name[1:]), int(power or 1)
    if not 0 < index <= MAX_VARIABLES or power > MAX_EXPONENT:
        raise ValueError(text)
    return index, power


def _accepted(text: str) -> tuple | None:
    """(terms, zero) of text as _scan gives them, read by the term regex; None
    at the first place it does not accept cleanly, and _scan then reads text."""
    terms, pos, zero = [], 0, False
    try:
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if not m or (terms and not m[1]):  # a gap, or a term without its sign
                return None
            sign, num, den, mono, bare = m.groups()
            pos = m.end()
            coeff = int((sign or "") + num) if num else -1 if sign == "-" else 1
            zero = zero or not coeff
            coeff = Fraction(coeff, int(den)) if den else Fraction(coeff)
            parts = (mono or bare).split("*") if mono or bare else ()
            exps = dict(map(_factor, parts))
            if len(exps) < len(parts):
                return None
            terms.append((exps, coeff))
    except (ValueError, ZeroDivisionError):  # a number out of bounds or too long; a zero denominator
        return None
    return (terms, zero) if terms else None


def _scan(text: str) -> tuple:
    """(terms, zero): the terms of text, token by token, as (exps {index:
    exponent}, Fraction coefficient) pairs, and whether a coefficient is 0;
    else the ParseError of the first fault, placed at the token being read."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise error_at(text, bad.start(), f"unexpected character {bad.group()!r}")
    # each token and its offset, then "" at the end of the text, which ends the input
    tokens, starts = zip(*((m[0], m.start()) for m in _TOKEN_RE.finditer(text)), ("", len(text)))
    terms, zero = [], False
    sign = -1 if tokens[0] == "-" else 1
    i = 1 if tokens[0] in ("+", "-") else 0
    try:
        while True:
            tok = tokens[i]
            exps: dict = {}
            if tok[:1].isdigit():  # coefficients have no bound but the int-string limit
                coeff = sign * ascii_number(tok, int, "a number", "digits")
                zero = zero or not coeff
                i += 1
                if tokens[i] == "/":
                    i += 1
                    if not tokens[i][:1].isdigit():
                        raise ValueError("expected a denominator after '/'")
                    den = ascii_number(tokens[i], int, "a number", "digits")
                    if den == 0:
                        raise ValueError("denominator must be positive")
                    coeff = Fraction(coeff, den)
                    i += 1
                factors = tokens[i] == "*"
                i += factors  # past the '*'
            elif tok[:1] == "x":
                coeff = sign
                factors = True
            else:
                raise ValueError(f"expected a coefficient or variable, got {tok or 'end of input'!r}")
            while factors:  # x<index>[^<power>], then a '*' only if a variable follows it
                tok = tokens[i]
                if tok[:1] != "x":
                    raise ValueError(f"expected a variable, got {tok or 'end of input'!r}")
                index = _bounded(tok[1:], MAX_VARIABLES, "variable index {0} exceeds the supported bound {1}")
                if index == 0:
                    raise ValueError("variable index 0 is not allowed")
                var_i = i
                i += 1
                power = 1
                if tokens[i] == "^":
                    i += 1
                    if not tokens[i][:1].isdigit():
                        raise ValueError("expected an exponent after '^'")
                    power = _bounded(tokens[i], MAX_EXPONENT, "exponent {0} exceeds the supported bound")
                    i += 1
                power += exps.get(index, 0)
                if power > MAX_EXPONENT:
                    i = var_i  # placed at the variable
                    raise ValueError(f"accumulated exponent for x{index} exceeds the supported bound")
                exps[index] = power
                factors = tokens[i] == "*" and tokens[i + 1][:1] == "x"
                i += factors  # past the '*'
            terms.append((exps, Fraction(coeff)))
            tok = tokens[i]
            if not tok:
                break
            if tok != "+" and tok != "-":
                raise ValueError(f"expected '+' or '-', got {tok!r}")
            sign = -1 if tok == "-" else 1
            i += 1
    except ValueError as exc:  # every fault is placed at token i
        raise error_at(text, starts[i], str(exc)) from None
    return terms, zero


def parse_poly(text: str, min_nvars: int = 1) -> ParsedInput:
    """Parse a polynomial expression; nvars is the largest variable index
    seen (at least ``min_nvars``)."""
    terms, zero = _accepted(text) or _scan(text)
    nvars = check_nvars(max([min_nvars] + [max(exps) for exps, _ in terms if exps]))
    indices, zeros = range(1, nvars + 1), (0,) * nvars
    full = {}
    for exps, coeff in terms:
        # the one merge: factor order, repeats and x_i^0 factors do not split m
        m = tuple(map(exps.get, indices, zeros))
        full[m] = full[m] + coeff if m in full else coeff
    # every check of the MultiPoly constructor is made above, so build unchecked;
    # with no zero read and no two terms merged, full holds no zero to drop
    wrap = MultiPoly._checked if zero or len(full) < len(terms) else MultiPoly._adopt
    return ParsedInput(poly=wrap(nvars, full), nvars=nvars)


def _render_mono(m) -> str:
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def render_number(q: Fraction | int) -> str:
    """str(q), its parts written through Decimal, which has no int-string limit."""
    num, den = fraction_parts(q)
    num = str(Decimal(num))
    return num if den == 1 else num + "/" + str(Decimal(den))


def _join_signed(terms) -> str:
    """Join (coefficient, monomial text) pairs as "-a*m + m - c"; a coefficient
    of magnitude 1 is left out, and "" is the unit monomial; "0" when there
    are no pairs."""
    pieces = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body = render_number(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{render_number(mag)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def render_poly(f: MultiPoly, order: OrderSpec = OrderSpec()) -> str:
    """Canonical rendering, descending under the order; re-parseable."""
    terms = sorted(f.terms.items(), key=lambda t: sort_key(t[0], order), reverse=True)
    return _join_signed((c, _render_mono(m)) for m, c in terms)


def render_uni(F: UniPoly) -> str:
    """Rendering of F in descending powers of t; "0" for the zero polynomial."""
    return _join_signed((c, "" if i == 0 else "t" if i == 1 else f"t^{i}")
                        for (i,), c in sorted(F.terms.items(), reverse=True))
