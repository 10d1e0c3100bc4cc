"""Polynomial expression parsing and canonical rendering.

Grammar (whitespace-insensitive):

    poly   := ['+'|'-'] term ( ('+'|'-') term )*
    term   := coeff [ '*' mono ] | mono
    coeff  := int | int '/' posint
    mono   := factor ( '*' factor )*
    factor := 'x' posint [ '^' nonneg-int ]

Integers are runs of the ASCII digits 0-9.  Variables are x1, x2, ...;
the variable count is inferred as the largest index that appears.

Both readers give each monomial as one packed integer key, the exponent
of x_i in bits 64(i-1) to 64i - 1, so the factors of a term add up to its
key, repeats of a variable included.  ``parse_poly`` unpacks every key
into its dense tuple with one ``Struct`` per call, then merges.

Accepted input takes one pass of a compiled term regex, each match
anchored where the last one ended.  Its quantifiers are possessive and
match as greedy ones would, as each is followed only by optional parts or
by a character it cannot take.  The regex only lexes a monomial, as one
run of x, digits, '^' and '*'; ``_factor``, whose cache is shared by
calls, is the only check of each factor's text and gives its key.  At the
first place that pass does not accept cleanly, the text goes to the token
scanner, and so does text with a malformed factor, a zero exponent, an
index past x64 or a variable whose powers in one term sum past the bound.
The scanner first searches for a character no token can start with, so
``x1 x2 @`` fails at the ``@``, not at an earlier syntax error.  Every
``ParseError`` is made by ``error_at``, which places an offset at its line
and column.

Rendered output sorts terms descending under the requested monomial
order and is always re-parseable.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import or_
from struct import Struct
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
# blanks; mono is a lexing run, whose factors only _factor checks
_MONO = r"x[0-9^*x]*+"
_TERM_RE = re.compile(rf"\s*+(?:([-+])\s*+)?+(?:([0-9]++)(?:\s*+/\s*+([0-9]++))?+"
                      rf"(?:\s*+\*\s*+({_MONO}))?+|({_MONO}))\s*+")
# a factor _factor reads: at most _BOUND_DIGITS digits in each run, so at most
# 2*_BOUND_DIGITS + 2 characters
_FACTOR_RE = re.compile(rf"x([0-9]{{1,{_BOUND_DIGITS}}})(?:\^([0-9]{{1,{_BOUND_DIGITS}}}))?")
# the fast pass reads x1 to x64, so a cached key is at most 512 bytes long
_FAST_INDICES = 64
# the bits above MAX_EXPONENT = 2^31 - 1 in each field the fast pass fills
_OVER = sum(((1 << 64) - 1 - MAX_EXPONENT) << 64 * i for i in range(_FAST_INDICES))


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
def _factor(text: str) -> int:
    """The key of one factor of a monomial run, the only check of a factor's
    text; ValueError, which lru_cache does not store, for text not of the form
    x<index>[^<power>] with at most _BOUND_DIGITS digits in each run (so for
    any text over 2*_BOUND_DIGITS + 2 characters, before any int()), for an
    index outside 1.._FAST_INDICES and for a power outside 1..MAX_EXPONENT."""
    m = _FACTOR_RE.fullmatch(text)
    if not m:
        raise ValueError(text)
    index, power = int(m[1]), int(m[2] or 1)
    if not 0 < index <= _FAST_INDICES or not 0 < power <= MAX_EXPONENT:
        raise ValueError(text)
    return power << 64 * (index - 1)


def _accepted(text: str) -> tuple | None:
    """(keys, coefficients, zero, top) of text as _scan gives them, read by
    the term regex; None at the first place it does not accept cleanly, and
    _scan then reads text."""
    # a 64-bit field carries out only past 2^33 factors in a term, each at least 3 characters
    if len(text) >= 3 << 33:
        return None
    keys, coeffs, pos, zero = [], [], 0, False
    match, factor, add_key, add_coeff = _TERM_RE.match, _factor, keys.append, coeffs.append
    try:
        while pos < len(text):
            m = match(text, pos)
            if not m or (coeffs and not m[1]):  # a gap, or a term without its sign
                return None
            sign, num, den, mono, bare = m.groups()
            pos = m.end()
            coeff = int(num) if num else 1
            if sign == "-":
                coeff = -coeff
            zero = zero or not coeff
            add_coeff(Fraction(coeff, int(den)) if den else Fraction(coeff))
            mono = mono or bare
            add_key(sum(map(factor, mono.split("*"))) if mono else 0)
    except (ValueError, ZeroDivisionError):  # a bad factor, a number too long; a zero denominator
        return None
    seen = reduce(or_, keys, 0)
    if not coeffs or seen & _OVER:  # no term, or a repeated variable's powers sum past the bound
        return None
    return keys, coeffs, zero, -(-seen.bit_length() // 64)


def _scan(text: str) -> tuple:
    """(keys, coefficients, zero, top): the terms of text, token by token,
    their keys and Fraction coefficients, whether a coefficient is 0, and the
    largest variable index read (0 if none); else the ParseError of the first
    fault, placed at the token being read."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise error_at(text, bad.start(), f"unexpected character {bad.group()!r}")
    # each token and its offset, then "" at the end of the text, which ends the input
    tokens, starts = zip(*((m[0], m.start()) for m in _TOKEN_RE.finditer(text)), ("", len(text)))
    keys, coeffs, zero, top = [], [], False, 0
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
                top = max(top, index)
                factors = tokens[i] == "*" and tokens[i + 1][:1] == "x"
                i += factors  # past the '*'
            keys.append(sum(power << 64 * (index - 1) for index, power in exps.items()))
            coeffs.append(Fraction(coeff))
            tok = tokens[i]
            if not tok:
                break
            if tok != "+" and tok != "-":
                raise ValueError(f"expected '+' or '-', got {tok!r}")
            sign = -1 if tok == "-" else 1
            i += 1
    except ValueError as exc:  # every fault is placed at token i
        raise error_at(text, starts[i], str(exc)) from None
    return keys, coeffs, zero, top


def parse_poly(text: str, min_nvars: int = 1) -> ParsedInput:
    """Parse a polynomial expression; nvars is the largest variable index
    seen (at least ``min_nvars``)."""
    keys, coeffs, zero, top = _accepted(text) or _scan(text)
    nvars = check_nvars(max(min_nvars, top))
    unpack = Struct(f"<{nvars}Q").unpack
    monos = list(map(unpack, map(int.to_bytes, keys, repeat(8 * nvars), repeat("little"))))
    full = dict(zip(monos, coeffs))
    merge = zero or len(full) < len(coeffs)
    if merge:  # the one merge, in order of first appearance
        full = {}
        for m, coeff in zip(monos, coeffs):
            full[m] = full[m] + coeff if m in full else coeff
    # every check of the MultiPoly constructor is made above, so build unchecked;
    # with no zero read and no two terms merged, full holds no zero to drop
    wrap = MultiPoly._checked if merge else MultiPoly._adopt
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
