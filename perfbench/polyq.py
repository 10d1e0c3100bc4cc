"""Exact polynomial arithmetic for the benchmark's generators and checkers.

Kept apart from ``closedpoly`` so that expected answers never come from the
code under test.  A polynomial is a dict {exponent tuple: Fraction} with no
zero coefficients; a univariate polynomial is a list of Fractions, lowest
degree first.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pscale(p: dict, c) -> dict:
    return {m: a * c for m, a in p.items()} if c else {}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def compose(F: list, h: dict) -> dict:
    """F(h), expanded over the integers: h is scaled to integer coefficients
    by the lcm D of its denominators and F(h) = sum F[j] * (D*h)^j / D^j.
    Monomials are packed into one integer (base above every exponent of the
    result) so that multiplying them is one addition."""
    nvars = len(next(iter(h)))
    base = max(max(m) for m in h) * (len(F) - 1) + 1
    D = math.lcm(*(c.denominator for c in h.values()))
    hi = {sum(e * base**i for i, e in enumerate(m)): int(c * D) for m, c in h.items()}
    out: dict = {0: Fraction(F[0])} if F[0] else {}
    power = {0: 1}
    for j in range(1, len(F)):
        nxt: dict = {}
        for m1, c1 in power.items():
            for m2, c2 in hi.items():
                nxt[m1 + m2] = nxt.get(m1 + m2, 0) + c1 * c2
        power = nxt
        if F[j]:
            scale = Fraction(F[j]) / D**j
            for m, c in power.items():
                out[m] = out.get(m, 0) + scale * c
    return {
        tuple(key // base**i % base for i in range(nvars)): c
        for key, c in out.items()
        if c
    }


def pderiv(p: dict, i: int) -> dict:
    """Partial derivative with respect to the i-th variable (0-based)."""
    out = {}
    for m, c in p.items():
        if m[i]:
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[dm] = c * m[i]
    return out


def grlex_key(m: tuple) -> tuple:
    return (sum(m), m)


def leading(p: dict, key=grlex_key) -> tuple:
    return max(p, key=key)


def exponent_gcd(m: tuple) -> int:
    return math.gcd(*m)


def closed_by_certificate(h: dict) -> bool:
    """True when the leading monomials of h under graded-lex and every lex
    variable order have exponent gcds with gcd 1.

    If h = G(g) with deg G = k >= 2, then lm(h) = lm(g)^k under every
    monomial order, so k divides every one of those gcds; gcd 1 therefore
    proves h closed without consulting the library.
    """
    nvars = len(next(iter(h)))
    g = exponent_gcd(leading(h))
    for perm in itertools.permutations(range(nvars)):
        g = math.gcd(g, exponent_gcd(leading(h, key=lambda m: tuple(m[i] for i in perm))))
        if g == 1:
            return True
    return g == 1


def uni_eval(F: list, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(F):
        acc = acc * x + c
    return acc


def uni_deflate(F: list, root) -> list:
    """Quotient of F by (t - root); the remainder must be zero."""
    out = []
    acc = Fraction(0)
    for c in reversed(F):
        acc = acc * root + c
        out.append(acc)
    if out.pop():
        raise ValueError("not a root")
    return list(reversed(out))


def render(p: dict) -> str:
    """Text accepted by ``closedpoly.parsing.parse_poly``."""
    parts = []
    for m in sorted(p, key=grlex_key, reverse=True):
        c = p[m]
        mono = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m, start=1) if e
        )
        mag = abs(c)
        body = (f"{mag}*{mono}" if mag != 1 else mono) if mono else str(mag)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\*?)?((?:[a-z]\d*(?:\^\d+)?\*?)*)")


def parse_terms(text: str, nvars: int, var: str = "x") -> dict:
    """Read the library's canonical rendering back into a dict.

    ``var`` is "x" for multivariate text (x1, x2, ...) and "t" for the
    univariate rendering, in which case the exponent tuple has length 1.
    """
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, coeff, mono in _TERM_RE.findall(text.replace(" ", "")):
        if not coeff and not mono:
            continue
        exps = [0] * nvars
        for factor in filter(None, mono.split("*")):
            name, _, power = factor.partition("^")
            index = 0 if var == "t" else int(name[1:]) - 1
            exps[index] += int(power or 1)
        c = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}
