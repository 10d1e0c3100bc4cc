"""Command-line surface.

Subcommands: decompose, is-closed, newton, depend, family, stein, saturate.
Polynomials are read from a file or stdin ("-"); output is a human-readable
summary by default or one JSON object with --json.

Every call is parsed by one complete parser, which gives each subcommand
its options; it is built on the first call, not at import, and words all
help, usage and error text.  A value-taking option followed by "-" and a
digit takes that token as its value, so --mu -1/4 reads as --mu=-1/4.

Exit codes: 0 success, 1 parse error, 2 domain error, 3 internal
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .decompose import generative, is_closed
from .depend import jacobian_minors
from .family import (
    DataFormatError,
    exceptional_image,
    factor_shift,
    parse_decomposition_data,
    stein_check,
)
from .monoid import MonoidError, MonoidGens, is_saturated, saturation_generators
from .newton import multiplicity, newton_summary, realizing_weights
from .orders import GREVLEX, GRLEX, OrderSpec, leading_term
from .parsing import (ParseError, ascii_number, check_printable, error_at, parse_poly, render_number,
                      render_poly, render_uni)
from .poly import MultiPoly

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3


def _read_source(path: str) -> str:
    """A file's text, or stdin's for "-": both are read as bytes and decoded
    as UTF-8 whatever the locale, with CRLF and a lone CR read as a newline,
    as text mode reads them.  A byte that is not UTF-8 is a ParseError at
    the line and column the parser would give a character there."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # the text before the bad byte places it
        text, bad = data[:exc.start].decode("utf-8"), data[exc.start]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark is not content
    if bad is not None:
        raise error_at(text, len(text), f"invalid UTF-8 byte 0x{bad:02x}")
    return text


def _load_poly(path: str) -> MultiPoly:
    return parse_poly(_read_source(path)).poly


def _number_arg(flag: str, text: str, kind=Fraction):
    """Convert one option value to kind (Fraction or int); a bad value is a
    domain error that names the option."""
    try:
        return ascii_number(text, kind, "a value")
    except ZeroDivisionError:
        raise ValueError(f"{flag}: zero denominator in {text!r}") from None
    except ValueError as exc:
        noun = "a rational number" if kind is Fraction else "an integer"
        message = str(exc) or f"{text!r} is not {noun}"
        raise ValueError(f"{flag}: {message}") from None


# -- subcommands: each returns (JSON payload, human-readable lines) --------


def _cmd_decompose(args) -> tuple:
    f = _load_poly(args.poly)
    order = OrderSpec(kind=args.order)
    result = generative(f, order, pruned=not args.no_newton)
    if result.trace:
        trace = ", ".join(f"k={k}: {outcome}" for k, outcome in result.trace)
    elif multiplicity(leading_term(f, order)[0]) == 1:
        trace = "(empty; leading multiplicity 1)"
    else:  # only pruning can leave no divisor of a leading multiplicity > 1
        trace = "(empty; d1 = 1 after Newton pruning)"
    f_text = render_poly(f, order)
    h_text, F_text = render_poly(result.h, order), render_uni(result.F)
    payload = {
        "command": "decompose",
        "input": f_text,
        "order": order.kind,
        "pruned": not args.no_newton,
        "h": h_text,
        "F": F_text,
        "closed": result.closed,
        "trace": [[k, outcome] for k, outcome in result.trace],
    }
    human = [
        f"input:  {f_text}",
        f"h:      {h_text}",
        f"F(t):   {F_text}",
        f"closed: {result.closed}",
        f"trace:  {trace}",
    ]
    return payload, human


def _cmd_is_closed(args) -> tuple:
    f = _load_poly(args.poly)
    order = OrderSpec(kind=args.order)
    closed = is_closed(f, order)
    # generative reads d(lm) from f as given, so this is its d(lm) = 1 return
    fast = multiplicity(leading_term(f, order)[0]) == 1
    payload = {
        "command": "is-closed",
        "input": render_poly(f, order),
        "closed": closed,
        "fast_path": fast,
    }
    human = [
        f"closed:    {closed}",
        f"fast path: {fast} (leading multiplicity {'1' if fast else '> 1'})",
    ]
    return payload, human


def _cmd_newton(args) -> tuple:
    f = _load_poly(args.poly)
    order = OrderSpec(kind=args.order)
    summary = newton_summary(f, order)
    weights = {}
    for v in sorted(summary.v0):
        ws = realizing_weights(f, v)
        if ws is None:
            raise RuntimeError(f"V0 point {list(v)} has no checked realizing weights")
        weights[v] = [render_number(w) for w in ws]
    payload = {
        "command": "newton",
        "input": render_poly(f, order),
        "support": sorted(list(m) for m in summary.support),
        "v0": sorted(list(m) for m in summary.v0),
        "d_leading": summary.d_leading,
        "d1": summary.d1,
        "divisors_plain": list(summary.divisors_plain),
        "divisors_pruned": list(summary.divisors_pruned),
        "realizing_weights": {str(list(v)): ws for v, ws in weights.items()},
    }
    human = [
        f"support:   {sorted(summary.support)}",
        f"V0:        {sorted(summary.v0)}",
        f"d(lm):     {summary.d_leading}",
        f"d1:        {summary.d1}",
        f"D(f):      {list(summary.divisors_plain)}",
        f"D1(f):     {list(summary.divisors_pruned)}",
    ]
    for v, ws in weights.items():
        human.append(f"weights for {v}: {ws}")
    return payload, human


def _read_option(flag: str, path: str, min_nvars: int = 1) -> tuple:
    """(text, polynomial) of flag's file; a parse error in it names flag."""
    try:
        text = _read_source(path)
        return text, parse_poly(text, min_nvars).poly
    except ParseError as exc:
        exc.args = (f"{flag}: {exc}",)
        raise


def _cmd_depend(args) -> tuple:
    if args.f == args.g == "-":
        raise ValueError("--f and --g cannot both read stdin")
    # f and g are read in one ring: the larger of their inferred variable counts
    f_text, f = _read_option("--f", args.f)
    _, g = _read_option("--g", args.g, min_nvars=f.nvars)
    if g.nvars > f.nvars:
        f = parse_poly(f_text, min_nvars=g.nvars).poly
    minors = {f"({i},{j})": render_poly(m)
              for (i, j), m in sorted(jacobian_minors(f, g).items()) if not m.is_zero()}
    payload = {
        "command": "depend",
        "dependent": not minors,
        "nonzero_minors": minors,
    }
    human = [f"algebraically dependent: {not minors}"]
    human += [f"  minor {ij} = {text}" for ij, text in minors.items()]
    return payload, human


def _shift_str(lam: Fraction, mult: int) -> str:
    base = f"(h + {render_number(lam)})" if lam >= 0 else f"(h - {render_number(-lam)})"
    return base if mult == 1 else f"{base}^{mult}"


def _cmd_family(args) -> tuple:
    f = _load_poly(args.poly)
    order = OrderSpec(kind=args.order)
    mu = _number_arg("--mu", args.mu)
    result = generative(f, order)
    fam = factor_shift(result, mu)
    h_text, F_text = render_poly(result.h, order), render_uni(result.F)
    residual = render_uni(fam.residual)
    payload = {
        "command": "family",
        "mu": render_number(fam.mu),
        "h": h_text,
        "F": F_text,
        "alpha": render_number(fam.alpha),
        "shifts": [[render_number(lam), mult] for lam, mult in fam.shifts],
        "residual": residual,
        "verified": True,  # factor_shift raises unless the identity holds
    }
    human = [
        f"h:        {h_text}",
        f"F(t):     {F_text}",
        f"mu:       {payload['mu']}",
        f"alpha:    {payload['alpha']}",
        "shifts:   " + (", ".join(_shift_str(lam, mult) for lam, mult in fam.shifts) or "(none)"),
        f"residual: {residual}",
        "verified: True",
    ]
    if args.eh is not None:
        e_h = [_number_arg("--eh", s) for s in args.eh.split(",") if s.strip()]
        image = sorted(exceptional_image(result.F, e_h))
        payload["E_h"] = [render_number(x) for x in e_h]
        payload["E_f"] = [render_number(x) for x in image]
        human.append(f"E(f):     {{{', '.join(payload['E_f'])}}}")
    return payload, human


def _cmd_stein(args) -> tuple:
    d = None if args.d is None else _number_arg("--d", args.d, int)
    data = parse_decomposition_data(_read_source(args.data), d=d)
    report = stein_check(data, args.mode)
    check_printable("lhs", report.lhs)
    check_printable("rhs", report.rhs)
    payload = {
        "command": "stein",
        "mode": report.mode,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "holds": report.holds,
    }
    human = [
        f"lhs:   {report.lhs}",
        f"rhs:   {report.rhs}",
        f"holds: {report.holds}",
    ]
    return payload, human


def _parse_gens(text: str) -> list:
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gens.append(tuple(ascii_number(p.strip(), int, "bad generator tuple: an entry")
                              for p in chunk.split(",")))
        except ValueError as exc:
            raise MonoidError(str(exc) or f"bad generator tuple {chunk!r}") from None
    if not gens:
        raise MonoidError("no generators supplied")
    dims = {len(g) for g in gens}
    if len(dims) > 1:
        raise MonoidError("generators have inconsistent dimensions")
    return gens


def _cmd_saturate(args) -> tuple:
    vectors = _parse_gens(args.gens)
    bound = None if args.bound is None else _number_arg("--bound", args.bound, int)
    gens = MonoidGens(nvars=len(vectors[0]), gens=frozenset(vectors), bound=bound)
    check_printable("bound", gens.bound)
    sat = sorted(saturation_generators(gens))
    saturated = is_saturated(gens)
    payload = {
        "command": "saturate",
        "generators": sorted(list(g) for g in gens.gens),
        "bound": gens.bound,
        "saturation_generators": [list(v) for v in sat],
        "is_saturated": saturated,
        "exact": gens.exact,
    }
    human = [
        f"bound:                 {gens.bound}",
        f"saturation generators: {sat}",
        f"is saturated:          {saturated}",
    ]
    if not gens.exact:
        human.append("warning: basis elements of degree above the bound are not listed, "
                     "and 'is saturated' holds only up to the bound")
    return payload, human


# -- dispatch --------------------------------------------------------------


_POLY = ("--poly", dict(required=True, metavar="FILE"))
_ORDER = ("--order", dict(choices=[GRLEX, GREVLEX], default=GRLEX))
_JSON = ("--json", dict(action="store_true", help="emit one JSON object"))

# name -> (help, handler, options), in help order; an option is (flag, add_argument keywords)
_COMMANDS = {
    "decompose": ("compute the generative polynomial h and F with f = F(h)", _cmd_decompose, [
        ("--poly", dict(required=True, metavar="FILE", help="polynomial file, or - for stdin")),
        _ORDER,
        ("--no-newton", dict(action="store_true",
                             help="disable Newton-polytope pruning of the divisor sequence")),
        _JSON]),
    "is-closed": ("decide whether a polynomial is closed", _cmd_is_closed, [_POLY, _ORDER, _JSON]),
    "newton": ("Newton-polytope support analysis", _cmd_newton, [_POLY, _ORDER, _JSON]),
    "depend": ("Jacobian algebraic-dependence test", _cmd_depend, [
        ("--f", dict(required=True, metavar="FILE")), ("--g", dict(required=True, metavar="FILE")),
        _JSON]),
    "family": ("factor f + mu through the generative pair", _cmd_family, [
        _POLY, ("--mu", dict(required=True, help="rational shift value")),
        ("--eh", dict(metavar="RATS", help="comma-separated exceptional set of h")), _ORDER, _JSON]),
    "stein": ("Stein-Lorenzini-Najib inequality on supplied data", _cmd_stein, [
        ("--data", dict(required=True, metavar="FILE")),
        ("--mode", dict(required=True, choices=["h", "f"])),
        ("--d", dict(help="generic factor degree (f mode)")), _JSON]),
    "saturate": ("saturation of a monomial exponent monoid", _cmd_saturate, [
        ("--gens", dict(required=True, help='generators, e.g. "1,0;1,2"')),
        ("--bound", dict(help="max coordinate sum for enumeration")), _JSON]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every subcommand with its options and handler; built by the first call and
    shared by every later one, since parse_args leaves a parser as it found it."""
    parser = argparse.ArgumentParser(
        prog="closedpoly",
        description="Closed-polynomial decomposition and related checks over the rationals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # argparse runs the first positional argument's subcommand: the top-level
    # options (-h, --version) take no value
    argv = sys.argv[1:] if argv is None else list(argv)
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    command = argv[at] if at < len(argv) else None
    # argparse reads "-1/4" after --mu as an option (only -3 or -0.5 looks like a value to
    # it) and --mu=-- as [] or, since 3.13, "--", so main passes --mu=-1/4 and --mu -- instead
    _, _, options = _COMMANDS.get(command, (None, None, ()))
    valued = {flag for flag, keywords in options if "action" not in keywords}
    tokens = argv[:at + 1]
    for token in argv[at + 1:]:
        if "--" in tokens:
            tokens.append(token)
        elif token.endswith("=--") and len(token) > 5 and any(f.startswith(token[:-3]) for f in valued):
            tokens += [token[:-3], "--"]
        elif tokens[-1] in valued and token[:1] == "-" and token[1:2].isdecimal():
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        payload, human = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(human))
    except (ParseError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
