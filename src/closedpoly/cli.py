"""Command-line surface.

Subcommands: decompose, is-closed, newton, depend, family, stein, saturate.
Polynomials are read from a file or stdin ("-"); output is a human-readable
summary by default or one JSON object with --json.

Exit codes: 0 success, 1 parse error, 2 domain error, 3 internal
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .decompose import generative
from .depend import jacobian_minors
from .family import (
    DataFormatError,
    exceptional_image,
    factor_shift,
    parse_decomposition_data,
    stein_check,
)
from .monoid import MonoidError, MonoidGens, is_saturated, saturation_generators
from .newton import divisor_sequence, newton_summary, realizing_weights
from .orders import GREVLEX, GRLEX, MonomialCapExceeded, OrderError, OrderSpec, normalize
from .parsing import ParseError, parse_poly, render_poly, render_uni
from .poly import MultiPoly, PolyError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3


class InternalVerificationError(RuntimeError):
    pass


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_poly(path: str) -> MultiPoly:
    return parse_poly(_read_source(path)).poly


def _rat(x: Fraction) -> str:
    return str(x)


def _rational_arg(flag: str, text: str) -> Fraction:
    """Convert one rational option value; a bad value is a domain error that
    names the option."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: zero denominator in {text!r}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if len(text) > limit:
            raise ValueError(
                f"{flag}: a value of {len(text)} characters exceeds the limit of {limit} digits"
            ) from None
        raise ValueError(f"{flag}: {text!r} is not a rational number") from None


def _emit(args, payload: dict, human_lines: list):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _order_from_args(args) -> OrderSpec:
    return OrderSpec(kind=getattr(args, "order", GRLEX))


# -- subcommands -----------------------------------------------------------


def _cmd_decompose(args) -> int:
    f = _load_poly(args.poly)
    order = _order_from_args(args)
    result = generative(f, order, pruned=not args.no_newton)
    payload = {
        "command": "decompose",
        "input": render_poly(f, order),
        "order": order.kind,
        "pruned": not args.no_newton,
        "h": render_poly(result.h, order),
        "F": render_uni(result.F),
        "closed": result.closed,
        "trace": [[k, outcome] for k, outcome in result.trace],
    }
    human = [
        f"input:  {render_poly(f, order)}",
        f"h:      {render_poly(result.h, order)}",
        f"F(t):   {render_uni(result.F)}",
        f"closed: {result.closed}",
        "trace:  "
        + (
            ", ".join(f"k={k}: {outcome}" for k, outcome in result.trace)
            or "(empty; leading multiplicity 1)"
        ),
    ]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_is_closed(args) -> int:
    f = _load_poly(args.poly)
    order = _order_from_args(args)
    fast = not divisor_sequence(normalize(f, order).core, order)
    closed = fast or generative(f, order).closed
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
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_newton(args) -> int:
    f = _load_poly(args.poly)
    order = _order_from_args(args)
    summary = newton_summary(f, order)
    weights = {}
    for v in sorted(summary.v0):
        wv = realizing_weights(f, v)
        if wv is None or not (
            all(w > 0 for w in wv.weights)
            and all(wv.functional(u) < wv.functional(v) for u in summary.support if u != v)
        ):
            raise InternalVerificationError(f"V0 point {list(v)} has no checked realizing weights")
        weights[v] = wv.weights
    payload = {
        "command": "newton",
        "input": render_poly(f, order),
        "support": sorted(list(m) for m in summary.support),
        "v0": sorted(list(m) for m in summary.v0),
        "d_leading": summary.d_leading,
        "d1": summary.d1,
        "divisors_plain": list(summary.divisors_plain),
        "divisors_pruned": list(summary.divisors_pruned),
        "realizing_weights": {
            str(list(v)): [_rat(w) for w in ws] for v, ws in weights.items()
        },
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
        human.append(f"weights for {v}: {[_rat(w) for w in ws]}")
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_depend(args) -> int:
    # f and g are read in one ring: the larger of their inferred variable counts
    parsed = [parse_poly(_read_source(path)) for path in (args.f, args.g)]
    n = max(p.nvars for p in parsed)
    f, g = (parse_poly(p.source, min_nvars=n).poly for p in parsed)
    grid = jacobian_minors(f, g)
    nonzero = grid.nonzero()
    payload = {
        "command": "depend",
        "dependent": not nonzero,
        "nonzero_minors": {
            f"({i},{j})": render_poly(m) for (i, j), m in sorted(nonzero.items())
        },
    }
    human = [f"algebraically dependent: {not nonzero}"]
    for (i, j), m in sorted(nonzero.items()):
        human.append(f"  minor ({i},{j}) = {render_poly(m)}")
    _emit(args, payload, human)
    return EXIT_OK


def _shift_str(lam: Fraction, mult: int) -> str:
    if lam >= 0:
        base = f"(h + {_rat(lam)})"
    else:
        base = f"(h - {_rat(-lam)})"
    return base if mult == 1 else f"{base}^{mult}"


def _cmd_family(args) -> int:
    f = _load_poly(args.poly)
    order = _order_from_args(args)
    mu = _rational_arg("--mu", args.mu)
    result = generative(f, order)
    fam = factor_shift(result, mu)
    if not fam.verified:
        raise InternalVerificationError(
            "product identity for f + mu failed to verify"
        )
    payload = {
        "command": "family",
        "mu": _rat(fam.mu),
        "h": render_poly(result.h, order),
        "F": render_uni(result.F),
        "alpha": _rat(fam.alpha),
        "shifts": [[_rat(lam), mult] for lam, mult in fam.shifts],
        "residual": render_uni(fam.residual),
        "verified": fam.verified,
    }
    human = [
        f"h:        {render_poly(result.h, order)}",
        f"F(t):     {render_uni(result.F)}",
        f"mu:       {_rat(fam.mu)}",
        f"alpha:    {_rat(fam.alpha)}",
        "shifts:   " + (", ".join(_shift_str(lam, mult) for lam, mult in fam.shifts) or "(none)"),
        f"residual: {render_uni(fam.residual)}",
        f"verified: {fam.verified}",
    ]
    if args.eh is not None:
        e_h = [_rational_arg("--eh", s) for s in args.eh.split(",") if s.strip()]
        image = sorted(exceptional_image(result.F, e_h))
        payload["E_h"] = [_rat(x) for x in e_h]
        payload["E_f"] = [_rat(x) for x in image]
        human.append(f"E(f):     {{{', '.join(_rat(x) for x in image)}}}")
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_stein(args) -> int:
    data = parse_decomposition_data(_read_source(args.data), d=args.d)
    report = stein_check(data, args.mode)
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
    _emit(args, payload, human)
    return EXIT_OK


def _parse_gens(text: str) -> list:
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gens.append(tuple(int(p.strip()) for p in chunk.split(",")))
        except ValueError:
            raise MonoidError(f"bad generator tuple {chunk!r}") from None
    if not gens:
        raise MonoidError("no generators supplied")
    dims = {len(g) for g in gens}
    if len(dims) > 1:
        raise MonoidError("generators have inconsistent dimensions")
    return gens


def _cmd_saturate(args) -> int:
    vectors = _parse_gens(args.gens)
    gens = MonoidGens(nvars=len(vectors[0]), gens=frozenset(vectors), bound=args.bound or 0)
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
        human.append(
            "warning: bounded enumeration is heuristic for more than 2 variables"
        )
    _emit(args, payload, human)
    return EXIT_OK


# -- dispatch --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closedpoly",
        description="Closed-polynomial decomposition and related checks over the rationals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument("--order", choices=[GRLEX, GREVLEX], default=GRLEX)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("decompose", help="compute the generative polynomial h and F with f = F(h)")
    p.add_argument("--poly", required=True, metavar="FILE", help="polynomial file, or - for stdin")
    add_order(p)
    p.add_argument("--no-newton", action="store_true", help="disable Newton-polytope pruning of the divisor sequence")
    add_json(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("is-closed", help="decide whether a polynomial is closed")
    p.add_argument("--poly", required=True, metavar="FILE")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_is_closed)

    p = sub.add_parser("newton", help="Newton-polytope support analysis")
    p.add_argument("--poly", required=True, metavar="FILE")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("depend", help="Jacobian algebraic-dependence test")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--g", required=True, metavar="FILE")
    add_json(p)
    p.set_defaults(func=_cmd_depend)

    p = sub.add_parser("family", help="factor f + mu through the generative pair")
    p.add_argument("--poly", required=True, metavar="FILE")
    p.add_argument("--mu", required=True, help="rational shift value")
    p.add_argument("--eh", metavar="RATS", help="comma-separated exceptional set of h")
    add_order(p)
    add_json(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("stein", help="Stein-Lorenzini-Najib inequality on supplied data")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--mode", required=True, choices=["h", "f"])
    p.add_argument("--d", type=int, help="generic factor degree (f mode)")
    add_json(p)
    p.set_defaults(func=_cmd_stein)

    p = sub.add_parser("saturate", help="saturation of a monomial exponent monoid")
    p.add_argument("--gens", required=True, help='generators, e.g. "1,0;1,2"')
    p.add_argument("--bound", type=int, help="max coordinate sum for enumeration")
    add_json(p)
    p.set_defaults(func=_cmd_saturate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PolyError, OrderError, MonoidError, MonomialCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InternalVerificationError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
