"""Answer checks, run outside the timed region.

Each check compares one call's answer with the facts its case was generated
with and returns None when the answer is right, or the reason it is wrong.
The library's text output is read back with the benchmark's own parser, so
no check relies on closedpoly to judge closedpoly.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from polyq import exponent_gcd, grlex_key, parse_terms


def _uni(F: list) -> dict:
    return {(i,): Fraction(c) for i, c in enumerate(F) if c}


def _divisors_desc(d: int) -> list:
    return [k for k in range(d, 1, -1) if d % k == 0]


def decompose(case: dict, result) -> str | None:
    """result is a DecompositionResult."""
    if result.h.terms != case["h"]:
        return "wrong h"
    if list(result.F.coeffs) != case["F"]:
        return "wrong F"
    if result.closed != (len(case["F"]) == 2):
        return "wrong closed flag"
    return None


def decompose_cli(case: dict, p: dict) -> str | None:
    nvars = len(next(iter(case["h"])))
    if parse_terms(p["h"], nvars) != case["h"]:
        return "wrong h"
    if parse_terms(p["F"], 1, var="t") != _uni(case["F"]):
        return "wrong F"
    if p["closed"] != (len(case["F"]) == 2):
        return "wrong closed flag"
    return None


def is_closed(case: dict, p: dict) -> str | None:
    if p["closed"] != case["closed"]:
        return "wrong closed flag"
    if p["fast_path"] != case["fast_path"]:
        return "wrong fast_path flag"
    return None


def newton(case: dict, p: dict, samples: int = 64) -> str | None:
    """Every reported V0 point carries a weight vector that makes it the
    strict weighted argmax (checked exactly); every strict argmax of random
    positive integer weights lies in the reported V0."""
    support = [tuple(m) for m in case["support"]]
    if sorted(tuple(m) for m in p["support"]) != support:
        return "wrong support"
    v0 = {tuple(v) for v in p["v0"]}
    if not v0 <= set(support):
        return "V0 point outside the support"
    for v in v0:
        weights = [Fraction(w) for w in p["realizing_weights"].get(str(list(v)), [])]
        if len(weights) != len(v) or min(weights) <= 0:
            return f"no positive weight witness for {v}"
        top = sum(w * e for w, e in zip(weights, v))
        if any(sum(w * e for w, e in zip(weights, u)) >= top for u in support if u != v):
            return f"weight witness for {v} does not single it out"
    rng = random.Random(case["sample_seed"])
    for _ in range(samples):
        w = [rng.randint(1, 10**6) for _ in support[0]]
        scores = [sum(a * e for a, e in zip(w, m)) for m in support]
        best = max(scores)
        if scores.count(best) == 1 and support[scores.index(best)] not in v0:
            return "a random-weight argmax is missing from V0"
    d_leading = exponent_gcd(max(support, key=grlex_key))
    d1 = math.gcd(*(exponent_gcd(v) for v in v0 if any(v)))
    if (p["d_leading"], p["d1"]) != (d_leading, d1):
        return "wrong multiplicities"
    if p["divisors_plain"] != _divisors_desc(d_leading) or p["divisors_pruned"] != _divisors_desc(d1):
        return "wrong divisor sequences"
    return None


def family(case: dict, p: dict) -> str | None:
    nvars = len(next(iter(case["h"])))
    if parse_terms(p["h"], nvars) != case["h"]:
        return "wrong h"
    if parse_terms(p["F"], 1, var="t") != _uni(case["F"]):
        return "wrong F"
    if Fraction(p["alpha"]) != case["F"][-1]:
        return "wrong alpha"
    if sorted((Fraction(lam), mult) for lam, mult in p["shifts"]) != case["shifts"]:
        return "wrong shifts"
    if parse_terms(p["residual"], 1, var="t") != _uni(case["residual"]):
        return "wrong residual"
    if [Fraction(x) for x in p["E_f"]] != case["E_f"]:
        return "wrong exceptional image"
    if p["verified"] is not True:
        return "product identity not verified"
    return None


def saturate(case: dict, p: dict) -> str | None:
    m = case["m"]
    if p["saturation_generators"] != [[1, j] for j in range(m + 1)]:
        return "wrong saturation generators"
    if p["is_saturated"] is not (m < 2) or p["exact"] is not True:
        return "wrong flags"
    return None


def depend(case: dict, p: dict) -> str | None:
    if p["dependent"] != (not case["minors"]):
        return "wrong dependence verdict"
    got = {tuple(int(x) for x in key.strip("()").split(",")): parse_terms(text, case["nvars"])
           for key, text in p["nonzero_minors"].items()}
    if got != case["minors"]:
        return "wrong minors"
    return None


def stein(case: dict, p: dict) -> str | None:
    if (p["lhs"], p["rhs"], p["holds"]) != (case["lhs"], case["rhs"], case["lhs"] < case["rhs"]):
        return "wrong lhs/rhs"
    return None


CLI_CHECKS = {
    "newton": newton,
    "family": family,
    "saturate": saturate,
    "depend": depend,
    "stein": stein,
    "decompose-cli": decompose_cli,
    "is-closed": is_closed,
}


def check(case: dict, output) -> str | None:
    """output is a DecompositionResult, or (exit code, stdout, stderr) of a
    CLI call that exited with 0."""
    if case["kind"] == "decompose":
        return decompose(case, output)
    return CLI_CHECKS[case["kind"]](case, json.loads(output[1]))
