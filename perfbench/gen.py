"""Seeded input generators for the three workloads.

Each generator takes the seed and returns one round: a list of cases, each
holding the input the library receives and the facts its answer is checked
against.  Those facts are fixed when the input is made (planted
decompositions, planted or provably absent roots, the saturation staircase,
formula values), so no check rests on the library's answer or its
``verified`` flag.

Problem sizes are stratified.  The seed picks exponents and coefficients,
but the mix of sizes (support size, term count, |mu|, m) and their order in
the round follow a fixed schedule: per-call cost grows steeply with size, so
a random mix would make a run's throughput hinge on a few draws.  Strata are
interleaved and sizes spread, so every stretch of a round has the same mix.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

from polyq import (
    closed_by_certificate,
    compose,
    exponent_gcd,
    leading,
    padd,
    pderiv,
    pmul,
    pscale,
    render,
    uni_deflate,
    uni_eval,
)

# decompose_pruned: cases per (deg F, support size of f) for deg F = 2, 3:
# the natural criterion-5 distribution restricted to supports of at most 21
# terms (20,000 draws, seed 2026), scaled to 0.6 of the counts of a
# 720-case round, at least one per size.  The rest of the criterion-5 tail
# (up to 56 terms, about 17 s per call) is outside the measured range.
PRUNED_QUOTAS = {key: max(1, round(0.6 * n)) for key, n in {
    (2, 2): 11, (2, 3): 108, (2, 4): 2, (2, 5): 2, (2, 6): 38, (2, 7): 2, (2, 9): 6,
    (2, 10): 36, (2, 11): 2, (2, 12): 1, (2, 13): 2, (2, 14): 14, (2, 15): 25,
    (2, 16): 1, (2, 18): 2, (2, 19): 3, (2, 20): 8, (2, 21): 8,
    (3, 2): 1, (3, 3): 18, (3, 4): 101, (3, 7): 2, (3, 8): 2, (3, 9): 2, (3, 10): 37,
    (3, 14): 2, (3, 16): 5, (3, 17): 2, (3, 19): 8, (3, 20): 29,
}.items()}
PRUNED_LINEAR = 145  # cases with deg F = 1, a third of the round

# decompose_unpruned: composite term counts (log-spaced, each within 15%)
# and the sparse family x1^24 + 2*x1^12*xn + xn^2.
UNPRUNED_TERMS = (50, 70, 100, 140, 200, 280, 400, 560, 800, 1100)
UNPRUNED_PER_TARGET = 20  # five in each of 3, 4, 5 and 6 variables
SPARSE_FAMILY = tuple(range(4, 13))
# members that fail at the seed with the monomial cap (a known defect)
SPARSE_CAPPED = tuple(range(9, 13))

# cli_mix, per round.
# (variables, support points), in increasing cost
NEWTON_SIZES = tuple(sorted(
    [(nvars, s) for s in (10, 12, 14, 16) for nvars in (2, 3, 4)]
    + [(nvars, s) for s in (18, 20) for nvars in (2, 3)],
    key=lambda ns: (ns[1], ns[0]),
))
FAMILY_CALLS = 60  # strata of log10|mu| over [4, 14]
SATURATE_MS = tuple(range(5, 81, 5))
CHEAP_CALLS = 50  # per variant of depend, stein, decompose and is-closed


# Nominal seconds of call time (speed.py) that one round takes at the seed;
# a timed pass runs --seconds / ROUND_S whole rounds, at least one.
ROUND_S = {"decompose_pruned": 26.5, "decompose_unpruned": 23.5, "cli_mix": 29.5}


def rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c or not nonzero:
            return c


@functools.lru_cache(maxsize=None)
def _monomials(nvars: int, max_deg: int) -> list:
    """Exponent vectors with total degree 1..max_deg."""
    return [m for m in itertools.product(range(max_deg + 1), repeat=nvars)
            if 0 < sum(m) <= max_deg]


def random_h(rng, nvars: int, max_deg: int, min_terms: int, max_terms: int) -> dict:
    """A closed-by-certificate h: leading-monic under graded lex, h(0) = 0,
    trimmed to the variables it uses (the parser infers nvars the same way).
    Monomials are uniform over those of total degree 1..max_deg."""
    pool = _monomials(nvars, max_deg)
    while True:
        terms = {}
        for _ in range(rng.randint(min_terms, max_terms)):
            terms[rng.choice(pool)] = rat(rng, nonzero=True)
        lc = terms[leading(terms)]
        used = max(i for m in terms for i, e in enumerate(m) if e) + 1
        h = {m[:used]: c / lc for m, c in terms.items()}
        if closed_by_certificate(h):
            return h


def random_outer(rng, degree: int) -> list:
    """Monic F0 with F0(0) = 0."""
    return [Fraction(0)] + [rat(rng) for _ in range(degree - 1)] + [Fraction(1)]


def composite(rng, h: dict, F0: list) -> tuple:
    """f = a*F0(h) + c and the expected outer polynomial a*F0 + c."""
    a, c = rat(rng, nonzero=True), rat(rng)
    F = [a * x for x in F0]
    F[0] += c
    return compose(F, h), F


def interleave(groups: list) -> list:
    """Merge lists so that each one's items are spread evenly."""
    keyed = [
        ((j + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for j, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def _van_der_corput(i: int) -> float:
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


def spread_sizes(items: list) -> list:
    """Reorder items listed by increasing size so that every prefix samples
    the sizes evenly (van der Corput order).  The traced pass, which runs
    the first half of a round, then measures the same mix whatever the
    seed."""
    return [items[i] for i in sorted(range(len(items)), key=_van_der_corput)]


def decompose_case(f: dict, h: dict, F: list, label: str, pruned: bool) -> dict:
    return {"kind": "decompose", "text": render(f), "h": h, "F": F,
            "label": label, "pruned": pruned}


def decompose_pruned(seed: int, workdir: str = "") -> list:
    """Criterion-5 shape: h in 1-3 variables, degree <= 4, <= 5 terms; F monic
    with F(0) = 0 and degree 1-3; f = a*F(h) + c."""
    rng = random.Random(seed)
    linear = []
    for i in range(PRUNED_LINEAR):
        h = random_h(rng, rng.randint(1, 3), 4, 1, 5)
        f, F = composite(rng, h, random_outer(rng, 1))
        linear.append(decompose_case(f, h, F, f"deg F 1, {len(f)} terms", True))
    wanted = Counter(PRUNED_QUOTAS)
    strata: dict = {key: [] for key in sorted(PRUNED_QUOTAS)}
    while wanted:
        degree = rng.randint(2, 3)
        h = random_h(rng, rng.randint(1, 3), 4, 1, 5)
        f, F = composite(rng, h, random_outer(rng, degree))
        key = (degree, len(f))
        if wanted[key] > 0:
            wanted[key] -= 1
            wanted += Counter()  # drop strata that are full
            strata[key].append(decompose_case(f, h, F, f"deg F {degree}, {len(f)} terms", True))
    return interleave([linear] + list(strata.values()))


def sparse_member(n: int) -> dict:
    h = {tuple(12 if j == 0 else 0 for j in range(n)): Fraction(1),
         tuple(1 if j == n - 1 else 0 for j in range(n)): Fraction(1)}
    F = [Fraction(0), Fraction(0), Fraction(1)]
    return decompose_case(compose(F, h), h, F, f"sparse n={n}", False)


def _support_bound(h: dict, degree: int) -> int:
    """Terms of F(h) when no coefficients cancel: |supp h^1 u ... u h^k| + 1,
    on monomials packed into integers."""
    base = max(max(m) for m in h) * degree + 1
    packed = [sum(e * base**i for i, e in enumerate(m)) for m in h]
    step = set(packed)
    union = set(step)
    for _ in range(degree - 1):
        step = {a + b for a in step for b in packed}
        union |= step
    return len(union) + 1


def decompose_unpruned(seed: int, workdir: str = "") -> list:
    """Composites (h in 3-6 variables, degree <= 5, 5-10 terms, d(lm h) = 1;
    deg F 3-6) whose term counts follow UNPRUNED_TERMS, and the sparse
    family; all run with pruning off."""
    rng = random.Random(seed)
    groups = []
    for target in UNPRUNED_TERMS:
        lo, hi = 0.85 * target, 1.15 * target
        # (terms of h, deg F) pairs whose collision-free term count can land
        # in range; collisions rarely remove more than two thirds of it
        shapes = [(t, k) for t in range(5, 11) for k in range(3, 7)
                  if lo <= math.comb(t + k, k) - 1 <= 3 * hi]
        group = []
        while len(group) < UNPRUNED_PER_TARGET:
            nterms, degree = rng.choice(shapes)
            # the dense enumeration grows with the number of variables, and
            # each factor of d(lm h) adds a divisor attempt: fix both
            nvars = 3 + len(group) % 4
            h = random_h(rng, nvars, 5, nterms, nterms)
            if len(next(iter(h))) != nvars or exponent_gcd(leading(h)) != 1:
                continue
            if not lo <= _support_bound(h, degree) <= hi:
                continue
            f, F = composite(rng, h, random_outer(rng, degree))
            if lo <= len(f) <= hi:
                group.append(decompose_case(f, h, F, f"composite, {len(f)} terms", False))
        groups.append(group)
    groups.append(spread_sizes([sparse_member(n) for n in SPARSE_FAMILY]))
    return interleave(groups)


# -- cli_mix ---------------------------------------------------------------


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def newton_cases(rng, workdir: str) -> list:
    cases = []
    for i, (nvars, size) in enumerate(NEWTON_SIZES):
        support = set()
        while len(support) < size:
            m = tuple(rng.randint(0, 7) for _ in range(nvars))
            if any(m):
                support.add(m)
        used = max(i for m in support for i, e in enumerate(m) if e) + 1
        support = {m[:used] for m in support}
        f = {m: rat(rng, nonzero=True) for m in support}
        path = _write(workdir, f"newton{i}.txt", render(f))
        cases.append({"kind": "newton", "argv": ["newton", "--poly", path, "--json"],
                      "support": sorted(support), "sample_seed": rng.randrange(2**32),
                      "label": f"newton {nvars} vars, {size} points"})
    return cases


def _rational_roots_with_one_known(G: list, known) -> list:
    """All rational roots of G (degree <= 3, known is a root), with
    multiplicity, from the quotient's explicit root formula."""
    roots = [Fraction(known)]
    Q = uni_deflate(G, known)
    if len(Q) == 2:
        roots.append(-Q[0] / Q[1])
    elif len(Q) == 3:
        disc = Q[1] ** 2 - 4 * Q[2] * Q[0]
        num, den = disc.numerator, disc.denominator
        if disc >= 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
            r = Fraction(math.isqrt(num), math.isqrt(den))
            roots += [(-Q[1] + r) / (2 * Q[2]), (-Q[1] - r) / (2 * Q[2])]
    return sorted(Counter(roots).items())


def family_cases(rng, workdir: str) -> list:
    """|mu| log-uniform over [1e4, 1e14]: one call at the middle of each of
    FAMILY_CALLS equal strata of log10|mu|.  Odd strata plant a root
    (mu = -F(lam)); even strata use F = t^2 and mu = -3q with 3 not dividing
    q, so t^2 + mu has no rational root (3 divides 3q to an odd power, so 3q
    is not a square)."""
    cases = []
    for j in range(FAMILY_CALLS):
        e = 4 + 10 * (j + 0.5) / FAMILY_CALLS
        h = random_h(rng, 2, 3, 2, 2)
        if j % 2:
            degree = 2 + j % 4 // 2
            F = [rng.randint(-9, 9) for _ in range(degree)] + [1]
            lam = round(10 ** (e / degree)) * rng.choice((-1, 1))
            mu = -uni_eval(F, lam)
            roots = _rational_roots_with_one_known([F[0] + mu] + F[1:], lam)
        else:
            F = [0, 0, 1]
            q = round(10**e / 3)
            q += q % 3 == 0
            mu = Fraction(-3 * q)
            roots = []
        F = [Fraction(c) for c in F]
        residual = [F[0] + mu] + F[1:]
        for r, mult in roots:
            for _ in range(mult):
                residual = uni_deflate(residual, r)
        e_h = sorted({rat(rng) for _ in range(2)})
        path = _write(workdir, f"family{j}.txt", render(compose(F, h)))
        argv = ["family", "--poly", path, f"--mu={mu}",
                "--eh=" + ",".join(str(x) for x in e_h), "--json"]
        cases.append({"kind": "family", "argv": argv, "h": h, "F": F,
                      "shifts": sorted((-r, mult) for r, mult in roots),
                      "residual": residual,
                      "E_f": sorted({-uni_eval(F, -x) for x in e_h}),
                      "label": f"family |mu|=1e{e:.2f}"})
    return cases


def saturate_cases(rng) -> list:
    cases = []
    for m in SATURATE_MS:
        gens = [(1, 0), (1, m)]
        rng.shuffle(gens)
        argv = ["saturate", "--gens", ";".join(f"{a},{b}" for a, b in gens), "--json"]
        cases.append({"kind": "saturate", "argv": argv, "m": m, "label": f"saturate m={m}"})
    return cases


def _minors(f: dict, g: dict) -> dict:
    n = len(next(iter(f)))
    df = [pderiv(f, i) for i in range(n)]
    dg = [pderiv(g, i) for i in range(n)]
    return {
        (i + 1, j + 1): padd(pmul(df[i], dg[j]), pscale(pmul(df[j], dg[i]), -1))
        for i in range(n) for j in range(i + 1, n)
    }


def depend_cases(rng, workdir: str) -> list:
    """Dependent pairs (F(h), h) and independent pairs, whose expected
    nonzero minors are computed here."""
    cases = []
    for i in range(2 * CHEAP_CALLS):
        nvars = rng.randint(2, 3)
        if i % 2:
            while True:
                f = random_h(rng, nvars, 3, 2, 4)
                g = random_h(rng, nvars, 3, 2, 4)
                if len(next(iter(g))) == len(next(iter(f))) and any(_minors(f, g).values()):
                    break
        else:
            g = random_h(rng, nvars, 3, 2, 4)
            f, _ = composite(rng, g, random_outer(rng, rng.randint(2, 3)))
        fp = _write(workdir, f"dep{i}f.txt", render(f))
        gp = _write(workdir, f"dep{i}g.txt", render(g))
        minors = {ij: m for ij, m in _minors(f, g).items() if m}
        cases.append({"kind": "depend", "argv": ["depend", "--f", fp, "--g", gp, "--json"],
                      "minors": minors, "nvars": len(next(iter(f))),
                      "label": f"depend {'independent' if minors else 'dependent'}"})
    return cases


def _partition(rng, total: int, largest: int) -> list:
    parts = []
    while total:
        parts.append(rng.randint(1, min(largest, total)))
        total -= parts[-1]
    return parts


def stein_cases(rng, workdir: str) -> list:
    """Decomposition data with lhs and rhs recomputed from the formulas:
    lhs = sum over entries of (#factors - base), rhs = min over entries of the
    sum of listed degrees; base is 1 (h-form) or total/d (f-form)."""
    cases = []
    for i in range(2 * CHEAP_CALLS):
        mode = "f" if i % 2 else "h"
        d = rng.randint(2, 4)
        total = d * rng.randint(1, 3)
        entries = []
        for k in range(rng.randint(2, 4)):
            counts = Counter(_partition(rng, total, d if mode == "f" else total))
            entries.append((f"{-k - 1}/{rng.randint(1, 3)}" if k else "*", sorted(counts.items())))
        lines = [f"{shift}: " + ", ".join(f"{deg}^{mult}" for deg, mult in factors)
                 for shift, factors in entries]
        base = total // d if mode == "f" else 1
        lhs = sum(len(factors) - base for _, factors in entries)
        rhs = min(sum(deg for deg, _ in factors) for _, factors in entries)
        path = _write(workdir, f"stein{i}.txt", "\n".join(lines) + "\n")
        argv = ["stein", "--data", path, "--mode", mode, "--json"]
        if mode == "f":
            argv += ["--d", str(d)]
        cases.append({"kind": "stein", "argv": argv, "lhs": lhs, "rhs": rhs,
                      "label": f"stein {mode}-form"})
    return cases


def small_decompose_cases(rng, workdir: str) -> list:
    """decompose (half with --no-newton) and is-closed on criterion-5 inputs
    of at most 10 terms."""
    cases = []
    for i in range(4 * CHEAP_CALLS):
        while True:
            h = random_h(rng, rng.randint(1, 3), 4, 1, 5)
            f, F = composite(rng, h, random_outer(rng, rng.randint(1, 3)))
            if len(f) <= 10:
                break
        path = _write(workdir, f"small{i}.txt", render(f))
        if i % 2:
            argv = ["is-closed", "--poly", path, "--json"]
            cases.append({"kind": "is-closed", "argv": argv, "closed": len(F) == 2,
                          "fast_path": exponent_gcd(leading(f)) == 1,
                          "label": f"is-closed, {len(f)} terms"})
        else:
            argv = ["decompose", "--poly", path, "--json"] + (["--no-newton"] if i % 4 else [])
            cases.append({"kind": "decompose-cli", "argv": argv, "h": h, "F": F,
                          "label": f"decompose, {len(f)} terms"})
    return cases


def cli_mix(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    return interleave([
        spread_sizes(newton_cases(rng, workdir)),
        spread_sizes(family_cases(rng, workdir)),
        spread_sizes(saturate_cases(rng)),
        depend_cases(rng, workdir),
        stein_cases(rng, workdir),
        small_decompose_cases(rng, workdir),
    ])


def known_defect(workload: str, label: str, reason: str) -> bool:
    """Whether a failed call is one of the failures known at the seed.  Only
    the sparse-family members n >= 9 of decompose_unpruned, raising
    MonomialCapExceeded; any other failure makes a run incorrect."""
    return (workload == "decompose_unpruned"
            and label in {f"sparse n={n}" for n in SPARSE_CAPPED}
            and reason.startswith("raised MonomialCapExceeded"))


WORKLOADS = {
    "decompose_pruned": decompose_pruned,
    "decompose_unpruned": decompose_unpruned,
    "cli_mix": cli_mix,
}
