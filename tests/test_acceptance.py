"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with pytest -s, or in the captured output on failure).
Criterion 7 certifies the decompositions produced by criteria 1, 2 and 5,
so those tests stash their results in RECORDED_DECOMPOSITIONS.
"""

import random
import sys
import time
from fractions import Fraction

from closedpoly.decompose import generative
from closedpoly.depend import alg_dependent, apply_derivation
from closedpoly.family import exceptional_image, factor_shift, parse_decomposition_data, stein_check
from closedpoly.monoid import MonoidGens, is_saturated, saturation_generators
from closedpoly.parsing import ParseError, parse_poly, render_poly
from closedpoly.poly import MultiPoly, UniPoly, compose_uni

from conftest import P, product_identity_holds, random_closed_normalized, random_outer, random_poly
from oracles import v0_combinatorial, v0_lp

RECORDED_DECOMPOSITIONS = []


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}", file=sys.stderr, flush=True)
    assert ok, f"criterion {num} failed{suffix}"


EX1 = "x1^4 + 2*x1^2*x2 + x2^2"
DEG6 = "x1^2*x2^4 - 2*x1^2*x2^3 + x1^2*x2^2 + 2*x1*x2^3 - 2*x1*x2^2 + x2^2 + 1"


def test_criterion_1_quartic_golden():
    f = P(EX1)
    start = time.perf_counter()
    plain = generative(f, pruned=False)
    pruned = generative(f, pruned=True)
    elapsed = time.perf_counter() - start
    ok = (
        pruned.h == P("x1^2 + x2")
        and pruned.F == UniPoly([0, 0, 1])
        and pruned.closed is False
        and plain.trace == ((4, "mismatch"), (2, "verified"))
        and pruned.trace == ((2, "verified"),)
        and (plain.h, plain.F) == (pruned.h, pruned.F)
        and elapsed < 1.0
    )
    RECORDED_DECOMPOSITIONS.append((f, pruned.h))
    report(1, ok, f"{elapsed:.3f} s")


def test_criterion_2_degree_six_golden():
    f = P(DEG6)
    start = time.perf_counter()
    r = generative(f)
    elapsed = time.perf_counter() - start
    ok = (
        r.h == P("x1*x2^2 - x1*x2 + x2")
        and r.F == UniPoly([1, 0, 1])
        and elapsed < 1.0
    )
    RECORDED_DECOMPOSITIONS.append((f, r.h))
    report(2, ok, f"{elapsed:.3f} s")


def test_criterion_3_family_golden():
    f = P(DEG6)
    r = generative(f)
    h = r.h
    fam1 = factor_shift(r, Fraction(-1))
    fam2 = factor_shift(r, Fraction(-2))
    image = exceptional_image(r.F, [Fraction(0), Fraction(-1)])
    ok = (
        fam1.shifts == ((Fraction(0), 2),)
        and product_identity_holds(r, fam1)
        and h * h == f - 1
        and fam2.shifts == ((Fraction(1), 1), (Fraction(-1), 1))
        and product_identity_holds(r, fam2)
        and (h + 1) * (h - 1) == f - 2
        and image == {Fraction(-1), Fraction(-2)}
    )
    report(3, ok)


def test_criterion_4_stein_golden():
    data = parse_decomposition_data("-1: 1^2, 2^2\n-2: 1, 2, 3\n*: 3, 3\n", d=3)
    rep = stein_check(data, "f")
    ok = (rep.lhs, rep.rhs, rep.holds) == (1, 3, True)
    report(4, ok, f"lhs={rep.lhs} rhs={rep.rhs}")


def test_criterion_5_round_trip_suite():
    rng = random.Random(2026)
    failures = 0
    start = time.perf_counter()
    for _ in range(200):
        nvars = rng.randint(1, 3)
        h = random_closed_normalized(rng, nvars, 4, 5)
        F = random_outer(rng, 3)
        f = compose_uni(F, h)
        r = generative(f)
        if r.h != h or r.F != F:
            failures += 1
        else:
            RECORDED_DECOMPOSITIONS.append((f, r.h))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(5, ok, f"{failures} failures, {elapsed:.1f} s")


def test_criterion_6_dual_v0():
    rng = random.Random(2027)
    mismatches = 0
    argmax_misses = 0
    for _ in range(200):
        nvars = rng.randint(1, 4)
        # exponents are drawn from 0..7, so one variable admits only 8
        # distinct support points
        npts = min(rng.randint(1, 12), 8**nvars)
        support = set()
        while len(support) < npts:
            support.add(tuple(rng.randint(0, 7) for _ in range(nvars)))
        f = MultiPoly(nvars, {m: Fraction(1) for m in support})
        lp = v0_lp(f)
        comb = v0_combinatorial(f)
        if lp != comb:
            mismatches += 1
            continue
        pts = sorted(support)
        for _ in range(500):
            w = [rng.randint(1, 10**6) for _ in range(nvars)]
            scores = [sum(wi * ei for wi, ei in zip(w, m)) for m in pts]
            top = max(scores)
            winners = [m for m, s in zip(pts, scores) if s == top]
            if len(winners) > 1:
                continue  # tie: maximizer lies on a face, not a vertex
            if winners[0] not in lp:
                argmax_misses += 1
    ok = mismatches == 0 and argmax_misses == 0
    report(6, ok, f"{mismatches} route mismatches, {argmax_misses} argmax misses")


def test_criterion_7_dependence_certificates():
    assert RECORDED_DECOMPOSITIONS, "criteria 1, 2, 5 produced no decompositions"
    failures = 0
    for f, h in RECORDED_DECOMPOSITIONS:
        if not alg_dependent(f, h):
            failures += 1
            continue
        for i in range(1, f.nvars):
            for j in range(i + 1, f.nvars + 1):
                if not apply_derivation(f, i, j, h).is_zero():
                    failures += 1
    ok = failures == 0
    report(7, ok, f"{len(RECORDED_DECOMPOSITIONS)} pairs checked")


def test_criterion_8_saturation_golden():
    ok = True
    for m in range(2, 6):
        g = MonoidGens(nvars=2, gens=frozenset({(1, 0), (1, m)}))
        sat = saturation_generators(g)
        if sat != {(1, j) for j in range(m + 1)} or is_saturated(g):
            ok = False
    closed_case = MonoidGens(nvars=2, gens=frozenset({(1, 0), (0, 1)}))
    ok = ok and is_saturated(closed_case)
    report(8, ok)


def test_criterion_9_parser_fuzz():
    rng = random.Random(2028)
    round_trip_failures = 0
    for _ in range(1000):
        f = random_poly(rng, rng.randint(1, 4), 6, 7, allow_constant=True)
        text = render_poly(f)
        if parse_poly(text, min_nvars=f.nvars).poly != f:
            round_trip_failures += 1
    crashes = 0
    alphabet = "x0123456789+-*/^ ()ab.\n\t"
    for _ in range(1000):
        f = random_poly(rng, rng.randint(1, 3), 5, 5, allow_constant=True)
        chars = list(render_poly(f))
        for _ in range(rng.randint(1, 5)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars) + 1) if chars else 0
            if op == 0 and chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
            elif op == 1:
                chars.insert(pos, rng.choice(alphabet))
            elif op == 2 and chars:
                del chars[min(pos, len(chars) - 1)]
        try:
            parse_poly("".join(chars))
        except ParseError:
            pass
        except Exception:
            crashes += 1
    ok = round_trip_failures == 0 and crashes == 0
    report(9, ok, f"{round_trip_failures} round-trip failures, {crashes} crashes")
