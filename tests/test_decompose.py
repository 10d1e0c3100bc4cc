import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest

import closedpoly.decompose as dec
import closedpoly.newton as newton
import closedpoly.orders as orders
from closedpoly.decompose import (
    attempt_divisor,
    generative,
    is_closed,
)
from closedpoly.newton import d1_bound, divisor_sequence, multiplicity
from closedpoly.orders import (
    GREVLEX,
    WEIGHTED,
    MonomialCapExceeded,
    OrderError,
    OrderSpec,
    leading_term,
    normalize,
)
from closedpoly.poly import MultiPoly, PolyError, UniPoly, compose_uni

from conftest import P, random_closed_normalized, random_outer, random_poly
from oracles import generative_d1_first, reference_attempt

GL = OrderSpec()
GR = OrderSpec(kind=GREVLEX)


class TestAttemptDivisor:
    def test_quartic_k4_mismatch(self, ex1):
        assert attempt_divisor(ex1, 4, GL) is None

    def test_quartic_k2_verified(self, ex1):
        h, F = attempt_divisor(ex1, 2, GL)
        assert h == P("x1^2 + x2")
        assert F == UniPoly([0, 0, 1])

    def test_degree_six_shifted(self, deg6):
        h, F = attempt_divisor(deg6 - 1, 2, GL)
        assert h == P("x1*x2^2 - x1*x2 + x2")
        assert F == UniPoly([0, 0, 1])
        assert h * h == deg6 - 1

    def test_takes_f_as_given(self, ex1):
        # h is normalized; F carries f's leading coefficient and constant term
        assert attempt_divisor(2 * ex1, 2, GL) == (P("x1^2 + x2"), UniPoly([0, 0, 2]))
        assert attempt_divisor(ex1 + 1, 2, GL) == (P("x1^2 + x2"), UniPoly([1, 0, 1]))
        # the constant is not the second term of x1^4, so k = 4 is not rejected early
        assert attempt_divisor(P("x1^4 + 5"), 4, GL) == (P("x1"), UniPoly([5, 0, 0, 0, 1]))

    def test_constant_rejected(self):
        for order in (GL, GR):
            with pytest.raises(PolyError):
                attempt_divisor(MultiPoly.constant(2, 3), 2, order)
            with pytest.raises(PolyError, match="^the zero polynomial has no degree$"):
                attempt_divisor(MultiPoly(2, {}), 2, order)

    def test_requires_dividing_k(self, ex1):
        for order, k in product((GL, GR), (3, 1, 0)):
            with pytest.raises(PolyError, match=f"^{k} does not divide the leading multiplicity$"):
                attempt_divisor(ex1, k, order)

    def test_weighted_order_refused_first(self, ex1):
        # before f and k are looked at: a zero f or a k that does not divide d(lm) too
        message = "weighted is not a graded (degree-compatible) order"
        for f, k in [(ex1, 2), (ex1, 3), (MultiPoly(2, {}), 2)]:
            with pytest.raises(OrderError, match=f"^{re.escape(message)}$"):
                attempt_divisor(f, k, OrderSpec(kind=WEIGHTED, weights=(1, 2)))

    def test_reads_lm_from_its_keys(self, monkeypatch, ex1):
        # a pruned generative whose first attempt verifies finds lm through
        # leading_term once, in d1_bound; the attempt reads it from its top key
        calls = []
        real = orders.leading_term
        for module in (orders, newton, dec):
            monkeypatch.setattr(module, "leading_term", lambda f, order: calls.append(f) or real(f, order),
                                raising=False)
        assert generative(ex1).trace == ((2, "verified"),)
        assert calls == [ex1]

    @pytest.mark.parametrize("pruned", [False, True], ids=["unpruned", "pruned"])
    def test_one_form_per_generative_call(self, monkeypatch, pruned):
        # f = 2*(x1^2 + x2^2)^3 + 7: k = 6 mismatches, then k = 3 verifies, both on one packing
        forms, attempts = [], []
        real_form, real_attempt = dec._Form, dec.attempt_divisor
        monkeypatch.setattr(dec, "_Form", lambda *args: forms.append(args) or real_form(*args))
        monkeypatch.setattr(dec, "attempt_divisor", lambda *args, **kwargs: attempts.append(args[1])
                            or real_attempt(*args, **kwargs))
        h = P("x1^2 + x2^2")
        r = generative(compose_uni(UniPoly([7, 0, 0, 2]), h), pruned=pruned)
        assert (r.h, r.F, r.trace) == (h, UniPoly([7, 0, 0, 2]), ((6, "mismatch"), (3, "verified")))
        assert len(forms) == 1 and attempts == [6, 3]

    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_unpruned_divisors_from_the_top_key(self, monkeypatch, order):
        # d(lm) comes from the form's top key: no leading_term, no divisor_sequence
        calls = []
        real = orders.leading_term
        for module in (orders, newton, dec):
            monkeypatch.setattr(module, "leading_term", lambda f, order: calls.append(f) or real(f, order),
                                raising=False)
        monkeypatch.setattr(dec, "divisor_sequence", lambda *args: calls.append(args))
        ex1, deg6 = P("x1^4 + 2*x1^2*x2 + x2^2"), P("x1^6 + 3*x1^2*x2^2 - x2^2 + 1")
        assert generative(ex1, order, pruned=False).trace == ((4, "mismatch"), (2, "verified"))
        assert generative(compose_uni(UniPoly([1, 2, 1]), deg6), order, pruned=False).trace[-1] == (2, "verified")
        assert calls == []

    def test_unpruned_weighted_order(self):
        # no packing: d(lm) = 1 (lm x1*x2^3) answers closed, d(lm) = 3 (lm x2^3) raises
        W = OrderSpec(kind=WEIGHTED, weights=(1, 2))
        f = P("x1^4 + x1*x2^3 + 2")
        r = generative(f, W, pruned=False)
        assert (r.h, r.F, r.trace, r.closed) == (P("x1^4 + x1*x2^3"), UniPoly([2, 1]), (), True)
        message = "weighted is not a graded (degree-compatible) order"
        with pytest.raises(OrderError, match=f"^{re.escape(message)}$"):
            generative(P("x1^4 + x2^3"), W, pruned=False)


class TestGenerative:
    def test_quartic(self, ex1):
        r = generative(ex1)
        assert r.h == P("x1^2 + x2")
        assert r.F == UniPoly([0, 0, 1])
        assert not r.closed

    def test_quartic_trace_plain_vs_pruned(self, ex1):
        plain = generative(ex1, pruned=False)
        assert plain.trace == ((4, "mismatch"), (2, "verified"))
        pruned = generative(ex1, pruned=True)
        assert pruned.trace == ((2, "verified"),)
        assert (plain.h, plain.F) == (pruned.h, pruned.F)

    def test_degree_six(self, deg6):
        r = generative(deg6)
        assert r.h == P("x1*x2^2 - x1*x2 + x2")
        assert r.F == UniPoly([1, 0, 1])

    def test_univariate(self):
        r = generative(P("x1^2 + x1"))
        assert r.h == P("x1")
        assert r.F == UniPoly([0, 1, 1])
        assert not r.closed

    def test_denormalization(self, ex1):
        # 3 f + 5 must decompose through the same h
        r = generative(3 * ex1 + 5)
        assert r.h == P("x1^2 + x2")
        assert r.F == UniPoly([5, 0, 3])
        assert r.reconstruct() == 3 * ex1 + 5

    def test_constant_rejected(self):
        with pytest.raises(PolyError):
            generative(MultiPoly.constant(2, 3))

    @pytest.mark.parametrize("pruned", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_validates_only_at_the_boundary(self, count_validating_inits, order, pruned):
        """On parsed input, generative builds h and F without a validating
        constructor: both exits build F once, through UniPoly._checked."""
        fs = [
            P("3*x1^4 + 6*x1^2*x2 + 3*x2^2 + 5"),  # verified, lc(f) = 3, f(0) = 5
            P("2*x1^2 + x2 + 7"),  # closed, f(0) = 7
            compose_uni(UniPoly([7, 0, 0, 2]), P("x1^2 + x2^2")),  # k = 6 mismatches, k = 3 verifies
        ]
        calls = count_validating_inits()
        results = [generative(f, order, pruned) for f in fs]
        assert calls == []
        assert [(r.h, r.F) for r in results] == [
            (P("x1^2 + x2"), UniPoly([5, 0, 3])),
            (P("x1^2 + 1/2*x2"), UniPoly([7, 2])),
            (P("x1^2 + x2^2"), UniPoly([7, 0, 0, 2])),
        ]
        assert [r.trace for r in results] == [
            ((2, "verified"),) if pruned else ((4, "mismatch"), (2, "verified")),
            () if pruned else ((2, "mismatch"),),
            ((6, "mismatch"), (3, "verified")),
        ]


class TestIsClosed:
    def test_fast_path(self):
        f = P("x1*x2 + x1")
        assert divisor_sequence(normalize(f, GL).core, GL) == ()
        assert is_closed(f)

    def test_quartic_not_closed(self, ex1):
        assert not is_closed(ex1)

    def test_closed_despite_divisible_leading(self):
        # d(leading) = 2 but the k=2 attempt mismatches
        f = P("x1^2 + x2")
        assert divisor_sequence(normalize(f, GL).core, GL) == (2,)
        assert is_closed(f)


class TestInvariants:
    def test_round_trip_small(self):
        rng = random.Random(42)
        for _ in range(25):
            nvars = rng.randint(1, 3)
            h = random_closed_normalized(rng, nvars, 3, 4)
            F = random_outer(rng, 3)
            f = compose_uni(F, h)
            r = generative(f)
            assert r.h == h
            assert r.F == F

    def test_reconstruction_and_degree_law(self):
        rng = random.Random(43)
        for _ in range(25):
            f = random_poly(rng, rng.randint(1, 3), 6, 6)
            if f.is_constant():
                continue
            r = generative(f)
            assert r.reconstruct() == f
            assert f.total_degree() == r.F.degree() * r.h.total_degree()
            assert r.closed == (r.F.degree() == 1)

    def test_pruning_equivalence(self):
        rng = random.Random(44)
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 3), 6, 6)
            if f.is_constant():
                continue
            a = generative(f, pruned=False)
            b = generative(f, pruned=True)
            assert (a.h, a.F, a.closed) == (b.h, b.F, b.closed)

    def test_order_robustness(self, ex1, deg6):
        # h under the two graded orders agrees up to a nonzero scalar
        for f in (
            ex1,
            deg6,
            compose_uni(UniPoly([0, 2, 0, 1]), P("x1*x2 + x1 + x2")),
        ):
            h1 = generative(f, GL).h
            h2 = generative(f, GR).h
            m, _ = leading_term(h1, GL)
            c = h2.coefficient(m)
            assert c != 0
            assert h2 == c * h1

    def test_idempotence(self):
        rng = random.Random(45)
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 3), 6, 6)
            if f.is_constant():
                continue
            r = generative(f)
            rr = generative(r.h)
            assert rr.closed
            assert rr.h == r.h
            assert rr.F == UniPoly.identity()

    def test_step2_non_contamination(self, ex1):
        # monomials m1^{k-1} m_j of the composed polynomial come only from
        # the top power h^k, never from lower beta_i h^{k-i} contributions
        from closedpoly.orders import monomials_below

        cases = [
            (P("x1^2 + x2"), UniPoly([0, Fraction(3, 2), 1])),
            (P("x1*x2 + x1"), UniPoly([0, -1, 2, 1])),
            (P("x1^2 + x1*x2 + x2"), UniPoly([0, 5, 1])),
        ]
        for h, F in cases:
            k = F.degree()
            m1, _ = leading_term(h, GL)
            top = h**k
            lower = compose_uni(F, h) - top
            top_power = tuple(e * (k - 1) for e in m1)
            for mj in monomials_below(m1, GL):
                probe = tuple(x + y for x, y in zip(top_power, mj))
                assert lower.coefficient(probe) == 0


class TestAgainstReference:
    def test_seeded_pairs(self):
        """Verified and mismatching (f, k) in 1-4 variables: f = F(h) for a
        random h, the same f with one lower coefficient changed, and a random
        tail under a k-th power leading monomial."""
        from closedpoly.newton import multiplicity

        rng = random.Random(12)
        seen = {"verified": 0, "mismatch": 0}
        for order in (GL, GR):
            for trial in range(60):
                nvars = 1 + trial % 4
                h = normalize(random_poly(rng, nvars, 3, 4), order).core
                f = compose_uni(random_outer(rng, 3), h)
                if f.total_degree() > 9:
                    continue
                lm, _ = leading_term(f, order)
                terms = dict(f.terms)
                lower = sorted(m for m in terms if m != lm)
                if lower:
                    m = rng.choice(lower)
                    terms[m] += rng.choice([-1, 1])
                tail = dict(random_poly(rng, nvars, 3, 5).terms)
                tail.pop((0,) * nvars, None)
                for g in (f, MultiPoly(nvars, terms), MultiPoly(nvars, {**tail, lm: 1})):
                    if leading_term(g, order) != (lm, 1):
                        continue
                    for k in range(2, multiplicity(lm) + 1):
                        if multiplicity(lm) % k == 0:
                            got = attempt_divisor(g, k, order)
                            assert got == reference_attempt(g, k, order), (g, k, order)
                            seen["verified" if got else "mismatch"] += 1
        assert min(seen.values()) >= 20, seen

    def test_denominators_over_several_primes(self):
        """h and F with coefficients over the primes 2, 3, 5, 7 and 11, so the
        common denominator E of the candidate grows while h is solved and the
        residual is rescaled while F is peeled: f = F(h), the same f with one
        lower coefficient changed, and a random tail under f's leading term."""
        from closedpoly.newton import multiplicity

        rng = random.Random(21)
        primes = (2, 3, 5, 7, 11)
        seen = {"verified": 0, "mismatch": 0}
        for trial in range(40):
            nvars = 1 + trial % 3
            order = (GL, GR)[trial % 2]
            terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                     Fraction(rng.choice([-9, -4, -1, 1, 2, 5]), rng.choice(primes))
                     for _ in range(4)}
            h = MultiPoly(nvars, terms)
            if h.is_constant():
                continue
            h = normalize(h, order).core
            F = UniPoly([0] + [Fraction(rng.randint(-9, 9), rng.choice(primes))
                               for _ in range(rng.randint(1, 2))] + [1])
            if h.total_degree() * F.degree() > 6:
                continue
            f = compose_uni(F, h)
            assert attempt_divisor(f, F.degree(), order) == (h, F)
            lm, _ = leading_term(f, order)
            perturbed = dict(f.terms)
            lower = sorted(m for m in perturbed if m != lm)
            if lower:
                perturbed[rng.choice(lower)] += Fraction(1, rng.choice(primes))
            tail = {tuple(rng.randint(0, 3) for _ in range(nvars)):
                    Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(5)}
            tail = {m: c for m, c in tail.items() if 0 < sum(m) < sum(lm)}
            for g in (f, MultiPoly(nvars, perturbed), MultiPoly(nvars, {**tail, lm: 1})):
                for k in range(2, multiplicity(lm) + 1):
                    if multiplicity(lm) % k == 0:
                        got = attempt_divisor(g, k, order)
                        assert got == reference_attempt(g, k, order), (g, k, order)
                        seen["verified" if got else "mismatch"] += 1
        assert min(seen.values()) >= 40, seen

    def test_matches_the_normalized_route(self):
        """a*g + c for g = F(h) and for g with one lower coefficient changed,
        with negative and fractional a, against the route through the
        normalized core: attempt on (f - f(0)) / lc(f), then rescale F."""
        from closedpoly.newton import multiplicity

        def normalized_route(f, k, order):
            nf = normalize(f, order)
            got = reference_attempt(nf.core, k, order)
            return got and (got[0], nf.leading_scalar * got[1] + nf.constant_term)

        rng = random.Random(22)
        seen = dict.fromkeys(("verified", "mismatch", "negative", "fractional", "constant", "no constant"), 0)
        for order in (GL, GR):
            for trial in range(50):
                nvars = 1 + trial % 3
                h = normalize(random_poly(rng, nvars, 3, 4), order).core
                g = compose_uni(random_outer(rng, 3), h)
                if g.total_degree() > 9:
                    continue
                lm, _ = leading_term(g, order)
                perturbed = dict(g.terms)
                lower = sorted(m for m in perturbed if m != lm)
                if lower:
                    perturbed[rng.choice(lower)] += rng.choice([-1, 1])
                a = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 9]))
                c = Fraction(rng.randint(-4, 4), rng.choice([1, 5]))
                for f in (a * g + c, a * MultiPoly(nvars, perturbed) + c):
                    for k in range(2, multiplicity(lm) + 1):
                        if multiplicity(lm) % k == 0:
                            got = attempt_divisor(f, k, order)
                            assert got == normalized_route(f, k, order), (f, k, order)
                            seen["verified" if got else "mismatch"] += 1
                            seen["negative"] += a < 0
                            seen["fractional"] += a.denominator > 1
                            seen["constant" if c else "no constant"] += 1
        assert min(seen.values()) >= 10, seen

    def test_mixed_denominator_example(self):
        # the installed-console-script example of the CI workflow: 21 terms
        h = P("x1^2 + 2/5*x1*x2 + 5/7*x1 - 1/3*x2")
        F = UniPoly([0, Fraction(1, 11), Fraction(-3, 2), 1])
        f = compose_uni(F, h)
        assert len(f.terms) == 21
        r = generative(f, pruned=False)
        assert (r.h, r.F) == (h, F)
        assert r.trace == ((6, "mismatch"), (3, "verified"))

    @pytest.mark.parametrize("F", [UniPoly([0, 0, 1]), UniPoly([0, 1, 3, 1]), UniPoly([0, 0, 0, 0, 1])],
                             ids=["t^2", "t^3+3t^2+t", "t^4"])
    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_cancelling_power_coefficient(self, F, order):
        # h^2 has no x1^2*x2^2 term: 2*(1)*(-2) + 2^2 = 0, so a coefficient of a
        # candidate's power cancels to zero while the powers are updated
        from closedpoly.newton import multiplicity

        h = P("x1^2 + 2*x1*x2 - 2*x2^2")
        assert (h**2).coefficient((2, 2)) == 0
        f = compose_uni(F, h)
        lm, _ = leading_term(f, order)
        divisors = [k for k in range(2, multiplicity(lm) + 1) if multiplicity(lm) % k == 0]
        for k in divisors:
            got = attempt_divisor(f, k, order)
            assert got == reference_attempt(f, k, order), (k, order)
            assert not got or all(got[0].terms.values())
        assert attempt_divisor(f, F.degree(), order) == (h, F)

    @pytest.fixture
    def no_listing(self, monkeypatch):
        import closedpoly.orders

        def refuse(m1, order):
            raise AssertionError("a monomial listing was requested")

        monkeypatch.setattr(closedpoly.orders, "monomials_below", refuse)
        monkeypatch.setattr(dec, "monomials_below", refuse)

    def test_sparse_family_lists_no_monomials(self, no_listing):
        # every divisor but 2 is rejected from the second term 2*x1^12*x8; at
        # k = 2 the band holds 2*x1^12*x8, which solves h's one other term
        f = P("x1^24 + 2*x1^12*x8 + x8^2")
        start = time.perf_counter()
        r = generative(f, pruned=False)
        assert time.perf_counter() - start < 0.1
        assert r.h == P("x1^12 + x8")
        assert r.trace == ((24, "mismatch"), (12, "mismatch"), (8, "mismatch"), (6, "mismatch"),
                           (4, "mismatch"), (3, "mismatch"), (2, "verified"))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_sparse_family(self, n):
        # the size refusal still holds from n = 9 on, though nothing is listed
        f = P(f"x1^24 + 2*x1^12*x{n} + x{n}^2")
        if n <= 8:
            r = generative(f, pruned=False)
            assert (r.h, r.F) == (P(f"x1^12 + x{n}"), UniPoly([0, 0, 1]))
            assert r.trace[-1] == (2, "verified")
            return
        estimate = {9: 293930, 10: 646646, 11: 1352078, 12: 2704156}[n]
        message = f"enumeration of ~{estimate} monomials exceeds the cap of 200000"
        with pytest.raises(MonomialCapExceeded, match=f"^{re.escape(message)}$"):
            generative(f, pruned=False)

    def test_band_term_off_the_multiples_is_a_mismatch(self, monkeypatch, no_listing):
        # at k = 2 the band's second term x2^13 is no multiple of m1 = x1^12, so
        # no solve can clear it: one solve (x8), then the final check refuses
        calls = []
        real = dec._powers_with_term
        monkeypatch.setattr(dec, "_powers_with_term", lambda *args: calls.append(args[1]) or real(*args))
        f = P("x1^24 + 2*x1^12*x8 + x2^13 + x8^2")
        assert attempt_divisor(f, 2, GL) is None
        packing = dec._Packing(8, 24, GL.kind)  # the monomials reach it packed
        assert [packing.unpack(m) for m in calls] == [(0,) * 7 + (1,)]
        r = generative(f, pruned=False)
        assert r.closed and r.h == f
        assert r.trace == tuple((k, "mismatch") for k in (24, 12, 8, 6, 4, 3, 2))

    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_band_mismatch_matches_the_dense_route(self, order):
        g = P("x1^24 + 2*x1^12*x4 + x2^13 + x4^2")
        got = attempt_divisor(g, 2, order)
        assert got is None and got == reference_attempt(g, 2, order)

    def test_rejected_before_the_cap(self):
        # listing the monomials below x1^12 in 9 variables would exceed the cap
        r = generative(P("x1^24 + x9"), pruned=False)
        assert r.closed
        assert r.trace == tuple((k, "mismatch") for k in (24, 12, 8, 6, 4, 3, 2))

    @pytest.mark.parametrize("d, divisors", [(16777214, 7), (2147483646, 191)])
    def test_huge_divisors_rejected_before_listing_powers(self, d, divisors):
        # each m1^k is x1^d, and T = x2 is neither a power of m1 nor a multiple of m1^(k-1)
        f = P(f"x1^{d} + x2")
        start = time.perf_counter()
        r = generative(f, pruned=False)
        assert time.perf_counter() - start < 1.0
        assert r.closed and r.h == f
        assert len(r.trace) == divisors
        assert r.trace == tuple((k, "mismatch") for k in divisor_sequence(f, GL))


class TestPacking:
    """The packed monomials of attempt_divisor: every monomial an attempt
    touches has its exponents and degree at most d = deg lm(f), and the
    fields are sized from d alone."""

    @staticmethod
    def random_monomial(rng, nvars, d):
        """A monomial of random degree t <= d, t split at random cut points."""
        t = rng.randint(0, d)
        cuts = [0, *sorted(rng.randint(0, t) for _ in range(nvars - 1)), t]
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_attempts_at_the_field_bounds(self, order):
        """f = F(h) for h = x_a - x_(a+1) (x_1 in one variable) and F = t^d +
        c*t^l, so that k = d puts d, the bound of every field, in x_a's
        exponent, for d = 2^j - 1 and 2^j (j = 3..7; from 128 on a field is
        two bytes) in 1..12 variables: the attempt gives (h, F), and on f with
        one lower coefficient changed it agrees with the dense route (up to j =
        6: the route takes seconds at 128)."""
        rng = random.Random(33)
        seen = {"verified": 0, "mismatch": 0}
        for d in [2**j - s for j in range(3, 8) for s in (1, 0)]:
            for n in range(1, 13) if d < 20 else rng.sample(range(1, 13), 3 if d < 40 else 1):
                a = rng.randrange(max(n - 1, 1))
                h = MultiPoly.variable(n, a + 1) - (MultiPoly.variable(n, a + 2) if n > 1 else 0)
                F = UniPoly._checked(1, {(d,): Fraction(1), (rng.randint(1, d - 1),): Fraction(rng.choice([-5, -1, 2]), 3)})
                f = compose_uni(F, h)
                assert attempt_divisor(f, d, order) == (h, F), (d, n)
                if d > 64:
                    continue
                g = dict(f.terms)
                g[rng.choice([m for m in g if sum(m) < d])] += 1
                g = MultiPoly(n, g)
                got = attempt_divisor(g, d, order)
                assert got == reference_attempt(g, d, order), (d, n)
                seen["verified" if got else "mismatch"] += 1
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("d", [1, 7, 8, 63, 64, 127, 128, 32767, 32768, 2**31 - 1, 2**32])
    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_keys_order_round_trip_and_divide_as_tuples(self, order, d):
        """Random pairs in 1..12 variables with degree at most d, among them
        pairs with equal fields, a zero base and exponents at d: the key order
        is the monomial order, unpack inverts pack, and the band's guard-bit
        test is the tuple test."""
        from operator import ge

        from closedpoly.orders import sort_key

        rng = random.Random(d)
        for trial in range(160):
            n = 1 + trial % 12
            packing = dec._Packing(n, d, order.kind)
            if trial % 4 == 0:  # a zero base
                base, m = (0,) * n, self.random_monomial(rng, n, d)
            elif trial % 4 == 1:  # x_i^e and x_i^d, an exponent at the bound
                i, e = rng.randrange(n), rng.randint(0, d)
                base, m = tuple(e * (j == i) for j in range(n)), tuple(d * (j == i) for j in range(n))
            else:  # fields equal with probability 0.4, others near them
                base = self.random_monomial(rng, n, d if trial % 4 == 2 else min(d, 9))
                m = tuple(e if rng.random() < 0.4 else rng.randint(0, e + 2) for e in base)
                if sum(m) > d:
                    m = base
            kb, km = packing.pack([base, m], [sum(base), sum(m)])
            assert packing.unpack(kb) == base and packing.unpack(km) == m
            # the band's guard-bit test against the tuple test
            assert packing.band([km], kb) == ([-packing.sign * km] if m != base and all(map(ge, m, base)) else [])
            assert packing.band([kb], km) == ([-packing.sign * kb] if m != base and all(map(ge, base, m)) else [])
            assert (packing.sign * km > packing.sign * kb) == (sort_key(m, order) > sort_key(base, order))
            if km == kb:
                assert m == base


# d(lm) = 24 and g0 = 2, but x2^3*x3^3 is in V0, so d1 = 1; the attempt at
# k = 2 would list the monomials below x1^12 in 9 variables, over the cap
CAP_HAZARD = "x1^24 + 2*x1^12*x9 + x9^2 + x2^4 + x3^4 + x2^3*x3^3"
W12 = OrderSpec(kind=WEIGHTED, weights=(1, 2))


def outcome(call):
    """(h, F, trace, closed) of a call, or its exception's type and message."""
    try:
        r = call()
    except (OrderError, PolyError) as exc:
        return type(exc), str(exc)
    return r.h, r.F, r.trace, r.closed


def corner_poly(rng, nvars):
    """Pure powers x_i^(t_i), each t_i a multiple of k in {2, 3, 4, 6}, and one
    or two points past the midpoints of two edges, some scaled by a divisor of
    k: d(lm) > 1 is common, and such a point in V0, which is no coordinate
    argmax, often makes d1 smaller than g0."""
    k = rng.choice((2, 3, 4, 6))
    tops = [k * rng.randint(1, 3) for _ in range(nvars)]
    terms = {tuple(t * (j == i) for j in range(nvars)): Fraction(1) for i, t in enumerate(tops)}
    for _ in range(rng.randint(1, 2)):
        pair = rng.sample(range(nvars), 2)
        s = rng.choice([s for s in (1, 1, 2, 3) if k % s == 0])
        m = tuple(rng.randint((t + 1) // 2, t - 1) // s * s if i in pair else 0
                  for i, t in enumerate(tops))
        if any(m):
            terms[m] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    return MultiPoly(nvars, terms)


class TestAttemptFirst:
    def test_matches_the_d1_first_reference(self):
        """Seeded composites in 1-4 variables and corner supports in 2-4, under
        grlex, grevlex and a weighted order: the same (h, F, trace, closed),
        or the same exception, as deciding d1 before any attempt."""
        rng = random.Random(2601)
        cases = []
        for _ in range(60):
            h = random_poly(rng, rng.randint(1, 4), 3, 4)
            cases.append(rng.randint(1, 3) * compose_uni(random_outer(rng, 4), h) + rng.randint(0, 2))
            cases.append(corner_poly(rng, rng.randint(2, 4)))
        closed_divisible = bound_above_d1 = raised = 0
        for f in cases:
            weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(f.nvars))
            for order in (GL, GR, OrderSpec(kind=WEIGHTED, weights=weights)):
                got = outcome(lambda: generative(f, order))
                assert got == outcome(lambda: generative_d1_first(f, order)), (f.terms, order)
                d1 = (divisor_sequence(f, order, pruned=True) or (1,))[0]
                bound_above_d1 += d1_bound(f, order) > d1
                raised += len(got) == 2
                closed_divisible += got[-1] is True and multiplicity(leading_term(f, order)[0]) > 1
        assert closed_divisible > 60 and bound_above_d1 > 30 and raised > 40, (
            closed_divisible, bound_above_d1, raised)

    def test_cap_hazard_is_closed(self):
        f = P(CAP_HAZARD)
        assert d1_bound(f, GL) == 2
        assert outcome(lambda: generative(f)) == (f, UniPoly.identity(), (), True)
        assert outcome(lambda: generative_d1_first(f, GL)) == outcome(lambda: generative(f))

    def test_divisor_cap_is_treated_as_the_monomial_cap(self, monkeypatch):
        # with the cap at 1 every attempt that passes the early exit refuses its
        # k: dropped where k does not divide d1 (d1 = 1 here), raised where it does
        monkeypatch.setattr(dec, "MAX_DIVISOR", 1)
        f = P(CAP_HAZARD)
        assert outcome(lambda: generative(f)) == (f, UniPoly.identity(), (), True)
        g = P("x1^4 + 2*x1^2*x2 + x2^2")
        message = "divisor 2 exceeds the supported bound 1"
        assert outcome(lambda: generative(g)) == (MonomialCapExceeded, message)
        assert outcome(lambda: generative_d1_first(g, GL)) == (MonomialCapExceeded, message)

    def test_weighted_order_error_at_a_divisor_of_d1(self):
        # lm x2^6, g0 = d1 = 3: the attempt at k = 3 raises, as with d1 first
        f = P("x2^6 + x1^3")
        message = "weighted is not a graded (degree-compatible) order"
        with pytest.raises(OrderError, match=f"^{re.escape(message)}$"):
            generative(f, W12)
        assert outcome(lambda: generative_d1_first(f, W12)) == (OrderError, message)

    def test_weighted_order_closed_without_attempts(self):
        # lm x2^3 and the x1-argmax x1^4 give g0 = 1
        f = P("x1^4 + x2^3")
        assert outcome(lambda: generative(f, W12)) == (f, UniPoly.identity(), (), True)
        assert outcome(lambda: generative_d1_first(f, W12)) == outcome(lambda: generative(f, W12))

    def test_large_support_verifies_fast(self):
        # h = sum x_i^2*x_(i+1) + x1, cyclic in 8 variables; g = h^4 + 2h^2 has
        # 540 terms, most of them on the Pareto front, and g0 = d(lm) = 4
        h = P(" + ".join(f"x{i}^2*x{i % 8 + 1}" for i in range(1, 9)) + " + x1")
        F = UniPoly([0, 0, 2, 0, 1])
        g = compose_uni(F, h)
        assert len(g.terms) == 540
        start = time.perf_counter()
        r = generative(g)
        assert time.perf_counter() - start < 1.0
        assert (r.h, r.F, r.trace) == (h, F, ((4, "verified"),))


def substitute(f, images):
    """f with each x_i replaced by images[i - 1]."""
    out = MultiPoly.zero(f.nvars)
    for m, c in f.terms.items():
        term = MultiPoly.constant(f.nvars, c)
        for image, e in zip(images, m):
            term = term * image**e
        out = out + term
    return out


def is_scalar_multiple(p, q, order):
    """Whether p == c*q for some nonzero scalar c."""
    m, lc = leading_term(q, order)
    c = p.coefficient(m) / lc
    return c != 0 and p == c * q


class TestGradedMetamorphic:
    """Relations between generative's answers that need no second algorithm,
    on seeded composites F(h); weighted orders wait on ROADMAP item 3."""

    @staticmethod
    def composites(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            h = random_poly(rng, rng.randint(1, 3), 3, 6)
            yield rng, rng.randint(1, 3) * compose_uni(random_outer(rng, 3), h) + rng.randint(0, 2)

    def test_grlex_and_grevlex_agree_up_to_a_scalar(self):
        for _, f in self.composites(3101, 150):
            assert is_scalar_multiple(generative(f, GR).h, generative(f, GL).h, GL), f.terms

    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_outer_composite_has_the_same_h(self, order):
        # k[f] and k[G(f)] have the same algebraic closure
        for rng, f in self.composites(3102, 80):
            middle = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 1))]
            G = UniPoly([rng.randint(-2, 2), *middle, rng.choice((-2, 1, 3))])  # degree 1 or 2
            assert generative(compose_uni(G, f), order).h == generative(f, order).h, (f.terms, G)

    @pytest.mark.parametrize("order", [GL, GR], ids=["grlex", "grevlex"])
    def test_linear_change_of_variables_maps_h(self, order):
        # phi: x_p(i) -> d_i*x_p(i) + sum_(j > i) a_ij*x_p(j), triangular after a
        # permutation p with d_i != 0, so invertible; h∘phi is closed with no constant term
        for rng, f in self.composites(3103, 80):
            n = f.nvars
            p = rng.sample(range(1, n + 1), n)
            x = [MultiPoly.variable(n, i) for i in p]
            images = [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)) * x[i]
                      + sum((rng.randint(-2, 2) * x[j] for j in range(i + 1, n)), MultiPoly.zero(n))
                      for i in range(n)]
            h = generative(f, order).h
            assert is_scalar_multiple(generative(substitute(f, images), order).h, substitute(h, images), order)
