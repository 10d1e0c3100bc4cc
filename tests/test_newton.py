import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from closedpoly import linprog
from closedpoly.decompose import generative
from closedpoly.linprog import feasible_point
from closedpoly.newton import (
    descending_divisors,
    divisor_sequence,
    multiplicity,
    newton_summary,
    realizing_weights,
    v0_set,
)
from closedpoly.orders import GREVLEX, WEIGHTED, OrderSpec, leading_term
from closedpoly.poly import MultiPoly, PolyError, compose_uni

from conftest import P, random_outer, random_poly
import oracles
from oracles import v0_combinatorial, v0_lp

GL = OrderSpec()


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return feasible_point(*args, **kwargs)

    monkeypatch.setattr("closedpoly.newton.feasible_point", counting)
    return calls


def _independent_solution(columns, rhs):
    """z with sum_j z_j * columns[j] == rhs, when the columns are linearly
    independent and the system is consistent; else None (Fraction Gaussian
    elimination)."""
    k = len(columns)
    M = [[Fraction(col[i]) for col in columns] + [Fraction(b)] for i, b in enumerate(rhs)]
    for c in range(k):
        r = next((r for r in range(c, len(M)) if M[r][c]), None)
        if r is None:
            return None
        M[c], M[r] = M[r], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for i, row in enumerate(M):
            if i != c and row[c]:
                M[i] = [x - row[c] * y for x, y in zip(row, M[c])]
    if any(row[k] for row in M[k:]):
        return None
    return [row[k] for row in M[:k]]


def _feasible_by_enumeration(n, A_eq, b_eq, A_ge, b_ge):
    """Whether some basic solution of [A_eq 0; A_ge -I] (x, s) = b is >= 0.
    A nonempty {z >= 0 : M z = b} has such a vertex, with independent columns."""
    rows = [list(r) + [0] * len(A_ge) for r in A_eq]
    rows += [list(r) + [-(i == j) for j in range(len(A_ge))] for i, r in enumerate(A_ge)]
    rhs = list(b_eq) + list(b_ge)
    columns = [[row[j] for row in rows] for j in range(n + len(A_ge))]
    for size in range(len(rhs) + 1):
        for support in combinations(columns, size):
            z = _independent_solution(support, rhs)
            if z is not None and all(v >= 0 for v in z):
                return True
    return False


class TestLinprog:
    def test_feasible_equalities(self):
        # x + y = 3, x - y = 1 has the nonnegative solution (2, 1)
        d, x = feasible_point(2, A_eq=[[1, 1], [1, -1]], b_eq=[3, 1])
        assert d > 0 and x == [2 * d, d]

    def test_infeasible(self):
        assert feasible_point(1, A_eq=[[1]], b_eq=[-2]) is None

    def test_inequalities(self):
        d, x = feasible_point(2, A_ge=[[1, 1]], b_ge=[5])
        assert d > 0 and x[0] + x[1] >= 5 * d

    def test_mixed(self):
        # x + y = 1 and x - y >= 1/2, the second row scaled by 2
        d, x = feasible_point(2, A_eq=[[1, 1]], b_eq=[1], A_ge=[[2, -2]], b_ge=[1])
        assert d > 0
        assert x[0] + x[1] == d and 2 * (x[0] - x[1]) >= d

    def test_infeasible_inequalities(self):
        # x <= 1 and x >= 2 cannot both hold
        assert feasible_point(1, A_ge=[[-1], [1]], b_ge=[-1, 2]) is None

    def test_agrees_with_basic_solution_enumeration(self):
        rng = random.Random(404)

        def entry():
            k = rng.random()
            if k < 0.25:
                return 0
            if k < 0.6:
                return rng.randint(-5, 5)
            return rng.randint(-30, 30)

        feasible = 0
        for _ in range(600):
            n = rng.randint(1, 4)
            A_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 3))]
            A_ge = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 3))]
            b_eq = [entry() for _ in A_eq]
            b_ge = [entry() for _ in A_ge]
            sol = feasible_point(n, A_eq=A_eq, b_eq=b_eq, A_ge=A_ge, b_ge=b_ge)
            assert (sol is not None) == _feasible_by_enumeration(n, A_eq, b_eq, A_ge, b_ge)
            if sol is None:
                continue
            feasible += 1
            d, numerators = sol
            assert type(d) is int and d > 0
            assert len(numerators) == n and all(type(v) is int and v >= 0 for v in numerators)
            x = [Fraction(v, d) for v in numerators]
            for row, b in zip(A_eq, b_eq):
                assert sum(a * v for a, v in zip(row, x)) == b
            for row, b in zip(A_ge, b_ge):
                assert sum(a * v for a, v in zip(row, x)) >= b
        assert 150 < feasible < 450

    def test_returned_vertex_is_pinned(self):
        # the LP with rows [-2, 3, -2, -3, -6, -1/7] >= 5 and
        # [1, 6, -2, -6, 9, 4] >= 7/3, every row scaled by 21 to integers:
        # one common scale multiplies the phase-1 objective uniformly, so
        # Bland's rule ends at the vertex of the unscaled LP; scaling each row
        # by its own denominator would end at [19, 43/3, 0, 0, 0, 0].
        d, x = feasible_point(
            6,
            A_eq=[[147, -189, -42, 105, -105, 42]],
            b_eq=[84],
            A_ge=[[-42, 63, -42, -63, -126, -3], [21, 126, -42, -126, 189, 84]],
            b_ge=[105, 49],
        )
        assert d > 0
        assert [Fraction(v, d) for v in x] == [0, Fraction(74, 33), 0, 0, 0, Fraction(133, 11)]

    def test_pivots_as_the_stored_artificial_reference(self, monkeypatch):
        """2,400 seeded LPs, 400 of each kind: the pivots (row, element) and the
        answer equal those of phase 1 with every artificial column stored."""
        rng = random.Random(3404)
        seen = {"pivots": [], "reference_pivots": []}

        def recording(real, key):
            def wrapper(rows, r, c, d):
                p = real(rows, r, c, d)
                seen[key].append((r, p))
                return p
            return wrapper

        monkeypatch.setattr("closedpoly.linprog.pivot", recording(linprog.pivot, "pivots"))
        monkeypatch.setattr(oracles, "reference_pivot",
                            recording(oracles.reference_pivot, "reference_pivots"))

        def entry():
            return rng.choice([0, rng.randint(-5, 5), rng.randint(-30, 30)])

        kinds = {  # the ranges of the equality and of the inequality row counts
            "equality": (1, 3, 0, 0), "inequality": (0, 0, 1, 6), "mixed": (1, 3, 1, 6),
            "no rows": (0, 0, 0, 0), "degenerate": (1, 2, 1, 4), "small": (0, 1, 0, 2),
        }
        counts = dict.fromkeys(("infeasible", "negative b", "zero b", "pivots",
                                "negative equality b", "infeasible with equality rows"), 0)
        for kind, (lo_eq, hi_eq, lo_ge, hi_ge) in kinds.items():
            for _ in range(400):
                n = rng.randint(1, 5)
                A_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(lo_eq, hi_eq))]
                A_ge = [[entry() for _ in range(n)] for _ in range(rng.randint(lo_ge, hi_ge))]
                b_eq = [entry() for _ in A_eq]
                b_ge = [entry() for _ in A_ge]
                if kind == "degenerate":  # repeated rows and a zero b tie the ratio test
                    A_eq.append(list(A_eq[0]))
                    b_eq.append(b_eq[0])
                    A_ge.append([2 * a for a in A_ge[0]])
                    b_ge.append(2 * b_ge[0])
                    b_ge[rng.randrange(len(b_ge))] = 0
                seen["pivots"].clear()
                seen["reference_pivots"].clear()
                sol = feasible_point(n, A_eq=A_eq, b_eq=b_eq, A_ge=A_ge, b_ge=b_ge)
                expected = oracles.reference_feasible_point(n, A_eq, b_eq, A_ge, b_ge)
                assert (sol, seen["pivots"]) == (expected, seen["reference_pivots"]), \
                    (kind, n, A_eq, b_eq, A_ge, b_ge)
                counts["infeasible"] += sol is None
                counts["negative b"] += min([*b_eq, *b_ge, 0]) < 0
                counts["zero b"] += 0 in [*b_eq, *b_ge]
                counts["pivots"] += len(seen["pivots"])
                # sign_i = -1 in an equality row's implied artificial column
                counts["negative equality b"] += min([*b_eq, 0]) < 0
                counts["infeasible with equality rows"] += sol is None and bool(A_eq)
        assert min(counts.values()) > 300, counts


class TestMultiplicity:
    def test_pure_power(self):
        assert multiplicity((4, 0)) == 4

    def test_gcd(self):
        assert multiplicity((2, 4)) == 2

    def test_coprime(self):
        assert multiplicity((1, 1)) == 1

    def test_unit_rejected(self):
        with pytest.raises(PolyError):
            multiplicity((0, 0))


class TestV0:
    def test_quartic(self, ex1):
        assert v0_set(ex1) == {(4, 0), (0, 2)}

    def test_single_monomial(self):
        assert v0_set(P("x1^2*x2", 2)) == {(2, 1)}

    def test_origin_dominated(self):
        assert v0_set(P("x1 + x2 + 1")) == {(1, 0), (0, 1)}

    def test_degree_six(self, deg6):
        assert v0_set(deg6) == {(2, 4)}

    def test_one_lp_per_front_point(self, lp_calls):
        # front (4,0), (2,2), (0,4); (2,0), (1,1) and the origin are dominated
        f = P("x1^4 + x1^2*x2^2 + x2^4 + x1^2 + x1*x2 + 1")
        assert v0_set(f) == {(4, 0), (0, 4)}
        assert [args[0] for args in lp_calls] == [2, 2, 2]  # front size - 1 columns each

    def test_one_variable_makes_no_lp(self, lp_calls):
        assert v0_set(P("x1^5 + 3*x1^2 + x1")) == {(5,)}
        assert lp_calls == []

    def test_planted_pure_powers(self):
        # every monomial of degree 1..14 in 3 variables: 679 points, a front of 120
        terms = {m: Fraction(1) for m in product(range(15), repeat=3) if 0 < sum(m) <= 14}
        assert len(terms) == 679
        assert v0_set(MultiPoly(3, terms)) == {(14, 0, 0), (0, 14, 0), (0, 0, 14)}

    def test_640_random_points_are_fast(self):
        rng = random.Random(36)
        points = set()
        while len(points) < 640:
            points.add(tuple(rng.randint(0, 20) for _ in range(3)))
        f = MultiPoly(3, {m: Fraction(1) for m in points})
        start = time.perf_counter()
        v0 = v0_set(f)
        assert time.perf_counter() - start < 1.0  # the target is 0.1 s
        assert_sampled_argmax_in(v0, f, rng)

    @pytest.mark.parametrize("call", [
        v0_set,
        # d(lm) = 4 does not divide d(2, 1) = 1, so (2, 1) gets an LP
        lambda f: divisor_sequence(f, GL, pruned=True),
    ], ids=["v0_set", "divisor_sequence"])
    def test_bogus_exclusion_witness_raises(self, monkeypatch, ex1, call):
        # all weight on the first other point, which never dominates v in ex1
        def bogus(n, **kwargs):
            return 1, [1] + [0] * (n - 1)

        monkeypatch.setattr("closedpoly.newton.feasible_point", bogus)
        with pytest.raises(RuntimeError, match="dominance witness"):
            call(ex1)

    @pytest.mark.parametrize("sol", [
        # 1/4*(4,0) + 3/4*(0,2) = (1, 3/2) does not dominate (2,1), though the
        # numerators' combination (4, 6) does: the check compares it with 4*(2,1)
        (4, [1, 3]),
        # (4,0) + (0,2) dominates (2,1), but the weights sum to 2
        (1, [1, 1]),
        # no weight at all over d = 0 passes every other check
        (0, [0, 0]),
    ], ids=["scaled", "sum-two", "zero-denominator"])
    def test_witness_is_checked_in_integers(self, monkeypatch, ex1, sol):
        monkeypatch.setattr("closedpoly.newton.feasible_point", lambda n, **kwargs: sol)
        with pytest.raises(RuntimeError, match=r"excluding \(2, 1\) from V0"):
            divisor_sequence(ex1, GL, pruned=True)

    def test_negative_witness_weight_raises(self, monkeypatch, ex1):
        # 2*(2,1) - (0,2) = (4,0) dominates (4,0) and the weights sum to d = 1,
        # but one of them is negative
        monkeypatch.setattr("closedpoly.newton.feasible_point", lambda n, **kwargs: (1, [2, -1]))
        with pytest.raises(RuntimeError, match=r"excluding \(4, 0\) from V0"):
            v0_set(ex1)


class TestDivisorSequence:
    def test_plain(self, ex1):
        assert divisor_sequence(ex1, GL, pruned=False) == (4, 2)

    def test_pruned(self, ex1):
        assert divisor_sequence(ex1, GL, pruned=True) == (2,)

    @pytest.mark.parametrize("text, divisors, columns", [
        # front (4,0), (2,2), (0,4): only (2,2) has a multiplicity 4 does not
        # divide, and the midpoint of the other two excludes it
        ("x1^4 + x1^2*x2^2 + x2^4 + x1^2 + x1*x2 + 1", (4, 2), [2]),
        # lm (0,3,0): (2,0,0) is the x1-argmax, so g0 = 1 and no LP runs
        ("x1^2 + x2^3 + x3^2", (), []),
        # lm (6,0,0), g0 = 2 from the argmaxes x2^4 and x3^4: (0,3,3) is in V0
        # but no coordinate argmax, and its LP brings g to 1
        ("x1^6 + x2^4 + x3^4 + x2^3*x3^3", (), [3]),
        # lm (4,2), front (4,2), (0,4): 2 divides both multiplicities
        ("x1^4*x2^2 + x1^2*x2^2 + x2^4 + x1^2", (2,), []),
    ], ids=["exclusion", "stops-at-one", "lp-stops-at-one", "all-divisible"])
    def test_pruned_lp_count(self, lp_calls, text, divisors, columns):
        assert divisor_sequence(P(text), GL, pruned=True) == divisors
        assert [args[0] for args in lp_calls] == columns  # front size - 1 columns each

    @pytest.mark.parametrize("text, trace, columns", [
        # g0 = 2 from the x2-argmax: the first attempt verifies, and d1 is not
        # decided (the walk from d(lm) = 4 would run an LP for (2,1))
        ("x1^4 + 2*x1^2*x2 + x2^2", ((2, "verified"),), []),
        # g0 = 4: k = 4 mismatches, and the LP that excludes (2,2) keeps d1 = 4,
        # so the mismatch stays in the trace
        ("x1^4 + 2*x1^2*x2^2 + x2^4", ((4, "mismatch"), (2, "verified")), [2]),
        # g0 = 2: k = 2 mismatches, and the LP that keeps (0,3,3) in V0 brings
        # d1 to 1, so the mismatch is dropped
        ("x1^6 + x2^4 + x3^4 + x2^3*x3^3", (), [3]),
    ], ids=["verified-first", "mismatch-kept", "mismatch-dropped"])
    def test_generative_lp_count(self, lp_calls, text, trace, columns):
        assert generative(P(text)).trace == trace
        assert [args[0] for args in lp_calls] == columns

    def test_multiplicity_one_fast_path(self):
        assert divisor_sequence(P("x1*x2 + x1"), GL) == ()

    def test_divisors_match_brute_force(self):
        for d in range(1, 3001):
            assert descending_divisors(d) == tuple(k for k in range(d, 1, -1) if d % k == 0), d

    def test_huge_leading_multiplicity_is_fast(self):
        # 2147483646 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331 has 192 divisors
        start = time.perf_counter()
        s = newton_summary(P("x1^2147483646 + x2"), GL)
        assert time.perf_counter() - start < 1.0
        assert len(s.divisors_plain) == 191
        assert s.divisors_plain[:3] == (2147483646, 1073741823, 715827882)
        assert s.divisors_pruned == ()


class TestRealizingWeights:
    def test_leading_vertex(self, ex1):
        ws = realizing_weights(ex1, (4, 0))
        assert ws is not None
        assert all(type(w) is Fraction and w > 0 for w in ws)
        top = sum(w * e for w, e in zip(ws, (4, 0)))
        for u in ex1.support() - {(4, 0)}:
            assert sum(w * e for w, e in zip(ws, u)) < top

    def test_midpoint_infeasible(self, ex1):
        assert realizing_weights(ex1, (2, 1)) is None

    def test_singleton_support(self):
        # one term leaves the LP no rows: its zero point makes every weight 1
        for text, v in [("x1*x2", (1, 1)), ("-5/2*x1^3", (3,)), ("x1*x3^2", (1, 0, 2))]:
            ws = realizing_weights(P(text), v)
            assert ws == (1,) * len(v)
            assert all(type(w) is Fraction for w in ws)

    def test_not_in_support(self, ex1):
        with pytest.raises(PolyError):
            realizing_weights(ex1, (3, 3))

    def test_makes_v_leading_under_weighted_order(self, ex1):
        for v in v0_set(ex1):
            order = OrderSpec(kind=WEIGHTED, weights=realizing_weights(ex1, v))
            assert leading_term(ex1, order)[0] == v

    @pytest.mark.parametrize("sol", [
        (1, [0, 0]),  # weights (1, 1): (4, 0) scores 4 > 2
        (1, [-1, 0]),  # weights (0, 1): (0, 2) is the strict argmax, but a weight is 0
        (1, [0, 1]),  # weights (1, 2): all three points score 4
        # W = d + y = (1, 3) passes every other check, but the weights W/d
        # are (-1, -3)
        (-1, [2, 4]),
    ], ids=["not-argmax", "not-positive", "tie", "negative-denominator"])
    def test_bogus_lp_answer_raises(self, ex1, monkeypatch, sol):
        monkeypatch.setattr("closedpoly.newton.feasible_point", lambda n, **kw: sol)
        with pytest.raises(RuntimeError, match=r"realizing weights for \(0, 2\) failed their check"):
            realizing_weights(ex1, (0, 2))


class TestNewtonSummary:
    def test_quartic(self, ex1):
        s = newton_summary(ex1, GL)
        assert s.support == frozenset({(4, 0), (2, 1), (0, 2)})
        assert s.v0 == frozenset({(4, 0), (0, 2)})
        assert s.d_leading == 4
        assert s.d1 == 2
        assert s.divisors_plain == (4, 2)
        assert s.divisors_pruned == (2,)

    def test_computes_v0_once(self, monkeypatch, ex1):
        calls = []

        def counting(f):
            calls.append(f)
            return v0_set(f)

        monkeypatch.setattr("closedpoly.newton.v0_set", counting)
        assert newton_summary(ex1, GL).d1 == 2
        assert len(calls) == 1

    def test_invariants(self):
        rng = random.Random(21)
        for _ in range(20):
            f = random_poly(rng, rng.randint(2, 3), 6, 6)
            s = newton_summary(f, GL)
            assert s.v0 <= s.support
            assert s.d_leading % s.d1 == 0
            assert set(s.divisors_pruned) <= set(s.divisors_plain)
            for seq in (s.divisors_plain, s.divisors_pruned):
                assert all(k > 1 for k in seq)
                assert list(seq) == sorted(seq, reverse=True)


def random_support_poly(rng, nvars, max_points=12, max_deg=8):
    terms = {}
    for _ in range(rng.randint(1, max_points)):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[m] = Fraction(rng.randint(1, 5))
    p = MultiPoly(nvars, terms)
    if p.is_constant():
        p = p + MultiPoly.from_term(nvars, (1,) + (0,) * (nvars - 1), 1)
    return p


def dominated_support_poly(rng, nvars, max_points=40, max_deg=8):
    """Up to four random top points, up to two floor-midpoints of them (which
    only a combination may dominate), and random points below the tops."""
    tops = [tuple(rng.randint(0, max_deg) for _ in range(nvars)) for _ in range(rng.randint(1, 4))]
    tops += [
        tuple((a + b) // 2 for a, b in zip(rng.choice(tops), rng.choice(tops)))
        for _ in range(rng.randint(0, 2))
    ]
    terms = {m: Fraction(1) for m in tops}
    for _ in range(rng.randint(0, max_points - len(tops))):
        terms[tuple(rng.randint(0, e) for e in rng.choice(tops))] = Fraction(rng.randint(1, 5))
    p = MultiPoly(nvars, terms)
    if p.is_constant():
        p = p + MultiPoly.from_term(nvars, (1,) + (0,) * (nvars - 1), 1)
    return p


def assert_sampled_argmax_in(v0, f, rng, samples=100):
    """The strict argmax of random positive weights over the support is in v0."""
    support = sorted(f.support())
    for _ in range(samples):
        w = [rng.randint(1, 1000) for _ in range(f.nvars)]
        vals = [sum(wi * e for wi, e in zip(w, m)) for m in support]
        top = max(vals)
        if vals.count(top) > 1:
            continue  # ties are skipped
        assert support[vals.index(top)] in v0


class TestDualCharacterization:
    def test_lp_equals_combinatorial(self):
        rng = random.Random(33)
        cases = [random_support_poly(rng, rng.randint(1, 4)) for _ in range(60)]
        cases += [dominated_support_poly(rng, rng.randint(1, 5)) for _ in range(30)]
        for f in cases:
            lp = v0_lp(f)
            assert lp == v0_combinatorial(f)
            assert v0_set(f) == lp
            # the lexicographically largest point is in V0, and the unit point
            # never is: every other point dominates it
            assert max(f.support()) in lp
            with_constant = f + 1
            assert (0,) * f.nvars in with_constant.support()
            assert v0_set(with_constant) == lp

    def test_sampled_argmax_lands_in_v0(self):
        rng = random.Random(34)
        for _ in range(20):
            f = random_support_poly(rng, rng.randint(2, 4))
            assert_sampled_argmax_in(v0_set(f), f, rng)

    def test_d1_divides_leading_multiplicity_for_all_orders(self):
        rng = random.Random(35)
        for _ in range(10):
            f = random_support_poly(rng, rng.randint(2, 3))
            d1 = newton_summary(f, GL).d1
            orders = [GL, OrderSpec(kind=GREVLEX)]
            orders += [
                OrderSpec(
                    kind=WEIGHTED,
                    weights=tuple(
                        Fraction(rng.randint(1, 50), rng.randint(1, 7))
                        for _ in range(f.nvars)
                    ),
                )
                for _ in range(20)
            ]
            for order in orders:
                lm, _ = leading_term(f, order)
                if not any(lm):
                    continue
                assert multiplicity(lm) % d1 == 0


def multiple_support_poly(rng, nvars, max_points=10):
    """Random points, each scaled by 1, 2, 3, 4 or 6, so that multiplicities
    above 1, and gcds between 1 and d(lm), are common."""
    terms = {}
    for _ in range(rng.randint(1, max_points)):
        k = rng.choice((1, 2, 3, 4, 6))
        terms[tuple(k * rng.randint(0, 3) for _ in range(nvars))] = Fraction(rng.randint(1, 5))
    p = MultiPoly(nvars, terms)
    if p.is_constant():
        p = p + MultiPoly.from_term(nvars, (2,) + (0,) * (nvars - 1), 1)
    return p


def test_pruned_divisors_are_those_of_the_v0_gcd():
    """divisor_sequence(pruned=True) lists the divisors of gcd d(v) over the
    weight-LP V0, under grlex, lex (a weighted order with weights B^(n-i)
    above every exponent) and the weights realizing a random V0 point, whose
    lm need not be the lex-largest point."""
    rng = random.Random(2406)
    cases = [multiple_support_poly(rng, rng.randint(1, 6)) for _ in range(120)]
    for _ in range(40):
        h = random_poly(rng, rng.randint(1, 4), 3, 4)
        cases.append(compose_uni(random_outer(rng, 3), h))
    pruning, lm_not_lex_max = 0, 0
    for f in cases:
        v0 = v0_lp(f)
        expected = descending_divisors(gcd(*map(multiplicity, v0)))
        top = 1 + max(map(max, f.support()))
        lex = tuple(Fraction(top ** (f.nvars - 1 - i)) for i in range(f.nvars))
        v = rng.choice(sorted(v0))
        orders = [GL, OrderSpec(kind=WEIGHTED, weights=lex),
                  OrderSpec(kind=WEIGHTED, weights=realizing_weights(f, v))]
        for order in orders:
            assert divisor_sequence(f, order, pruned=True) == expected, (f.terms, order)
            lm = leading_term(f, order)[0]
            pruning += multiplicity(lm) > gcd(*map(multiplicity, v0))
            lm_not_lex_max += lm != max(f.support())
        assert leading_term(f, orders[1])[0] == max(f.support())
        assert leading_term(f, orders[2])[0] == v
    assert pruning > 100 and lm_not_lex_max > 40, (pruning, lm_not_lex_max)


@pytest.mark.parametrize("call, message", [
    (lambda: v0_set(MultiPoly.constant(2, 3)), "V0 requires a non-constant polynomial"),
    (lambda: divisor_sequence(MultiPoly.constant(2, 3), GL),
     "divisor sequence requires a non-constant polynomial"),
    (lambda: newton_summary(MultiPoly.constant(2, 3), GL),
     "newton summary requires a non-constant polynomial"),
    (lambda: newton_summary(MultiPoly.zero(2), GL),
     "newton summary requires a non-constant polynomial"),
], ids=["v0_set", "divisor_sequence", "newton_summary", "newton_summary-zero"])
def test_constant_rejected(call, message):
    with pytest.raises(PolyError, match=f"^{re.escape(message)}$"):
        call()
