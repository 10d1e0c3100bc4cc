import random
import re

import pytest

from closedpoly.decompose import generative
from closedpoly.depend import alg_dependent, apply_derivation, jacobian_minors
from closedpoly.poly import MultiPoly, PolyError, UniPoly, compose_uni

from conftest import P, random_poly


class TestJacobianMinors:
    def test_composed_pair_vanishes(self, ex1):
        minors = jacobian_minors(ex1, P("x1^2 + x2"))
        assert all(m.is_zero() for m in minors.values())

    def test_independent_variables(self):
        assert jacobian_minors(P("x1", 2), P("x2")) == {(1, 2): MultiPoly.constant(2, 1)}

    def test_self_pair_vanishes(self):
        f = P("x1^3 - x2*x3 + x3^2")
        assert all(m.is_zero() for m in jacobian_minors(f, f).values())

    def test_all_pairs_present(self):
        f = P("x1 + x2 + x3 + x4")
        assert set(jacobian_minors(f, P("x1*x2*x3*x4"))) == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        }

    def test_nvars_mismatch(self):
        with pytest.raises(PolyError):
            jacobian_minors(P("x1"), P("x1 + x2"))


class TestAlgDependent:
    def test_composed_pairs(self):
        rng = random.Random(50)
        for _ in range(15):
            nvars = rng.randint(2, 3)
            h = random_poly(rng, nvars, 3, 4)
            F = UniPoly([0, 2, 1])
            f = compose_uni(F, h)
            if f.is_constant() or h.is_constant():
                continue
            assert alg_dependent(f, h)

    def test_independent(self):
        assert not alg_dependent(P("x1", 2), P("x2"))

    def test_polynomial_in_common_inner(self):
        s = P("x1 + x2")
        assert alg_dependent(s, s * s)

    def test_generic_independence(self):
        rng = random.Random(51)
        checked = 0
        while checked < 15:
            nvars = rng.randint(2, 3)
            p = random_poly(rng, nvars, 4, 4)
            q = random_poly(rng, nvars, 4, 4)
            if p.is_constant() or q.is_constant():
                continue
            # only keep pairs that are verifiably independent by the minor
            # oracle recomputed from scratch (skips the rare dependent draws)
            minors = [
                p.partial(i) * q.partial(j) - p.partial(j) * q.partial(i)
                for i in range(1, nvars)
                for j in range(i + 1, nvars + 1)
            ]
            if all(m.is_zero() for m in minors):
                continue
            assert not alg_dependent(p, q)
            checked += 1


class TestApplyDerivation:
    def test_kernel_contains_f(self):
        f = P("x1^2 + x2")
        assert apply_derivation(f, 1, 2, f).is_zero()

    def test_on_first_variable(self):
        f = P("x1^2 + x2")
        assert apply_derivation(f, 1, 2, P("x1", 2)) == MultiPoly.constant(2, -1)

    def test_on_second_variable(self):
        f = P("x1^2 + x2")
        assert apply_derivation(f, 1, 2, P("x2", 2)) == P("2*x1", 2)

    def test_index_validation(self):
        f = P("x1 + x2")
        with pytest.raises(PolyError):
            apply_derivation(f, 2, 1, f)
        with pytest.raises(PolyError):
            apply_derivation(f, 1, 3, f)

    def test_self_kernel_random(self):
        rng = random.Random(52)
        for _ in range(20):
            nvars = rng.randint(2, 4)
            f = random_poly(rng, nvars, 4, 5)
            for i in range(1, nvars):
                for j in range(i + 1, nvars + 1):
                    assert apply_derivation(f, i, j, f).is_zero()

    def test_leibniz_rule(self):
        rng = random.Random(53)
        for _ in range(20):
            nvars = rng.randint(2, 3)
            f = random_poly(rng, nvars, 3, 4)
            p = random_poly(rng, nvars, 3, 4)
            q = random_poly(rng, nvars, 3, 4)
            i, j = 1, 2
            lhs = apply_derivation(f, i, j, p * q)
            rhs = p * apply_derivation(f, i, j, q) + q * apply_derivation(f, i, j, p)
            assert lhs == rhs


def test_decomposition_certificate(ex1, deg6):
    # every computed generative pair is certified by vanishing minors and
    # h in the kernel of every derivation of f
    for f in (ex1, deg6):
        r = generative(f)
        assert alg_dependent(f, r.h)
        for i in range(1, f.nvars):
            for j in range(i + 1, f.nvars + 1):
                assert apply_derivation(f, i, j, r.h).is_zero()


@pytest.mark.parametrize("call, message", [
    (lambda: jacobian_minors(P("x1 + x2"), MultiPoly.constant(2, 3)),
     "jacobian minors require non-constant polynomials"),
    (lambda: jacobian_minors(MultiPoly.constant(2, 3), P("x1 + x2")),
     "jacobian minors require non-constant polynomials"),
    (lambda: apply_derivation(P("x1*x2"), 1, 2, P("x1 + x3")), "variable-count mismatch"),
], ids=["constant-g", "constant-f", "derivation-variable-count"])
def test_rejected_input(call, message):
    with pytest.raises(PolyError, match=f"^{re.escape(message)}$"):
        call()
