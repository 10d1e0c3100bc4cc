import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import closedpoly
from closedpoly.orders import OrderSpec, normalize
from closedpoly.parsing import parse_poly
from closedpoly.poly import MultiPoly, UniPoly, compose_uni


# Twice the largest timing bound a test asserts (60 s, criterion 5 and the CLI):
# a hang, such as a cycling LP, fails its test instead of stalling the suite.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT_S, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran over the per-test limit of {TEST_TIME_LIMIT_S} s", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# The address-space cap of run_cli_capped's child: an input that would take
# all of the machine's memory fails there with MemoryError instead.
CHILD_MEMORY_LIMIT = 1 << 30
_CAPPED_CHILD = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = {limit} if hard == resource.RLIM_INFINITY else min({limit}, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
sys.path.insert(0, {src!r})
from closedpoly.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_cli_capped(argv, stdin, timeout=60):
    """closedpoly.cli.main(argv) in a child interpreter whose address space
    (RLIMIT_AS) is capped at CHILD_MEMORY_LIMIT, with stdin as its input:
    (exit code, stdout, stderr, wall seconds of the child).  Skips the test
    where RLIMIT_AS is unavailable."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is unavailable")
    src = str(Path(closedpoly.__file__).parent.parent)
    child = _CAPPED_CHILD.format(limit=CHILD_MEMORY_LIMIT, src=src)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", child, *argv], input=stdin, capture_output=True,
                         text=True, timeout=timeout)
    return out.returncode, out.stdout, out.stderr, time.perf_counter() - start


def P(text, min_nvars=1):
    """Shorthand: parse a polynomial expression."""
    return parse_poly(text, min_nvars=min_nvars).poly


@pytest.fixture
def ex1():
    """x1^4 + 2 x1^2 x2 + x2^2 = (x1^2 + x2)^2."""
    return P("x1^4 + 2*x1^2*x2 + x2^2")


@pytest.fixture
def deg6():
    """The degree-6 polynomial with h = x1 x2 (x2 - 1) + x2 and F = t^2 + 1."""
    return P(
        "x1^2*x2^4 - 2*x1^2*x2^3 + x1^2*x2^2 + 2*x1*x2^3 - 2*x1*x2^2 + x2^2 + 1"
    )


@pytest.fixture
def count_validating_inits(monkeypatch):
    """Start counting the validating constructors: the call returns a list that
    gets the class name of each later MultiPoly.__init__ or UniPoly.__init__ call."""
    def start():
        calls = []

        def counted(init):
            def wrapper(self, *args, **kwargs):
                calls.append(type(self).__name__)
                init(self, *args, **kwargs)
            return wrapper

        for cls in (MultiPoly, UniPoly):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        return calls
    return start


def product_identity_holds(result, fam):
    """Oracle for factor_shift, which checks its identity in ℚ[t]: expand
    alpha * prod (h + lambda)^e * residual(h) in ℚ[x] and compare it with f + mu."""
    h = result.h
    product = MultiPoly.constant(h.nvars, fam.alpha)
    for lam, mult in fam.shifts:
        product = product * (h + lam) ** mult
    return product * compose_uni(fam.residual, h) == result.reconstruct() + fam.mu


def random_poly(rng, nvars, max_deg, max_terms, allow_constant=False):
    """A random sparse polynomial with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        for _ in range(20):
            m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if sum(m) <= max_deg:
                break
        else:
            m = (0,) * nvars
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c:
            terms[m] = terms.get(m, Fraction(0)) + c
    p = MultiPoly(nvars, terms)
    if not allow_constant and (p.is_zero() or p.is_constant()):
        v = [0] * nvars
        v[rng.randrange(nvars)] = 1
        p = p + MultiPoly.from_term(nvars, tuple(v), 1)
    return p


def random_closed_normalized(rng, nvars, max_deg, max_terms, order=OrderSpec()):
    """Rejection-sample a closed, leading-monic, constant-free polynomial."""
    from closedpoly.decompose import is_closed

    while True:
        p = random_poly(rng, nvars, max_deg, max_terms)
        core = normalize(p, order).core
        if core.is_constant():
            continue
        if is_closed(core, order):
            return core


def random_outer(rng, max_deg):
    """A random monic univariate F with F(0) = 0 and 1 <= deg <= max_deg."""
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(0)]
    coeffs += [
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg - 1)
    ]
    coeffs.append(Fraction(1))
    return UniPoly(coeffs)
