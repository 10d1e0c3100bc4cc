"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import random
from fractions import Fraction

import pytest

import gen
import run
import spans
import worker
from polyq import closed_by_certificate, compose, parse_terms, render

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _snapshot(name, seed, workdir):
    """The round as bytes: every case, with file paths replaced by the
    files' contents."""
    cases = gen.WORKLOADS[name](seed, str(workdir))
    files = {f: (workdir / f).read_bytes() for f in sorted(os.listdir(workdir))}
    text = repr(cases).replace(str(workdir), "<workdir>")
    return text.encode(), files


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _snapshot(name, 5, tmp_path / "a")
    assert first == _snapshot(name, 5, tmp_path / "b")
    assert first[0] != _snapshot(name, 6, tmp_path / "c")[0]


def test_closed_certificate():
    # x1^2 + x2^2 has lm x1^2 under every order that prefers x1 and x2^2
    # otherwise: gcd 2, no certificate (it is closed, but not provably so here)
    assert not closed_by_certificate({(2, 0): 1, (0, 2): 1})
    assert closed_by_certificate({(2, 0): 1, (0, 1): 1})
    # a square is never certified
    h = {(2, 0): Fraction(1), (0, 1): Fraction(3)}
    assert not closed_by_certificate(compose([0, 0, 1], h))


def test_render_and_parse_round_trip():
    p = {(2, 0, 1): Fraction(-3, 2), (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(5)}
    assert parse_terms(render(p), 3) == p
    assert parse_terms("-t^3 + 2/3*t - 7", 1, var="t") == {
        (3,): -1, (1,): Fraction(2, 3), (0,): -7}


@pytest.fixture(scope="module")
def lib():
    return worker.load_library(ROOT)


def test_planted_wrong_answer_raises_fail_share(lib, tmp_path):
    cases = gen.decompose_pruned(3)[:12] + gen.cli_mix(3, str(tmp_path))[:12]
    honest = worker.fixed_pass(lib, cases)
    assert honest.attempted == 24 and not honest.failures
    planted = copy.deepcopy(cases)
    h = planted[1]["h"]
    h[next(iter(h))] += 1  # a perturbed h
    stein = next(c for c in planted if c["kind"] == "stein")
    stein["lhs"] += 1
    dishonest = worker.fixed_pass(lib, planted)
    assert sum(dishonest.wrong.values()) == 2
    metrics = worker.end_to_end(dishonest)
    assert metrics["success_share"] == pytest.approx(22 / 24)


def test_library_failures_are_counted_by_input(lib):
    p = worker.fixed_pass(lib, [gen.sparse_member(9)])
    [(label, reason)] = p.failures
    assert label == "sparse n=9" and "MonomialCapExceeded" in reason
    assert not p.wrong


def test_self_time_of_nested_calls():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = spans.Tracer(clock=lambda: now[0])

    def inner():
        tick(2.0)

    def outer():
        tick(1.0)
        wrapped_inner()
        tick(3.0)
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["outer"] == pytest.approx(4.0)
    assert tracer.self_s["inner"] == pytest.approx(4.0)
    outer_span = next(s for s in tracer.spans if s[3] == "outer")
    assert outer_span[1] is None and outer_span[5] - outer_span[4] == pytest.approx(8.0)
    assert all(s[1] == outer_span[0] for s in tracer.spans if s[3] == "inner")


def test_self_time_when_the_callee_raises():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 1.0
        raise ValueError

    wrapped = tracer.wrap("failing", failing)

    def outer():
        with pytest.raises(ValueError):
            wrapped()
        now[0] += 2.0

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 1.0, "outer": 2.0}
    assert not tracer.stack


def test_install_wraps_every_binding_once(lib):
    import closedpoly.cli
    import closedpoly.monoid

    before = closedpoly.monoid.saturation_generators
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert closedpoly.cli.saturation_generators is not before
        assert closedpoly.monoid.saturation_generators is not before
        out = worker.call(lib, {"kind": "saturate", "argv": ["saturate", "--gens", "1,0;1,3", "--json"]})
    finally:
        tracer.uninstall()
    assert out[0] == 0
    assert closedpoly.monoid.saturation_generators is before
    # cli calls it once and is_saturated once more
    assert tracer.calls["monoid.saturation_generators"] == 2
    assert tracer.calls["cli.main"] == 1


def test_every_layer_binding_resolves(lib):
    import closedpoly.cli
    import closedpoly.poly

    originals = {b: spans.resolve(b) for bindings in spans.LAYERS.values() for b in bindings}
    mul = closedpoly.poly.MultiPoly.__dict__["__mul__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._installed) == len(originals)
        assert closedpoly.poly.MultiPoly.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    assert closedpoly.poly.MultiPoly.__dict__["__mul__"] is mul
    with pytest.raises(AttributeError, match="closedpoly.cli:no_such_function"):
        spans.resolve("closedpoly.cli:no_such_function")


def _result(failures, wrong=0):
    return {"failures": failures, "wrong": wrong, "metrics": {}}


def test_only_known_defects_may_fail():
    capped = ["sparse n=9", "raised MonomialCapExceeded: too many monomials", 1]
    result = _result([capped])
    run.judge("decompose_unpruned", False, result)
    assert result["correct"] and not result["unexpected"]
    # the same failure elsewhere, another reason or another input is not known
    for name, failure in [("decompose_pruned", capped),
                          ("decompose_unpruned", ["sparse n=8", capped[1], 1]),
                          ("decompose_unpruned", ["sparse n=9", "exit code 2: cap", 1]),
                          ("cli_mix", ["saturate m=40", "exit code 2: enumeration cap", 1])]:
        result = _result([failure])
        run.judge(name, False, result)
        assert not result["correct"] and result["unexpected"] == [failure]


def test_timed_pass_runs_whole_rounds(lib, tmp_path):
    cases = gen.stein_cases(random.Random(1), str(tmp_path))[:7]
    p = worker.timed_pass(lib, lambda r: cases, rounds=2)
    # two rounds are asked for, but whole rounds go on until MIN_CALLS are correct
    assert p.rounds == -(-worker.MIN_CALLS // 7) and p.attempted == 7 * p.rounds
    assert len(p.latencies) == p.attempted and not p.cut_short


def test_metric_names_match_benchmark_json(lib, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    produced = spans.layer_metrics(spans.Tracer(), 1.0, 1.0)
    assert {m["name"] for m in bench["per_layer"]} == set(produced)
    cases = gen.stein_cases(random.Random(1), str(tmp_path))[:3]
    end_to_end = set(worker.end_to_end(worker.fixed_pass(lib, cases))) | {"setup_s"}
    assert {m["name"] for m in bench["end_to_end"]} == end_to_end
    assert set(run.load_units()) == end_to_end | set(produced)
    assert {m["name"] for m in bench["workloads"]} == set(gen.WORKLOADS) == set(gen.ROUND_S)
