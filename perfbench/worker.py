"""One workload in a fresh interpreter: generate, run, check, report.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Run by run.py, which puts the checkout's src/ on PYTHONPATH.  Prints one
JSON object on its last stdout line.  The loop is closed: one caller makes
one call at a time, with no threads.  Only the calls are timed; input
generation and answer checks happen outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import checks
import gen
import spans
import speed

MIN_CALLS = 200  # correct calls, so that at least 10 lie beyond the p95
MAX_PASS_S = 120.0  # wall seconds after which a pass stops, whole rounds or not


def load_library(root: str):
    import closedpoly
    import closedpoly.cli
    import closedpoly.decompose
    import closedpoly.parsing

    expected = os.path.join(root, "src", "closedpoly")
    if os.path.dirname(os.path.abspath(closedpoly.__file__)) != expected:
        raise ImportError(f"closedpoly was imported from {closedpoly.__file__}, not {expected}")
    return closedpoly


def call(lib, case: dict):
    """The measured work of one case.  Module attributes are looked up at
    call time so that the traced pass goes through the wrappers."""
    if case["kind"] == "decompose":
        f = lib.parsing.parse_poly(case["text"]).poly
        return lib.decompose.generative(f, pruned=case["pruned"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(case["argv"])
    return code, out.getvalue(), err.getvalue()


class Pass:
    """Outcomes of one pass over the cases.

    busy_s is the summed wall time of the calls; scaled_s and latencies are
    the same times scaled to the nominal machine speed (speed.py), from the
    reference loop timed before and after each call."""

    def __init__(self):
        self.latencies = []  # scaled seconds, correct calls only
        self.busy_s = 0.0
        self.scaled_s = 0.0
        self.attempted = 0
        self.failures = Counter()  # (label, reason) -> count
        self.wrong = Counter()
        self.rounds = 0  # whole rounds run
        self.cut_short = False
        self._reference = speed.reference_s()

    def run_one(self, lib, case: dict):
        start = time.perf_counter()
        try:
            output = call(lib, case)
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        before, self._reference = self._reference, speed.reference_s()
        scaled = elapsed * speed.NOMINAL_S / ((before + self._reference) / 2)
        self.busy_s += elapsed
        self.scaled_s += scaled
        self.attempted += 1
        if error is None and case["kind"] != "decompose" and output[0] != 0:
            error = f"exit code {output[0]}: {output[2].strip()}"
        if error is not None:
            self.failures[(case["label"], error)] += 1
            return
        try:
            reason = checks.check(case, output)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is None:
            self.latencies.append(scaled)
        else:
            self.failures[(case["label"], reason)] += 1
            self.wrong[(case["label"], reason)] += 1


def timed_pass(lib, make_round, rounds: int) -> Pass:
    """Run whole rounds: `rounds` of them, and more while fewer than
    MIN_CALLS calls were correct.  Whole rounds keep the inputs a pass
    measures fixed by the seed, whatever the library's speed.  MAX_PASS_S
    only guards against a runaway library; a pass it cuts short is marked."""
    p = Pass()
    deadline = time.perf_counter() + MAX_PASS_S
    while p.rounds < rounds or len(p.latencies) < MIN_CALLS:
        for case in make_round(p.rounds):
            if time.perf_counter() > deadline:
                p.cut_short = True
                return p
            p.run_one(lib, case)
        p.rounds += 1
    return p


def fixed_pass(lib, cases: list) -> Pass:
    p = Pass()
    for case in cases:
        p.run_one(lib, case)
    return p


def end_to_end(p: Pass) -> dict:
    lat = p.latencies
    correct = len(lat)
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18] if correct > 1 else float("nan")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "calls_per_s": correct / p.scaled_s,
        "latency_p50_ms": 1000 * statistics.median(lat) if lat else float("nan"),
        "latency_p95_ms": 1000 * p95,
        "success_share": correct / p.attempted,
        "peak_rss_mb": rss_kib / 1024,
    }


def main(argv: list) -> int:
    workload, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lib = load_library(root)
    cases = gen.WORKLOADS[workload](seed, workdir)
    result = {"workload": workload, "seed": seed, "round": len(cases)}
    if not trace:
        def make_round(r):
            if r == 0:
                return cases
            subdir = os.path.join(workdir, str(r))
            os.makedirs(subdir, exist_ok=True)
            return gen.WORKLOADS[workload](seed * 1000 + r, subdir)

        p = timed_pass(lib, make_round, max(1, round(seconds / gen.ROUND_S[workload])))
        result["rounds"] = p.rounds
        result["cut_short"] = p.cut_short
        result["metrics"] = end_to_end(p)
    else:
        # the first half of the round, once untraced and once traced
        prefix = cases[: len(cases) // 2]
        untraced = fixed_pass(lib, prefix)
        tracer = spans.Tracer()
        tracer.install()
        try:
            p = Pass()
            for case in prefix:
                tracer.request += 1
                p.run_one(lib, case)
        finally:
            tracer.uninstall()
        result["metrics"] = spans.layer_metrics(tracer, p.busy_s, p.scaled_s / untraced.scaled_s)
        outdir = os.path.join(root, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        result["trace_file"] = os.path.join(outdir, f"spans-{workload}-{seed}.json")
        tracer.dump(result["trace_file"])
    result["attempted"] = p.attempted
    result["failed"] = sum(p.failures.values())
    result["wrong"] = sum(p.wrong.values())
    result["failures"] = [[label, reason, n] for (label, reason), n in sorted(p.failures.items())]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
