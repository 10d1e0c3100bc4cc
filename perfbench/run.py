"""closedpoly benchmark: the command that runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: decompose_pruned,
decompose_unpruned, cli_mix, or "all" to run each in turn.  With --trace 0
the result holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines above it are a
report for people, including every failed call by input.

Set-up time is the median, over SETUP_REPEATS fresh interpreters, of the
time to import closedpoly and closedpoly.cli.  The workload itself runs in
one more fresh interpreter (worker.py), whose peak RSS is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 160
# Import time in a fresh interpreter, scaled like every time metric by the
# reference loop timed in the same process (speed.py).
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import closedpoly, closedpoly.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); import speed; "
    "r = sorted(speed.reference_s() for _ in range(3))[1]; print(t * speed.NOMINAL_S / r)"
).format(here=HERE)


class BenchError(RuntimeError):
    pass


def load_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, timeout: float) -> str:
    """Run a fresh interpreter; return its stdout or raise BenchError."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with code {proc.returncode}")
    return proc.stdout


def import_times(repeats: int) -> list:
    return [float(run_child(["-c", IMPORT_PROBE], 60)) for _ in range(repeats)]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if not trace:
            import_times(1)  # compiles bytecode; not counted
            setup = import_times(SETUP_REPEATS // 2)
        out = run_child([os.path.join(HERE, "worker.py"), name, str(seed), str(seconds),
                         "1" if trace else "0", workdir], WORKER_TIMEOUT_S)
        result = json.loads(out.strip().splitlines()[-1])
        if not trace:
            # half of the samples after the workload, so that a slow spell
            # of the machine does not decide the median alone
            setup += import_times(SETUP_REPEATS - SETUP_REPEATS // 2)
            result["metrics"]["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    judge(name, trace, result)
    return result


def judge(name: str, trace: bool, result: dict):
    """Set result["correct"], the unexpected failures and the invariants.

    A failure outside the known defects makes the run incorrect, like a wrong
    answer: otherwise a change that makes expensive calls fail fast would
    pass as a speed-up."""
    result["unexpected"] = [[label, reason, n] for label, reason, n in result["failures"]
                            if not gen.known_defect(name, label, reason)]
    result["correct"] = result["wrong"] == 0 and not result["unexpected"]
    m = result["metrics"]
    if trace and name == "decompose_unpruned":
        holds = m["linprog.feasible_point.calls"] == 0  # pruning off never reaches the LP
        result["invariants"] = {"no LP calls with pruning off": holds}
        result["correct"] = result["correct"] and holds
    if trace and name == "decompose_pruned":
        result["invariants"] = {
            "Newton and LP self time exceed half the traced wall time": m["trace.newton_lp_share"] > 0.5
        }


def report(result: dict, units: dict):
    print(f"workload {result['workload']} seed {result['seed']}: round of {result['round']} cases, "
          f"{result['attempted']} calls, {result['failed']} failed, {result['wrong']} wrong")
    if "rounds" in result:
        print(f"  whole rounds: {result['rounds']}"
              + ("; CUT SHORT by the time limit of a pass" if result["cut_short"] else ""))
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if result["failures"]:
        print("  failed calls, by input:")
        for label, reason, n in result["failures"]:
            print(f"    {label}: {reason} (x{n})")
    for label, reason, n in result["unexpected"]:
        print(f"  NOT A KNOWN DEFECT: {label}: {reason} (x{n})")
    for text, holds in result.get("invariants", {}).items():
        print(f"  invariant: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    if "trace_file" in result:
        print(f"  spans and counters: {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "closedpoly", "__init__.py")):
        print("error: no src/closedpoly in this checkout", file=sys.stderr)
        return 2
    units = load_units()
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result, units)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in results for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
