"""One benchmark run of matchcover on a named workload.

Usage:
    python3 perfbench/run.py --workload build --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
The run measures set-up (fresh interpreters importing matchcover), writes
the workload's seeded inputs into a private directory under
perfbench/results, runs the passes in a fresh worker process (worker.py),
checks the first pass's outputs against the reference checkers, and prints
one JSON object as the last line of stdout. With --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones. Per-operation
latencies and any skipped wrap points go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibration
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_RUNS = 3  # before the passes, and as many again after them
SETUP_CODE = "import sys, matchcover.cli; sys.exit(matchcover.cli.main(['poly', '--n', '1']))"
SETUP_OUTPUT = "+1 x[1,1]\n"
# The same start without matchcover: the interpreter and the modules it
# imports. Set-up is scaled by it as pass times are by the calibration loop:
# setup_s = median(set-up starts) * REFERENCE_START_S / median(reference starts).
REFERENCE_CODE = "import argparse, concurrent.futures, fractions, json, random, re, numpy"
REFERENCE_START_S = 0.25
TIME_LIMIT = 170.0


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's src first, and the
    CLI's default thread count (MATCHCOVER_THREADS unset)."""
    env = dict(os.environ)
    env.pop("MATCHCOVER_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env, times: list[float], reference: list[float]) -> None:
    """Time from starting an interpreter until `import matchcover` and a
    first trivial CLI call have returned, SETUP_RUNS times, into `times`.
    Each start follows a start of the reference interpreter (same imports,
    no matchcover), whose time goes into `reference`."""
    for _ in range(SETUP_RUNS):
        for code, out in ((REFERENCE_CODE, reference), (SETUP_CODE, times)):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            out.append(time.perf_counter() - t0)
            if proc.returncode != 0 or (code == SETUP_CODE and proc.stdout != SETUP_OUTPUT):
                raise RuntimeError(f"set-up call failed: {proc.stderr.strip()[-300:]}")


def latency_lines(latency: dict[str, list[float]]) -> list[str]:
    """Median and the highest percentile with ten samples beyond it."""
    lines = []
    for name, times in latency.items():
        times = sorted(times)
        n = len(times)
        line = f"  {name}: n={n} p50={statistics.median(times) * 1e3:.3f} ms"
        for q in (99.9, 99, 90):
            if n >= 40 and n * (1 - q / 100) >= 10:
                line += f" p{q:g}={statistics.quantiles(times, n=1000)[int(q * 10) - 1] * 1e3:.3f} ms"
                break
        lines.append(line)
    return lines


def collect_outputs(job, result, rundir) -> dict:
    outputs = {}
    for op, rec in zip(job.ops, result["first"]):
        rec = dict(rec)
        if op["kind"] == "cli":
            path = os.path.join(rundir, "first", os.path.basename(op["out"]))
            rec["out"] = ""
            if os.path.exists(path):
                with open(path) as fh:
                    rec["out"] = fh.read()
        outputs[op["name"]] = rec
    return outputs


def run(args) -> dict:
    started = time.perf_counter()
    env = child_env()
    setup_times: list[float] = []
    reference_times: list[float] = []
    measure_setup(env, setup_times, reference_times)
    os.makedirs(RESULTS, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=RESULTS)
    try:
        job = WORKLOADS[args.workload](args.seed, rundir)
        spans_file = os.path.join(RESULTS, f"spans-{args.workload}.npz")
        with open(os.path.join(rundir, "job.json"), "w") as fh:
            json.dump({"ops": job.ops, "spans_file": spans_file}, fh)
        worker = [sys.executable, os.path.join(HERE, "worker.py"), rundir,
                  str(args.seconds), str(args.trace)]
        timeout = TIME_LIMIT - (time.perf_counter() - started)
        proc = subprocess.run(worker, env=env, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        measure_setup(env, setup_times, reference_times)
        with open(os.path.join(rundir, "result.json")) as fh:
            result = json.load(fh)
        outputs = collect_outputs(job, result, rundir)
        try:
            errors = result["errors"] + job.check(outputs)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: passes "
          + " ".join(f"{t:.3f}" for t in result["pass_times"]) + " s at the reference speed, "
          + " ".join(f"{t:.3f}" for t in result["raw_pass_times"]) + " s as measured",
          file=sys.stderr)
    print(f"set-up: {statistics.median(setup_times):.4f} s as measured, reference start"
          f" {statistics.median(reference_times):.4f} s", file=sys.stderr)
    cal = result["calibration"]
    print(f"calibration loop: n={len(cal)} mean={statistics.mean(cal) * 1e3:.2f} ms"
          f" median={statistics.median(cal) * 1e3:.2f} ms", file=sys.stderr)
    print("per-operation latency:", file=sys.stderr)
    print("\n".join(latency_lines(result["latency"])), file=sys.stderr)
    if args.trace:
        for name in result["skipped"]:
            print(f"trace: skipped missing wrap point {name}", file=sys.stderr)
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.mean(result["pass_times"]), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times) * REFERENCE_START_S
                        / statistics.median(reference_times), "unit": "s"},
        }
    return {"correct": not errors, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "matchcover", "__init__.py")):
        print(f"error: no matchcover sources under {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
