"""Runs one workload's passes in a fresh process and reports what it saw.

Usage: python3 worker.py RUNDIR SECONDS TRACE

RUNDIR holds job.json (written by run.py) and the input files; operations
run with RUNDIR as the working directory, one after another (a closed loop
with a single client). Passes repeat while another one brings the measured
time closer to SECONDS; at least two passes always run. Pass times are
reported as measured and scaled to the reference speed (calibration.py).
With TRACE = 1 the first half
of the time runs untraced passes and the second half traced ones, whose
spans, per-layer figures and overhead are reported. The outputs of the
first pass are kept in RUNDIR/first for run.py to check; every later pass
must reproduce them exactly. Results go to RUNDIR/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import calibration
import spans as tracing


def run_pass(mc, cli, ops, tracer=None):
    """One pass over the operations; returns its start and end stamps and
    per-op records."""
    records = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if op["kind"] == "cli":
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main(op["argv"])
            except Exception as exc:  # an operation that crashes is a failed one
                code = f"{type(exc).__name__}: {exc}"
            records.append({"times": [time.perf_counter() - t0], "code": code, "err": err.getvalue()})
        else:
            times, results = [], []
            t0 = time.perf_counter()
            try:
                ground = mc.bipartite_ground(op["n"])
                weights = None if op["weights"] is None else mc.WeightFunction(ground, op["weights"])
                for q in op["queries"]:
                    results.append(mc.coefficient_query(mc.Graph(ground, q), weights))
                    t1 = time.perf_counter()
                    times.append(t1 - t0)
                    t0 = t1
                code = 0
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            records.append({"times": times, "code": code, "results": results})
    return t_pass, time.perf_counter(), records


def digest(ops, records):
    """Hash of every observable output of a pass, and its output bytes."""
    h = hashlib.sha256()
    size = 0
    for op, rec in zip(ops, records):
        h.update(repr((rec["code"], rec.get("err"), rec.get("results"))).encode())
        if op["kind"] == "cli" and os.path.exists(op["out"]):
            with open(op["out"], "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
                    size += len(chunk)
    return h.hexdigest(), size


def run_phase(mc, cli, ops, budget, state, tracer=None):
    """Whole passes, at least two, for as close to `budget` seconds as the
    pass length allows, with the calibration sampler running. Returns the pass times
    scaled to the reference speed, as measured, and the per-layer figures
    of traced passes (times scaled)."""
    windows, layers = [], []
    start = time.perf_counter()
    with calibration.Sampler() as sampler:
        while True:
            if tracer is not None:
                tracer.reset()
            t0, t1, records = run_pass(mc, cli, ops, tracer)
            windows.append((t0, t1))
            for op, r in zip(ops, records):
                state["latency"].setdefault(op["name"], []).extend(r["times"])
                if op["kind"] == "query":
                    state["attempted"] += len(op["queries"])
                    state["failed"] += len(op["queries"]) - len(r["results"]) if r["code"] else 0
                else:
                    state["attempted"] += 1
                    state["failed"] += r["code"] != op["code"]
            h, size = digest(ops, records)
            if state["first"] is None:
                state["first"] = (h, records)
                shutil.copytree("out", "first")
            elif h != state["first"][0]:
                state["errors"].append("a pass produced different outputs from the first pass")
            if tracer is not None:
                metrics = tracer.layer_metrics()
                metrics["cli.output_mb"] = size / 1e6
                layers.append(metrics)
            elapsed = time.perf_counter() - start
            if len(windows) >= 2 and elapsed * (1 + 0.5 / len(windows)) > budget:
                break
    state["calibration"].extend(sampler.samples)
    factors = [sampler.factor(t0, t1) for t0, t1 in windows]
    for metrics, f in zip(layers, factors):
        for name in metrics:
            if name.endswith(("_s", "_ms")):
                metrics[name] *= f
    raw = [sampler.measured(t0, t1) for t0, t1 in windows]
    return [t * f for t, f in zip(raw, factors)], raw, layers


def main(argv):
    rundir, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(os.path.join(rundir, "job.json")) as fh:
        job = json.load(fh)
    import matchcover as mc
    import matchcover.cli as cli

    os.chdir(rundir)
    os.makedirs("out", exist_ok=True)
    ops = job["ops"]
    state = {"attempted": 0, "failed": 0, "latency": {}, "first": None, "errors": [],
             "calibration": []}
    result = {}
    if not trace:
        times, raw_times, _ = run_phase(mc, cli, ops, seconds, state)
        result.update(pass_times=times, raw_pass_times=raw_times)
    else:
        plain, raw_times, _ = run_phase(mc, cli, ops, seconds / 2, state)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, layers = run_phase(mc, cli, ops, seconds / 2, state, tracer)
        finally:
            tracer.uninstall()
        metrics = {
            name: float(statistics.median(m.get(name, 0) for m in layers))
            for name, _ in tracing.LAYER_METRICS
        }
        metrics.update(tracer.probe_memory())
        metrics["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
        result.update(pass_times=plain, raw_pass_times=raw_times, traced_times=traced, layers=metrics,
                      skipped=tracer.skipped)
        np.savez(job["spans_file"], names=np.array(tracer.names),
                 ops=np.array([op["name"] for op in ops]), **tracer.arrays())
    _, records = state["first"]
    result.update(
        attempted=state["attempted"],
        failed=state["failed"],
        errors=state["errors"],
        latency=state["latency"],
        calibration=state["calibration"],
        first=[{k: v for k, v in r.items() if k != "times"} for r in records],
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
