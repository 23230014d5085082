"""Spans at the layer boundaries of matchcover, recorded from outside.

The tracer replaces public functions at the points where one layer calls
another (module attributes such as `matchcover.cli.covered_closure`, and
methods such as `WeightFunction.tight_mask`) with wrappers that record a
span: name, start, end, parent span and the operation it belongs to. Spans
are kept in flat arrays while the pass runs and reduced afterwards: a
layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all spans add up to the traced time.
A wrap point that no longer exists is skipped and reported, never fatal.
"""

from __future__ import annotations

import functools
import gc
import importlib
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, module, attribute) -- "Class.method" for methods.
WRAP_POINTS = [
    ("cli", "matchcover.cli", "main"),
    ("graphs.cyclomatic", "matchcover.polynomial", "cyclomatic_number"),
    ("graphs.cyclomatic", "matchcover.covered", "cyclomatic_number"),
    ("graphs.parse", "matchcover.cli", "parse_graph"),
    ("matching.enumerate", "matchcover.cli", "enumerate_perfect_matchings"),
    ("matching.enumerate", "matchcover.cli", "enumerate_min_weight_pms"),
    ("matching.enumerate", "matchcover.polynomial", "enumerate_perfect_matchings"),
    ("matching.enumerate", "matchcover.polynomial", "enumerate_min_weight_pms"),
    ("matching.solve", "matchcover.matching", "hungarian"),
    ("matching.parse", "matchcover.cli", "parse_weight_function"),
    ("matching.support", "matchcover.matching", "pm_support"),
    ("matching.support", "matchcover.covered", "pm_support"),
    ("matching.tight_mask", "matchcover.matching", "WeightFunction.tight_mask"),
    ("matching.oracle", "matchcover.cli", "has_perfect_matching"),
    ("matching.oracle", "matchcover.cli", "contains_min_weight_pm"),
    ("covered.closure", "matchcover.cli", "covered_closure"),
    ("covered.closure", "matchcover.polynomial", "covered_closure"),
    ("covered.query", "matchcover.cli", "coefficient_query"),
    ("covered.query", "matchcover", "coefficient_query"),
    ("polynomial.sign", "matchcover.cli", "pm_polynomial"),
    ("polynomial.sign", "matchcover.cli", "min_weight_pm_polynomial"),
    ("polynomial.evaluate", "matchcover.polynomial", "MultilinearPolynomial.evaluate"),
    ("polynomial.format", "matchcover.polynomial", "MultilinearPolynomial.to_text"),
    ("polynomial.format", "matchcover.polynomial", "MultilinearPolynomial.to_json"),
    ("polynomial.parse", "matchcover.polynomial", "MultilinearPolynomial.from_json"),
    ("lattice.build", "matchcover.cli", "build_lattice"),
    ("lattice.build", "matchcover.polynomial", "build_lattice"),
    ("lattice.is_lattice", "matchcover.lattice", "Lattice.is_lattice"),
    ("lattice.mobius", "matchcover.lattice", "Lattice.mobius"),
    ("lattice.mobius", "matchcover.lattice", "Lattice.mobius_table"),
    ("lattice.rank", "matchcover.lattice", "Lattice.rank_labels"),
    ("lattice.eulerian", "matchcover.lattice", "Lattice.eulerian_check"),
    ("lattice.pentagon", "matchcover.lattice", "Lattice.find_pentagon"),
    ("lattice.interval", "matchcover.lattice", "Lattice.interval"),
    ("lattice.export", "matchcover.lattice", "Lattice.to_json"),
    ("lattice.export", "matchcover.lattice", "Lattice.to_dot"),
]


# Counts taken at the same boundaries, from arguments and results.
COUNTERS = {
    "matching.enumerate": lambda c, a, r: c.update({"matching.family_size": len(r)}),
    "covered.closure": lambda c, a, r: c.update({"covered.closure_graphs": len(r)}),
    "covered.query": lambda c, a, r: c.update({"covered.query_nonzero": int(r != 0)}),
    "polynomial.sign": lambda c, a, r: c.update({"polynomial.terms": len(r)}),
    "polynomial.evaluate": lambda c, a, r: c.update({"polynomial.term_checks": len(a[0].terms)}),
    "polynomial.format": lambda c, a, r: c.update({"polynomial.format_mb": len(r) / 1e6}),
    "lattice.build": lambda c, a, r: c.update(
        {"lattice.elements": len(r), "lattice.covers": len(r.covers())}
    ),
}

# The calls whose memory is probed: the largest call of each is run again
# under tracemalloc after the traced passes.
MEMORY_PROBES = {
    "covered.closure": "covered.closure_rss_rise_mb",
    "lattice.build": "lattice.build_rss_rise_mb",
}

# Per-layer metrics: (name, unit). Self times come from the span named by the
# prefix; `_calls` and `queries` are span counts; the rest are counters.
LAYER_METRICS = [
    ("graphs.cyclomatic_s", "s"), ("graphs.cyclomatic_calls", "count"),
    ("graphs.parse_s", "s"),
    ("matching.enumerate_s", "s"), ("matching.family_size", "count"),
    ("matching.solve_s", "s"), ("matching.solve_calls", "count"),
    ("matching.parse_s", "s"), ("matching.support_s", "s"),
    ("matching.tight_mask_s", "s"), ("matching.tight_mask_calls", "count"),
    ("matching.oracle_s", "s"), ("matching.oracle_calls", "count"),
    ("covered.closure_s", "s"), ("covered.closure_graphs", "count"),
    ("covered.closure_rss_rise_mb", "MB"),
    ("covered.query_s", "s"), ("covered.queries", "count"),
    ("covered.query_nonzero", "count"),
    ("covered.query_p50_ms", "ms"), ("covered.query_p99_ms", "ms"),
    ("polynomial.sign_s", "s"), ("polynomial.terms", "count"),
    ("polynomial.evaluate_s", "s"), ("polynomial.evaluate_calls", "count"),
    ("polynomial.term_checks", "count"),
    ("polynomial.format_s", "s"), ("polynomial.format_mb", "MB"),
    ("polynomial.parse_s", "s"),
    ("lattice.build_s", "s"), ("lattice.elements", "count"), ("lattice.covers", "count"),
    ("lattice.build_rss_rise_mb", "MB"),
    ("lattice.is_lattice_s", "s"), ("lattice.mobius_s", "s"), ("lattice.rank_s", "s"),
    ("lattice.eulerian_s", "s"), ("lattice.pentagon_s", "s"),
    ("lattice.interval_s", "s"), ("lattice.export_s", "s"),
    ("cli.self_s", "s"), ("cli.output_mb", "MB"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed: list = []
        self.skipped: list[str] = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.largest: dict[str, tuple] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._id(name)
        counter = COUNTERS.get(name)
        probe = name in MEMORY_PROBES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if counter is not None:
                counter(tracer.counts, args, result)
            if probe and len(result) > tracer.largest.get(name, (-1,))[0]:
                tracer.largest[name] = (len(result), fn, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        skipped = []
        for name, modname, path in WRAP_POINTS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(modname)
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                skipped.append(f"{modname}.{path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))
        self.skipped = skipped

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Self times, span counts and counters of the pass just traced."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        k = len(self.names)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        by_name = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            if metric.endswith("_s") and metric[:-2] in by_name:
                out[metric] = float(self_s[by_name[metric[:-2]]])
            elif metric.endswith("_calls") and metric[:-6] in by_name:
                out[metric] = int(calls[by_name[metric[:-6]]])
        out["cli.self_s"] = float(self_s[by_name["cli"]]) if "cli" in by_name else 0.0
        if "covered.query" in by_name:
            out["covered.queries"] = int(calls[by_name["covered.query"]])
            q = dur[a["name"] == by_name["covered.query"]] * 1e3
            if len(q):
                out["covered.query_p50_ms"] = float(np.percentile(q, 50))
                out["covered.query_p99_ms"] = float(np.percentile(q, 99))
        out.update(self.counts)
        return out

    def probe_memory(self) -> dict[str, float]:
        """Peak allocation (tracemalloc, numpy included) of the largest
        closure and lattice build of the traced passes, run once more."""
        out = {}
        for name, metric in MEMORY_PROBES.items():
            if name not in self.largest:
                continue
            _, fn, args, kwargs = self.largest[name]
            gc.collect()
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                out[metric] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        self.largest.clear()
        return out
