"""Spans around the package's public functions, recorded from outside.

``install`` replaces each function at its import site (the module attribute
the caller looks up at call time) with a wrapper that records a span:
name, start, end and parent.  Spans stay in memory; ``write`` saves them
when the run ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  A function called from several modules
# is wrapped at each of its import sites under one span name.
SITES = [
    ("stress_strength.estimators", "integrate_1d", "specfun.integrate_1d"),
    ("stress_strength.intervals", "f_quantile", "specfun.f_quantile"),
    ("stress_strength.simulation", "draw_dataset", "sampling.draw_dataset"),
    ("stress_strength.estimators", "mle_reliability", "estimators.mle_reliability"),
    ("stress_strength.intervals", "mle_reliability", "estimators.mle_reliability"),
    ("stress_strength.estimators", "umvue_reliability", "estimators.umvue_reliability"),
    ("stress_strength.estimators", "bayes_reliability", "estimators.bayes_reliability"),
    ("stress_strength.simulation", "estimate_all", "estimators.estimate_all"),
    ("stress_strength", "estimate_all", "estimators.estimate_all"),
    ("stress_strength.simulation", "exact_ci", "intervals.exact_ci"),
    ("stress_strength", "exact_ci", "intervals.exact_ci"),
    ("stress_strength.simulation", "asymptotic_ci", "intervals.asymptotic_ci"),
    ("stress_strength", "asymptotic_ci", "intervals.asymptotic_ci"),
    ("stress_strength.simulation", "run_cell", "simulation.run_cell"),
    ("stress_strength", "run_coverage", "simulation.run_coverage"),
    ("stress_strength.cli", "run_grid", "simulation.run_grid"),
    ("stress_strength", "run_grid", "simulation.run_grid"),
    ("stress_strength.cli", "main", "cli.main"),
]
# Spans whose work is counted in replicates: the first argument's config.
REPLICATE_SPANS = {"simulation.run_cell", "simulation.run_coverage"}
# Spans whose first argument is an integrand; its abscissae are counted.
INTEGRAND_SPANS = {"specfun.integrate_1d"}


class Tracer:
    """Span recorder with per-name totals: calls, inclusive and self time
    (ns), replicates and integrand points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start, end, parent
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0, 0])

    def snapshot(self) -> dict[str, list[int]]:
        return {name: list(v) for name, v in self.totals.items()}

    def wrap(self, fn, name: str):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        totals = self.totals[name]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        counts_points = name in INTEGRAND_SPANS
        counts_replicates = name in REPLICATE_SPANS

        def count_points(f):
            def counted(x):
                totals[4] += len(x)
                return f(x)
            return counted

        def traced(*args, **kwargs):
            if counts_points:
                args = (count_points(args[0]),) + args[1:]
            elif counts_replicates:
                totals[3] += args[0].replicates
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append((name_id, 0, 0, parent))
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name_id, start, end, parent)
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            json.dump({"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every site that exists in this version of the package."""
    for module_name, attr, span in SITES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(fn, span))


def overhead_ns_per_span(calls: int = 20000) -> float:
    """Cost a wrapper adds to one call, from timing a no-op both ways."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    best = []
    for fn in (noop, wrapped):
        runs = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter_ns() - start)
        best.append(min(runs))
    return max(0.0, (best[1] - best[0]) / calls)


def layer_metrics(first_round: dict, totals: dict, spans: int, busy_s: float) -> dict:
    """Per-layer metrics.  Counts come from the run's first round, which is
    the same for a given seed; times are averaged over every round."""

    def calls(name):
        return first_round.get(name, [0] * 5)[0]

    def per_call_us(name):
        n, inclusive = totals.get(name, [0, 0])[:2]
        return inclusive / n / 1e3 if n else 0.0

    def self_per_replicate_us(name):
        t = totals.get(name, [0] * 5)
        return t[2] / t[3] / 1e3 if t[3] else 0.0

    integrate = first_round.get("specfun.integrate_1d", [0] * 5)
    cli = totals.get("cli.main", [0] * 5)
    overhead = overhead_ns_per_span()
    metrics = {
        "specfun.integrate_1d.calls": (calls("specfun.integrate_1d"), "count"),
        "specfun.integrate_1d.us_per_call": (per_call_us("specfun.integrate_1d"), "us"),
        "specfun.integrate_1d.points_per_call": (
            integrate[4] / integrate[0] if integrate[0] else 0.0, "count"),
        "specfun.f_quantile.calls": (calls("specfun.f_quantile"), "count"),
        "specfun.f_quantile.us_per_call": (per_call_us("specfun.f_quantile"), "us"),
        "sampling.draw_dataset.calls": (calls("sampling.draw_dataset"), "count"),
        "sampling.draw_dataset.us_per_call": (per_call_us("sampling.draw_dataset"), "us"),
        "estimators.mle_reliability.us_per_call": (per_call_us("estimators.mle_reliability"), "us"),
        "estimators.umvue_reliability.us_per_call": (
            per_call_us("estimators.umvue_reliability"), "us"),
        "estimators.bayes_reliability.calls": (calls("estimators.bayes_reliability"), "count"),
        "estimators.bayes_reliability.us_per_call": (
            per_call_us("estimators.bayes_reliability"), "us"),
        "estimators.estimate_all.us_per_call": (per_call_us("estimators.estimate_all"), "us"),
        "intervals.exact_ci.us_per_call": (per_call_us("intervals.exact_ci"), "us"),
        "intervals.asymptotic_ci.us_per_call": (per_call_us("intervals.asymptotic_ci"), "us"),
        "simulation.run_cell.self_us_per_replicate": (
            self_per_replicate_us("simulation.run_cell"), "us"),
        "simulation.run_coverage.self_us_per_replicate": (
            self_per_replicate_us("simulation.run_coverage"), "us"),
        "cli.simulate.self_ms": (cli[2] / cli[0] / 1e6 if cli[0] else 0.0, "ms"),
        "trace.spans": (sum(v[0] for v in first_round.values()), "count"),
        "trace.overhead_us_per_span": (overhead / 1e3, "us"),
        "trace.overhead_pct": (100.0 * spans * overhead / 1e9 / busy_s if busy_s else 0.0, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
