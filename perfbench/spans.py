"""Layer tracing from outside the library.

Each traced public function is replaced by a wrapper in the namespace of
every cutofflab module that binds it, because ``from .x import f`` gives the
importing module its own name for ``f``.  A wrapper records one span (name,
start, end, parent, op id) in memory; the spans are written out when the
run ends.  A layer's self time is its span time minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from typing import Callable

# (module that defines it, function); the metric prefix is "module.function".
# Only these functions are wrapped: wrapping a helper would move its time out of the layer that
# the issue assigns it to (casimir assembly belongs to moment_generator).
TRACED = (
    ("partitions", "enumerate_by_size"),
    ("partitions", "partition_counts"),
    ("repchar", "dimension"),
    ("repchar", "casimir_exponent"),
    ("heatseries", "dominating_series"),
    ("heatseries", "per_term_bound_sweep"),
    ("cutoff", "lower_bound"),
    ("cutoff", "profile"),
    ("cutoff", "zonal_square_via_moments"),
    ("cutoff", "omega_value"),
    ("moments", "moment_generator"),
    ("moments", "moment"),
    ("sampler", "simulate_endpoints"),
    ("sampler", "haar_sample"),
    ("sampler", "estimate"),
)

# counters derived from arguments and results, beside calls and self time
COUNTERS = ("partitions.labels", "heatseries.terms_used",
            "heatseries.escalated", "moments.tensor_dim_sum",
            "sampler.path_steps")


class Recorder:
    """Spans and counters of one traced run.  Spans are recorded only while
    ``op`` holds the index of the op being timed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, parent, start, end, op)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every cutofflab namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cutofflab" or name.startswith("cutofflab.")]
        for home, fname in TRACED:
            original = getattr(sys.modules[f"cutofflab.{home}"], fname)
            wrapper = self._wrap(f"{home}.{fname}", original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patched.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        after = _AFTER.get(name)
        signature = inspect.signature(func)
        consume = name == "partitions.enumerate_by_size"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op < 0:  # outside the timed loop: set-up and checks
                return func(*args, **kwargs)
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if consume:
                    # an iterator does its work when consumed: do it here
                    result = list(result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span] = (span, name, parent, start, end, self.op)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                op, self.op = self.op, -1  # a counter's own calls are not spans
                try:
                    after(self.counters, bound.arguments, result)
                finally:
                    self.op = op
            return iter(result) if consume else result

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer calls and self time."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{home}.{fname}": [0, 0.0] for home, fname in TRACED}
        for span, name, _, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[span]
        return out

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics; ``traced_s`` and ``untraced_s`` are the summed
        op times of the traced loop and of the same passes untraced."""
        layers = self.self_times()
        c = self.counters
        m = {}
        for name, (calls, self_s) in layers.items():
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (self_s, "s")
        series = layers["heatseries.dominating_series"][0]
        moment_calls = layers["moments.moment"][0]
        builds = layers["moments.moment_generator"][0]
        steps = c["sampler.path_steps"]
        m["partitions.labels"] = (c["partitions.labels"], "count")
        m["heatseries.terms_used"] = (c["heatseries.terms_used"], "count")
        m["heatseries.escalated_share"] = (
            c["heatseries.escalated"] / series if series else 0.0, "share")
        m["moments.generator_reuse"] = (
            1.0 - builds / moment_calls if moment_calls else 0.0, "share")
        m["moments.tensor_dim_sum"] = (c["moments.tensor_dim_sum"], "count")
        m["sampler.path_steps"] = (steps, "count")
        m["sampler.us_per_path_step"] = (
            1e6 * layers["sampler.simulate_endpoints"][1] / steps
            if steps else 0.0, "us")
        m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        return m

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span, name, parent, start, end, op in self.spans:
                fh.write(json.dumps({"id": span, "name": name,
                                     "parent": parent, "op": op,
                                     "start": start, "end": end}) + "\n")


# -- counters from arguments and results -----------------------------------


def _labels(counters, args, result) -> None:
    counters["partitions.labels"] += len(result)


def _series(counters, args, result) -> None:
    from cutofflab import heatseries
    cap = args["size_cap"]
    if cap is None:  # the series starts at the first cap of its schedule
        cap = heatseries._cap_schedule(args["descriptor"])[0]
    counters["heatseries.terms_used"] += result.terms_used
    if result.size_cap > cap:
        counters["heatseries.escalated"] += 1


def _generator(counters, args, result) -> None:
    counters["moments.tensor_dim_sum"] += result.dim ** (result.k + result.l)


def _paths(counters, args, result) -> None:
    t, step = args["t"], args["config"].step_size
    steps = 0 if t == 0.0 else max(1, math.ceil(t / step))
    counters["sampler.path_steps"] += steps * len(args["path_indices"])


_AFTER = {
    "partitions.enumerate_by_size": _labels,
    "heatseries.dominating_series": _series,
    "moments.moment_generator": _generator,
    "sampler.simulate_endpoints": _paths,
}
