"""Outside-in span tracer for diamondsphere.

The program carries no instrumentation, so the tracer wraps the public
functions of its modules from outside.  A wrapped function is rebound in
every ``diamondsphere`` module namespace that holds it (``cli`` imports
``compute_metrics``, ``verify_matching`` and the rest by name), so calls
made through any of those names are seen.  Each call leaves a span
``[name, start, end, parent]`` in memory; ``summary`` turns the spans
into calls and self time per name, self time being the span's duration
minus the durations of its direct children.

Sizes that the table in README.md marks as computed come from the
arguments or the return value of the call, never from inside the program.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

MODULE_FUNCTIONS = {
    "ensemble": ["validate", "generate", "model_constants"],
    "geometry": ["count_in_cap", "spiral_points"],
    "partition": ["build_partition", "region_area", "region_area_fraction_exact",
                  "verify_matching", "side_lengths", "covering_upper_bound",
                  "polar_cap_radius", "partition_records"],
    "metrics": ["separation", "covering_radius", "riesz_energy", "log_energy",
                "sum_distances", "polar_cap_profile", "equatorial_discrepancy",
                "sup_discrepancy_exact", "sup_discrepancy_estimate",
                "l2_discrepancy_stolarsky", "l2_discrepancy_quadrature",
                "compute_metrics"],
    "cli": ["write_points_csv", "read_points_csv", "cmd_gen", "cmd_verify",
            "cmd_partition", "cmd_metrics", "cmd_discrepancy"],
}
METHODS = [("geometry", "PointSet", "__init__"), ("partition", "Partition", "region")]

# functions whose tracemalloc peak is reported, from a pass of its own
# because tracing allocations slows them down
ALLOC_FUNCTIONS = ("metrics.sup_discrepancy_exact", "metrics.sup_discrepancy_estimate",
                   "metrics.l2_discrepancy_quadrature")


def _n_points(points) -> int:
    return len(points)


def _count_sup_estimate(args, kwargs, result):
    samples = kwargs.get("n_samples", args[1] if len(args) > 1 else 10_000)
    return {"dots": (samples + 2) * _n_points(args[0])}


def _count_sup_exact(args, kwargs, result):
    n = _n_points(args[0])
    return {"centers": 2 * n + n * (n - 1) + 2 * math.comb(n, 3)}


def _count_pairs(args, kwargs, result):
    n = _n_points(args[0])
    return {"pairs": n * (n - 1) // 2}


def _count_csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_rows(args, kwargs, result):
    return {"rows": len(result)}


def _count_points(args, kwargs, result):
    return {"points": len(result)}


COUNTERS = {
    "metrics.sup_discrepancy_estimate": _count_sup_estimate,
    "metrics.sup_discrepancy_exact": _count_sup_exact,
    "metrics.sum_distances": _count_pairs,
    "cli.write_points_csv": _count_csv_bytes,
    "cli.read_points_csv": _count_rows,
    "ensemble.generate": _count_points,
}


class Tracer:
    """Spans and counters of the calls made while installed.

    Use as a context manager around the code to trace; the original
    functions are restored on exit.  With ``alloc=True`` the functions
    in ALLOC_FUNCTIONS also record the peak of the memory they allocate,
    traced by tracemalloc from their entry to their return.
    """

    def __init__(self, alloc: bool = False):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peak_mb: dict[str, float] = defaultdict(float)
        self._alloc = alloc
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        alloc = self._alloc and name in ALLOC_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            span = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.alloc_peak_mb[name] = max(self.alloc_peak_mb[name], peak)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        loaded = [m for k, m in list(sys.modules.items())
                  if k == "diamondsphere" or k.startswith("diamondsphere.")]
        for mod_name, funcs in MODULE_FUNCTIONS.items():
            module = sys.modules[f"diamondsphere.{mod_name}"]
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"diamondsphere.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and calls per name, and the summed top-level span time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top = 0.0
        for k, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name] += end - start - child[k]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return dict(self_s), dict(calls), top

    def dump(self, path: str) -> None:
        """Write the spans as JSON: start and end in seconds, parent as span index."""
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))
