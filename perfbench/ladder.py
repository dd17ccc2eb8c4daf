"""Layer ladder: each heavy public function called directly on a short M ladder.

For each function the ladder climbs M while the layer's time budget
lasts, skipping a rung whose predicted time would overrun it, and fits
the exponent p of time ~ N^p to the top three rungs.  It documents how
each layer grows (O(N^4 log N) for the exact sup against O(N^2) for the
energies and covering); it is traced-only and not gated.
"""

from __future__ import annotations

import math
import time

# minimum timed span per rung: calls faster than this are repeated
MIN_RUNG_S = 0.02


def _fit_slope(ns: list[int], ts: list[float]) -> float:
    xs = [math.log(n) for n in ns[-3:]]
    ys = [math.log(t) for t in ts[-3:]]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _time_call(call) -> float:
    start = time.perf_counter()
    call()
    best = time.perf_counter() - start
    if best < MIN_RUNG_S:
        for _ in range(math.ceil(MIN_RUNG_S / max(best, 1e-6))):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
    return best


BIG, MID, SMALL = [50, 100, 200, 400, 1000], [10, 20, 40, 80, 160], [5, 10, 20, 40]


def _ladders(ds, theta: str) -> list[tuple[str, list[int], object]]:
    """(layer, M ladder, make) per layer; make(M) builds the inputs, returns the call."""

    def model(m):
        return ds.validate(ds.simple_model(m, theta_policy=theta))

    def on_points(fn, **kw):
        def make(m):
            pts = ds.generate(model(m))
            return lambda: fn(pts, **kw)
        return make

    def on_model(fn):
        def make(m):
            mod = model(m)
            return lambda: fn(mod)
        return make

    def validate(m):
        spec = ds.simple_model(m, theta_policy=theta)
        return lambda: ds.validate(spec)

    def verify(m):
        mod = model(m)
        part, pts = ds.build_partition(mod), ds.generate(mod)
        return lambda: ds.verify_matching(part, pts)

    def records(m):
        part = ds.build_partition(model(m))
        return lambda: ds.partition_records(part)

    return [
        ("ensemble.validate", BIG, validate),
        ("ensemble.generate", BIG, on_model(ds.generate)),
        ("partition.build_partition", BIG, on_model(ds.build_partition)),
        ("partition.verify_matching", [25, 50, 100, 200, 400], verify),
        ("partition.partition_records", MID, records),
        ("metrics.separation", MID, on_points(ds.separation)),
        ("metrics.covering_radius", SMALL, on_points(ds.covering_radius)),
        ("metrics.riesz_energy", SMALL, on_points(ds.riesz_energy, s=1.0)),
        ("metrics.log_energy", SMALL, on_points(ds.log_energy)),
        ("metrics.sum_distances", SMALL, on_points(ds.sum_distances)),
        ("metrics.l2_discrepancy_stolarsky", SMALL, on_points(ds.l2_discrepancy_stolarsky)),
        ("metrics.sup_discrepancy_estimate", SMALL,
         on_points(ds.sup_discrepancy_estimate, n_samples=2000)),
        ("metrics.l2_discrepancy_quadrature", [2, 5, 10, 20],
         on_points(ds.l2_discrepancy_quadrature)),
        ("metrics.sup_discrepancy_exact", [1, 2, 3, 4, 5], on_points(ds.sup_discrepancy_exact)),
    ]


def run_ladder(ds, seed: int, budget_s: float) -> dict[str, dict]:
    """Climb every layer's ladder; return its rungs and fitted growth exponent."""
    out = {}
    for name, ms, make in _ladders(ds, f"seed:{seed}"):
        make(ms[0])()  # first-call costs stay out of the fit
        ns, ts, spent = [], [], 0.0
        for m in ms:
            n = 4 * m * m + 2
            if len(ts) >= 2:
                p = max(1.0, _fit_slope(ns[-2:], ts[-2:]))
                if spent + ts[-1] * (n / ns[-1]) ** p > budget_s:
                    break
            call = make(m)
            t = _time_call(call)
            ns.append(n)
            ts.append(t)
            spent += t
        out[name] = {"N": ns, "seconds": ts, "growth_exp": _fit_slope(ns, ts)}
    return out
