"""Calibrate the distance-sum discrepancy constant from scratch.

For each trial point set the ratio (mean-chord deficit) / D_quad^2 is
estimated with a dense grid of cap centers, each integrated exactly over
cap heights; the median over trials pins the constant baked into the
library (8, with the single-point closed form D^2 = 1/6 as an exact
anchor).  Run this after touching either L2 path:

    PYTHONPATH=src python scripts/calibrate_stolarsky.py [--centers K]
"""

import argparse
import math
import statistics

import numpy as np

from diamondsphere import (
    PointSet,
    generate,
    simple_model,
    stolarsky_constant_estimate,
    validate,
)


def trial_sets(n_random: int, seed: int):
    for M in (1, 2, 3):
        yield f"one-piece M={M}", generate(validate(simple_model(M)))
    rng = np.random.default_rng(seed)
    for k in range(n_random):
        v = rng.standard_normal((20, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        yield f"random-20 #{k}", PointSet(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--random-sets", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--centers", type=int, default=20_000)
    args = ap.parse_args(argv)

    # Exact anchor: one point, no pair term, closed-form integral 1/6.
    anchor = (4.0 / 3.0) / (1.0 / 6.0)
    print(f"single-point anchor: {anchor:.6f}")

    values = []
    for label, pts in trial_sets(args.random_sets, args.seed):
        c = stolarsky_constant_estimate(pts, n_centers=args.centers)
        values.append(c)
        print(f"{label:>16}: {c:.6f}")
    med = statistics.median(values)
    print(f"median over {len(values)} sets: {med:.6f}")
    if not math.isclose(med, 8.0, rel_tol=5e-3):
        print("WARNING: median drifted from the pinned constant 8")
        return 1
    print("pinned constant 8 confirmed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
