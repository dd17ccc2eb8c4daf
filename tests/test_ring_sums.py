"""The ring route for a model's own ensemble against the tile sweep."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_random_spec
from diamondsphere import generate, simple_model, validate
from diamondsphere import metrics
from diamondsphere.metrics import _pair_sums, _ring_pairs, _ring_sums

RIESZ_S = (0.5, 1.0, 2.0, 3.0)


def _models():
    models = {f"simple-M{m}-{policy}": validate(simple_model(m, policy))
              for m in (1, 2, 3, 5, 12, 20, 40) for policy in ("zeros", "seed:3")}
    rng = np.random.default_rng(16)
    for k in range(32):
        models[f"random-{k}"] = validate(make_random_spec(rng, 1, 12, f"seed:{k}"))
    return models


MODELS = _models()


@pytest.mark.parametrize("name", list(MODELS))
def test_ring_sums_match_the_sweep(name):
    model = MODELS[name]
    want = _pair_sums(generate(model).coords, RIESZ_S, log=True, distance=True)
    got = _ring_sums(model, RIESZ_S, log=True, distance=True)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-12)


def test_fused_and_single_kernel_ring_sums_agree_exactly():
    model = MODELS["simple-M12-seed:3"]
    *riesz, log_sum, dist = _ring_sums(model, RIESZ_S, log=True, distance=True)
    assert riesz == [_ring_sums(model, (s,))[0] for s in RIESZ_S]
    assert [log_sum] == _ring_sums(model, log=True)
    assert [dist] == _ring_sums(model, distance=True)


def _kernels():
    """(kernel of d^2, whether the alias bound is relative to the mean)."""
    riesz = [(lambda d2, s=s: d2 ** (-s / 2.0), True) for s in (0.5, 1.0, 2.0)]
    return riesz + [(lambda d2: -0.5 * np.log(d2), False), (np.sqrt, True)]


@pytest.mark.parametrize("tol", [1e-18, 1e-6])
@pytest.mark.parametrize("name", ["simple-M20-seed:3", "random-3", "random-7"])
def test_node_mean_is_within_the_alias_bound(name, tol, monkeypatch):
    """At n = K < L nodes a ring pair's mean is within 2 tol w of its exact
    L-offset mean: w is the mean itself for Riesz s <= 2 and the distance,
    1 for the log.  tol = 1e-6 makes the alias error visible above rounding."""
    monkeypatch.setattr(metrics, "_RING_ALIAS_TOL", tol)
    model = MODELS[name]
    rings = model.rings
    a, b, d0, near, lcm, k = _ring_pairs(model)
    n = np.minimum(lcm, k).astype(np.int64)
    cut = np.flatnonzero(n < lcm)
    assert len(cut) > 0
    worst = 0.0
    for p in cut:
        shift = rings.theta[a[p]] - rings.theta[b[p]]

        def d2(count):
            psi = shift + 2.0 * np.pi * np.arange(count) / count
            return d0[p] + near[p] * np.sin(psi / 2.0) ** 2

        few, all_ = d2(n[p]), d2(lcm[p])
        for f, relative in _kernels():
            exact = math.fsum(f(all_)) / lcm[p]
            scale = abs(exact) if relative else 1.0
            gap = abs(math.fsum(f(few)) / n[p] - exact)
            assert gap <= 2.0 * tol * scale + 1e-14 * np.abs(f(all_)).max()
            worst = max(worst, gap / scale)
    if tol == 1e-6:
        assert worst > 1e-12  # the truncation was there to see


def test_common_theta_shift_leaves_the_totals():
    model = MODELS["simple-M12-seed:3"]
    shifted = validate(dataclasses.replace(model.spec,
                                           theta_policy=tuple(model.theta + 0.7)))
    want = _ring_sums(model, RIESZ_S, log=True, distance=True)
    got = _ring_sums(shifted, RIESZ_S, log=True, distance=True)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-14)


@pytest.mark.parametrize("s", [400.0, 1000.0])
def test_ring_sums_report_an_overflowing_riesz_sum(s):
    # a numpy overflow warning fails the test, as in the sweep's CLI test
    with pytest.raises(ValueError, match=f"Riesz sum for s = {s} overflows"):
        _ring_sums(validate(simple_model(10)), (1.0, s), log=True)
