"""The tiled pair sweep against the per-row reference loop it replaced."""

import hashlib
import math

import numpy as np
import pytest

from conftest import random_unit_points
from diamondsphere import (
    DuplicatePointError,
    ModelSpec,
    PointSet,
    compute_metrics,
    generate,
    l2_discrepancy_stolarsky,
    log_energy,
    riesz_energy,
    simple_model,
    sum_distances,
    validate,
)
from diamondsphere.metrics import _TILE_ROWS, _pair_sums, _ring_sums

RIESZ_S = (0.5, 1.0, 2.0, 3.0)


def reference_pair_sum(coords: np.ndarray, kernel) -> float:
    """2 * sum over i < j of kernel terms, one row of pairs at a time."""
    partials = []
    for i in range(len(coords) - 1):
        d2 = np.sum((coords[i + 1:] - coords[i]) ** 2, axis=1)
        partials.append(kernel(d2))
    return 2.0 * math.fsum(partials)


def _no_duplicates(d2):
    if float(d2.min()) < 1e-24:
        raise DuplicatePointError("coincident points")
    return d2


def reference_riesz(coords, s):
    return reference_pair_sum(
        coords, lambda d2: float(np.sum(_no_duplicates(d2) ** (-s / 2.0))))


def reference_log(coords):
    return reference_pair_sum(
        coords, lambda d2: float(-0.5 * np.sum(np.log(_no_duplicates(d2)))))


def reference_distances(coords):
    return reference_pair_sum(coords, lambda d2: float(np.sum(np.sqrt(d2))))


def _rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def _cases():
    rng = np.random.default_rng(2024)
    cases = {f"simple-M{m}": generate(validate(simple_model(m))).coords
             for m in range(1, 7)}
    multi = ModelSpec(M=4, n=2, t=(0, 2, 4), alpha=(0, 4), beta=(3, 1),
                      theta_policy="seed:5")
    cases["multi-piece"] = generate(validate(multi)).coords
    for n in (2, 3, _TILE_ROWS + 1, 5 * _TILE_ROWS - 3, 301):
        cases[f"random-{n}"] = random_unit_points(rng, n)
    base = cases["simple-M4"]
    moved = base @ _rotation(rng).T
    cases["rotated-permuted"] = moved[rng.permutation(len(moved))]
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pair_sums_match_reference(name):
    coords = CASES[name]
    pts = PointSet(coords)
    want_riesz = [reference_riesz(coords, s) for s in RIESZ_S]
    want_log = reference_log(coords)
    want_dist = reference_distances(coords)

    *riesz, log_sum, dist = _pair_sums(coords, RIESZ_S, log=True, distance=True)
    for got, want in zip(riesz, want_riesz):
        assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(log_sum, want_log, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(dist, want_dist, rel_tol=1e-12)

    for s, want in zip(RIESZ_S, want_riesz):
        assert math.isclose(riesz_energy(pts, s), want, rel_tol=1e-12)
    assert math.isclose(log_energy(pts), want_log, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(sum_distances(pts), want_dist, rel_tol=1e-12)


def test_fused_and_single_kernel_sweeps_agree_exactly():
    coords = CASES["random-301"]
    *riesz, log_sum, dist = _pair_sums(coords, RIESZ_S, log=True, distance=True)
    assert riesz == [riesz_energy(coords, s) for s in RIESZ_S]
    assert log_sum == log_energy(coords)
    assert dist == sum_distances(coords)


def test_compute_metrics_reuses_the_distance_sum():
    model = validate(simple_model(5, theta_policy="seed:3"))
    pts = generate(model)
    rep = compute_metrics(pts, model, riesz_s=(1.0, 2.0), sup_mode=None)
    riesz_1, riesz_2, log_sum, dist = _ring_sums(model, (1.0, 2.0), log=True, distance=True)
    assert rep.sum_distances == dist
    assert rep.d_l2_stolarsky == l2_discrepancy_stolarsky(pts, model)
    assert rep.log_energy == log_sum
    assert rep.riesz == {"1.0": riesz_1, "2.0": riesz_2}
    # the ring route against the public sweep functions
    assert math.isclose(rep.sum_distances, sum_distances(pts), rel_tol=1e-12)
    assert math.isclose(rep.log_energy, log_energy(pts), rel_tol=1e-12)
    for s in (1.0, 2.0):
        assert math.isclose(rep.riesz[str(s)], riesz_energy(pts, s), rel_tol=1e-12)
    assert math.isclose(rep.d_l2_stolarsky ** 2, l2_discrepancy_stolarsky(pts) ** 2,
                        rel_tol=0.0, abs_tol=1e-15)


# sha256 of repr(_pair_sums(generate(M=12, seed:4).coords, (0.5, 1, 2), log=True,
# distance=True)), recorded before metrics took the ring route for a model's
# ensemble: the sweep of arbitrary point sets keeps its bits.
SWEEP_SHA256 = "1a514cade626252135992e458464f59521c2db995b4d542ee52fcf0ec7f082dc"


def test_pair_sweep_bits_are_pinned():
    coords = generate(validate(simple_model(12, theta_policy="seed:4"))).coords
    totals = _pair_sums(coords, (0.5, 1, 2), log=True, distance=True)
    assert hashlib.sha256(repr(totals).encode()).hexdigest() == SWEEP_SHA256


def test_duplicates_break_energies_not_distances():
    coords = random_unit_points(np.random.default_rng(4), 3 * _TILE_ROWS + 5)
    coords[_TILE_ROWS + 3] = coords[_TILE_ROWS + 2]   # neighbours in one tile
    coords[-1] = coords[0]                              # first and last tile
    pts = PointSet(coords)
    with pytest.raises(DuplicatePointError):
        riesz_energy(pts, 1.0)
    with pytest.raises(DuplicatePointError):
        riesz_energy(pts, 2.0)
    with pytest.raises(DuplicatePointError):
        log_energy(pts)
    with pytest.raises(DuplicatePointError):
        _pair_sums(coords, (), log=True, distance=True)
    assert math.isclose(sum_distances(pts), reference_distances(coords),
                        rel_tol=1e-12)
    assert 0.0 <= l2_discrepancy_stolarsky(pts) < 1.0
