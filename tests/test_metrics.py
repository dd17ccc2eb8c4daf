"""Separation, covering, energies, and the aggregate report."""

import math

import numpy as np
import pytest

from conftest import brute_force_separation, make_random_spec, random_unit_points
from diamondsphere import (
    NORTH_POLE,
    DuplicatePointError,
    PointSet,
    SphericalCap,
    build_partition,
    compute_metrics,
    count_in_cap,
    covering_radius,
    covering_upper_bound,
    generate,
    l2_discrepancy_quadrature,
    l2_discrepancy_stolarsky,
    log_energy,
    metrics,
    riesz_energy,
    separation,
    simple_model,
    stolarsky_constant_estimate,
    sum_distances,
    sup_discrepancy_estimate,
    sup_discrepancy_exact,
    validate,
)


def rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_separation_octahedron_exact(octahedron_points):
    assert abs(separation(octahedron_points) - math.sqrt(2.0)) < 1e-15
    assert separation(octahedron_points) == brute_force_separation(octahedron_points.coords)


def test_separation_buckets_equals_bruteforce():
    rng = np.random.default_rng(31)
    for k in range(8):
        spec = make_random_spec(rng, m_hi=14, theta_policy=f"seed:{k}")
        pts = generate(validate(spec))
        assert separation(pts) == brute_force_separation(pts.coords)
    for M in (1, 2, 5, 9):
        pts = generate(validate(simple_model(M)))
        assert separation(pts) == brute_force_separation(pts.coords)


def test_separation_guards():
    lone = PointSet(np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        separation(lone)
    bare = random_unit_points(np.random.default_rng(1), 20)
    assert separation(PointSet(bare)) == brute_force_separation(bare)


def test_octahedron_energy_closed_forms(octahedron_points):
    assert math.isclose(log_energy(octahedron_points), -18.0 * math.log(2.0),
                        rel_tol=1e-12)
    assert math.isclose(sum_distances(octahedron_points),
                        24.0 * math.sqrt(2.0) + 12.0, rel_tol=1e-12)
    # 24 ordered edge pairs at sqrt(2), 6 diametral pairs at 2.
    want = 24.0 / math.sqrt(2.0) + 6.0 / 2.0
    assert math.isclose(riesz_energy(octahedron_points, s=1.0), want,
                        rel_tol=1e-12)
    want3 = 24.0 / 2.0 ** 1.5 + 6.0 / 8.0
    assert math.isclose(riesz_energy(octahedron_points, s=3.0), want3,
                        rel_tol=1e-12)


def test_riesz_rejects_bad_s(octahedron_points):
    with pytest.raises(ValueError):
        riesz_energy(octahedron_points, s=0.0)
    with pytest.raises(ValueError):
        riesz_energy(octahedron_points, s=-1.0)


def test_energies_duplicate_points_raise():
    coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DuplicatePointError):
        log_energy(PointSet(coords))
    with pytest.raises(DuplicatePointError):
        riesz_energy(PointSet(coords), s=2.0)


def test_energies_invariant_under_rotation_and_permutation():
    rng = np.random.default_rng(12)
    pts = generate(validate(simple_model(3)))
    rot = pts.coords @ rotation_matrix(rng).T
    perm = rot[rng.permutation(len(rot))]
    moved = PointSet(perm)
    assert math.isclose(separation(pts), separation(moved), rel_tol=1e-12)
    assert math.isclose(log_energy(pts), log_energy(moved), rel_tol=1e-12)
    assert math.isclose(sum_distances(pts), sum_distances(moved), rel_tol=1e-12)


@pytest.mark.parametrize("M", [3, 12, 20])
def test_separation_and_l2_invariant_under_rotation_and_permutation(M):
    rng = np.random.default_rng(M)
    pts = generate(validate(simple_model(M)))
    moved = PointSet((pts.coords @ rotation_matrix(rng).T)[rng.permutation(len(pts))])
    assert math.isclose(separation(pts), separation(moved), rel_tol=1e-12)
    assert math.isclose(sum_distances(pts), sum_distances(moved), rel_tol=1e-12)
    # D^2 = (4/3 - S/N^2)/8 cancels most digits of S, so an ulp of S moves
    # D by up to 1e4 ulp at M = 20; D^2 keeps the error of S/N^2.
    assert math.isclose(l2_discrepancy_stolarsky(pts) ** 2,
                        l2_discrepancy_stolarsky(moved) ** 2, rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize("M", [3, 12, 20])
def test_sup_estimate_invariant_under_permutation(M):
    pts = generate(validate(simple_model(M)))
    perm = np.random.default_rng(M).permutation(len(pts))
    want = sup_discrepancy_estimate(pts, n_samples=2000, seed=M)
    assert sup_discrepancy_estimate(PointSet(pts.coords[perm]), n_samples=2000,
                                    seed=M).value == want.value


def test_covering_octahedron(octahedron, octahedron_points):
    part = build_partition(octahedron)
    cov = covering_radius(octahedron_points, partition=part)
    # Exact value: circumradius of a face, sqrt(2 - 2/sqrt(3)).
    rho = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))
    assert cov.estimate <= rho + 1e-12
    assert cov.estimate > rho - 1e-3
    assert cov.upper_bound >= rho - 1e-12
    assert compute_metrics(octahedron_points, None, part, energies=False,
                           sup_mode=None).mesh_ratio == \
        pytest.approx(cov.upper_bound / math.sqrt(2.0), rel=1e-12)


def test_covering_estimate_below_certified_bound():
    for M in (2, 3, 5):
        model = validate(simple_model(M))
        pts = generate(model)
        part = build_partition(model)
        cov = covering_radius(pts, partition=part)
        assert cov.estimate <= cov.upper_bound + 1e-12
        assert cov.upper_bound == covering_upper_bound(part)


def test_compute_metrics_report_octahedron(octahedron, octahedron_points):
    part = build_partition(octahedron)
    rep = compute_metrics(octahedron_points, octahedron, part,
                          riesz_s=(1.0, 2.0), sup_mode="exact",
                          l2_quadrature=True)
    d = rep.to_dict()
    assert d["n_points"] == 6
    assert math.isclose(d["separation"], math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(d["d_sup_exact"], 1.0 / 3.0, rel_tol=1e-12)
    assert "d_sup_estimate" not in d
    assert d["riesz"]["1.0"] == pytest.approx(24.0 / math.sqrt(2.0) + 3.0)
    assert d["d_polar_max"] == pytest.approx(1.0 / 3.0)
    assert d["d_equatorial"] == pytest.approx(4.0 / 12.0)
    assert d["envelope_lower"] == pytest.approx(2.0 / 6.0)
    assert d["d_l2_quadrature"] == pytest.approx(d["d_l2_stolarsky"], rel=2e-2)
    assert d["mesh_ratio"] >= d["mesh_ratio_estimate"]


def test_compute_metrics_minimal_modes():
    pts = PointSet(random_unit_points(np.random.default_rng(2), 30))
    rep = compute_metrics(pts, sup_mode=None, energies=False, riesz_s=())
    d = rep.to_dict()
    assert "d_sup_exact" not in d and "d_sup_estimate" not in d
    assert "log_energy" not in d
    assert "constants" not in d
    assert d["covering_upper_bound"] == 2.0  # trivial without a partition
    assert "mesh_ratio" not in d
    assert d["separation"] > 0


def test_compute_metrics_rejects_sup_mode_before_any_work(octahedron_points, monkeypatch):
    def fail(points):
        raise AssertionError("separation ran before the sup mode was checked")

    monkeypatch.setattr(metrics, "separation", fail)
    with pytest.raises(ValueError, match="unknown sup mode"):
        compute_metrics(octahedron_points, sup_mode="bogus")


def test_compute_metrics_constants_for_simple_model():
    model = validate(simple_model(2))
    rep = compute_metrics(generate(model), model, build_partition(model),
                          sup_mode="estimate", sup_samples=500)
    d = rep.to_dict()
    assert math.isclose(d["constants"]["k1"], 1.0 / 32.0, rel_tol=1e-15)
    assert d["envelope_lower"] <= d["d_sup_estimate"] <= d["envelope_upper"]


def test_small_sets_separation_covering_mesh():
    north = PointSet(np.array([[0.0, 0.0, 1.0]]))
    cov = covering_radius(north)
    # south pole is the farthest location; no partition means trivial bound
    assert cov.upper_bound == 2.0
    assert 2.0 - 1e-2 < cov.estimate <= 2.0

    pair = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert separation(pair) == 2.0
    assert riesz_energy(pair, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert sum_distances(pair) == pytest.approx(4.0, abs=1e-15)
    gamma = compute_metrics(pair, energies=False, sup_mode=None).mesh_ratio_estimate
    # farthest locations sit on the equator, chord sqrt(2) to either pole
    assert abs(gamma - math.sqrt(0.5)) < 2e-3
    assert gamma > 0.0


def test_sup_exact_rotation_invariant():
    rng = np.random.default_rng(77)
    pts = PointSet(random_unit_points(rng, 10))
    rot = rotation_matrix(rng)
    base = sup_discrepancy_exact(pts)
    moved = sup_discrepancy_exact(PointSet(pts.coords @ rot.T))
    assert abs(base.value - moved.value) <= 1e-12


# Every public routine that takes raw point rows, except separation, whose
# cube grid accepts any finite rows.
ROW_CHECKED = {
    "covering_radius": covering_radius,
    "riesz_energy": lambda p: riesz_energy(p, 1.0),
    "log_energy": log_energy,
    "sum_distances": sum_distances,
    "sup_discrepancy_exact": sup_discrepancy_exact,
    "sup_discrepancy_estimate": lambda p: sup_discrepancy_estimate(p, n_samples=100),
    "l2_discrepancy_stolarsky": l2_discrepancy_stolarsky,
    "l2_discrepancy_quadrature": l2_discrepancy_quadrature,
    "stolarsky_constant_estimate": stolarsky_constant_estimate,
    "compute_metrics": compute_metrics,
    "count_in_cap": lambda p: count_in_cap(p, SphericalCap(NORTH_POLE, 0.0)),
}


@pytest.mark.parametrize("row", ["nan", "norm-2"])
@pytest.mark.parametrize("name", list(ROW_CHECKED))
def test_raw_rows_are_checked_like_a_point_set(name, row):
    good = random_unit_points(np.random.default_rng(17), 12)
    bad = good.copy()
    bad[5] = np.nan if row == "nan" else 2.0 * bad[5]
    with pytest.raises(ValueError):
        ROW_CHECKED[name](bad)
    # The check leaves the caller's array writable.
    ROW_CHECKED[name](good)
    assert good.flags.writeable
