"""Cap discrepancy: closed forms, sweep certificates, sampling oracles,
and the two independent L2 routes."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    cap_centers,
    make_random_spec,
    mean_chord_monte_carlo,
    random_unit_points,
    sup_estimate_reference,
    sup_exact_reference,
    sweep_rows_reference,
)
from diamondsphere import metrics
from diamondsphere import (
    BOUNDARY_TOL,
    MEAN_CHORD,
    ModelSpec,
    PointSet,
    count_in_cap,
    equatorial_discrepancy,
    generate,
    l2_discrepancy_quadrature,
    l2_discrepancy_stolarsky,
    polar_cap_profile,
    simple_model,
    spiral_points,
    stolarsky_constant_estimate,
    sup_discrepancy_estimate,
    sup_discrepancy_exact,
    validate,
)


def polar_recount(model, pts) -> np.ndarray:
    """The polar profile recounted by brute force: |#{z >= z_j}/N - (1 - z_j)/2|."""
    from diamondsphere import NORTH_POLE, SphericalCap
    out = []
    for j in range(1, model.M + 1):
        zj = float(model.height_z_exact(j))
        counted = count_in_cap(pts, SphericalCap(NORTH_POLE, zj), "closed")
        out.append(abs(counted / model.N - (1.0 - zj) / 2.0))
    return np.array(out)


def brute_max_over_random_caps(coords: np.ndarray, n_caps: int,
                               seed: int) -> float:
    rng = np.random.default_rng(seed)
    centers = random_unit_points(rng, n_caps)
    t = rng.uniform(-1.0, 1.0, n_caps)
    n = len(coords)
    best = 0.0
    for lo in range(0, n_caps, 50_000):
        dots = centers[lo:lo + 50_000] @ coords.T
        counts = (dots >= t[lo:lo + 50_000, None]).sum(axis=1)
        dev = np.abs(counts / n - (1.0 - t[lo:lo + 50_000]) / 2.0)
        best = max(best, float(dev.max()))
    return best


def gauss_legendre_l2(coords: np.ndarray, n_centers: int, n_t: int) -> float:
    """Reference L2 route: Gauss-Legendre nodes in the cap height.

    The library integrates the height exactly; this keeps the node-grid
    kernel it replaced, with closed counting at BOUNDARY_TOL.
    """
    n = len(coords)
    centers = spiral_points(n_centers)
    tnodes, tweights = np.polynomial.legendre.leggauss(n_t)
    tweights = tweights / 2.0
    area = (1.0 - tnodes) / 2.0
    block = max(8, int(2e6 // max(n * n_t, 1)))
    parts = []
    for lo in range(0, n_centers, block):
        dots = centers[lo:lo + block] @ coords.T
        counts = (dots[:, :, None] >= (tnodes - BOUNDARY_TOL)).sum(axis=1)
        dev2 = (counts / n - area) ** 2
        parts.append(float(np.sum(dev2 @ tweights)))
    return math.sqrt(math.fsum(parts) / n_centers)


def exact_height_integral(dots) -> Fraction:
    """Integral over t of (#{a >= t}/N - (1 - t)/2)^2 dt/2, in rationals."""
    n = len(dots)
    cuts = [Fraction(-1)] + sorted(Fraction(float(a)) for a in dots) + [Fraction(1)]
    total = Fraction(0)
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        # on (lo, hi] the count is n - k: the deficit is c + t/2
        c = Fraction(n - k, n) - Fraction(1, 2)
        total += (c * c * (hi - lo) + c * (hi * hi - lo * lo) / 2
                  + (hi ** 3 - lo ** 3) / 12)
    return total / 2


def test_polar_profile_closed_form_simple():
    for M in (1, 2, 3, 5, 9):
        model = validate(simple_model(M))
        pts = generate(model)
        prof = polar_cap_profile(model)
        assert prof.closed_form is not None
        N = model.N
        for j, ex in zip(prof.j, prof.exact):
            want = Fraction(N - 2 - 4 * j * j + 4 * (N - 1) * j,
                            2 * N * (N - 1))
            assert ex == want
        assert prof.max_exact == Fraction(2 * M, N)
        assert prof.argmax_j == M
        assert np.max(np.abs(polar_recount(model, pts) -
                             [float(v) for v in prof.exact])) < 1e-12


def test_polar_profile_literal_values():
    m1 = validate(simple_model(1))
    assert polar_cap_profile(m1).max_exact == Fraction(1, 3)
    m3 = validate(simple_model(3))
    assert polar_cap_profile(m3).max_exact == Fraction(3, 19)


def test_polar_profile_counting_matches_general_models():
    rng = np.random.default_rng(23)
    for k in range(6):
        model = validate(make_random_spec(rng, m_hi=10,
                                          theta_policy=f"seed:{k}"))
        pts = generate(model)
        prof = polar_cap_profile(model)
        assert prof.closed_form is None or model.is_simple
        assert np.max(np.abs(polar_recount(model, pts) -
                             [float(v) for v in prof.exact])) < 1e-12


def test_polar_profile_equals_its_fraction_definition():
    """The integer form over 2N(N - 1) against |N_{j+1}/N - (1 - z_j)/2|."""
    rng = np.random.default_rng(31)
    models = ([validate(simple_model(M, theta_policy="seed:1")) for M in (1, 2, 7)]
              + [validate(make_random_spec(rng, m_lo=1, m_hi=40)) for _ in range(60)])
    for model in models:
        want = [abs(Fraction(model.partial_count(j + 1), model.N)
                    - (1 - model.height_z_exact(j)) / 2) for j in range(1, model.M + 1)]
        assert list(polar_cap_profile(model).exact) == want


def test_equatorial_matches_polar_max_for_simple():
    for M in (1, 2, 4, 7):
        model = validate(simple_model(M))
        pts = generate(model)
        eq = equatorial_discrepancy(model, pts)
        assert eq.exact == Fraction(model.r[model.M - 1], 2 * model.N)
        assert eq.exact == polar_cap_profile(model).max_exact
        assert math.isclose(eq.counting, float(eq.exact), abs_tol=1e-12)


def test_sup_exact_octahedron(exact_sup_cache):
    sup = exact_sup_cache(1)
    assert math.isclose(sup.value, 1.0 / 3.0, abs_tol=1e-12)


def test_sup_exact_equals_polar_max_small_simple(exact_sup_cache, simple_suite):
    for M in (1, 2, 3, 4):
        model = simple_suite[M][0]
        sup = exact_sup_cache(M)
        assert math.isclose(sup.value, 2.0 * M / model.N, abs_tol=1e-12)


def test_sup_exact_witness_is_achieved(exact_sup_cache, simple_suite):
    for M in (1, 2, 3):
        _, pts, _ = simple_suite[M]
        sup = exact_sup_cache(M)
        k = count_in_cap(pts, sup.witness, mode=sup.side)
        dev = abs(k / len(pts) - sup.witness.area_fraction)
        assert math.isclose(dev, sup.value, abs_tol=1e-12)


def test_sup_exact_dominates_random_caps():
    rng = np.random.default_rng(99)
    for trial in range(4):
        coords = random_unit_points(rng, 8 + trial)
        sup = sup_discrepancy_exact(PointSet(coords))
        brute = brute_max_over_random_caps(coords, 150_000, seed=trial)
        assert brute <= sup.value + 1e-12
        k = count_in_cap(PointSet(coords), sup.witness, mode=sup.side)
        dev = abs(k / len(coords) - sup.witness.area_fraction)
        assert math.isclose(dev, sup.value, abs_tol=1e-12)


def test_sup_exact_size_guard(simple_suite):
    pts = simple_suite[4][1]
    with pytest.raises(ValueError):
        sup_discrepancy_exact(pts, max_points=50)


SUP_REFERENCE_SETS = (
    [f"M{M}-{theta}" for M in range(1, 6) for theta in ("zeros", "seed:2", "seed:3")]
    + ["two-piece"]
    + [f"random-{n}" for n in (2, 3, 4, 5, 8, 13, 21, 34, 60)]
    + ["duplicated-rows", "antipodal-pair", "antipodal-pair-and-more", "ring-and-poles"]
)


def sup_reference_set(name: str) -> np.ndarray:
    rng = np.random.default_rng(23)
    if name == "two-piece":
        spec = ModelSpec(M=5, n=2, t=(0, 2, 5), alpha=(0, 4), beta=(3, 1),
                         theta_policy="seed:2")
        return generate(validate(spec)).coords
    if name.startswith("random-"):
        n = int(name.split("-")[1])
        return random_unit_points(np.random.default_rng(n), n)
    if name == "duplicated-rows":
        return random_unit_points(rng, 9)[[0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 3]]
    if name == "antipodal-pair":
        p = random_unit_points(rng, 1)
        return np.vstack([p, -p])
    if name == "antipodal-pair-and-more":
        p = random_unit_points(rng, 6)
        return np.vstack([p, -p[:1]])
    if name == "ring-and-poles":
        phi = 0.1 + 2 * math.pi * np.arange(7) / 7
        s = math.sqrt(1 - 0.3 ** 2)
        ring = np.column_stack([s * np.cos(phi), s * np.sin(phi), np.full(7, 0.3)])
        return np.vstack([[0.0, 0.0, 1.0], ring, [0.0, 0.0, -1.0]])
    M, theta = name[1:].split("-", 1)
    return generate(validate(simple_model(int(M), theta_policy=theta))).coords


@pytest.mark.parametrize("name", SUP_REFERENCE_SETS)
def test_sup_exact_matches_full_sweep_reference(name):
    coords = sup_reference_set(name)
    sup = sup_discrepancy_exact(coords)
    assert math.isclose(sup.value, sup_exact_reference(coords).value, rel_tol=0, abs_tol=1e-12)
    k = count_in_cap(coords, sup.witness, mode=sup.side)
    excess = k / len(coords) - sup.witness.area_fraction
    assert math.isclose(excess if sup.side == "closed" else -excess, sup.value,
                        rel_tol=0, abs_tol=1e-12)


# A one-row block would go to BLAS's matrix-vector product, whose dots may
# round differently in the last bit, so the smallest block tried is 64 rows.
@pytest.mark.parametrize("block", [64, 1000, 10**9])
def test_sup_exact_independent_of_block_size(block, monkeypatch):
    coords = sup_reference_set("random-21")
    want = sup_discrepancy_exact(coords)
    monkeypatch.setattr(metrics, "_TRIPLE_BLOCK", block)
    assert sup_discrepancy_exact(coords) == want


def test_sup_estimate_never_exceeds_exact(exact_sup_cache, simple_suite):
    for M in (1, 2, 3):
        _, pts, _ = simple_suite[M]
        est = sup_discrepancy_estimate(pts, n_samples=2000, seed=0)
        assert est.value <= exact_sup_cache(M).value + 1e-12


def test_sup_estimate_pole_seeds_reach_polar_max(simple_suite):
    # Even with zero random samples the pole sweeps cover the
    # parallel-height caps, so the estimate attains the polar maximum.
    for M in (1, 3, 5):
        model, pts, _ = simple_suite[M]
        est = sup_discrepancy_estimate(pts, n_samples=0)
        assert est.value >= 2.0 * M / model.N - 1e-12


def test_sup_estimate_deterministic_and_stable(simple_suite):
    model, pts, _ = simple_suite[4]
    a = sup_discrepancy_estimate(pts, n_samples=1000, seed=7)
    b = sup_discrepancy_estimate(pts, n_samples=1000, seed=7)
    assert a.value == b.value and a.side == b.side
    vals = [sup_discrepancy_estimate(pts, n_samples=1000, seed=s).value
            for s in range(4)]
    lo = 2.0 * 4 / model.N - 1e-12
    assert all(v >= lo for v in vals)
    assert max(vals) - min(vals) < 5e-3


@pytest.mark.parametrize("budget", [1, 40_000, 300_000, 10**9])
def test_sup_estimate_independent_of_block_size(budget, monkeypatch):
    model_pts = generate(validate(simple_model(9, theta_policy="seed:2")))
    random_pts = PointSet(random_unit_points(np.random.default_rng(6), 257))
    want = [sup_discrepancy_estimate(p, n_samples=3000, seed=4)
            for p in (model_pts, random_pts)]
    monkeypatch.setattr(metrics, "_SUP_BLOCK_DOTS", budget)
    got = [sup_discrepancy_estimate(p, n_samples=3000, seed=4)
           for p in (model_pts, random_pts)]
    assert got == want


# The pole rows of every input hold ties (a parallel shares one dot), and
# three random centers of the report-size input (M = 40) do too.
@pytest.mark.parametrize("M, theta, samples, seed", [
    (3, "zeros", 500, 1), (12, "seed:5", 2000, 2), (40, "seed:3", 2000, 3),
], ids=["M3-zeros", "M12-seed:5", "M40-seed:3"])
def test_sup_estimate_witness_is_achieved(M, theta, samples, seed):
    pts = generate(validate(simple_model(M, theta_policy=theta)))
    est = sup_discrepancy_estimate(pts, n_samples=samples, seed=seed)
    k = count_in_cap(pts, est.witness, mode=est.side)
    dev = abs(k / len(pts) - est.witness.area_fraction)
    assert math.isclose(dev, est.value, abs_tol=1e-12)


def test_l2_single_point_closed_form():
    lone = PointSet(np.array([[0.0, 0.0, 1.0]]))
    want = math.sqrt(1.0 / 6.0)
    assert math.isclose(l2_discrepancy_stolarsky(lone), want, rel_tol=1e-15)
    assert math.isclose(l2_discrepancy_quadrature(lone), want, rel_tol=2e-3)


def test_l2_antipodal_pair_closed_form():
    pair = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    # Mean pairwise distance 1 leaves a deficit of 1/3.
    want = math.sqrt((MEAN_CHORD - 1.0) / 8.0)
    assert math.isclose(l2_discrepancy_stolarsky(pair), want, rel_tol=1e-14)
    assert math.isclose(l2_discrepancy_quadrature(pair), want, rel_tol=2e-3)


def test_l2_routes_agree(octahedron_points):
    a = l2_discrepancy_stolarsky(octahedron_points)
    b = l2_discrepancy_quadrature(octahedron_points)
    assert math.isclose(a, b, rel_tol=2e-2)
    rng = np.random.default_rng(5)
    pts = PointSet(random_unit_points(rng, 20))
    assert math.isclose(l2_discrepancy_stolarsky(pts),
                        l2_discrepancy_quadrature(pts), rel_tol=2e-2)


def test_l2_decreases_along_family(simple_suite):
    vals = [l2_discrepancy_stolarsky(simple_suite[M][1]) for M in (1, 2, 4, 6)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    # The L2 discrepancy of a good family decays like N**(-3/4); the
    # normalized values hover near 0.32 here.
    for M, v in zip((1, 2, 4, 6), vals):
        n = simple_suite[M][0].N
        assert 0.25 < v * n ** 0.75 < 0.4


def test_stolarsky_constant_recovered(octahedron_points):
    c = stolarsky_constant_estimate(octahedron_points, n_centers=4000)
    assert math.isclose(c, 8.0, rel_tol=2e-2)


def test_mean_chord_monte_carlo_converges():
    est = mean_chord_monte_carlo(n_pairs=500_000, seed=0)
    assert math.isclose(est, MEAN_CHORD, abs_tol=3e-3)
    est2 = mean_chord_monte_carlo(n_pairs=500_000, seed=1)
    assert abs(est - est2) < 5e-3


def test_cap_area_consistency_with_discrepancy_terms():
    # The area term used by every discrepancy path: fraction (1 - t)/2.
    from diamondsphere import SphericalCap, UnitVec
    cap = SphericalCap(UnitVec(0.0, 0.0, 1.0), 0.25)
    assert math.isclose(cap.area_fraction, (1.0 - 0.25) / 2.0, rel_tol=1e-15)


def test_l2_never_exceeds_sup(octahedron_points):
    # An averaged cap deviation cannot beat the worst single cap.
    for pts in (octahedron_points,
                PointSet(random_unit_points(np.random.default_rng(9), 12))):
        quad = l2_discrepancy_quadrature(pts, n_centers=2048)
        sup = sup_discrepancy_exact(pts).value
        assert quad <= sup + 1e-9


def test_l2_quadrature_grid_refinement(octahedron_points):
    coarse = l2_discrepancy_quadrature(octahedron_points,
                                       n_centers=1024)
    fine = l2_discrepancy_quadrature(octahedron_points,
                                     n_centers=4096)
    assert abs(coarse - fine) / fine < 5e-3


def test_sup_estimate_dominates_random_heights():
    # Each sampled center, at an independent uniform height, never beats
    # its own break-height sweep, and so never beats the estimate.
    rng = np.random.default_rng(17)
    sets = [generate(validate(simple_model(M, theta_policy=policy)))
            for M in range(1, 12) for policy in ("zeros", f"seed:{M}")]
    sets += [PointSet(random_unit_points(rng, n)) for n in (5, 20, 64, 201)]
    for k, pts in enumerate(sets):
        est = sup_discrepancy_estimate(pts, n_samples=2000, seed=k)
        draws = np.random.default_rng(k)
        z = draws.uniform(-1.0, 1.0, 2000)
        phi = draws.uniform(0.0, 2.0 * math.pi, 2000)
        t = draws.uniform(-1.0, 1.0, 2000)[:, None]
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        centers = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
        dots = centers @ pts.coords.T
        n = len(pts)
        closed = np.count_nonzero(dots >= t - BOUNDARY_TOL, axis=1) / n
        opened = np.count_nonzero(dots > t + BOUNDARY_TOL, axis=1) / n
        area = (1.0 - t[:, 0]) / 2.0
        dev = np.maximum(closed - area, area - opened)
        swept, _, _ = metrics._sweep_rows(dots)
        assert np.all(dev <= swept + BOUNDARY_TOL)
        assert float(dev.max()) <= est.value + BOUNDARY_TOL


def test_best_witness_keeps_the_first_largest_value():
    # Both sup kernels reduce their blocks here, so a tie across blocks
    # must keep the earlier center whatever the block size.
    e = np.eye(3)
    blocks = [(e[:0], np.empty(0), np.empty(0), np.empty(0, bool)),
              (e[:1], np.array([0.25]), np.array([0.5]), np.array([False])),
              (e[1:], np.array([0.25, 0.25]), np.array([0.1, 0.2]), np.array([True, True]))]
    sup = metrics._best_witness(iter(blocks))
    assert (sup.value, sup.witness.center.x, sup.witness.t, sup.side) == (0.25, 1.0, 0.5, "open")


def sweep_rows_inputs(name: str) -> np.ndarray:
    """Dot rows for the differential test of metrics._sweep_rows."""
    rng = np.random.default_rng(41)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    if name.startswith("cap-centers-"):
        coords = generate(validate(simple_model(int(name[-1])))).coords
        return np.vstack([c @ coords.T for c in cap_centers(coords)])
    if name.startswith("synthetic-"):
        dots = rng.uniform(-1.0, 1.0, (300, 55))
        k = np.arange(5)
        if name == "synthetic-duplicates":
            dots[:, 40:] = dots[:, :15]
        elif name == "synthetic-narrow-chain":  # spread 8e-11 <= BOUNDARY_TOL
            dots[:, :5] = dots[:, 5:6] + 2e-11 * k
        else:  # gaps of 6e-11, spread 2.4e-10 > BOUNDARY_TOL
            dots[:, :5] = dots[:, 5:6] + 6e-11 * k
        return dots
    if name.startswith("random-"):
        coords = random_unit_points(rng, int(name.split("-")[1]))
    else:
        M, theta = name[1:].split("-", 1)
        coords = generate(validate(simple_model(int(M), theta_policy=theta))).coords
    return np.vstack([poles, random_unit_points(rng, 2000)]) @ coords.T


@pytest.mark.parametrize("name", (
    [f"M{M}-{theta}" for M in (*range(1, 13), 40) for theta in ("zeros", "seed:3")]
    + ["random-5", "random-20", "random-257"]
    + [f"cap-centers-{M}" for M in (1, 2, 3)]
    + ["synthetic-duplicates", "synthetic-narrow-chain", "synthetic-wide-chain"]
))
def test_sweep_rows_matches_tie_chain_reference(name):
    dots = sweep_rows_inputs(name)
    value, t, closed = metrics._sweep_rows(dots)
    want_value, want_t, want_side = sweep_rows_reference(dots)
    assert np.array_equal(value, want_value)
    assert np.array_equal(t, want_t)
    assert np.array_equal(np.where(closed, 1, -1), want_side)


def bucket_edge_rows() -> np.ndarray:
    """Rows of 64 dots (32 buckets) piled on bucket edges, on +-1 and
    within BOUNDARY_TOL either side of an edge, where a bound that drops
    a bucket of reach or an area edge falls below the swept value."""
    rng = np.random.default_rng(5)
    edges = -1.0 + np.arange(33) / 16
    offsets = BOUNDARY_TOL * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    piles = rng.choice(edges, (2000, 4))
    dots = np.take_along_axis(piles, rng.integers(0, 4, (2000, 64)), axis=1)
    dots = np.clip(dots + rng.choice(offsets, dots.shape), -1.0, 1.0)
    ones = np.ones(64)
    return np.vstack([dots, ones, -ones, np.r_[ones[:32], -ones[:32]]])


@pytest.mark.parametrize("name", (
    [f"cap-centers-{M}" for M in (1, 2, 3)]
    + ["synthetic-duplicates", "synthetic-narrow-chain", "synthetic-wide-chain",
       "bucket-edges"]
))
def test_sweep_bound_dominates_every_row(name):
    dots = bucket_edge_rows() if name == "bucket-edges" else sweep_rows_inputs(name)
    value, _, _ = metrics._sweep_rows(dots)
    assert np.all(metrics._sweep_bound(dots) >= value)


def sup_estimate_inputs(name: str) -> PointSet:
    """Point sets for the differential test of sup_discrepancy_estimate."""
    rng = np.random.default_rng(43)
    if name == "multi-piece":
        return generate(validate(make_random_spec(rng, m_lo=8, m_hi=20,
                                                  theta_policy="seed:4")))
    if name == "repeated-rows":
        return PointSet(random_unit_points(rng, 30)[np.arange(45) % 30])
    if name.startswith("random-"):
        return PointSet(random_unit_points(rng, int(name.split("-")[1])))
    M, theta = name[1:].split("-", 1)
    return generate(validate(simple_model(int(M), theta_policy=theta)))


@pytest.mark.parametrize("name", (
    [f"M{M}-{theta}" for M in (*range(1, 13), 40) for theta in ("zeros", "seed:3")]
    + ["multi-piece", "random-5", "random-20", "random-257", "repeated-rows"]
))
def test_sup_estimate_matches_unpruned_reference(name):
    pts = sup_estimate_inputs(name)
    got = sup_discrepancy_estimate(pts, n_samples=2000, seed=8)
    want = sup_estimate_reference(pts, n_samples=2000, seed=8)
    assert got.value == want.value
    assert got.witness.center.as_array().tolist() == want.witness.center.as_array().tolist()
    assert got.witness.t == want.witness.t
    assert got.side == want.side


def test_sup_estimate_sweeps_few_rows_of_an_ensemble(monkeypatch):
    # The bucket bound leaves the exact sweep only the rows that can beat
    # the polar value: at M = 40 that is the two poles of 2,002 rows.
    pts = generate(validate(simple_model(40, theta_policy="seed:3")))
    sweep, swept = metrics._sweep_rows, []
    monkeypatch.setattr(metrics, "_sweep_rows", lambda d: (swept.append(len(d)), sweep(d))[1])
    sup_discrepancy_estimate(pts, n_samples=2000, seed=3)
    assert sum(swept) < 20


@pytest.mark.parametrize("n_samples", [-1, 2.5])
def test_sup_estimate_rejects_a_bad_sample_count(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        sup_discrepancy_estimate(np.eye(3), n_samples=n_samples)


def test_l2_quadrature_matches_rational_integral():
    rng = np.random.default_rng(31)
    coords = random_unit_points(rng, 13)
    coords = np.vstack([coords, coords[[2, 7]]])  # duplicated rows give ties
    dots = spiral_points(64) @ coords.T
    assert np.all(np.abs(dots) <= 1.0)
    want = sum(exact_height_integral(row) for row in dots) / 64
    got = l2_discrepancy_quadrature(PointSet(coords), n_centers=64)
    assert math.isclose(got, math.sqrt(want), rel_tol=1e-12)


def test_l2_quadrature_matches_gauss_legendre_reference():
    rng = np.random.default_rng(12)
    sets = [generate(validate(simple_model(M))).coords for M in range(1, 6)]
    sets += [random_unit_points(rng, 20) for _ in range(3)]
    for coords in sets:
        want = gauss_legendre_l2(coords, n_centers=4096, n_t=256)
        got = l2_discrepancy_quadrature(PointSet(coords), n_centers=4096)
        assert math.isclose(got, want, rel_tol=1e-3)


@pytest.mark.parametrize("budget", [1, 40_000, 300_000, 10**9])
def test_l2_quadrature_independent_of_block_size(budget, monkeypatch):
    model_pts = generate(validate(simple_model(9)))
    random_pts = PointSet(random_unit_points(np.random.default_rng(6), 257))
    want = [l2_discrepancy_quadrature(p) for p in (model_pts, random_pts)]
    monkeypatch.setattr(metrics, "_SUP_BLOCK_DOTS", budget)
    got = [l2_discrepancy_quadrature(p) for p in (model_pts, random_pts)]
    assert got == want


def test_calibrate_stolarsky_script_confirms_constant(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_stolarsky.py"
    spec = importlib.util.spec_from_file_location("calibrate_stolarsky", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    assert "pinned constant 8 confirmed" in capsys.readouterr().out
