"""Acceptance gate: ten pinned checks covering the whole feature surface.

Each test prints one PASS line with its measured numbers; pytest -v adds
the per-test verdict.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_random_spec, mean_chord_monte_carlo, random_unit_points
from diamondsphere import (
    PointSet,
    build_partition,
    covering_radius,
    covering_upper_bound,
    generate,
    l2_discrepancy_quadrature,
    l2_discrepancy_stolarsky,
    log_energy,
    polar_cap_profile,
    region_area,
    region_area_fraction_exact,
    separation,
    side_lengths,
    simple_model,
    sum_distances,
    sup_discrepancy_estimate,
    validate,
    verify_matching,
)

M_FULL = 200          # top of the one-piece sweep
ENVELOPE_HI = 4.0 + 2.0 * math.sqrt(2.0)


@pytest.fixture(scope="module")
def simple_sweep():
    """(model, partition) for every one-piece model up to M_FULL."""
    out = {}
    for M in range(1, M_FULL + 1):
        model = validate(simple_model(M))
        out[M] = (model, build_partition(model))
    return out


@pytest.fixture(scope="module")
def random_fifty():
    """Fifty randomized general models, a third with ring rotations."""
    rng = np.random.default_rng(20240817)
    models = []
    for k in range(50):
        policy = f"seed:{k}" if k % 3 == 0 else "zeros"
        models.append(validate(make_random_spec(rng, m_lo=2, m_hi=25,
                                                theta_policy=policy)))
    return models


def test_criterion_01_counting_identities():
    t0 = time.perf_counter()
    for M in range(1, M_FULL + 1):
        model = validate(simple_model(M))
        assert model.N == 4 * M * M + 2
        for j in range(1, M + 1):
            assert model.rings.first[j] == 2 * j * j - 2 * j + 1
        assert model.z_exact[M - 1] == Fraction(0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 01] PASS: counting identities exact for "
          f"M = 1..{M_FULL} in {elapsed:.3f}s")


def test_criterion_02_equal_area(simple_sweep, random_fifty):
    checked = 0
    for M, (model, part) in simple_sweep.items():
        target = Fraction(1, model.N)
        area = 4.0 * math.pi / model.N
        # All cells of a ring share h_lo, h_hi, and width, so one exact
        # evaluation per ring covers each of its cells; a cap is a ring of one.
        for rid in model.rings.first.tolist():
            region = part.region(rid)
            assert region_area_fraction_exact(part, region) == target
            assert abs(region_area(region) - area) <= 1e-12 * area
            checked += 1
        if M <= 25:  # brute per-region pass on the small models
            for region in part:
                assert region_area_fraction_exact(part, region) == target
                assert abs(region_area(region) - area) <= 1e-12 * area
            checked += model.N
    for model in random_fifty:
        part = build_partition(model)
        target = Fraction(1, model.N)
        area = 4.0 * math.pi / model.N
        for region in part:
            assert region_area_fraction_exact(part, region) == target
            assert abs(region_area(region) - area) <= 1e-12 * area
            checked += 1
    print(f"[criterion 02] PASS: every region is 4*pi/N "
          f"(exact fractions + 1e-12 float) across {checked} checks")


def test_criterion_03_interleaving_and_matching(simple_sweep, random_fifty):
    for M, (model, part) in simple_sweep.items():
        assert verify_matching(part, generate(model)) is None, M
    for model in random_fifty:
        part = build_partition(model)
        assert verify_matching(part, generate(model)) is None
    print(f"[criterion 03] PASS: exact height interleaving and point<->cell "
          f"bijection for M = 1..{M_FULL} plus 50 random models")


def test_criterion_04_polar_profile_closed_form():
    for M in range(1, 51):
        model = validate(simple_model(M))
        prof = polar_cap_profile(model)
        N = model.N
        for j, ex in zip(prof.j, prof.exact):
            want = Fraction(N - 2 - 4 * j * j + 4 * (N - 1) * j,
                            2 * N * (N - 1))
            assert ex == want
            assert abs(float(ex) - float(want)) <= 1e-12
        assert prof.max_exact == Fraction(2 * M, N)
        assert (2 * M) ** 2 == N - 2  # max is sqrt(N - 2)/N in rationals
    one = polar_cap_profile(validate(simple_model(1)))
    three = polar_cap_profile(validate(simple_model(3)))
    assert one.max_exact == Fraction(1, 3)
    assert three.max_exact == Fraction(3, 19)
    print("[criterion 04] PASS: polar profile matches the quadratic form "
          "and max = sqrt(N-2)/N exactly for M = 1..50")


def test_criterion_05_scale_free_envelope(exact_sup_cache):
    t0 = time.perf_counter()
    worst = 0.0
    for M in range(1, 7):
        model = validate(simple_model(M))
        sup = exact_sup_cache(M)
        lo = math.sqrt(model.N - 2) / model.N
        hi = ENVELOPE_HI / math.sqrt(model.N)
        assert lo - 1e-12 <= sup.value <= hi + 1e-12
        worst = max(worst, sup.value * math.sqrt(model.N))
    for M in range(7, 51):
        model = validate(simple_model(M))
        est = sup_discrepancy_estimate(generate(model), n_samples=200, seed=0)
        lo = math.sqrt(model.N - 2) / model.N
        hi = ENVELOPE_HI / math.sqrt(model.N)
        assert lo - 1e-12 <= est.value <= hi + 1e-12
        worst = max(worst, est.value * math.sqrt(model.N))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[criterion 05] PASS: sup discrepancy inside "
          f"[sqrt(N-2)/N, (4+2*sqrt(2))/sqrt(N)] for M = 1..50; "
          f"max sqrt(N)*D = {worst:.4f} <= {ENVELOPE_HI:.4f}; "
          f"{elapsed:.1f}s")


def test_criterion_06_enumeration_vs_sampling(exact_sup_cache):
    gaps = []
    for M in range(1, 6):
        model = validate(simple_model(M))
        exact = exact_sup_cache(M).value
        est = sup_discrepancy_estimate(generate(model), n_samples=1_000_000,
                                       seed=0).value
        assert exact >= est - 1e-12
        gap = exact - est
        assert gap < 1e-2
        gaps.append(gap)
    print(f"[criterion 06] PASS: exact >= 1e6-cap estimate for M = 1..5, "
          f"max gap {max(gaps):.2e} < 1e-2")


def test_criterion_07_stolarsky_consistency():
    sets = [generate(validate(simple_model(1)))]
    for M in (2, 3, 4):
        sets.append(generate(validate(simple_model(M))))
    rng = np.random.default_rng(7)
    for _ in range(5):
        sets.append(PointSet(random_unit_points(rng, 20)))
    worst = 0.0
    for pts in sets:
        a = l2_discrepancy_stolarsky(pts)
        b = l2_discrepancy_quadrature(pts)
        rel = abs(a - b) / b
        assert rel < 2e-2
        worst = max(worst, rel)
    w2 = mean_chord_monte_carlo(n_pairs=2_000_000, seed=0)
    assert abs(w2 - 4.0 / 3.0) < 1e-3
    print(f"[criterion 07] PASS: distance-sum and quadrature discrepancies "
          f"agree (worst rel {worst:.2e} < 2e-2); mean chord MC "
          f"{w2:.6f} within 1e-3 of 4/3")


def test_criterion_08_side_length_bounds(simple_sweep):
    lo, hi = math.pi / math.sqrt(2.0), math.pi * math.sqrt(2.0)
    tightest = (math.inf, -math.inf)
    for M, (model, part) in simple_sweep.items():
        sq = math.sqrt(model.N)
        for j in range(1, M + 1):
            v = sq * side_lengths(part, j).horizontal_lo
            assert lo < v < hi
            tightest = (min(tightest[0], v), max(tightest[1], v))
    print(f"[criterion 08] PASS: sqrt(N) x horizontal side in "
          f"({lo:.4f}, {hi:.4f}) strictly for M = 1..{M_FULL}; "
          f"observed [{tightest[0]:.4f}, {tightest[1]:.4f}]")


# First-run values for the scale-free bands, recorded 2026-08 over
# M = 2..100: sqrt(N)*separation in [2.668861, 3.240394] and
# sqrt(N)*covering bound in [2.924690, 3.162219], worst step ratio
# 1.044340.  The frozen brackets below enforce non-regression.
SEP_BAND = (2.65, 3.26)
COV_BAND = (2.90, 3.20)
STEP_TOL = 1.05


def test_criterion_09_covering_separation_bands(simple_sweep):
    sep_vals, cov_vals = [], []
    for M in range(2, 101):
        model, part = simple_sweep[M]
        sq = math.sqrt(model.N)
        sep_vals.append(sq * separation(generate(model)))
        cov_vals.append(sq * covering_upper_bound(part))
    assert all(SEP_BAND[0] <= v <= SEP_BAND[1] for v in sep_vals)
    assert all(COV_BAND[0] <= v <= COV_BAND[1] for v in cov_vals)
    worst_step = max(b / a for a, b in zip(cov_vals, cov_vals[1:]))
    assert worst_step <= STEP_TOL
    print(f"[criterion 09] PASS: sqrt(N)*separation in "
          f"[{min(sep_vals):.6f}, {max(sep_vals):.6f}] (band {SEP_BAND}); "
          f"sqrt(N)*covering bound in [{min(cov_vals):.6f}, "
          f"{max(cov_vals):.6f}] (band {COV_BAND}), "
          f"worst step ratio {worst_step:.6f} <= {STEP_TOL}")


def test_criterion_10_octahedron_closed_forms():
    model = validate(simple_model(1))
    pts = generate(model)
    part = build_partition(model)

    delta = separation(pts)
    assert abs(delta - math.sqrt(2.0)) < 1e-15

    e_log = log_energy(pts)
    want_log = -18.0 * math.log(2.0)
    assert abs(e_log - want_log) < 1e-12 * abs(want_log)

    dist = sum_distances(pts)
    want_dist = 24.0 * math.sqrt(2.0) + 12.0
    assert abs(dist - want_dist) < 1e-12 * want_dist

    cov, upper = covering_radius(pts), covering_upper_bound(part)
    rho = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))
    assert rho - 1e-3 <= cov <= upper
    print(f"[criterion 10] PASS: delta = sqrt(2) (1e-15), "
          f"E_log = -18 log 2 (1e-12), sum = 24*sqrt(2)+12 (1e-12), "
          f"rho in [{rho - 1e-3:.6f}, {upper:.6f}]")
