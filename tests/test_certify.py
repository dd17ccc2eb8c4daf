"""partition.certify against the per-region verification loop it replaced."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_random_spec, parallels_reference
from diamondsphere import (
    PointSet,
    SideLengths,
    VerificationFailure,
    build_partition,
    certify,
    generate,
    model_constants,
    partition_records,
    region_area,
    region_area_fraction_exact,
    simple_model,
    validate,
    verify_matching,
)
from diamondsphere import partition as partition_mod
from diamondsphere.geometry import SPHERE_AREA, TWO_PI


def reference_verify(part, points) -> str:
    """The verify checks with one exact and one float area check per region.

    side_lengths is looked up on the module at call time, so a test that
    patches it affects this reference and certify alike.
    """
    model = part.model
    n = model.N
    target = Fraction(1, n)
    area_f = SPHERE_AREA / n
    for rid in range(n):
        region = part.region(rid)
        if region_area_fraction_exact(part, region) != target:
            raise VerificationFailure(f"region {rid} area fraction is not 1/N")
        if abs(region_area(region) - area_f) > 1e-12 * area_f:
            raise VerificationFailure(f"region {rid} float area off 4*pi/N")

    verify_matching(part, points)

    sq = math.sqrt(n)
    if model.is_simple:
        lo_bound, hi_bound = math.pi / math.sqrt(2.0), math.pi * math.sqrt(2.0)
        label = "(pi/sqrt(2), pi*sqrt(2))"
    elif model.M >= 2:
        cst = model_constants(model)
        lo_bound, hi_bound = cst.d1, cst.d2
        label = "[d1, d2]"
    else:
        lo_bound, hi_bound = 0.0, 2.0 * math.pi * sq
        label = "(0, 2*pi*sqrt(N))"
    for j in range(1, model.M + 1):
        side = partition_mod.side_lengths(part, j).horizontal_lo * sq
        if model.is_simple:
            bad = not (lo_bound < side < hi_bound)
        else:
            bad = not (lo_bound - 1e-12 <= side <= hi_bound + 1e-12)
        if bad:
            raise VerificationFailure(
                f"collar {j}: sqrt(N) x horizontal side {side:.6f} outside {label}"
            )
    return label


def _random_models():
    rng = np.random.default_rng(2024)
    return [validate(make_random_spec(rng, m_lo=1, m_hi=14, theta_policy=f"seed:{k}"))
            for k in range(12)]


MODELS = (
    [validate(simple_model(M, theta_policy=theta))
     for M in (1, 2, 5, 40) for theta in ("zeros", "seed:7")]
    + _random_models()
)
MODEL_IDS = [f"M{m.M}-n{m.spec.n}-{m.spec.theta_policy}-{k}" for k, m in enumerate(MODELS)]


def _with_first(model, first):
    """The model with its ring table's first column replaced."""
    return dataclasses.replace(model, rings=dataclasses.replace(model.rings, first=first))


def _failure(fn, *args) -> str:
    with pytest.raises(VerificationFailure) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_certify_agrees_with_per_region_reference(model):
    part, points = build_partition(model), generate(model)
    assert certify(part, points) == reference_verify(part, points)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_vectorized_float_areas_equal_region_area(model):
    part, par = build_partition(model), parallels_reference(model.spec)
    for j, r in enumerate(par.r, start=1):
        phi_lo = partition_mod._phi_lo(model.rings, j, np.arange(r))
        areas = (phi_lo + TWO_PI / r - phi_lo) * float(par.b[j - 1] - par.b[j])
        for i in range(r):
            region = part.region(par.first[j - 1] + i)
            assert phi_lo[i] == region.phi_lo
            assert areas[i] == region_area(region)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_ring_areas_equal_region_area(model):
    """The ring height 2 r_j / N, rounded from integers, is the float of
    b_j - b_{j+1} that region_area takes from the exact heights."""
    part, par = build_partition(model), parallels_reference(model.spec)
    for j, r in enumerate(par.r, start=1):
        areas, _ = partition_mod._ring_areas(model, j)
        first = par.first[j - 1]
        assert areas.tolist() == [region_area(part.region(first + i)) for i in range(r)]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_ring_records_equal_per_cell_records(model):
    part = build_partition(model)
    per_cell = [{**vars(reg), "h_lo_exact": str(reg.h_lo_exact),
                 "h_hi_exact": str(reg.h_hi_exact)} for reg in part]
    assert partition_records(part) == per_cell


@pytest.mark.parametrize("ring", [0, 3, -1], ids=["first", "fourth", "last"])
def test_tampered_collar_height_fails_at_ring_start(ring):
    """N_{j+1} one too large lowers b_{j+1}, the floor of parallel j's ring:
    the first column disagrees with r, which the exact area check sees."""
    model = validate(simple_model(4, theta_policy="seed:2"))
    points = generate(model)
    j, first = range(1, model.p + 1)[ring], model.rings.first.copy()
    first[j + 1] += 1
    part = build_partition(_with_first(model, first))
    message = _failure(certify, part, points)
    assert message == f"region {model.rings.first[j]} area fraction is not 1/N"
    assert message == _failure(reference_verify, part, points)


def test_float_area_failure_names_the_first_bad_cell(monkeypatch):
    """A longitude pushed to 1e9 rounds phi_hi - phi_lo far past 1e-12."""
    model = validate(simple_model(3, theta_policy="seed:1"))
    part, points = build_partition(model), generate(model)
    target = 3
    phi_lo = partition_mod._phi_lo

    def shifted(rings, j, i):
        return phi_lo(rings, j, i) + 1e9 * ((np.asarray(i) >= 5) & (j == target))

    monkeypatch.setattr(partition_mod, "_phi_lo", shifted)
    message = _failure(certify, part, points)
    assert message == f"region {model.rings.first[target] + 5} float area off 4*pi/N"
    assert message == _failure(reference_verify, part, points)


def test_tampered_cap_height_fails_at_region_0():
    model = validate(simple_model(3))
    first = model.rings.first.copy()
    first[1] += 1  # the north cap's floor b_1 one ring cell lower
    part, points = build_partition(_with_first(model, first)), generate(model)
    message = _failure(certify, part, points)
    assert message == "region 0 area fraction is not 1/N"
    assert message == _failure(reference_verify, part, points)


def _collar_lifted_above_its_parallel():
    """N_3 = N_2 + 1 lifts b_3 to b_2 - 2/N, above z_2, and overlaps rings 2
    and 3, so region 6 takes two points."""
    model = validate(simple_model(3))
    first = model.rings.first.copy()
    first[3] = first[2] + 1
    reason = f"parallel 2: z = {model.z_exact[1]} outside (13/19, 14/19); point 13: "
    return build_partition(_with_first(model, first)), generate(model), reason


def _one_point_short():
    model = validate(simple_model(3, theta_policy="seed:2"))
    coords = generate(model).coords[:-1]
    return build_partition(model), PointSet(coords), "37 points for the 38 regions"


def _two_rows_swapped():
    model = validate(simple_model(3, theta_policy="seed:5"))
    coords = generate(model).coords.copy()
    coords[[4, 9]] = coords[[9, 4]]
    return build_partition(model), PointSet(coords), "point 4: locate -> "


def test_swapped_point_rows_fail_matching():
    part, swapped, _ = _two_rows_swapped()
    message = _failure(certify, part, swapped)
    assert message.startswith("matching verification failed: point 4: locate -> ")
    assert "; point 9: " in message
    assert message == _failure(reference_verify, part, swapped)


@pytest.mark.parametrize("case", [_collar_lifted_above_its_parallel, _one_point_short,
                                  _two_rows_swapped], ids=["interleaving", "short", "swapped"])
def test_matching_failure_reads_the_same_from_verify_matching_and_certify(case, monkeypatch):
    """certify raises verify_matching's own text.  The lifted collar also
    breaks its ring's exact area, which certify checks first, so that check
    is patched to pass here."""
    part, points, reason = case()
    message = _failure(verify_matching, part, points)
    assert message.startswith("matching verification failed: " + reason)
    if case is _collar_lifted_above_its_parallel:
        assert message.endswith("; region 6 is matched to 2 points")
        monkeypatch.setattr(partition_mod, "region_area_fraction_exact",
                            lambda part, region: Fraction(1, part.model.N))
    assert _failure(certify, part, points) == message


@pytest.mark.parametrize("model", [MODELS[2], MODELS[-1]], ids=["simple", "random"])
def test_side_outside_band_fails(model, monkeypatch):
    part, points = build_partition(model), generate(model)
    monkeypatch.setattr(partition_mod, "side_lengths",
                        lambda part, j: SideLengths(100.0, 100.0, 1.0, 1.0))
    message = _failure(certify, part, points)
    assert message.startswith("collar 1: sqrt(N) x horizontal side ")
    assert " outside " in message
    assert message == _failure(reference_verify, part, points)


def test_float_area_bound_holds_at_m_4000():
    """The rounding of phi_hi - phi_lo grows with r; near the equator of
    M = 4,000 it passes 1e-12 and stays within r*ulp(2*pi)/pi."""
    model = validate(simple_model(4000, theta_policy="seed:4"))
    part = build_partition(model)
    area_f = SPHERE_AREA / model.N
    worst = 0.0
    for j in range(3991, 4011):
        areas, rel_tol = partition_mod._ring_areas(model, j)
        err = float(np.abs(areas - area_f).max()) / area_f
        assert err <= rel_tol
        assert rel_tol <= model.rings.r[j] * math.ulp(TWO_PI) / math.pi + 1e-15
        worst = max(worst, err)
    assert worst > 1e-12


def test_float_area_bound_is_tight_for_small_rings(monkeypatch):
    """At r = 16 the bound is below 1e-14, so an area off by 1e-13 fails."""
    model = validate(simple_model(4, theta_policy="seed:2"))
    part, points = build_partition(model), generate(model)
    ring_areas = partition_mod._ring_areas

    def skewed(model, j):
        areas, rel_tol = ring_areas(model, j)
        return areas * (1.0 + 1e-13 * (j == 4)), rel_tol

    monkeypatch.setattr(partition_mod, "_ring_areas", skewed)
    assert _failure(certify, part, points) == \
        f"region {model.rings.first[4]} float area off 4*pi/N"
