"""Core primitives: unit vectors, caps, counting, candidate-cap builders."""

import math

import numpy as np
import pytest

from diamondsphere import (
    NORTH_POLE,
    SOUTH_POLE,
    DegenerateCapError,
    PointSet,
    SphericalCap,
    UnitVec,
    cap_area,
    chord_distance,
    circumcap,
    count_in_cap,
    pair_diametral_cap,
    spiral_points,
)


def test_unitvec_normalized_and_antipode():
    v = UnitVec.normalized(3.0, 4.0, 0.0)
    assert math.isclose(v.x, 0.6, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(v.y, 0.8, rel_tol=0, abs_tol=1e-15)
    a = v.antipode()
    assert (a.x, a.y, a.z) == (-v.x, -v.y, -v.z)
    assert math.isclose(np.linalg.norm(v.as_array()), 1.0, abs_tol=1e-15)


def test_unitvec_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVec(1.0, 1.0, 1.0)


def test_unitvec_phi_range():
    assert UnitVec(1.0, 0.0, 0.0).phi == 0.0
    assert math.isclose(UnitVec(0.0, -1.0, 0.0).phi, 1.5 * math.pi)
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0
        v = UnitVec.normalized(math.cos(ang), math.sin(ang), 0.0)
        assert math.isclose(v.phi, ang, abs_tol=1e-12)


def test_chord_distance_octahedron_edges():
    ex = UnitVec(1.0, 0.0, 0.0)
    ey = UnitVec(0.0, 1.0, 0.0)
    assert math.isclose(chord_distance(ex, ey), math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(chord_distance(ex, ex.antipode()), 2.0, rel_tol=1e-15)
    assert chord_distance(ex, ex) == 0.0


def test_cap_area_closed_forms():
    hemisphere = SphericalCap(NORTH_POLE, 0.0)
    assert math.isclose(cap_area(hemisphere), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(hemisphere.area_fraction, 0.5, rel_tol=1e-15)
    everything = SphericalCap(NORTH_POLE, -1.0)
    assert math.isclose(everything.area_fraction, 1.0, rel_tol=1e-15)
    nothing = SphericalCap(NORTH_POLE, 1.0)
    assert math.isclose(nothing.area_fraction, 0.0, abs_tol=1e-15)


def test_cap_height_clamped_to_unit_interval():
    with pytest.raises(ValueError):
        SphericalCap(NORTH_POLE, 1.5)
    with pytest.raises(ValueError):
        SphericalCap(NORTH_POLE, -1.5)


def test_count_in_cap_boundary_sides():
    coords = np.array([
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0],
    ])
    pts = PointSet(coords)
    cap = SphericalCap(NORTH_POLE, 0.0)
    # Two points sit exactly on the boundary circle.
    assert count_in_cap(pts, cap, mode="closed") == 3
    assert count_in_cap(pts, cap, mode="open") == 1
    with pytest.raises(ValueError):
        count_in_cap(pts, cap, mode="both")


def test_circumcap_orthonormal_triple():
    a = UnitVec(1.0, 0.0, 0.0)
    b = UnitVec(0.0, 1.0, 0.0)
    c = UnitVec(0.0, 0.0, 1.0)
    cap = circumcap(a, b, c)
    t = 1.0 / math.sqrt(3.0)
    for v in (a, b, c):
        assert math.isclose(cap.center.dot(v), cap.t, abs_tol=1e-14)
    assert math.isclose(abs(cap.t), t, abs_tol=1e-14)


def test_circumcap_degenerate_and_great_circle():
    a = UnitVec(1.0, 0.0, 0.0)
    b = UnitVec(0.0, 1.0, 0.0)
    with pytest.raises(DegenerateCapError):
        circumcap(a, a, b)
    # Three points of a great circle are fine: a hemisphere cap.
    cap = circumcap(a, b, a.antipode())
    assert math.isclose(cap.t, 0.0, abs_tol=1e-15)


def test_pair_diametral_cap_boundary():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal((2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        a, b = UnitVec.from_array(v[0]), UnitVec.from_array(v[1])
        cap = pair_diametral_cap(a, b)
        assert math.isclose(cap.center.dot(a), cap.t, abs_tol=1e-12)
        assert math.isclose(cap.center.dot(b), cap.t, abs_tol=1e-12)


def test_pair_diametral_cap_antipodal_degenerate():
    a = UnitVec(0.0, 0.0, 1.0)
    with pytest.raises(DegenerateCapError):
        pair_diametral_cap(a, a.antipode())


def test_spiral_points_shape_and_spread():
    k = 500
    grid = spiral_points(k)
    assert grid.shape == (k, 3)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(grid, spiral_points(k))
    # Mesh quality: nearest grid point within a few multiples of the
    # ideal 2/sqrt(k) spacing, for random probes.
    rng = np.random.default_rng(0)
    probes = rng.standard_normal((200, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    d2 = 2.0 - 2.0 * probes @ grid.T
    worst = math.sqrt(max(0.0, float(d2.min(axis=1).max())))
    assert worst < 4.0 / math.sqrt(k)


def test_pointset_provenance_and_access():
    coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    bare = PointSet(coords)
    assert len(bare) == 2
    assert not bare.has_provenance
    v = bare.point(1)
    assert (v.x, v.y, v.z) == (0.0, 0.0, -1.0)
    tagged = PointSet(coords, parallel=np.array([0, 1]),
                      index_in_parallel=np.array([0, 0]))
    assert tagged.has_provenance


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pointset_rejects_non_finite_rows(bad):
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0]]))


def test_poles_are_unit_antipodes():
    assert NORTH_POLE.dot(SOUTH_POLE) == -1.0
    assert chord_distance(NORTH_POLE, SOUTH_POLE) == 2.0
