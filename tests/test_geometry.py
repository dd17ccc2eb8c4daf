"""Core primitives: unit vectors, caps, counting, the spiral grid, and the
candidate cap centers that the sup and covering kernels build in
metrics._pinned_caps, in both orientations as conftest.cap_centers."""

import itertools
import math

import numpy as np
import pytest

from conftest import cap_centers, random_unit_points
from diamondsphere import (
    NORTH_POLE,
    SOUTH_POLE,
    PointSet,
    SphericalCap,
    UnitVec,
    count_in_cap,
    separation,
    spiral_points,
)


def candidate_centers(coords):
    """cap_centers' blocks for a small set: (points then antipodes,
    [midpoints, their antipodes] or [] when none survive, [normals, their
    antipodes] or [] for fewer than three points)."""
    blocks = list(cap_centers(np.asarray(coords, dtype=float)))
    n_tri = 2 if len(coords) >= 3 else 0
    return blocks[0], blocks[1:len(blocks) - n_tri], blocks[len(blocks) - n_tri:]


def test_unitvec_normalized_and_antipode():
    v = UnitVec.normalized(3.0, 4.0, 0.0)
    assert math.isclose(v.x, 0.6, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(v.y, 0.8, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(np.linalg.norm(v.as_array()), 1.0, abs_tol=1e-15)


def test_unitvec_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVec(1.0, 1.0, 1.0)


def test_chord_distance_octahedron_edges():
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    assert math.isclose(separation(np.array([ex, ey])), math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(separation(np.array([ex, -ex])), 2.0, rel_tol=1e-15)
    assert separation(np.array([ex, ex])) == 0.0


def test_cap_area_closed_forms():
    hemisphere = SphericalCap(NORTH_POLE, 0.0)
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
    a, b, c = np.eye(3)
    _, _, normals = candidate_centers([a, b, c])
    t = 1.0 / math.sqrt(3.0)
    for center in np.vstack(normals):
        for v in (a, b, c):
            assert math.isclose(center @ v, center @ a, abs_tol=1e-14)
        assert math.isclose(abs(center @ a), t, abs_tol=1e-14)


def test_circumcap_degenerate_and_great_circle():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert all(len(block) == 0 for block in candidate_centers([a, a, b])[2])
    # Three points of a great circle are fine: a hemisphere cap.
    for center in np.vstack(candidate_centers([a, b, -a])[2]):
        assert math.isclose(center @ a, 0.0, abs_tol=1e-15)


def test_pair_diametral_cap_boundary():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal((2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        _, (mid, _), _ = candidate_centers(v)
        assert math.isclose(mid[0] @ v[0], mid[0] @ v[1], abs_tol=1e-12)


def test_pair_diametral_cap_antipodal_degenerate():
    a = np.array([0.0, 0.0, 1.0])
    assert candidate_centers([a, -a])[1] == []


def test_cap_centers_pass_through_their_points():
    coords = random_unit_points(np.random.default_rng(11), 8)
    points, (mids, anti_mids), (normals, anti_normals) = candidate_centers(coords)
    assert np.array_equal(points, np.vstack([coords, -coords]))
    pairs = list(itertools.combinations(range(8), 2))
    triples = list(itertools.combinations(range(8), 3))
    assert len(mids) == len(pairs) and len(normals) == len(triples)
    assert np.array_equal(anti_mids, -mids) and np.array_equal(anti_normals, -normals)
    for center, (i, j) in zip(mids, pairs):
        assert math.isclose(np.linalg.norm(center), 1.0, abs_tol=1e-15)
        assert math.isclose(center @ coords[i], center @ coords[j], abs_tol=1e-14)
    for center, tri in zip(np.vstack([normals, anti_normals]), triples + triples):
        assert math.isclose(np.linalg.norm(center), 1.0, abs_tol=1e-15)
        dots = coords[list(tri)] @ center
        assert np.ptp(dots) <= 1e-14


def test_cap_centers_degenerate_inputs():
    p, q = random_unit_points(np.random.default_rng(12), 2)
    # An antipodal pair inside a triple: its circle is a great circle.
    for center in np.vstack(candidate_centers([p, q, -p])[2]):
        assert math.isclose(center @ p, 0.0, abs_tol=1e-14)
        assert math.isclose(center @ q, 0.0, abs_tol=1e-14)
    assert candidate_centers([p, -p])[1] == []
    assert all(len(block) == 0 for block in candidate_centers([p, p, q])[2])


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
    # A point set is its coordinates; ring membership lives in DiamondModel.rings.
    coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    points = PointSet(coords)
    assert len(points) == 2
    assert PointSet.__slots__ == ("coords",)
    assert tuple(points.coords[1]) == (0.0, 0.0, -1.0)
    with pytest.raises(TypeError):
        PointSet(coords, parallel=np.array([0, 1]))


def test_pointset_leaves_the_callers_arrays_writable():
    coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    points = PointSet(coords)
    assert coords.flags.writeable and not points.coords.flags.writeable
    coords[0, 2] = 0.5
    assert points.coords[0, 2] == 1.0


def test_pointset_keeps_a_read_only_input_without_a_copy():
    coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    coords.setflags(write=False)
    assert PointSet(coords).coords is coords


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pointset_rejects_non_finite_rows(bad):
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0]]))


def test_poles_are_unit_antipodes():
    assert NORTH_POLE.as_array() @ SOUTH_POLE.as_array() == -1.0
    assert separation(np.array([NORTH_POLE.as_array(), SOUTH_POLE.as_array()])) == 2.0
