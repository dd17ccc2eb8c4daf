"""The cube-grid separation sweep against the all-pairs reference loop."""

import itertools

import numpy as np
import pytest

from conftest import brute_force_separation, random_unit_points
from diamondsphere import PointSet, generate, separation, simple_model, validate
from diamondsphere import metrics


def _cap_cluster(rng, n: int, radius: float) -> np.ndarray:
    axis = random_unit_points(rng, 1)[0]
    pts = axis + radius * rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _great_circle(rng, n: int) -> np.ndarray:
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)])


def _point_sets():
    rng = np.random.default_rng(2024)
    octahedron = generate(validate(simple_model(1))).coords
    with_duplicates = random_unit_points(rng, 400)
    with_duplicates[393:] = with_duplicates[:7]
    return {
        "octahedron": octahedron,
        "antipodal-pair": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        "three-random": random_unit_points(rng, 3),
        "random-2000": random_unit_points(rng, 2000),
        "cap-cluster-3000": _cap_cluster(rng, 3000, 1e-3),
        "great-circle-3000": _great_circle(rng, 3000),
        "seven-duplicates": with_duplicates,
    }


POINT_SETS = _point_sets()


@pytest.mark.parametrize("name", list(POINT_SETS))
def test_separation_equals_brute_force(name):
    coords = POINT_SETS[name]
    assert separation(coords) == brute_force_separation(coords)


def test_separation_of_duplicated_rows_is_zero():
    assert separation(POINT_SETS["seven-duplicates"]) == 0.0


@pytest.mark.parametrize("M", [1, 2, 5, 9, 20, 40])
def test_separation_one_piece_seeded_thetas(M):
    pts = generate(validate(simple_model(M, theta_policy=f"seed:{M}")))
    assert separation(pts) == brute_force_separation(pts.coords)


def test_separation_ignores_parallel_tags():
    # Random points lie on no rings.  The closest pair straddles the north
    # pole, half a turn apart in longitude, so a kernel that pairs only
    # longitude neighbours within a ring misses it.
    coords = random_unit_points(np.random.default_rng(4), 500)
    eps = 1e-5
    coords[:2] = [[eps, 0.0, np.sqrt(1.0 - eps * eps)],
                  [-eps, 0.0, np.sqrt(1.0 - eps * eps)]]
    assert separation(PointSet(coords)) == brute_force_separation(coords)


def test_separation_widens_cubes_until_exact():
    # Scaled off the sphere, the closest pair lies far beyond the first
    # cube side 4/sqrt(N), so the sweep has to double it several times.
    coords = 50.0 * random_unit_points(np.random.default_rng(6), 40)
    assert separation(coords) == brute_force_separation(coords)


def test_separation_finds_pairs_across_every_cube_face_edge_and_corner():
    # A close pair straddles a corner of the first cube grid (side
    # 4/sqrt(N), on multiples of the side) in each of the 26 directions;
    # the background points are much farther apart.
    background = random_unit_points(np.random.default_rng(10), 198)
    h = 4.0 / np.sqrt(200)
    corner = h * np.array([3.0, -2.0, 1.0])
    for step in itertools.product((-1, 0, 1), repeat=3):
        if step == (0, 0, 0):
            continue
        half = 5e-7 * np.array(step)
        coords = np.vstack([background, corner + half, corner - half])
        assert separation(coords) == brute_force_separation(coords), step


@pytest.mark.parametrize("block", [1, 97, 10_000])
def test_separation_independent_of_block_size(block, monkeypatch):
    coords = _cap_cluster(np.random.default_rng(8), 300, 1e-2)
    want = brute_force_separation(coords)
    monkeypatch.setattr(metrics, "_SEPARATION_BLOCK_PAIRS", block)
    assert separation(coords) == want


def test_separation_rejects_non_finite_rows():
    coords = random_unit_points(np.random.default_rng(9), 10)
    coords[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        separation(coords)
