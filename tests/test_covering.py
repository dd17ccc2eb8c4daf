"""Exact covering radius: empty circumcaps on the cube grid against a
brute-force candidate family, the convex hull, and the spiral-grid
estimate it replaced."""

import itertools
import math

import numpy as np
import pytest

from conftest import exhaustive_offset_reference, make_random_spec, random_unit_points
from diamondsphere import (
    ModelSpec,
    PointSet,
    build_partition,
    covering_radius,
    covering_upper_bound,
    generate,
    simple_model,
    spiral_points,
    validate,
)
from diamondsphere import metrics
from diamondsphere.cli import main

OCTAHEDRON_RHO = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))


def family_covering(coords: np.ndarray) -> float:
    """sqrt(2 - 2 tau), tau the least max_i c.x_i over every candidate c.

    The optimal c has one, two or three points at its largest dot: a
    point's antipode, a pair midpoint's antipode, or a triple normal in
    either orientation.  A pair that cancels, an antipodal pair, puts
    every direction orthogonal to it in the family.
    """
    coords = np.asarray(coords, dtype=float)
    cands = [-coords]
    for a, b in itertools.combinations(coords, 2):
        mid = a + b
        if np.linalg.norm(mid) > 1e-12:
            cands.append(-mid[None] / np.linalg.norm(mid))
        else:
            e = np.eye(3)[np.argmin(np.abs(a))]
            orth = np.cross(a, e)
            cands.append(orth[None] / np.linalg.norm(orth))
    for a, b, c in itertools.combinations(coords, 3):
        normal = np.cross(b - a, c - a)
        if np.linalg.norm(normal) > 1e-12:
            normal /= np.linalg.norm(normal)
            cands.append(np.vstack([normal, -normal]))
    cands = np.vstack(cands)
    tau = float((cands @ coords.T).max(axis=1).min())
    return math.sqrt(max(0.0, 2.0 - 2.0 * tau))


def grid_covering_estimate(coords: np.ndarray, k: int | None = None) -> float:
    """The spiral-grid estimate with Voronoi polish that covering_radius
    replaced; every direction it evaluates is real, so it is a lower bound."""
    n = len(coords)
    k = max(10 * n, 10_000) if k is None else k

    def nearest_dot(v):
        return float(np.max(coords @ v))

    def polish(y, iters=12):
        best = nearest_dot(y)
        if n < 3:
            return best
        for _ in range(iters):
            a, b, c = coords[np.argsort(-(coords @ y))[:3]]
            normal = np.cross(b - a, c - a)
            nn = np.linalg.norm(normal)
            if nn <= 1e-12:
                break
            normal /= nn
            if float(normal @ y) < 0.0:
                normal = -normal
            cand = nearest_dot(normal)
            if cand >= best - 1e-15:
                break
            best, y = cand, normal
        return best

    grid = spiral_points(k)
    worst, seeds = np.inf, []
    block = max(16, int(4e6 // max(n, 1)))
    for a in range(0, k, block):
        rowmax = (grid[a:a + block] @ coords.T).max(axis=1)
        kmin = int(np.argmin(rowmax))
        seeds.append(grid[a + kmin])
        worst = min(worst, float(rowmax[kmin]))
    worst = min([worst] + [polish(y) for y in seeds])
    return math.sqrt(max(0.0, 2.0 - 2.0 * worst))


def hull_covering(coords: np.ndarray) -> float:
    spatial = pytest.importorskip("scipy.spatial")
    tau = float((-spatial.ConvexHull(coords).equations[:, 3]).min())
    return math.sqrt(2.0 - 2.0 * tau)


def rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def short_arc() -> np.ndarray:
    ang = np.array([0.0, 0.1, 0.25])
    return np.column_stack([np.cos(ang), np.sin(ang), np.zeros(3)])


def hemisphere_cluster(n: int, seed: int, depth: float = 0.2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.uniform(depth, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


SMALL_SETS = {
    "one-point": (np.array([[0.0, 0.0, 1.0]]), 2.0),
    "antipodal-pair": (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), math.sqrt(2.0)),
    "octahedron": (generate(validate(simple_model(1))).coords, OCTAHEDRON_RHO),
    "short-arc": (short_arc(), None),
    "pair": (random_unit_points(np.random.default_rng(1), 2), None),
    "hemisphere-cluster-12": (hemisphere_cluster(12, 2), None),
    "hemisphere-cluster-30": (hemisphere_cluster(30, 3, depth=0.0), None),
    "closed-hemisphere": (np.vstack([hemisphere_cluster(9, 4), [[1.0, 0.0, 0.0],
                                                                [-1.0, 0.0, 0.0]]]), None),
    **{f"random-{n}": (random_unit_points(np.random.default_rng(10 + n), n), None)
       for n in (3, 4, 5, 7, 12, 20, 30)},
}


@pytest.mark.parametrize("name", list(SMALL_SETS))
def test_equals_candidate_family(name):
    coords, closed_form = SMALL_SETS[name]
    want = family_covering(coords)
    if closed_form is not None:
        assert math.isclose(want, closed_form, rel_tol=1e-12)
    assert math.isclose(covering_radius(coords).estimate, want, rel_tol=1e-12)
    assert covering_radius(PointSet(coords)).upper_bound == 2.0


@pytest.mark.parametrize("name", ["short-arc", "hemisphere-cluster-12", "closed-hemisphere"])
def test_hemisphere_sets_reach_sqrt2(name):
    assert covering_radius(SMALL_SETS[name][0]).estimate >= math.sqrt(2.0) - 1e-12


@pytest.mark.parametrize("M", [5, 20, 40])
@pytest.mark.parametrize("theta", ["zeros", "seed:3"])
def test_equals_convex_hull(M, theta):
    model = validate(simple_model(M, theta_policy=theta))
    pts = generate(model)
    want = hull_covering(pts.coords)
    part = build_partition(model)
    assert math.isclose(covering_radius(pts, partition=part).estimate, want, rel_tol=1e-12)
    assert math.isclose(covering_radius(pts).estimate, want, rel_tol=1e-12)


def test_random_sets_equal_convex_hull():
    rng = np.random.default_rng(31)
    for n in (50, 400, 3000):
        coords = random_unit_points(rng, n)
        assert math.isclose(covering_radius(coords).estimate, hull_covering(coords),
                            rel_tol=1e-12)


def test_report_workload_value():
    model = validate(simple_model(40, theta_policy="seed:3"))
    cov = covering_radius(generate(model), partition=build_partition(model))
    assert cov.estimate == 0.032968965971223736


@pytest.mark.parametrize("M", [1, 2, 3, 5, 12])
def test_grid_estimate_is_a_lower_bound(M):
    pts = generate(validate(simple_model(M, theta_policy=f"seed:{M}")))
    exact = covering_radius(pts).estimate
    grid = grid_covering_estimate(pts.coords)
    assert grid <= exact + 1e-12
    assert grid > exact * (1.0 - 2e-2)


def test_invariant_under_rotation_and_permutation():
    rng = np.random.default_rng(5)
    for coords in (generate(validate(simple_model(6, theta_policy="seed:6"))).coords,
                   random_unit_points(rng, 200), hemisphere_cluster(15, 6)):
        base = covering_radius(coords).estimate
        moved = coords[rng.permutation(len(coords))] @ rotation(rng).T
        assert math.isclose(covering_radius(moved).estimate, base, rel_tol=1e-12)
        assert covering_radius(coords[::-1]).estimate == base


def test_duplicate_rows_do_not_change_the_value():
    coords = random_unit_points(np.random.default_rng(7), 40)
    doubled = np.vstack([coords, coords[:9]])
    assert covering_radius(doubled).estimate == covering_radius(coords).estimate


def test_below_the_partition_bound_on_random_models():
    rng = np.random.default_rng(19)
    for k in range(10):
        model = validate(make_random_spec(rng, m_hi=14, theta_policy=f"seed:{k}"))
        pts, part = generate(model), build_partition(model)
        cov = covering_radius(pts, partition=part)
        assert cov.upper_bound == covering_upper_bound(part)
        assert cov.estimate <= cov.upper_bound
        assert cov.estimate == covering_radius(pts).estimate


def test_a_wrong_partition_only_seeds_the_search():
    model = validate(simple_model(6, theta_policy="seed:1"))
    pts = generate(model)
    want = covering_radius(pts).estimate
    other = build_partition(validate(simple_model(6, theta_policy="zeros")))
    assert covering_radius(pts, partition=other).estimate == want
    # Random points leave holes far wider than the partition's bound.
    coords = random_unit_points(np.random.default_rng(3), model.N)
    cov = covering_radius(coords, partition=build_partition(model))
    assert cov.estimate > cov.upper_bound
    assert cov.estimate == covering_radius(coords).estimate


@pytest.mark.parametrize("M", [5, 10, 20, 40])
def test_no_partition_reaches_the_euler_count(M, monkeypatch):
    def refuse(coords):
        raise AssertionError("fell back to the exhaustive family")

    monkeypatch.setattr(metrics, "_exhaustive_offset", refuse)
    pts = generate(validate(simple_model(M, theta_policy="seed:3")))
    assert covering_radius(pts).estimate > 0.0


EXHAUSTIVE_SETS = {
    **{name: coords for name, (coords, _) in SMALL_SETS.items()},
    **{f"hemisphere-cluster-{n}": hemisphere_cluster(n, n) for n in (15, 60, 120)},
    "duplicated-rows": np.vstack([hemisphere_cluster(20, 5), hemisphere_cluster(20, 5)[:6]]),
    # About N^4/6 dots: within _COVERING_MAX_WORK only because each center's
    # two orientations share one product.
    "hemisphere-cluster-140": hemisphere_cluster(140, 140),
}


@pytest.mark.parametrize("name", list(EXHAUSTIVE_SETS))
def test_exhaustive_offset_equals_both_orientation_reference(name):
    coords = EXHAUSTIVE_SETS[name]
    assert metrics._exhaustive_offset(coords) == exhaustive_offset_reference(coords)


def test_every_facet_search_starts_at_the_covering_start(monkeypatch):
    # A multi-piece model whose partition bound is 13/sqrt(N): twice that
    # as the first chord would enumerate far too many triples.
    model = validate(ModelSpec(M=38, n=3, t=(0, 4, 13, 38), alpha=(0, 4, 4),
                               beta=(1, 0, 0), theta_policy="seed:17"))
    pts, search = generate(model), metrics._empty_circumcaps
    for partition in (None, build_partition(model)):
        chords = []
        monkeypatch.setattr(metrics, "_empty_circumcaps",
                            lambda coords, h, open_: chords.append(h) or search(coords, h, open_))
        covering_radius(pts, partition=partition)
        assert chords[0] == metrics._COVERING_START / math.sqrt(model.N)


def test_large_hemisphere_set_stops_with_value_error():
    with pytest.raises(ValueError, match="hemisphere"):
        covering_radius(hemisphere_cluster(2000, 8))


def _refuse_circumcaps(monkeypatch):
    def refuse(coords, h, open_):
        raise AssertionError("searched empty circumcaps")

    monkeypatch.setattr(metrics, "_empty_circumcaps", refuse)


def test_open_hemisphere_set_skips_the_facet_search(monkeypatch):
    """x_i . sum(x) > 0 for every point: the exhaustive family gives the
    value the facet search and its fallback gave."""
    _refuse_circumcaps(monkeypatch)
    assert covering_radius(hemisphere_cluster(15, 6)).estimate == 1.6172166195664965


def test_large_open_hemisphere_set_fails_at_once(monkeypatch):
    _refuse_circumcaps(monkeypatch)
    with pytest.raises(ValueError, match="hemisphere"):
        covering_radius(hemisphere_cluster(20000, 8))


def test_rejects_empty_and_non_finite_input():
    with pytest.raises(ValueError):
        covering_radius(np.empty((0, 3)))
    coords = random_unit_points(np.random.default_rng(2), 10)
    coords[4, 0] = np.nan
    with pytest.raises(ValueError):
        covering_radius(coords)


def test_metrics_k_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--simple-M", "3", "--k", "100"])
    assert exc.value.code == 2
