"""Shared fixtures and model generators for the test suite."""

import itertools
import math

import numpy as np
import pytest

from diamondsphere import metrics
from diamondsphere import (
    DiamondModel,
    ModelSpec,
    PointSet,
    build_partition,
    generate,
    simple_model,
    sup_discrepancy_exact,
    validate,
)
from diamondsphere.geometry import BOUNDARY_TOL, TWO_PI, SphericalCap, UnitVec
from diamondsphere.metrics import SupDiscrepancy
from diamondsphere.partition import _collar_far_radius


def make_random_spec(rng: np.random.Generator, m_lo: int = 2, m_hi: int = 30,
                     theta_policy="zeros") -> ModelSpec:
    """Random integer model satisfying every validation constraint.

    Slopes after the first piece are drawn at or below
    beta + alpha // t, which keeps the next intercept nonnegative.
    """
    M = int(rng.integers(m_lo, m_hi + 1))
    n = int(rng.integers(1, min(4, M) + 1))
    if n > 1:
        cuts = sorted(int(v) for v in
                      rng.choice(np.arange(1, M), size=n - 1, replace=False))
    else:
        cuts = []
    t = [0] + cuts + [M]
    alpha = [0]
    beta = [int(rng.integers(1, 7))]
    for ell in range(1, n):
        b_max = beta[-1] + alpha[-1] // t[ell]
        b = int(rng.integers(0, b_max + 1))
        alpha.append(alpha[-1] + (beta[-1] - b) * t[ell])
        beta.append(b)
    return ModelSpec(M=M, n=n, t=tuple(t), alpha=tuple(alpha),
                     beta=tuple(beta), theta_policy=theta_policy)


def random_unit_points(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def mean_chord_monte_carlo(n_pairs: int = 2_000_000, seed: int = 0) -> float:
    """Monte Carlo oracle for the uniform mean chord distance (= 4/3)."""
    rng = np.random.default_rng(seed)
    parts = []
    remaining = n_pairs
    while remaining > 0:
        m = min(remaining, 500_000)
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(m, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        parts.append(float(np.sum(np.linalg.norm(x - y, axis=1))))
        remaining -= m
    return math.fsum(parts) / n_pairs


def sweep_rows_reference(dots: np.ndarray):
    """Per row: the largest cap deviation over all break heights.

    Rows are dot products of the point set against one center each.  For
    a fixed center the deviation is piecewise monotone in the cap height
    between consecutive dot values, so the maximum over every cap with
    this center is attained at a break, counting closed on the excess
    side and open on the deficit side.  Ties within BOUNDARY_TOL share a
    break.  Returns (value, t, side) arrays, side +1 closed / -1 open.

    The reference for metrics._sweep_rows, which counts every break by
    count_in_cap's rules instead of by chains of ties.
    """
    rows, n = dots.shape
    d = -np.sort(-dots, axis=1)  # descending
    idx = np.arange(n)
    is_start = np.ones((rows, n), dtype=bool)
    is_start[:, 1:] = (d[:, :-1] - d[:, 1:]) > BOUNDARY_TOL
    first = np.maximum.accumulate(np.where(is_start, idx, 0), axis=1)
    is_end = np.ones((rows, n), dtype=bool)
    is_end[:, :-1] = is_start[:, 1:]
    last_rev = np.minimum.accumulate(
        np.where(is_end, idx, n - 1)[:, ::-1], axis=1
    )
    last = last_rev[:, ::-1]

    # Chains wider than the tolerance band would make the group counts
    # drift from the cutoff definition; recount those rows exactly.
    spread = np.take_along_axis(d, first, 1) - np.take_along_axis(d, last, 1)
    closed = (last + 1).astype(float)
    opened = first.astype(float)
    for b in np.nonzero((spread > BOUNDARY_TOL).any(axis=1))[0]:
        asc = d[b, ::-1].copy()
        closed[b] = n - np.searchsorted(asc, d[b] - BOUNDARY_TOL, side="left")
        opened[b] = n - np.searchsorted(asc, d[b] + BOUNDARY_TOL, side="right")

    area = (1.0 - d) / 2.0
    dev_closed = closed / n - area
    dev_open = area - opened / n
    use_closed = dev_closed >= dev_open
    dev = np.where(use_closed, dev_closed, dev_open)
    kbest = np.argmax(dev, axis=1)
    take = (np.arange(rows), kbest)
    return dev[take], d[take], np.where(use_closed[take], 1, -1)


def best_over_centers_reference(coords: np.ndarray, center_blocks) -> SupDiscrepancy:
    """sweep_rows_reference over blocks of centers: the first center with
    the largest value."""
    best_val = -np.inf
    best_center = None
    best_t = 0.0
    best_side = 1
    for centers in center_blocks:
        if len(centers) == 0:
            continue
        vals, ts, sides = sweep_rows_reference(centers @ coords.T)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_center = centers[k]
            best_t = float(ts[k])
            best_side = int(sides[k])
    cap = SphericalCap(UnitVec.from_array(best_center), max(-1.0, min(1.0, best_t)))
    return SupDiscrepancy(best_val, cap, "closed" if best_side > 0 else "open")


def sup_estimate_reference(points, n_samples: int = 10_000,
                           seed: int = 0) -> SupDiscrepancy:
    """Randomized lower estimate of the cap discrepancy, every row swept.

    The reference for metrics.sup_discrepancy_estimate, which sorts and
    sweeps only the rows whose bucket bound reaches the running best; the
    two must return the same value, center, height and side.
    """
    coords = metrics._as_coords(points)
    n = len(coords)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, TWO_PI, n_samples)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    centers = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    block = max(64, int(metrics._SUP_BLOCK_DOTS // max(n, 1)))
    return metrics._best_witness((c, *metrics._sweep_rows(c @ coords.T))
                                 for c in metrics._blocked([poles, centers], block))


def cap_centers(coords: np.ndarray):
    """Blocks of candidate centers: every point and antipode, every
    normalized pair midpoint and its antipode, and both normals of every
    point triple; metrics._pinned_caps' centers in both orientations."""
    blocks = metrics._pinned_caps(coords)
    points, _ = next(blocks)
    yield np.vstack([points, -points])
    mids, _ = next(blocks)
    yield from metrics._blocked([mids, -mids], 8192)
    for normals, _ in blocks:
        yield normals
        yield -normals


def sup_exact_reference(coords: np.ndarray):
    """Every break height at every candidate center, in both orientations.

    The reference for sup_discrepancy_exact, which counts each pinned cap
    at its own height only; both take their centers from
    metrics._pinned_caps.
    """
    return best_over_centers_reference(coords, cap_centers(coords))


def exhaustive_offset_reference(coords: np.ndarray) -> float:
    """tau over cap_centers' candidates (one to three points share the
    largest dot) and, for antipodes alone at tau = 0, one orthogonal c.

    The reference for metrics._exhaustive_offset, which reads both
    orientations of each _pinned_caps center from one product; the two
    must agree bit for bit.  It has no work guard.
    """
    orth = np.cross(coords[0], np.eye(3)[np.argmin(np.abs(coords[0]))])
    family = itertools.chain(cap_centers(coords), [orth[None] / np.linalg.norm(orth)])
    return min(float((c @ coords.T).max(axis=1).min()) for c in family if len(c))


def generate_reference(model: DiamondModel) -> PointSet:
    """The ensemble one parallel at a time, each height from its Fraction.

    The reference for ensemble.generate, which expands the model's ring
    table over all points at once; the two must agree bit for bit.
    """
    N = model.N
    coords = np.empty((N, 3))
    parallel = np.empty(N, dtype=np.int64)
    index_in_parallel = np.empty(N, dtype=np.int64)

    coords[0] = (0.0, 0.0, 1.0)
    parallel[0] = 0
    index_in_parallel[0] = 0

    pos = 1
    for j in range(1, model.p + 1):
        rj = model.r[j - 1]
        zf = model.z_exact[j - 1]
        z = float(zf)
        # (1 - z)(1 + z) in exact arithmetic first: near the poles this
        # loses none of the tiny 1 - z^2 to cancellation.
        s = math.sqrt(float((1 - zf) * (1 + zf)))
        i = np.arange(rj)
        phi = TWO_PI * i / rj + model.theta[j - 1]
        coords[pos:pos + rj, 0] = s * np.cos(phi)
        coords[pos:pos + rj, 1] = s * np.sin(phi)
        coords[pos:pos + rj, 2] = z
        parallel[pos:pos + rj] = j
        index_in_parallel[pos:pos + rj] = i
        pos += rj

    coords[pos] = (0.0, 0.0, -1.0)
    parallel[pos] = model.p + 1
    index_in_parallel[pos] = 0
    assert pos == N - 1

    return PointSet(coords, parallel=parallel, index_in_parallel=index_in_parallel)


def locate_many_reference(partition, coords: np.ndarray) -> np.ndarray:
    """Region ids with the polar caps as branches of their own.

    The reference for Partition.locate_many, which treats each cap as a
    ring of one cell; it reads the parallels' data from the model's tuples
    and the boundary floats from Partition.b_exact.
    """
    model = partition.model
    N, M = model.N, model.M
    asc = np.array([-1.0, *(float(b) for b in reversed(partition.b_exact)), 1.0])
    band = np.clip(np.searchsorted(asc, coords[:, 2], side="left") - 1, 0, 2 * M)
    out = np.empty(len(coords), dtype=np.int64)
    south_cap, north_cap = band == 0, band == 2 * M
    out[south_cap] = N - 1
    out[north_cap] = 0
    rect = ~(south_cap | north_cap)
    phi = np.arctan2(coords[rect, 1], coords[rect, 0]) % TWO_PI
    row = 2 * M - 1 - band[rect]  # parallel row - 1; band M is the equator ring
    r = np.array(model.r, dtype=np.int64)[row]
    frac = (phi - model.theta[row] - math.pi / r) * r / TWO_PI
    first = np.array(model.n_partial[:-1], dtype=np.int64)[row]
    out[rect] = first + np.floor(frac).astype(np.int64) % r
    return out


def matching_reference(model: DiamondModel) -> np.ndarray:
    """The region each generated point must lie in, the poles set apart:
    point k of parallel j lies in N_j + (k - N_j - 1) mod r_j.

    The reference for the expected ids of partition.verify_matching.
    """
    N = model.N
    first = np.repeat(np.array(model.n_partial[:-1], dtype=np.int64), model.r)
    r = np.repeat(np.array(model.r, dtype=np.int64), model.r)
    return np.concatenate([[0], first + (np.arange(1, N - 1) - first - 1) % r, [N - 1]])


def covering_upper_bound_reference(partition) -> float:
    """The cap rim distance, then one _collar_far_radius per parallel.

    The reference for partition.covering_upper_bound, which takes one max
    over every ring of the table, caps included.
    """
    model = partition.model
    b = [float(v) for v in partition.b_exact]
    best = math.sqrt(2.0 - 2.0 * b[0])
    for h_hi, h_lo, z, r in zip(b, b[1:], (float(v) for v in model.z_exact), model.r):
        best = max(best, _collar_far_radius(h_hi, h_lo, z, r))
    return best


def brute_force_separation(coords: np.ndarray) -> float:
    """Minimal chord distance over all pairs, in blocks of about 4e6 pairs.

    The reference for the cube-grid sweep in metrics.separation: the same
    squared-distance arithmetic, so the two must agree exactly.
    """
    n = len(coords)
    block = max(8, int(4e6 // max(n, 1)))
    best = np.inf
    for a in range(0, n, block):
        rows = coords[a:a + block]
        d2 = np.sum((rows[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        d2[np.arange(len(rows)), np.arange(a, a + len(rows))] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(best)


@pytest.fixture(scope="session")
def octahedron() -> DiamondModel:
    return validate(simple_model(1))


@pytest.fixture(scope="session")
def octahedron_points(octahedron):
    return generate(octahedron)


@pytest.fixture(scope="session")
def simple_suite():
    """model, points, partition for the small one-piece models."""
    out = {}
    for M in range(1, 7):
        model = validate(simple_model(M))
        out[M] = (model, generate(model), build_partition(model))
    return out


@pytest.fixture(scope="session")
def exact_sup_cache(simple_suite):
    """Exact sup-cap discrepancies for one-piece models, computed once."""
    cache = {}

    def get(M: int):
        if M not in cache:
            cache[M] = sup_discrepancy_exact(simple_suite[M][1])
        return cache[M]

    return get
