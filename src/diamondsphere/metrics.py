"""Quality metrics for sphere point sets.

Separation and covering radius, both exact on any point set, mesh ratio,
pairwise energies, and spherical-cap discrepancy: exact polar/equatorial
profiles for generated ensembles, a certified exact supremum over all
caps for small sets, a randomized lower estimate of the supremum for
everything else, and the L2 discrepancy by two independent routes (the
distance-sum identity, and a grid of cap centers with the height
integral done exactly).

Pairwise sums (Riesz, log and distance, and the Stolarsky L2 from the
distance sum) take one of two routes.  A point set equal bit for bit to
generate(model), with that model given, takes the ring route
(_ring_sums): each ring pair is a circulant block whose sum is one
periodic mean, taken on the fewest equally spaced nodes whose proved
alias bound is below _RING_ALIAS_TOL, or on all lcm(r_a, r_b) offsets
where no bound is proved.  Every other point set, and the public
riesz_energy, log_energy and sum_distances, take the O(N^2) tile sweep
(_pair_sums), which stops past _PAIR_SWEEP_MAX_PAIRS pairs.

Determinism contract: every randomized routine takes an explicit seed.
The pair sweep runs over a tiling fixed by N, and the ring route over
node blocks fixed by the model; each combines its partial sums with
exact summation, so the tiling or the blocks fix every result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import DiamondModel, generate, model_constants
from .geometry import (
    BOUNDARY_TOL,
    DEGENERATE_TOL,
    NORTH_POLE,
    TWO_PI,
    DuplicatePointError,
    PointSet,
    SphericalCap,
    UnitVec,
    _as_coords,
    count_in_cap,
    spiral_points,
)
from .partition import Partition, covering_upper_bound

# Mean chord distance between independent uniform points on the sphere:
# integral of ||x - y|| reduces to (1/2) * int_{-1}^{1} sqrt(2 - 2u) du = 4/3.
MEAN_CHORD = 4.0 / 3.0

# Invariance constant linking the L2 cap discrepancy (uniform cap centers,
# heights with density dt/2) to the distance deficit:
#   STOLARSKY_CONSTANT * D^2 = MEAN_CHORD - (1/N^2) sum ||x_i - x_j||.
# A one-point set gives D^2 = 1/6 in closed form, pinning the value 8;
# scripts/calibrate_stolarsky.py re-derives it by quadrature.
STOLARSKY_CONSTANT = 8.0

# The sup cap discrepancy of the one-piece r = 4x model lies in
# [sqrt(N - 2)/N, ENVELOPE_UPPER_COEFF/sqrt(N)]; the polar profile
# attains the lower end.
ENVELOPE_UPPER_COEFF = 4.0 + 2.0 * math.sqrt(2.0)


def cap_discrepancy_envelope(n: int) -> tuple[float, float]:
    """Guaranteed (lower, upper) band of the one-piece model's sup discrepancy."""
    return math.sqrt(n - 2) / n, ENVELOPE_UPPER_COEFF / math.sqrt(n)


# ---------------------------------------------------------------------------
# separation


# Index pairs per block of the cube-grid sweeps, bounding their temporaries.
_SEPARATION_BLOCK_PAIRS = 1_000_000

# The cube itself and the 13 adjacent offsets that follow it
# lexicographically: together they reach every pair of adjacent cubes once.
_FORWARD_CUBES = [o for o in itertools.product((-1, 0, 1), repeat=3) if o >= (0, 0, 0)]


def separation(points) -> float:
    """Minimal pairwise chord distance; a zero result flags duplicate points.

    Exact on any point set, with no use of provenance tags: every pair in
    the same or adjacent cubes of side h is measured, starting at
    h = 4/sqrt(N).  A pair closer than h always lies in adjacent cubes, so
    a minimum below h, with a relative margin of 1e-9 for the rounding of
    the cube index, is the minimum over all pairs; otherwise h doubles.
    4/sqrt(N) lies above the best packing separation of N points (about
    3.8/sqrt(N)), so one sweep of about 6.5 N pairs is the rule.  Squared
    distances use the arithmetic of a plain all-pairs scan, so the result
    is the same float.  The sweep needs no sphere, so any finite rows are
    accepted, on the sphere or off it.
    """
    coords = np.ascontiguousarray(points.coords if isinstance(points, PointSet) else points,
                                  dtype=float)
    if len(coords) < 2:
        raise ValueError("separation needs at least two points")
    if not np.isfinite(coords).all():
        raise ValueError("separation needs finite coordinates")
    h = 4.0 / math.sqrt(len(coords))
    while True:
        order, blocks = _cube_pairs(coords, h)
        xyz = coords[order]
        best = min((float(_pair_d2(xyz, i, j).min()) for i, j in blocks), default=np.inf)
        if best < (h * (1.0 - 1e-9)) ** 2:
            return math.sqrt(best)
        h *= 2.0


def _pair_d2(coords: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    d = coords[i] - coords[j]
    return np.square(d, out=d).sum(axis=1)


def _cube_pairs(coords: np.ndarray, h: float):
    """(order, blocks): coords[order] groups the points by cube of side h, and
    blocks (i, j) of its positions hold each pair in the same or adjacent
    cubes once, so every pair closer than h, up to rounding."""
    cube = np.floor(coords / h).astype(np.int64)
    # An empty layer of cubes on every side keeps a neighbour's key from
    # wrapping into another row of the grid.
    cube -= cube.min(axis=0) - 1
    dims = cube.max(axis=0) + 2
    key = (cube[:, 0] * dims[1] + cube[:, 1]) * dims[2] + cube[:, 2]
    order = np.argsort(key)
    keys, start, count = np.unique(key[order], return_index=True, return_counts=True)
    cube_of = np.repeat(np.arange(len(keys)), count)

    def blocks():
        # Sorted point i pairs with a range of later points per offset: the
        # rest of its own cube, or the whole of a forward cube.
        for dx, dy, dz in _FORWARD_CUBES:
            if (dx, dy, dz) == (0, 0, 0):
                lo = np.arange(1, len(order) + 1)
                hi = (start + count)[cube_of]
            else:
                target = keys + (dx * dims[1] + dy) * dims[2] + dz
                b = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
                hit = keys[b] == target
                lo = np.where(hit, start[b], 0)[cube_of]
                hi = np.where(hit, start[b] + count[b], 0)[cube_of]
            yield from _range_blocks(lo, hi)

    return order, blocks()


def _range_blocks(lo: np.ndarray, hi: np.ndarray, block: int = _SEPARATION_BLOCK_PAIRS):
    """Nonempty blocks (r, c) of the pairs lo[r] <= c < hi[r], in row order:
    whole rows, at most block pairs unless one row has more."""
    length = hi - lo
    end = np.cumsum(length)
    row = 0
    while row < len(lo):
        base = end[row] - length[row]
        stop = max(row + 1, int(np.searchsorted(end, base + block, "right")))
        n_pairs = int(end[stop - 1] - base)
        if n_pairs:
            run = length[row:stop]
            yield (np.repeat(np.arange(row, stop), run),
                   np.arange(n_pairs) + np.repeat(lo[row:stop] - (end[row:stop] - run - base), run))
        row = stop


# ---------------------------------------------------------------------------
# covering


# sqrt(N) h of the first covering pass: the one-piece model needs
# h >= 2 rho ~ 5.3/sqrt(N), the best covering 4.4/sqrt(N).
_COVERING_START = 6.0

# Neighbour pairs, triples or cap-point dots one covering pass, or the dots
# the exhaustive search, may take: spread-out points need under 10^3 per point.
_COVERING_MAX_WORK = 100_000_000


@dataclass(frozen=True)
class CoveringRadius:
    """Exact covering radius (estimate, a name the report keys keep) and a
    certified upper bound: the partition's, or the trivial 2 without one."""

    estimate: float
    upper_bound: float


def covering_radius(points, partition: Partition | None = None) -> CoveringRadius:
    """The largest chord from any location on the sphere to its nearest point.

    rho = sqrt(2 - 2 tau), tau = min over unit c of max_i c.x_i.  With the
    origin strictly inside the hull, tau is the least offset of a facet,
    whose normal centers an empty circumcap of three points pairwise within
    2 rho (Brown 1979; Renka 1997).  So triples among neighbours within
    chord h, from separation's cube grid, are enumerated; a circumcap of
    radius <= h/2 with no neighbour over BOUNDARY_TOL inside is a facet, and
    caps with the same boundary points form one face.  All faces are found
    when sum (k_f - 2) = 2 N - 4 (Euler); otherwise h doubles, and only
    points not yet closed in by found triangles start triples.  h starts at
    _COVERING_START/sqrt(N) for every set; a partition only supplies the
    upper bound.  Sets in a closed hemisphere (N <= 3 among them) take
    _pinned_caps' candidates in both orientations, at once when every
    x_i . sum(x) > 0; ValueError past _COVERING_MAX_WORK.
    """
    coords = np.unique(_as_coords(points), axis=0)
    upper = covering_upper_bound(partition) if partition is not None else 2.0
    # No facet search can close in a set inside the open hemisphere about its sum.
    in_hemisphere = (coords @ coords.sum(axis=0)).min() > 0.0
    tau = _facet_offset(coords) if len(coords) >= 4 and not in_hemisphere else None
    if tau is None:
        tau = _exhaustive_offset(coords)
    return CoveringRadius(math.sqrt(max(0.0, 2.0 - 2.0 * tau)), upper)


def _facet_offset(coords: np.ndarray) -> float | None:
    """tau from the empty circumcaps, h from _COVERING_START/sqrt(N); None
    if faces are missing once h > 3, past every facet's cap radius (below
    sqrt(2)): a closed hemisphere."""
    n = len(coords)
    h = _COVERING_START / math.sqrt(n)
    tau, tris, faces, open_ = np.inf, np.empty((0, 3), np.int64), set(), np.ones(n, bool)
    while True:
        t, new_tris, new_faces = _empty_circumcaps(coords, h, open_)
        tau = min(tau, t)
        tris = np.unique(np.vstack([tris, np.sort(new_tris, axis=1)]), axis=0)
        faces |= new_faces
        if len(tris) + sum(len(f) - 2 for f in faces) == 2 * n - 4:
            return tau
        if h > 3.0:
            return None
        # Open: in no found triangle, on an edge found once, or in a larger face.
        edges, count = np.unique(np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                                 axis=0, return_counts=True)
        open_[:] = True
        open_[tris] = False
        open_[edges[count == 1]] = True
        open_[[p for f in faces for p in f]] = True
        h *= 2.0


def _empty_circumcaps(coords: np.ndarray, h: float, open_: np.ndarray):
    """Empty circumcaps of radius <= h/2 on open triples pairwise within
    chord h: (least offset, three-point faces, larger faces' point sets)."""
    n = len(coords)
    order, blocks = _cube_pairs(coords, h)
    xyz, src, dst, pairs = coords[order], [np.arange(n)], [np.arange(n)], 0
    for i, j in blocks:
        _covering_budget(pairs := pairs + len(i), "neighbour pairs")
        near = _pair_d2(xyz, i, j) <= h * h
        i, j = order[i], order[j]
        for a, b in ((i, j), (j, i)):
            src.append(a[near & open_[a]])
            dst.append(b[near & open_[a]])
    src, dst = np.concatenate(src), np.concatenate(dst)
    # Row p holds open p's neighbours, p included, open later ones first.
    starter = (dst > src) & open_[dst]
    order = np.lexsort((~starter, src))
    owner, nbr = src[order], dst[order]
    ptr = np.searchsorted(owner, np.arange(n + 1))
    # Triple (p, j, k): slot s of row p holds j, a later starter slot k.
    lo = np.arange(1, len(nbr) + 1)
    hi = np.where(starter[order], (ptr[:-1] + np.bincount(src[starter], minlength=n))[owner], lo)
    _covering_budget(int((hi - lo).sum()), "triples")
    tau, tris, faces, dots = np.inf, [np.empty((0, 3), np.int64)], set(), 0
    for s, t in _range_blocks(lo, hi):
        p, a = owner[s], coords[owner[s]]
        normal = np.cross(coords[nbr[s]] - a, coords[nbr[t]] - a)
        norm = np.linalg.norm(normal, axis=1)
        normal /= np.maximum(norm, DEGENERATE_TOL)[:, None]
        d = np.einsum("ij,ij->i", normal, a)
        normal[d < 0] *= -1.0
        d = np.abs(d)
        keep = (norm > DEGENERATE_TOL) & (8.0 - 8.0 * d <= (h * (1.0 - 1e-9)) ** 2)
        normal, d, p, s, t = normal[keep], d[keep], p[keep], s[keep], t[keep]
        _covering_budget(dots := dots + int((ptr[p + 1] - ptr[p]).sum()), "cap-point dots")
        inside = np.zeros(len(d), dtype=bool)
        rows, on = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for u, m in _range_blocks(ptr[p], ptr[p + 1]):
            gap = np.einsum("ij,ij->i", normal[u], coords[nbr[m]]) - d[u]
            inside[u[gap > BOUNDARY_TOL]] = True
            edge = np.abs(gap) <= BOUNDARY_TOL
            rows.append(u[edge])
            on.append(nbr[m[edge]])
        tau = min(tau, float(d[~inside].min(initial=np.inf)))
        # A three-point face is its triple; a larger one, met once per
        # triple of its points, is known by its point set.
        rows, on = np.concatenate(rows), np.concatenate(on)
        k = np.bincount(rows, minlength=len(d))
        three = ~inside & (k == 3)
        tris.append(np.column_stack([p[three], nbr[s[three]], nbr[t[three]]]))
        big = ~inside[rows] & (k[rows] > 3)
        cuts = np.flatnonzero(np.diff(rows[big])) + 1
        faces.update(frozenset(f.tolist()) for f in np.split(on[big], cuts) if len(f))
    return tau, np.concatenate(tris), faces


def _exhaustive_offset(coords: np.ndarray) -> float:
    """tau over the candidates with one to three points at the largest dot:
    each _pinned_caps center c gives max_i c.x_i and its antipode -c gives
    -min_i c.x_i, from one product; and, for antipodes alone at tau = 0,
    one orthogonal c."""
    n = len(coords)
    _covering_budget(n * (n + math.comb(n, 2) + math.comb(n, 3) + 1), "dots")
    orth = np.cross(coords[0], np.eye(3)[np.argmin(np.abs(coords[0]))])
    tau = float(((orth[None] / np.linalg.norm(orth)) @ coords.T).max())
    for centers, _ in _pinned_caps(coords):
        if len(centers):
            dots = centers @ coords.T
            tau = min(tau, float(np.minimum(dots.max(axis=1), -dots.min(axis=1)).min()))
    return tau


def _covering_budget(work: int, what: str) -> None:
    _work_budget(work, _COVERING_MAX_WORK, f"covering radius {what}",
                 "the points lie in a hemisphere or leave a large hole")


def _work_budget(work: int, limit: int, what: str, hint: str) -> None:
    """Stop a super-linear kernel before it starts work past its limit."""
    if work > limit:
        raise ValueError(f"{what}: {work} over the limit of {limit}; {hint}")


# ---------------------------------------------------------------------------
# pairwise energies


# Rows per tile of the pair sweep.  The tile grid depends on N only, so
# it fixes every row's partial sum and with them the order of summation.
_TILE_ROWS = 8


def _tile_partials(xyz, a: int, riesz_s: tuple[float, ...], log: bool,
                   distance: bool) -> np.ndarray:
    """Per-row partial sums of rows a .. a + _TILE_ROWS against all later columns.

    Returns one row of partials per kernel, in the order riesz_s, log,
    distance.  Row k of the tile pairs with tile columns k and beyond;
    the lower-left triangle before that is padded with d2 = 1 and its
    terms are zeroed.
    """
    x, y, z = xyz
    b = min(a + _TILE_ROWS, len(x) - 1)
    rows = b - a
    d = x[a + 1:] - x[a:b, None]
    d2 = d * d
    for c in (y, z):
        np.subtract(c[a + 1:], c[a:b, None], out=d)
        d *= d
        d2 += d
    pad = np.tri(rows, rows - 1, -1, dtype=bool)
    d2[:, :rows - 1][pad] = 1.0
    if (riesz_s or log) and float(d2.min()) < 1e-24:
        raise DuplicatePointError("coincident points make this energy singular")

    def row_sums(term):
        term[:, :rows - 1][pad] = 0.0
        return term.sum(axis=1)

    dist = np.sqrt(d2) if distance or 1.0 in riesz_s else None
    out = [row_sums(1.0 / dist if s == 1.0 else d2 ** (-s / 2.0)) for s in riesz_s]
    if log:
        out.append(-0.5 * np.log(d2).sum(axis=1))  # the padding adds log 1 = 0
    if distance:
        out.append(row_sums(dist))
    return np.array(out)


# Pairs the tiled sweep may take, about 11 s at 11 ns a pair: N = 40,002
# (8.0e8 pairs) runs, N = 10^6 (5e11 pairs, about 1.5 h) stops at once.
_PAIR_SWEEP_MAX_PAIRS = 1_000_000_000


def _pair_sums(coords: np.ndarray, riesz_s: tuple[float, ...] = (),
               log: bool = False, distance: bool = False) -> list[float]:
    """2 * sum over i < j of each requested kernel, in one sweep of the pairs.

    Returns the Riesz sums in riesz_s order, then the log sum, then the
    distance sum.  Squared distances are computed once per tile and
    shared by every kernel.  The tiles are fixed by N and each row's
    partials are combined with exact summation, so the tiling fixes the
    results bit for bit.  This is the route for any point set; a model's
    own ensemble takes _ring_sums through _energy_sums instead.  Riesz and
    log sums raise DuplicatePointError on coincident points, which a
    distance-only sweep accepts; ValueError for an exponent outside
    0 < s < inf, a Riesz sum that overflows, or more than
    _PAIR_SWEEP_MAX_PAIRS pairs.
    """
    _check_riesz_s(riesz_s)
    n = len(coords)
    if n < 2:
        raise ValueError("pairwise sums need at least two points")
    _work_budget(n * (n - 1) // 2, _PAIR_SWEEP_MAX_PAIRS, "point pairs of the energy sweep",
                 "metrics --no-energies skips the energies, not the Stolarsky L2's distance sum")
    xyz = tuple(np.ascontiguousarray(coords[:, k]) for k in range(3))
    with np.errstate(over="ignore"):  # an overflow is reported below
        partials = np.concatenate([_tile_partials(xyz, a, riesz_s, log, distance)
                                   for a in range(0, n - 1, _TILE_ROWS)], axis=1)
    return _doubled_totals(riesz_s, partials)


def _doubled_totals(riesz_s: tuple[float, ...], rows) -> list[float]:
    """2 * the exact sum of each kernel's row of partials, in riesz_s, log,
    distance order; ValueError for a Riesz total that overflows."""
    totals = []
    # Log and distance terms are bounded: only a Riesz row, with its s, can overflow.
    for s, row in itertools.zip_longest(riesz_s, rows):
        try:
            totals.append(2.0 * math.fsum(row))
        except OverflowError:  # finite partials whose sum overflows
            totals.append(math.inf)
        if math.isinf(totals[-1]):
            raise ValueError(f"Riesz sum for s = {s} overflows a float")
    return totals


# Relative alias tolerance of the ring route (absolute for the log kernel).
_RING_ALIAS_TOL = 1e-18

# Nodes per block of the ring route: its temporaries stay near 64 kB an
# array, which ran as fast as 2**14..2**16 nodes at M = 40 and 200 and
# kept the peak under 1 MB at M = 20.  The blocks depend on the model only,
# so they fix the order of summation, as the tiles do for the sweep.
_RING_BLOCK_NODES = 1 << 13


def _ring_pairs(model: DiamondModel):
    """Ring pairs a < b of the model: (a, b, d0, near, L, K).

    Between rings a != b, ||x - y||^2 = d0 + near sin^2(psi/2) with
    d0 = (z_a - z_b)^2 + (s_a - s_b)^2 and near = 4 s_a s_b, a form with no
    cancellation, and the r_a r_b angle gaps psi are the L = lcm(r_a, r_b)
    offsets theta_a - theta_b + 2 pi k/L, each gcd(r_a, r_b) times.  So the
    pair sums to r_a r_b times the kernel's mean over those offsets.

    K is the node count whose n-node mean the alias bound puts within
    tol w of the kernel's mean f^(0), tol = _RING_ALIAS_TOL.  Write
    d0 + near sin^2(psi/2) = u |1 - rho e^{i psi}|^2, with
    tau = sqrt(d0/(d0 + near)), rho = (1 - tau)/(1 + tau) and
    sqrt(u) = (sqrt(d0 + near) + sqrt(d0))/2.  Then:
      log, -log d:         f^(m) = rho^m/(2m), and w = 1;
      distance, d:         |f^(m)| <= sqrt(u) rho^m/(1 - rho^2), w = f^(0) >= sqrt(u);
      Riesz, d^-s, s <= 2: |f^(m)| <= u^(-s/2) rho^m/(1 - rho^2),
                           w = f^(0) >= u^(-s/2),
    from the binomial series of (1 - rho e^{i psi})^(1/2) and ^(-s/2), whose
    coefficients lie in [-1/2, 1] and [0, 1]; f^(0) is bounded below by
    Jensen's inequality.  Each gives |f^(m)| <= 2 w rho^m/(1 - rho^2), so
    the n-node mean is within 2 sum_{l >= 1} |f^(l n)| <=
    4 w rho^n/((1 - rho^n)(1 - rho^2)) of f^(0).  That is at most tol w
    once rho^n <= t/(1 + t), t = tol (1 - rho^2)/4, and K is the least
    integer above log(t/(1 + t))/log(rho).  The exact L-offset mean
    obeys the same bound, so at K < L the K-node mean is within 2 tol w of
    it: the cutoff is a certificate, not a tuning.  A pole has rho = 0 and
    K = 1.  A Riesz exponent s > 2 has no proved bound and takes L nodes.
    """
    a, b = np.triu_indices(model.p + 2, 1)
    rings = model.rings
    d0 = (rings.z[a] - rings.z[b]) ** 2 + (rings.s[a] - rings.s[b]) ** 2
    near = 4.0 * rings.s[a] * rings.s[b]
    tau = np.sqrt(d0 / (d0 + near))
    t = _RING_ALIAS_TOL * tau / (1.0 + tau) ** 2  # tol (1 - rho^2)/4
    with np.errstate(divide="ignore"):  # log rho = -inf at a pole
        k = np.floor(np.log(t / (1.0 + t)) / (np.log1p(-tau) - np.log1p(tau))) + 1.0
    return a, b, d0, near, np.lcm(rings.r[a], rings.r[b]), k


def _ring_sums(model: DiamondModel, riesz_s: tuple[float, ...] = (),
               log: bool = False, distance: bool = False) -> list[float]:
    """_pair_sums' totals on generate(model), from its rings.

    A ring pair a < b is r_a r_b times the mean over n = min(L, K) equally
    spaced offsets (_ring_pairs), and a Riesz exponent s > 2 takes n = L,
    the exact sum.  A ring with itself sums to r times the kernel over the
    chords 2 s sin(pi k/r), k = 1 .. r - 1.  The kernels under the alias
    bound share one node set and the others the exact one, so a fused call
    and a single-kernel call agree bit for bit.  Nodes are weighted and
    summed in blocks of _RING_BLOCK_NODES, fixed by the model, and the block
    sums are combined with exact summation.  O(p^2 + N + sum of n) work.
    ValueError for a Riesz sum that overflows, as _pair_sums.
    """
    _check_riesz_s(riesz_s)
    rings, ring = model.rings, np.arange(model.p + 2)
    a, b, d0, near, lcm, k = _ring_pairs(model)
    # Ring pairs, then every ring with itself; node j runs over first <= j < n.
    a, b = np.concatenate([a, ring]), np.concatenate([b, ring])
    d0 = np.concatenate([d0, np.zeros(len(ring))])
    near = np.concatenate([near, 4.0 * rings.s ** 2])
    half_shift = (rings.theta[a] - rings.theta[b]) / 2.0
    first = np.repeat([0, 1], [len(lcm), len(ring)])
    # Half of each row's ordered pairs, which _doubled_totals doubles:
    # r_a r_b for a ring pair, r^2/2 for a ring with itself.
    pairs = rings.r[a] * rings.r[b] / np.where(first, 2.0, 1.0)

    kernels = [lambda d2, s=s: 1.0 / np.sqrt(d2) if s == 1.0 else d2 ** (-s / 2.0)
               for s in riesz_s]
    if log:
        kernels.append(lambda d2: -0.5 * np.log(d2))
    if distance:
        kernels.append(np.sqrt)
    exact = [s > 2.0 for s in riesz_s] + [False] * (len(kernels) - len(riesz_s))
    partials = [[] for _ in kernels]
    with np.errstate(over="ignore"):  # an overflow is reported below
        for on_all_offsets in (False, True):
            group = [i for i, x in enumerate(exact) if x == on_all_offsets]
            if not group:
                continue
            n = np.concatenate([lcm if on_all_offsets else np.minimum(lcm, k).astype(np.int64),
                                rings.r])
            weight = pairs / n
            for e, j in _range_blocks(first, n, _RING_BLOCK_NODES):
                d2 = d0[e] + near[e] * np.sin(half_shift[e] + np.pi * j / n[e]) ** 2
                w = weight[e]
                for i in group:
                    partials[i].append(float((w * kernels[i](d2)).sum()))
    return _doubled_totals(riesz_s, partials)


def _energy_sums(points, model: DiamondModel | None, riesz_s: tuple[float, ...] = (),
                 log: bool = False, distance: bool = False) -> list[float]:
    """_pair_sums' totals, from the rings when points are generate(model)
    bit for bit (an O(N) check that trusts no tag), else by the sweep."""
    coords = _as_coords(points)
    if model is not None and np.array_equal(coords, generate(model).coords):
        return _ring_sums(model, riesz_s, log, distance)
    return _pair_sums(coords, riesz_s, log, distance)


def _check_riesz_s(riesz_s) -> None:
    if bad := [s for s in riesz_s if not 0.0 < s < math.inf]:
        raise ValueError(f"Riesz exponent must be positive and finite, got {bad[0]}")


def riesz_energy(points, s: float) -> float:
    """Sum over ordered pairs i != j of ||x_i - x_j||^(-s), 0 < s < inf."""
    (total,) = _pair_sums(_as_coords(points), riesz_s=(s,))
    return total


def log_energy(points) -> float:
    """Sum over ordered pairs i != j of log(1/||x_i - x_j||)."""
    (total,) = _pair_sums(_as_coords(points), log=True)
    return total


def sum_distances(points) -> float:
    """Sum over ordered pairs i != j of ||x_i - x_j||."""
    (total,) = _pair_sums(_as_coords(points), distance=True)
    return total


# ---------------------------------------------------------------------------
# polar and equatorial cap discrepancies (exact for ensembles)


@dataclass(frozen=True)
class PolarProfile:
    """Cap discrepancies at the parallel heights, center at the north pole.

    exact[j - 1] = |N_{j+1}/N - (1 - z_j)/2| as a Fraction.  closed_form is
    filled for the one-piece r = 4x model, where the profile has a
    polynomial form and its maximum is sqrt(N - 2)/N exactly.
    """

    j: tuple[int, ...]
    exact: tuple[Fraction, ...]
    closed_form: tuple[Fraction, ...] | None
    max_exact: Fraction
    argmax_j: int


def polar_cap_profile(model: DiamondModel) -> PolarProfile:
    """Exact cap discrepancy at heights z_1 .. z_M."""
    N, M, rings = model.N, model.M, model.rings
    js = tuple(range(1, M + 1))
    # With N_{j+1} = N_j + r_j and (N - 1)(1 - z_j) = 2 N_j + r_j - 1, the
    # deviation is an integer over 2N(N - 1); Python ints keep it exact.
    exact = [Fraction(abs((N - 2) * r + N - 2 * first), 2 * N * (N - 1))
             for r, first in zip(rings.r[1:M + 1].tolist(), rings.first[1:M + 1].tolist())]
    closed_form = None
    if model.is_simple:
        closed_form = tuple(
            Fraction(N - 2 - 4 * j * j + 4 * (N - 1) * j, 2 * N * (N - 1)) for j in js
        )
        assert tuple(exact) == closed_form
    best = max(range(len(js)), key=lambda k: exact[k])
    return PolarProfile(js, tuple(exact), closed_form, exact[best], js[best])


@dataclass(frozen=True)
class EquatorialDiscrepancy:
    """Discrepancy of the closed upper half-sphere: r_M/(2N) exactly."""

    exact: Fraction
    counting: float


def equatorial_discrepancy(model: DiamondModel,
                           points: PointSet | None = None) -> EquatorialDiscrepancy:
    """Discrepancy of the closed upper hemisphere: exact, since its boundary
    (the equator) carries the r_M points that make the excess, and counted
    on points, the model's own ensemble when None."""
    if points is None:
        points = generate(model)
    exact = Fraction(model.r[model.M - 1], 2 * model.N)
    cap = SphericalCap(NORTH_POLE, 0.0)
    counted = count_in_cap(points, cap, "closed")
    return EquatorialDiscrepancy(exact, abs(counted / model.N - 0.5))


# ---------------------------------------------------------------------------
# supremum cap discrepancy


@dataclass(frozen=True)
class SupDiscrepancy:
    """Largest cap deviation found, with the witnessing cap.

    side is "closed" when the witness over-counts (closed count above
    the area fraction) and "open" when it under-counts.
    """

    value: float
    witness: SphericalCap
    side: str


def _sweep_rows(dots: np.ndarray):
    """Per row: the largest cap deviation over all break heights.

    Rows are dot products of the point set against one center each.  For
    a fixed center the deviation is piecewise monotone in the cap height
    between consecutive dot values, so the maximum over every cap with
    this center is attained at a break, counting closed on the excess
    side and open on the deficit side.  Break d_k counts by count_in_cap's
    rules, closed #{d >= d_k - BOUNDARY_TOL} and open
    #{d > d_k + BOUNDARY_TOL}, so the witness reproduces the value: k + 1
    and k in a row whose sorted gaps all exceed BOUNDARY_TOL, and two
    searchsorted calls in a row with a tie.  Returns (value, t, closed)
    arrays, closed True where the closed count gives the value, also on a
    tie with the open count.  sup_discrepancy_estimate sends only the rows
    whose _sweep_bound reaches its best value so far.
    """
    rows, n = dots.shape
    d = -np.sort(-dots, axis=1)  # descending
    area = (1.0 - d) / 2.0
    dev_closed = np.arange(1, n + 1) / n - area
    dev_open = area - np.arange(n) / n
    for b in np.flatnonzero((d[:, :-1] - d[:, 1:] <= BOUNDARY_TOL).any(axis=1)):
        asc = d[b, ::-1]
        dev_closed[b] = (n - np.searchsorted(asc, d[b] - BOUNDARY_TOL, side="left")) / n - area[b]
        dev_open[b] = area[b] - (n - np.searchsorted(asc, d[b] + BOUNDARY_TOL, side="right")) / n
    dev = np.maximum(dev_closed, dev_open)
    take = (np.arange(rows), np.argmax(dev, axis=1))
    return dev[take], d[take], dev_closed[take] >= dev_open[take]


def _sweep_bound(dots: np.ndarray) -> np.ndarray:
    """Per row: an upper bound on _sweep_rows' value, with no sort.

    B buckets of width w = 2/B split [-1, 1]; bucket q holds the dots d
    with q = int((d + 1) B/2), clipped to [0, B - 1], and S_q counts the
    dots in buckets q and above.  A break d_k in bucket q lies in
    [lo_q, hi_q].  Its closed count #{d >= d_k - BOUNDARY_TOL} holds only
    dots of bucket q - 1 and above, as BOUNDARY_TOL < w, so it is at most
    S_{q-1}, and its area (1 - d_k)/2 is at least (1 - hi_q)/2.  Its open
    count #{d > d_k + BOUNDARY_TOL} holds every dot of bucket q + 2 and
    above, at least S_{q+2}, and its area is at most (1 - lo_q)/2.  So
    the row's value is at most the largest, over the buckets that hold a
    dot, of S_{q-1}/n - (1 - hi_q)/2 and (1 - lo_q)/2 - S_{q+2}/n.  The
    bucket index is monotone in d, so rounding moves a dot across at most
    an edge the reach of one bucket already covers; 1e-12 more covers the
    rounding of the areas and of the bound itself.
    """
    rows, n = dots.shape
    # B = 4 sqrt(N) was the fastest of 2, 4, 8 and 16 sqrt(N) at every N
    # from 102 to 40,002: at 2 sqrt(N) the bound prunes no row, and above 4
    # the B-wide passes cost more than the few rows they prune.  The bound
    # costs O(N + B) a row against the sweep's O(N log N) sort.
    B = int(4 * math.sqrt(n))
    bucket = ((dots + 1.0) * (B / 2)).astype(np.intp)
    np.clip(bucket, 0, B - 1, out=bucket)
    bucket += np.arange(0, rows * B, B)[:, None]
    counts = np.bincount(bucket.ravel(), minlength=rows * B).reshape(rows, B)
    # reach[:, j] = S_{j-1}, with S_{-1} = n and S_B = S_{B+1} = 0
    reach = np.zeros((rows, B + 3))
    reach[:, 0] = n
    reach[:, 1:B + 1] = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    reach /= n
    q = np.arange(B)
    closed = reach[:, :B] - (1.0 - (q + 1) / B)
    opened = (1.0 - q / B) - reach[:, 3:]
    bound = np.where(counts > 0, np.maximum(closed, opened), -np.inf)
    return bound.max(axis=1) + 1e-12


def _best_witness(blocks) -> SupDiscrepancy:
    """The first center with the largest value over blocks of (centers,
    value, t, closed), with its cap of height t, closed or open."""
    best = (-np.inf, None, 0.0, True)
    for centers, value, t, closed in blocks:
        if len(centers):
            k = int(np.argmax(value))
            if value[k] > best[0]:
                best = (float(value[k]), centers[k], float(t[k]), bool(closed[k]))
    value, center, t, closed = best
    cap = SphericalCap(UnitVec.from_array(center), max(-1.0, min(1.0, t)))
    return SupDiscrepancy(value, cap, "closed" if closed else "open")


# Dot products per block of centers in sup_discrepancy_estimate and
# l2_discrepancy_quadrature.  The estimate keeps the block's dots, and its
# bucket bound one float and one index copy of them, beside the sweep's
# copies of the few rows that pass the bound, so this sets the estimate's
# peak memory; results of either routine do not depend on it.
_SUP_BLOCK_DOTS = 2_000_000


def _blocked(arrays, block: int):
    for arr in arrays:
        for a in range(0, len(arr), block):
            yield arr[a:a + block]


def sup_discrepancy_exact(points, max_points: int = 150) -> SupDiscrepancy:
    """Exact supremum of the cap discrepancy over pinned caps.

    Closed excess: the points S inside a closed cap also lie in the
    smallest cap that holds S, which counts at least as many points and
    has no more area.  Its boundary passes through one, two or three
    points of S: the cap is a point itself (t = 1), a diametral cap of a
    pair (center the normalized midpoint) or a triple's circumcircle.
    So the largest excess is the excess of a cap (c, c . x_p) pinned by
    one of those points p.

    Open deficit: the open cap (c, t) is the complement of the closed
    cap (-c, -t), and its deficit equals that cap's excess.  Each
    candidate therefore needs one orientation only, the one
    _pinned_caps yields, counted both ways at its own height: closed
    #{x . c >= d - BOUNDARY_TOL} at d the largest pinned dot, open
    #{x . c > d + BOUNDARY_TOL} at d the smallest.  These are
    count_in_cap's rules, so the witness reproduces the value.

    N + C(N, 2) + C(N, 3) candidates at N dots each: O(N^4), with no
    sort; the max_points guard keeps accidental large inputs out.
    tests/conftest.py::sup_exact_reference, which sweeps every height at
    the same centers in both orientations (tests/conftest.py::cap_centers),
    is the slower reference.
    """
    coords = _as_coords(points)
    n = len(coords)
    if n > max_points:
        raise ValueError(f"exact supremum limited to {max_points} points, got {n}")
    if n < 2:
        raise ValueError("need at least two points")

    def pinned_deviations(centers, pins):
        dots = centers @ coords.T
        pinned = np.take_along_axis(dots, pins, axis=1)
        hi, lo = pinned.max(axis=1), pinned.min(axis=1)
        closed = np.count_nonzero(dots >= (hi - BOUNDARY_TOL)[:, None], axis=1)
        opened = np.count_nonzero(dots > (lo + BOUNDARY_TOL)[:, None], axis=1)
        dev_closed = closed / n - (1.0 - hi) / 2.0
        dev_open = (1.0 - lo) / 2.0 - opened / n
        use_closed = dev_closed >= dev_open
        return centers, np.maximum(dev_closed, dev_open), np.where(use_closed, hi, lo), use_closed

    return _best_witness(pinned_deviations(*block) for block in _pinned_caps(coords))


# Index triples per block of _pinned_caps' circumcircle candidates.
_TRIPLE_BLOCK = 8192


def _triples(n: int) -> np.ndarray:
    """Every index triple i < j < k, in itertools.combinations order."""
    a = np.arange(n)
    return np.argwhere((a[:, None, None] < a[:, None]) & (a[:, None] < a))


def _unit_rows(v: np.ndarray):
    """The rows of v longer than DEGENERATE_TOL, scaled to unit length, and
    the mask of those rows."""
    norms = np.linalg.norm(v, axis=1)
    keep = norms > DEGENERATE_TOL
    return v[keep] / norms[keep, None], keep


def _pinned_caps(coords: np.ndarray):
    """Blocks of (centers, pins): every point with itself as pin, every
    normalized pair midpoint with its pair, and one normal of every point
    triple, in _TRIPLE_BLOCK triples a block, with its triple.  Pairs and
    triples whose center is degenerate (an antipodal pair, a repeated
    point) are left out."""
    n = len(coords)
    yield coords, np.arange(n)[:, None]
    pairs = np.column_stack(np.triu_indices(n, 1))
    mids, keep = _unit_rows(coords[pairs[:, 0]] + coords[pairs[:, 1]])
    yield mids, pairs[keep]
    triples = _triples(n)
    for lo in range(0, len(triples), _TRIPLE_BLOCK):
        tri = triples[lo:lo + _TRIPLE_BLOCK]
        a, b, c = coords[tri[:, 0]], coords[tri[:, 1]], coords[tri[:, 2]]
        normals, keep = _unit_rows(np.cross(b - a, c - a))
        yield normals, tri[keep]


def sup_discrepancy_estimate(points, n_samples: int = 10_000,
                             seed: int = 0) -> SupDiscrepancy:
    """Randomized lower estimate of the cap discrepancy.

    Sweeps all break heights for n_samples uniform centers plus the two
    poles (the pole sweeps contain the polar-profile and hemisphere caps,
    so the estimate never falls below those).  For each center the sweep
    attains the maximum over every cap height, so no other height with
    that center can give more.

    The poles go first, and a later block sorts and sweeps only the rows
    whose _sweep_bound reaches the best value found so far.  A skipped
    row's value lies at or below its bound, strictly below a value an
    earlier row attains, so it is never the first row with the largest
    value: the result is the one every row swept would give.
    tests/conftest.py::sup_estimate_reference, which sweeps every row, is
    the reference.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 0:
        raise ValueError(f"n_samples must be a nonnegative integer, got {n_samples!r}")
    coords = _as_coords(points)
    n = len(coords)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, TWO_PI, n_samples)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    centers = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    block = max(64, int(_SUP_BLOCK_DOTS // n))
    best = -np.inf

    def pruned_sweeps():
        nonlocal best
        for c in _blocked([poles, centers], block):
            dots = c @ coords.T
            keep = _sweep_bound(dots) >= best
            value, t, closed = _sweep_rows(dots[keep])
            best = max(best, value.max(initial=-np.inf))
            yield c[keep], value, t, closed

    return _best_witness(pruned_sweeps())


# ---------------------------------------------------------------------------
# L2 cap discrepancy


def _stolarsky_l2(distance_sum: float, n: int) -> float:
    """L2 cap discrepancy from the sum of distances over ordered pairs."""
    gap = MEAN_CHORD - distance_sum / (n * n)
    if gap < -1e-12:
        raise ValueError("mean pairwise distance exceeds the uniform average")
    return math.sqrt(max(0.0, gap) / STOLARSKY_CONSTANT)


def l2_discrepancy_stolarsky(points, model: DiamondModel | None = None) -> float:
    """L2 cap discrepancy via the distance-sum identity (see module head).

    With the model whose ensemble the points are, bit for bit, the distance
    sum comes from its rings (_energy_sums), as in compute_metrics.

    D = sqrt((4/3 - S/N^2)/8) cancels most digits of the distance sum S:
    a rounding error e in S/N^2 moves D by e/(16 D) absolute, and S/N^2
    is near 4/3, so one ulp of it is a relative error of about 2e-17/D^2
    in D.  That is 4e-14 at M = 3 (N = 38), 1e-11 at M = 20 (N = 1,602),
    where about 11 of the 17 printed digits are sound, and 1.4e-9 at
    M = 100; the loss grows like N^(3/2).  D^2 keeps the absolute error
    of S/N^2, so tests compare D^2 (at abs 1e-15), not D.
    """
    coords = _as_coords(points)
    n = len(coords)
    return _stolarsky_l2(0.0 if n == 1 else _energy_sums(coords, model, distance=True)[0], n)


def l2_discrepancy_quadrature(points, n_centers: int = 4096) -> float:
    """L2 cap discrepancy by direct integration over cap centers and heights.

    Centers run over a spiral grid (equal weights).  For each center the
    height integral, with density dt/2, is exact: sort the dots
    ascending, a_0 <= ... <= a_{N-1}.  Between consecutive dots the
    deficit #{a >= t}/N - (1 - t)/2 is linear with slope 1/2, and it
    drops by 1/N at each dot, so the integral of its square telescopes to
    (1/(4N)) sum_k (a_k + (N - 1 - 2k)/N)^2 + 1/(12 N^2).  The terms are
    nonnegative and ties only add zero-length pieces.  Only the center
    grid leaves an error, so this converges to the Stolarsky route as
    n_centers grows; it is that route's independent check.
    """
    coords = _as_coords(points)
    n = len(coords)
    centers = spiral_points(n_centers)
    offsets = (n - 1 - 2 * np.arange(n)) / n
    block = max(64, int(_SUP_BLOCK_DOTS // max(n, 1)))
    rows = []
    for lo in range(0, n_centers, block):
        dots = centers[lo:lo + block] @ coords.T
        dots.sort(axis=1)
        dots += offsets
        rows.append(np.square(dots, out=dots).sum(axis=1))
    total = math.fsum(np.concatenate(rows)) / (4 * n * n_centers)
    return math.sqrt(total + 1.0 / (12 * n * n))


def stolarsky_constant_estimate(points, n_centers: int = 20_000) -> float:
    """(MEAN_CHORD - S_N) / D_quad^2 for one point set.

    Estimates the invariance constant from scratch; the calibration
    script medians this over several sets to pin STOLARSKY_CONSTANT.
    """
    coords = _as_coords(points)
    n = len(coords)
    mean = 0.0 if n == 1 else sum_distances(coords) / (n * n)
    d = l2_discrepancy_quadrature(coords, n_centers=n_centers)
    if d == 0.0:
        raise ValueError("degenerate quadrature value")
    return (MEAN_CHORD - mean) / (d * d)


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class MetricsReport:
    """Flat, JSON-ready bundle of everything computed for one point set."""

    n_points: int
    separation: float | None = None
    covering_estimate: float | None = None
    covering_upper_bound: float | None = None
    mesh_ratio: float | None = None
    mesh_ratio_estimate: float | None = None
    riesz: dict | None = None
    log_energy: float | None = None
    sum_distances: float | None = None
    d_l2_stolarsky: float | None = None
    d_l2_quadrature: float | None = None
    d_sup_exact: float | None = None
    d_sup_estimate: float | None = None
    d_sup_side: str | None = None
    d_sup_witness_center: list | None = None
    d_sup_witness_t: float | None = None
    d_polar_profile: list | None = None
    d_polar_max: float | None = None
    d_polar_max_exact: str | None = None
    d_equatorial: float | None = None
    d_equatorial_exact: str | None = None
    envelope_lower: float | None = None
    envelope_upper: float | None = None
    constants: dict | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def compute_metrics(points: PointSet,
                    model: DiamondModel | None = None,
                    partition: Partition | None = None,
                    *,
                    riesz_s: tuple[float, ...] = (1.0,),
                    energies: bool = True,
                    sup_mode: str | None = "estimate",
                    sup_samples: int = 10_000,
                    sup_seed: int = 0,
                    l2_quadrature: bool = False) -> MetricsReport:
    """One-stop metrics bundle used by the command-line front end.

    The energies and the Stolarsky L2 come from the model's rings when the
    model is given and points equal generate(model) bit for bit, and from
    the tile sweep otherwise (_energy_sums).
    """
    if sup_mode not in ("exact", "estimate", None):
        raise ValueError(f"unknown sup mode {sup_mode!r}")
    n = len(points)
    rep = MetricsReport(n_points=n)

    if n >= 2:
        rep.separation = separation(points)
        if rep.separation == 0.0:
            raise DuplicatePointError("coincident points make the mesh ratio infinite")
        cov = covering_radius(points, partition=partition)
        rep.covering_estimate = cov.estimate
        rep.covering_upper_bound = cov.upper_bound
        rep.mesh_ratio_estimate = cov.estimate / rep.separation
        if partition is not None:
            rep.mesh_ratio = cov.upper_bound / rep.separation
        if energies:
            *riesz, rep.log_energy, rep.sum_distances = _energy_sums(
                points, model, riesz_s, log=True, distance=True)
            rep.riesz = {str(s): v for s, v in zip(riesz_s, riesz)}
    if rep.sum_distances is None:
        rep.d_l2_stolarsky = l2_discrepancy_stolarsky(points, model)
    else:
        rep.d_l2_stolarsky = _stolarsky_l2(rep.sum_distances, n)
    if l2_quadrature:
        rep.d_l2_quadrature = l2_discrepancy_quadrature(points)

    if sup_mode is not None:
        sup = (sup_discrepancy_exact(points) if sup_mode == "exact" else
               sup_discrepancy_estimate(points, n_samples=sup_samples, seed=sup_seed))
        setattr(rep, f"d_sup_{sup_mode}", sup.value)
        rep.d_sup_side = sup.side
        c = sup.witness.center
        rep.d_sup_witness_center = [c.x, c.y, c.z]
        rep.d_sup_witness_t = sup.witness.t

    if model is not None:
        prof = polar_cap_profile(model)
        rep.d_polar_profile = [[j, float(v)] for j, v in zip(prof.j, prof.exact)]
        rep.d_polar_max = float(prof.max_exact)
        rep.d_polar_max_exact = str(prof.max_exact)
        eq = equatorial_discrepancy(model, points)
        rep.d_equatorial = float(eq.exact)
        rep.d_equatorial_exact = str(eq.exact)
        if model.is_simple:
            rep.envelope_lower, rep.envelope_upper = cap_discrepancy_envelope(model.N)
        if model.M >= 2:
            rep.constants = model_constants(model).to_dict()
    return rep
