"""Equal-area partition companion to a generated model.

The sphere splits into two polar caps and, per parallel, a ring of
congruent "rectangles" in longitude/height coordinates.  Every boundary
height comes from one formula, b_k = 1 - 2 N_k / N for k = 1..p + 1,
through the equator too (b_{2M+1-k} = -b_k; the defining heights
h_j = b_j, j <= M).  Ring j spans (b_{j+1}, b_j] and holds r_j cells,
so every region has area exactly 4*pi/N, and parallel j is strictly
interior to its ring: b_{j+1} < z_j < b_j.  All of that is certified in
rational arithmetic from the counts N_j of ``DiamondModel.rings``, which
also gives r, theta, the first index N_j of a ring and every float, and
whose rings 0 and p + 1 are the polar caps, one cell each.  ``certify``
runs every check that the ``verify`` command reports, each of which,
``verify_matching`` too, returns nothing or raises VerificationFailure
with its reasons, and ``_region_rings`` lists the regions ring by ring
for ``partition_records`` and the ``partition`` command's CSV.

Region ownership conventions (fixed for the whole package):

* height intervals are half-open downward, h_lo < z <= h_hi, i.e. every
  region owns its upper edge; the north cap additionally owns the pole
  and the south cap owns both its upper edge and the south pole;
* longitude intervals are half-open, phi_lo <= phi < phi_hi, with
  boundaries at (2*pi*i + pi)/r_j + theta_j so that points sit at the
  exact centers of their cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .ensemble import DiamondModel, Rings, model_constants
from .geometry import SPHERE_AREA, TWO_PI, PointSet


class VerificationFailure(RuntimeError):
    """A certified partition property failed to hold."""


@dataclass(frozen=True)
class Region:
    """One cell of the partition.

    kind is "cap_north", "cap_south" or "rect".  For rectangles, j is
    the parallel whose points the ring matches (1..p) and i the cell
    position within the ring; phi bounds satisfy 0 <= phi_lo < 2*pi and
    phi_hi = phi_lo + 2*pi/r (wrap past 2*pi implied).  Caps carry
    j = i = 0 and no phi bounds.
    """

    region_id: int
    kind: str
    j: int
    i: int
    phi_lo: float | None
    phi_hi: float | None
    h_lo: float
    h_hi: float
    h_lo_exact: Fraction
    h_hi_exact: Fraction
    matched_point: int


@dataclass(frozen=True)
class SideLengths:
    """Side data for the collar of northern parallel j.

    horizontal_lo / horizontal_hi are the two horizontal arc lengths
    2*pi*sqrt(1 - h^2)/r_j at the collar's bounding heights (lo <= hi;
    they coincide for the equatorial collar).  vertical is the geodesic
    height of a cell and diameter the maximal chord between cell corners.
    """

    horizontal_lo: float
    horizontal_hi: float
    vertical: float
    diameter: float


class Partition:
    """Area-regular partition of the sphere matched to a model's points."""

    def __init__(self, model: DiamondModel):
        self.model = model

    # -- region materialization -------------------------------------------

    def region(self, region_id: int) -> Region:
        N, rings = self.model.N, self.model.rings
        if not 0 <= region_id < N:
            raise IndexError(f"region id {region_id} outside 0..{N - 1}")
        j = int(np.searchsorted(rings.first, region_id, side="right")) - 1  # 0..p + 1
        first, r = int(rings.first[j]), int(rings.r[j])
        i = region_id - first
        # b_{j+1} from the next ring's first, not first + r, so certify checks the two agree
        below = int(rings.first[j + 1]) if j <= self.model.p else N
        rest = (float(rings.b[j + 1]), float(rings.b[j]), Fraction(N - 2 * below, N),
                Fraction(N - 2 * first, N), first + (i + 1) % r)
        if not 0 < j <= self.model.p:  # a cap carries j = i = 0 and no longitudes
            return Region(region_id, "cap_north" if j == 0 else "cap_south", 0, 0, None, None,
                          *rest)
        phi_lo = _phi_lo(rings, j, i)
        return Region(region_id, "rect", j, i, phi_lo, phi_lo + TWO_PI / r, *rest)

    def __iter__(self) -> Iterator[Region]:
        for rid in range(self.model.N):
            yield self.region(rid)

    def __len__(self) -> int:
        return self.model.N

    # -- point/region matching --------------------------------------------

    def locate_many(self, coords: np.ndarray) -> np.ndarray:
        """Region id containing each row (a total function); rows must be unit vectors."""
        coords = np.asarray(coords, dtype=float)
        p, rings = self.model.p, self.model.rings
        # The bounds bottom-up, -1 < -h_1 < ... < h_1 < 1 (b strictly decreases
        # since every r >= 1): band b owns (asc[b], asc[b + 1]] of ring
        # p + 1 - b, and z = -1 is in band 0.
        band = np.searchsorted(rings.b[::-1], coords[:, 2], side="left") - 1
        ring = p + 1 - np.clip(band, 0, p + 1)
        phi = np.arctan2(coords[:, 1], coords[:, 0]) % TWO_PI
        r = rings.r[ring]
        frac = (phi - rings.theta[ring] - math.pi / r) * r / TWO_PI
        return rings.first[ring] + np.floor(frac).astype(np.int64) % r


def _phi_lo(rings: Rings, j: int, i):
    """Lower longitude of cell i (an int or an int array) of ring j, in
    Python float arithmetic for an int i."""
    r, theta = int(rings.r[j]), float(rings.theta[j])
    return (TWO_PI * i / r + math.pi / r + theta) % TWO_PI


# Relative rounding of a float area besides its longitude difference: the
# height difference, the product and 4*pi/N, half an eps each, with room.
_AREA_EPS = 4.0 * np.finfo(float).eps


def _ring_areas(model: DiamondModel, j: int) -> tuple[np.ndarray, float]:
    """Float areas of ring j's cells and their relative rounding bound: the
    sum phi_lo + 2*pi/r lies below 4*pi, so its difference with phi_lo is
    off by ulp(2*pi) at most, doubled to r*ulp(2*pi)/pi relative.  The
    height b_j - b_{j+1} = 2 r_j / N is rounded once from its integers."""
    r = int(model.rings.r[j])
    phi_lo = _phi_lo(model.rings, j, np.arange(r))
    areas = (phi_lo + TWO_PI / r - phi_lo) * (2 * r / model.N)
    return areas, r * math.ulp(TWO_PI) / math.pi + _AREA_EPS


def build_partition(model: DiamondModel) -> Partition:
    return Partition(model)


def region_area(region: Region) -> float:
    """Area of a region computed from its own bounds.

    Height differences come from the exact fractions: near the poles
    1 - h cancels to a few float digits, while the rational difference
    rounds just once.
    """
    dh = float(region.h_hi_exact - region.h_lo_exact)
    if region.kind in ("cap_north", "cap_south"):
        return TWO_PI * dh
    return (region.phi_hi - region.phi_lo) * dh


def region_area_fraction_exact(partition: Partition, region: Region) -> Fraction:
    """Area of a region as an exact fraction of the whole sphere.

    The area element splits as dphi * dh, so a cell of a ring of r covers
    (dh/2) / r of the sphere; a cap is a ring of one cell.
    """
    r = int(partition.model.rings.r[region.j])  # a cap's j = 0 is a ring of one cell
    return (region.h_hi_exact - region.h_lo_exact) / (2 * r)


def polar_cap_radius(partition: Partition) -> float:
    """Geodesic radius of the polar caps, 2*arcsin(1/sqrt(N))."""
    return 2.0 * math.asin(1.0 / math.sqrt(partition.model.N))


def verify_matching(partition: Partition, points: PointSet) -> None:
    """Certify that locate_many() is a bijection points <-> regions.

    Exact part: b_{j+1} < z_j < b_j for every parallel, in rational
    arithmetic, plus the integer statement that point i of a ring of r
    sits strictly inside cell (i - 1) mod r (points lie at even,
    boundaries at odd multiples of pi/r relative to theta, so no float
    tie is possible).  Float part: locate_many() applied to the points,
    row k read as point k of the generated order, must reproduce the exact
    matching.  Only the coordinates are read, so a bare PointSet of the
    ensemble passes; a set of any other size than N fails with both
    counts named.  Every failing check adds its reason, and the first ten
    go into the VerificationFailure raised at the end.
    """
    model = partition.model
    failures: list[str] = []

    for j, zj in enumerate(model.z_exact, start=1):
        reg = partition.region(int(model.rings.first[j]))
        if not (reg.h_lo_exact < zj < reg.h_hi_exact):
            failures.append(f"parallel {j}: z = {zj} outside ({reg.h_lo_exact}, {reg.h_hi_exact})")

    if len(points) != model.N:
        failures.append(f"{len(points)} points for the {model.N} regions")
    else:
        # Point k of the ring with first point and first region N_j lies in
        # region N_j + (k - N_j - 1) mod r_j; a pole, r = 1, in its own cap.
        N, rings = model.N, model.rings
        first, r = np.repeat(rings.first, rings.r), np.repeat(rings.r, rings.r)
        expected = first + (np.arange(N) - first - 1) % r
        located = partition.locate_many(points.coords)
        for idx in np.nonzero(located != expected)[0][:8]:
            failures.append(
                f"point {idx}: locate -> {located[idx]}, matching says {expected[idx]}"
            )
        counts = np.bincount(expected, minlength=N)  # every region id once, in O(N)
        if (counts != 1).any():
            rid = int(np.argmax(counts != 1))
            failures.append(f"region {rid} is matched to {counts[rid]} points")

    if failures:
        raise VerificationFailure("matching verification failed: " + "; ".join(failures[:10]))


def side_lengths(partition: Partition, j: int) -> SideLengths:
    """Side lengths for the collar of northern parallel j, 1 <= j <= M.

    horizontal_lo is the arc at the collar's defining height h_j, the
    shorter of the two horizontal sides (for j = M the two coincide);
    sqrt(N) times this quantity is what the shape bounds control.
    """
    M = partition.model.M
    if not 1 <= j <= M:
        raise IndexError(f"collar index {j} outside 1..{M}")
    h_hi, h_lo = partition.model.rings.b[j:j + 2].tolist()
    r = int(partition.model.rings.r[j])
    dphi = TWO_PI / r
    arcs, corners = [], []
    for h in (h_hi, h_lo):
        s = math.sqrt(max(0.0, 1.0 - h * h))
        arcs.append(TWO_PI * s / r)
        corners += [(s, 0.0, h), (s * math.cos(dphi), s * math.sin(dphi), h)]
    vertical = math.acos(h_lo) - math.acos(h_hi)
    diameter = max(math.dist(a, b) for a, b in itertools.combinations(corners, 2))
    return SideLengths(min(arcs), max(arcs), vertical, diameter)


def certify(partition: Partition, points: PointSet) -> str:
    """Run verify's checks in order and return the label of the side band.

    Exact areas are checked once per ring, caps included, whose cells share
    exact heights and r, and float areas per cell to their rounding bound;
    then verify_matching, then the side band.  Raises VerificationFailure
    at the first check that fails, with verify_matching's own message.
    """
    model = partition.model
    n = model.N
    area_f = SPHERE_AREA / n
    for j, rid in enumerate(model.rings.first.tolist()):
        if region_area_fraction_exact(partition, partition.region(rid)) != Fraction(1, n):
            raise VerificationFailure(f"region {rid} area fraction is not 1/N")
        areas, rel_tol = _ring_areas(model, j)
        off = np.flatnonzero(np.abs(areas - area_f) > rel_tol * area_f)
        if off.size:
            raise VerificationFailure(f"region {rid + int(off[0])} float area off 4*pi/N")

    verify_matching(partition, points)

    # Shape control on the canonical horizontal side (the arc at the
    # collar's defining height): the tight band for the one-piece model,
    # the instance constants d1/d2 otherwise.
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
    strict = model.is_simple
    for j in range(1, model.M + 1):
        side = side_lengths(partition, j).horizontal_lo * sq
        bad = not (lo_bound < side < hi_bound) if strict else \
            not (lo_bound - 1e-12 <= side <= hi_bound + 1e-12)
        if bad:
            raise VerificationFailure(
                f"collar {j}: sqrt(N) x horizontal side {side:.6f} outside {label}"
            )
    return label


def _collar_far_radius(h_hi: float, h_lo: float, z_point: float, r: int) -> float:
    """Max chord from a cell's matched point to any location in the cell.

    The point sits at the phi-center of its cell at height z_point.  The
    cosine of the angle to a cell location (dphi, h) is
    A(dphi)*sqrt(1 - h^2) + B*h with A = s_p*cos(dphi), B = z_point; it
    is minimized on the meridian edges dphi = +-pi/r, where the minimum
    over h sits at a corner, or interior to the edge when A < 0 (only
    possible for r = 1, where the cell wraps past a half-turn).  A pole has
    A = -0.0, so a polar cap gives its rim distance sqrt(2 - 2 h) exactly.
    """
    s_p = math.sqrt(max(0.0, 1.0 - z_point * z_point))
    a_coef = s_p * math.cos(math.pi / r)
    b_coef = z_point
    min_cos = min(
        a_coef * math.sqrt(max(0.0, 1.0 - h * h)) + b_coef * h
        for h in (h_hi, h_lo)
    )
    if a_coef < 0.0:
        radius = math.hypot(a_coef, b_coef)
        if radius > 0.0:
            h_star = -b_coef / radius
            if h_lo <= h_star <= h_hi:
                min_cos = min(min_cos, -radius)
    return math.sqrt(max(0.0, 2.0 - 2.0 * min_cos))


def covering_upper_bound(partition: Partition) -> float:
    """Certified covering-radius bound: the farthest any location can be
    from the matched point of the region containing it.

    Cells within a ring are congruent with congruently placed points, so
    one evaluation per ring, caps included, suffices.
    """
    rings = partition.model.rings
    b = rings.b.tolist()
    return max(_collar_far_radius(h_hi, h_lo, z, r)
               for h_hi, h_lo, z, r in zip(b, b[1:], rings.z.tolist(), rings.r.tolist()))


def _region_rings(partition: Partition) -> Iterator[tuple[Region, list, list, list, list, list]]:
    """Per ring, in region-id order: its first Region, then the lists of its
    cells' region_id, i, phi_lo, phi_hi and matched_point.

    The cells of a ring differ from its first cell only in these five
    fields, so each ring takes one region() call.  A cap is one cell with
    no longitudes, None in both lists.
    """
    rings = partition.model.rings
    for j, (rid, r) in enumerate(zip(rings.first.tolist(), rings.r.tolist())):
        reg = partition.region(rid)
        i = np.arange(r)
        if reg.phi_lo is None:
            phi_lo = phi_hi = [None]
        else:
            lo = _phi_lo(rings, j, i)
            phi_lo, phi_hi = lo.tolist(), (lo + TWO_PI / r).tolist()
        yield reg, (rid + i).tolist(), i.tolist(), phi_lo, phi_hi, (rid + (i + 1) % r).tolist()


def partition_records(partition: Partition) -> list[dict]:
    """Flat serializable description of every region, in region-id order,
    built ring by ring from _region_rings, which the partition command's
    CSV writer shares."""
    records = []
    for reg, *cells in _region_rings(partition):
        base = {**vars(reg), "h_lo_exact": str(reg.h_lo_exact), "h_hi_exact": str(reg.h_hi_exact)}
        records.extend(
            {**base, "region_id": rid, "i": i, "phi_lo": lo, "phi_hi": hi, "matched_point": m}
            for rid, i, lo, hi, m in zip(*cells)
        )
    return records
