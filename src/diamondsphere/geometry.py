"""Spherical primitives: unit vectors, caps, cap counting and the spiral grid.

Conventions used throughout the package:

* Heights are cosines of colatitude.  A parallel "at height h" is the
  circle {(x, y, z) : z = h}; partition boundaries and cap heights are
  stored the same way, so no arccos round-trips are needed.
* A spherical cap with center c and height t is the closed set
  {x : <x, c> >= t}.  Counting against a cap supports both a closed and
  an open mode; a point is treated as lying on the boundary when
  |<x, c> - t| <= BOUNDARY_TOL.
* Angles are radians, longitudes live in [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points of the ensemble sit exactly on the circles we test against, so
# boundary ties are the normal case, not an edge case.  The band below is
# wide enough to absorb float noise in generated coordinates and narrow
# enough never to capture a second parallel.
BOUNDARY_TOL = 1e-10

# Vectors, pair sums and cross products with norm at or below this are
# treated as degenerate (coincident, antipodal or collinear inputs).
DEGENERATE_TOL = 1e-12

# |x|^2 must match 1 to this tolerance for a vector to count as "unit".
UNIT_NORM_TOL = 1e-12

TWO_PI = 2.0 * math.pi
SPHERE_AREA = 4.0 * math.pi


class DuplicatePointError(ValueError):
    """Raised by kernels that cannot tolerate coincident points."""


@dataclass(frozen=True)
class UnitVec:
    """A point on the unit sphere.

    The constructor validates the norm; use :meth:`normalized` to build
    one from an arbitrary nonzero vector.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not math.isfinite(n2) or abs(n2 - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: norm^2 = {n2!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVec":
        n = math.sqrt(x * x + y * y + z * z)
        if n <= DEGENERATE_TOL:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_array(cls, a) -> "UnitVec":
        x, y, z = (float(v) for v in a)
        return cls.normalized(x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


NORTH_POLE = UnitVec(0.0, 0.0, 1.0)
SOUTH_POLE = UnitVec(0.0, 0.0, -1.0)


@dataclass(frozen=True)
class SphericalCap:
    """Closed cap {x : <x, center> >= t}, with -1 <= t <= 1."""

    center: UnitVec
    t: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.t <= 1.0:
            raise ValueError(f"cap height must lie in [-1, 1], got {self.t!r}")

    @property
    def area_fraction(self) -> float:
        return (1.0 - self.t) / 2.0


class PointSet:
    """An immutable batch of unit vectors, one per row of an (N, 3) array.

    The array is read-only: a read-only input is kept, any other copied.
    Which ring a generated point lies on, and its place there, are facts of
    the model's ring table (``DiamondModel.rings``), not of the points.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        keep = isinstance(coords, np.ndarray) and not coords.flags.writeable
        coords = (np.asarray if keep else np.array)(coords, dtype=float, order="C")
        coords.setflags(write=False)  # a writable input was copied: the caller's stays writable
        _check_unit_rows(coords)
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]


def _check_unit_rows(coords: np.ndarray) -> None:
    """ValueError unless coords is a nonempty (N, 3) array of unit rows (NaN fails)."""
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
        raise ValueError("coords must be a nonempty (N, 3) array")
    n2 = np.einsum("ij,ij->i", coords, coords)
    worst = float(np.max(np.abs(n2 - 1.0)))
    if not worst <= UNIT_NORM_TOL:  # NaN compares False both ways
        raise ValueError(f"row norms deviate from 1 by up to {worst:.3e}")


def _as_coords(points) -> np.ndarray:
    """A PointSet's rows, or an array checked by PointSet's rule and left writable."""
    if isinstance(points, PointSet):
        return points.coords
    coords = np.ascontiguousarray(points, dtype=float)
    _check_unit_rows(coords)
    return coords


def count_in_cap(points, cap: SphericalCap, mode: str = "closed") -> int:
    """Count points inside a cap.

    mode="closed" counts <x, c> >= t - BOUNDARY_TOL, mode="open" counts
    <x, c> > t + BOUNDARY_TOL, so points within the boundary band are
    included by the closed count and excluded by the open one.
    """
    coords = _as_coords(points)
    dots = coords @ cap.center.as_array()
    if mode == "closed":
        return int(np.count_nonzero(dots >= cap.t - BOUNDARY_TOL))
    if mode == "open":
        return int(np.count_nonzero(dots > cap.t + BOUNDARY_TOL))
    raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")


def spiral_points(k: int) -> np.ndarray:
    """Deterministic spiral grid of k near-uniform directions.

    Golden-angle spiral: heights march linearly through (-1, 1) while the
    longitude advances by pi*(3 - sqrt(5)) per step.  Used as the
    equal-area node set of the L2 quadrature's cap centers.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    i = np.arange(k, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / k
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
