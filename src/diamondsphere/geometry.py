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
    """An immutable batch of unit vectors with optional provenance tags.

    Parameters
    ----------
    coords : (N, 3) array
        Unit vectors, one per row.
    parallel : (N,) int array, optional
        For generated ensembles: 0 for the north pole, 1..p for the
        parallels top to bottom, p + 1 for the south pole.
    index_in_parallel : (N,) int array, optional
        Position i (0-based) of the point within its parallel.
    """

    __slots__ = ("coords", "parallel", "index_in_parallel")

    def __init__(self, coords, parallel=None, index_in_parallel=None):
        coords = np.ascontiguousarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise ValueError("coords must be a nonempty (N, 3) array")
        n2 = np.einsum("ij,ij->i", coords, coords)
        worst = float(np.max(np.abs(n2 - 1.0)))
        if not worst <= UNIT_NORM_TOL:  # NaN compares False both ways
            raise ValueError(f"row norms deviate from 1 by up to {worst:.3e}")
        coords.setflags(write=False)
        self.coords = coords
        for name, arr in (("parallel", parallel), ("index_in_parallel", index_in_parallel)):
            if arr is not None:
                arr = np.ascontiguousarray(arr, dtype=np.int64)
                if arr.shape != (coords.shape[0],):
                    raise ValueError(f"{name} must have shape (N,)")
                arr.setflags(write=False)
            setattr(self, name, arr)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def has_provenance(self) -> bool:
        return self.parallel is not None and self.index_in_parallel is not None


def _as_coords(points) -> np.ndarray:
    if isinstance(points, PointSet):
        return points.coords
    return np.ascontiguousarray(points, dtype=float)


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
    if k < 1:
        raise ValueError("k must be >= 1")
    i = np.arange(k, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / k
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
