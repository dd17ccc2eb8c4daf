"""Piecewise-linear parallel-count models and the point sets they generate.

A model places 2M - 1 parallels between the two poles.  Parallel j
carries r(j) points, where r is continuous, piecewise linear on [0, 2M]
with integer breakpoints and integer coefficients, vanishes at 0, and is
symmetric about M.  The heights z_j are the unique choice for which
every point "owns" the same fraction of the total surface, which is what
makes the companion partition equal-area.

Everything that admits exact arithmetic is kept exact: r_j, N, the
partial counts N_j and the heights z_j are integers and Fractions.  The
floats derived from them live in one per-ring table, ``DiamondModel.rings``,
built once by ``validate``: each is rounded once from its exact integer
ratio, and ``generate`` and the partition take their floats from it.  The
poles are its rings of one point, so no reader special-cases them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import TWO_PI, PointSet


class ModelError(ValueError):
    """A model constraint was violated.  `code` identifies which one."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# Every distinct way validate() can reject a spec.
ERROR_CODES = frozenset({
    "m_too_small",
    "shape_mismatch",
    "non_integer",
    "t0_nonzero",
    "tn_not_m",
    "breakpoints_not_increasing",
    "alpha1_nonzero",
    "beta1_nonpositive",
    "negative_coefficient",
    "breakpoint_discontinuity",
    "theta_invalid",
})


@dataclass(frozen=True)
class ModelSpec:
    """Raw description of a parallel-count function.

    t, alpha, beta describe n linear pieces: on [t[l-1], t[l]] the count
    function is alpha[l-1] + beta[l-1] * x.  theta_policy controls the
    per-parallel rotation offsets: "zeros", "seed:<int>", or an explicit
    sequence of 2M - 1 angles.
    """

    M: int
    n: int
    t: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    theta_policy: str | tuple[float, ...] = "zeros"

    @property
    def is_simple(self) -> bool:
        """True for the quadratic-count instance r(x) = 4x (one piece)."""
        return self.n == 1 and self.alpha == (0,) and self.beta == (4,)

    def to_dict(self) -> dict:
        policy = self.theta_policy
        if isinstance(policy, tuple):
            policy = list(policy)
        return {
            "M": self.M,
            "n": self.n,
            "t": list(self.t),
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "theta_policy": policy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        if not isinstance(d, dict):
            raise ModelError("shape_mismatch",
                             f"model must be an object, got {type(d).__name__}")
        for key in ("t", "alpha", "beta"):
            if key in d and not isinstance(d[key], (list, tuple)):
                raise ModelError("shape_mismatch", f"model field {key} must be a list")
        try:
            policy = d.get("theta_policy", "zeros")
            if isinstance(policy, list) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in policy):
                policy = tuple(float(v) for v in policy)
            elif not isinstance(policy, str):
                raise ModelError("theta_invalid", "theta_policy must be a string or a "
                                 f"list of numbers, got {policy!r}")
            return cls(
                M=d["M"],
                n=d["n"],
                t=tuple(d["t"]),
                alpha=tuple(d["alpha"]),
                beta=tuple(d["beta"]),
                theta_policy=policy,
            )
        except KeyError as exc:
            raise ModelError("shape_mismatch", f"missing model field: {exc}") from exc


def simple_model(M: int, theta_policy: str | tuple[float, ...] = "zeros") -> ModelSpec:
    """The one-piece model r(x) = 4x, giving N = 4M^2 + 2 points."""
    return ModelSpec(M=M, n=1, t=(0, M), alpha=(0,), beta=(4,), theta_policy=theta_policy)


def _require_int(value, code: str, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ModelError(code, f"{what} must be an integer, got {value!r}")
    return int(value)


def resolve_thetas(policy: str | Sequence[float], p: int) -> np.ndarray:
    """Materialize rotation offsets for p parallels from a policy."""
    if isinstance(policy, str):
        if policy == "zeros":
            return np.zeros(p)
        if policy.startswith("seed:"):
            try:
                seed = int(policy[5:])
            except ValueError:
                raise ModelError("theta_invalid", f"bad seed in theta policy {policy!r}")
            if seed < 0:
                raise ModelError("theta_invalid", f"negative seed in theta policy {policy!r}")
            rng = np.random.default_rng(seed)
            return rng.uniform(0.0, TWO_PI, size=p)
        raise ModelError("theta_invalid", f"unknown theta policy {policy!r}")
    thetas = np.asarray(list(policy), dtype=float)
    if thetas.shape != (p,):
        raise ModelError(
            "theta_invalid",
            f"theta list must have one angle per parallel ({p}), got {thetas.shape}",
        )
    if not np.all(np.isfinite(thetas)):
        raise ModelError("theta_invalid", "theta angles must be finite")
    return thetas


@dataclass(frozen=True)
class Rings:
    """Read-only per-ring columns; row j describes ring j = 0..p + 1.

    The north pole (0) and the south pole (p + 1) are rings of one point,
    z = +-1 and theta = 0, whose cell is a polar cap.  r and first (N_j:
    the ring's first point index and first region id) are int64, theta the
    rotation offsets.  z is z_j, s the square root of 1 - z_j^2, and b the
    p + 3 boundaries b_k = 1 - 2 N_k / N (b_0 = 1, b_{p+2} = -1), ring j
    spanning (b_{j+1}, b_j]; z, b and 1 - z_j^2 are each the correctly
    rounded float of their exact ratio of integers.
    """

    r: np.ndarray
    first: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    s: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class DiamondModel:
    """A validated model with all derived exact quantities.

    Attributes
    ----------
    r : tuple of int
        Points per parallel, r[j - 1] for parallel j in 1..p.
    N : int
        Total number of points, 2 + sum(r).
    n_partial : tuple of int
        n_partial[j - 1] = N_j = 1 + sum(r_k for k < j), for j in 1..p + 1.
    z_exact : tuple of Fraction
        Heights of the parallels, strictly decreasing, antisymmetric.
    rings : Rings
        The ring facts as read-only arrays, with their floats, poles included.
    """

    spec: ModelSpec
    p: int
    r: tuple[int, ...]
    N: int
    n_partial: tuple[int, ...]
    z_exact: tuple[Fraction, ...]
    rings: Rings

    @property
    def theta(self) -> np.ndarray:
        """Rotation offsets of parallels 1..p, the parallel rows of the ring table."""
        return self.rings.theta[1:-1]

    @property
    def M(self) -> int:
        return self.spec.M

    @property
    def is_simple(self) -> bool:
        return self.spec.is_simple

    def partial_count(self, j: int) -> int:
        """N_j = 1 + sum of r_k over k < j, for 1 <= j <= p + 1."""
        if not 1 <= j <= self.p + 1:
            raise IndexError(f"partial-count index {j} outside 1..{self.p + 1}")
        return self.n_partial[j - 1]

    def height_z_exact(self, j: int) -> Fraction:
        if not 1 <= j <= self.p:
            raise IndexError(f"parallel index {j} outside 1..{self.p}")
        return self.z_exact[j - 1]


def _count_at(t: Sequence[int], alpha: Sequence[int], beta: Sequence[int], x: int) -> int:
    # Continuity across breakpoints makes the choice of segment at a
    # breakpoint immaterial; take the first segment containing x.
    for l in range(len(alpha)):
        if t[l] <= x <= t[l + 1]:
            return alpha[l] + beta[l] * x
    raise ValueError(f"x = {x} outside [{t[0]}, {t[-1]}]")


def validate(spec: ModelSpec) -> DiamondModel:
    """Check a spec against every model constraint and derive exact data.

    Raises ModelError with a distinct code per violated constraint; see
    ERROR_CODES.
    """
    M = _require_int(spec.M, "non_integer", "M")
    if M < 1:
        raise ModelError("m_too_small", f"M must be >= 1, got {M}")
    n = _require_int(spec.n, "non_integer", "n")
    if n < 1 or len(spec.alpha) != n or len(spec.beta) != n or len(spec.t) != n + 1:
        raise ModelError(
            "shape_mismatch",
            f"need len(t) = n + 1 and len(alpha) = len(beta) = n >= 1; "
            f"got n = {n}, lens = {len(spec.t)}, {len(spec.alpha)}, {len(spec.beta)}",
        )
    t = tuple(_require_int(v, "non_integer", "breakpoint") for v in spec.t)
    alpha = tuple(_require_int(v, "non_integer", "alpha") for v in spec.alpha)
    beta = tuple(_require_int(v, "non_integer", "beta") for v in spec.beta)

    if t[0] != 0:
        raise ModelError("t0_nonzero", f"t[0] must be 0, got {t[0]}")
    if t[-1] != M:
        raise ModelError("tn_not_m", f"t[n] must equal M = {M}, got {t[-1]}")
    if any(t[k] >= t[k + 1] for k in range(n)):
        raise ModelError("breakpoints_not_increasing", f"breakpoints not strictly increasing: {t}")
    if alpha[0] != 0:
        raise ModelError("alpha1_nonzero", f"alpha[0] must be 0, got {alpha[0]}")
    if beta[0] <= 0:
        raise ModelError("beta1_nonpositive", f"beta[0] must be > 0, got {beta[0]}")
    if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
        raise ModelError("negative_coefficient", "alpha and beta must be nonnegative")
    for l in range(n - 1):
        left = alpha[l] + beta[l] * t[l + 1]
        right = alpha[l + 1] + beta[l + 1] * t[l + 1]
        if left != right:
            raise ModelError(
                "breakpoint_discontinuity",
                f"count function jumps at t = {t[l + 1]}: {left} != {right}",
            )

    p = 2 * M - 1
    r = tuple(
        _count_at(t, alpha, beta, j if j <= M else 2 * M - j) for j in range(1, p + 1)
    )
    # The constraints force r >= 1 everywhere and monotone growth toward
    # the equator; these are consequences, so assert rather than raise.
    assert all(v >= 1 for v in r)
    assert all(r[j - 1] <= r[j] for j in range(1, M))
    assert r == r[::-1]

    N = 2 + sum(r)
    n_partial = tuple(itertools.accumulate(r, initial=1))

    # Rings 0..p + 1 over N_0 = 0, ..., N_{p+2} = N: z_j = num_j / (N - 1) with
    # num_j = N - r_j - 2 N_j, +-(N - 1) at the poles, strictly decreasing and antisymmetric.
    ring_r = (1, *r, 1)
    counts = (0, *n_partial, N)
    num = [N - rj - 2 * nj for rj, nj in zip(ring_r, counts)]
    assert all(a > b for a, b in zip(num, num[1:]))
    assert num == [-v for v in reversed(num)]
    z_exact = tuple(Fraction(v, N - 1) for v in num[1:-1])

    # The ring table: Python ints divide with one correct rounding and never
    # overflow, and (1 - z)(1 + z) as one ratio loses none of the tiny 1 - z^2
    # near the poles to cancellation.
    d = N - 1
    rings = Rings(
        r=np.array(ring_r, dtype=np.int64),
        first=np.array(counts[:-1], dtype=np.int64),
        theta=np.concatenate([[0.0], resolve_thetas(spec.theta_policy, p), [0.0]]),
        z=np.array([v / d for v in num]),
        s=np.sqrt([(d - v) * (d + v) / (d * d) for v in num]),
        b=np.array([(N - 2 * nk) / N for nk in counts]),
    )
    for column in vars(rings).values():
        column.setflags(write=False)

    return DiamondModel(
        spec=ModelSpec(M=M, n=n, t=t, alpha=alpha, beta=beta, theta_policy=spec.theta_policy),
        p=p,
        r=r,
        N=N,
        n_partial=n_partial,
        z_exact=z_exact,
        rings=rings,
    )


def generate(model: DiamondModel) -> PointSet:
    """Emit the point set: north pole, parallels 1..p top to bottom, south pole.

    Ring j carries r_j points at longitudes 2*pi*i/r_j + theta_j, i < r_j,
    the poles one each.  Point order and values are deterministic given
    the model (including its theta policy).
    """
    N, rings = model.N, model.rings
    parallel = np.repeat(np.arange(model.p + 2), rings.r)
    index = np.arange(N) - np.repeat(rings.first, rings.r)
    phi = TWO_PI * index / np.repeat(rings.r, rings.r) + np.repeat(rings.theta, rings.r)
    s = np.repeat(rings.s, rings.r)

    coords = np.empty((N, 3))
    coords[:, 0] = s * np.cos(phi)
    coords[:, 1] = s * np.sin(phi)
    coords[:, 2] = np.repeat(rings.z, rings.r)
    for fresh in (coords, parallel, index):
        fresh.setflags(write=False)  # PointSet keeps a read-only array without a copy
    return PointSet(coords, parallel=parallel, index_in_parallel=index)


@dataclass(frozen=True)
class ModelConstants:
    """Instance constants controlling the discrepancy and shape bounds.

    a1, a2 squeeze the point count: a1*M^2 <= N <= a2*M^2.  k1, k2 do the
    same per parallel: k1*r_j^2 <= N_j <= k2*r_j^2.  d1, d2 bound
    sqrt(N) times the canonical horizontal side of partition rectangles,
    e1, e2 the vertical sides, g1, g2 the diameters.  c1, c2 bound
    sqrt(N) times the spherical-cap discrepancy from below and above.

    The literal value (c^2 - c)/2 for a1 degenerates (<= 0) whenever
    c <= 1, which always holds since c = t_1/M <= 1; a1 then falls back
    to the instance-sharp ratio N/M^2, with a1_literal recording the
    degenerate value.  The fallback keeps every derived inequality true
    for integer models: slopes never exceed beta_1, so for beta_1 >= 2
    the k1_dot term alone certifies the per-parallel lower bound, and
    for beta_1 = 1 the count N stays near M^2, capping k1_tilde safely.
    """

    A: float
    c: float
    a1: float
    a2: float
    k1: float
    k2: float
    d1: float
    d2: float
    e1: float
    e2: float
    g1: float
    g2: float
    c1: float
    c2: float
    a1_literal: float
    a1_fallback_used: bool
    k1_dot: float
    k1_tilde: float
    k2_dot: float
    k2_tilde: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def model_constants(model: DiamondModel) -> ModelConstants:
    """Compute the instance constants for a model with M >= 2.

    For M = 1 the slope ratio c = t_1/M degenerates to the whole-range
    value and none of the bounds say anything useful, so this raises.
    """
    if model.M < 2:
        raise ValueError("model constants need M >= 2")
    spec = model.spec
    M = model.M
    alpha1, beta1 = spec.alpha[0], spec.beta[0]

    A = max(2.0, float(max(spec.beta)), max(spec.alpha) / M)
    c = spec.t[1] / M
    a2 = 4.0 * A

    a1_literal = (c * c - c) / 2.0
    a1_fallback = a1_literal <= 0.0
    a1 = a1_literal if not a1_fallback else model.N / M**2

    k1_dot = 1.0 / (2.0 * (beta1**2 + 2 * alpha1 * beta1 + alpha1**2))
    k2_dot = 1.0
    k1_tilde = a1 / (4.0 * A * A)
    k2_tilde = a2 / (c * c)
    k1 = min(k1_tilde, k1_dot)
    k2 = max(k2_tilde, k2_dot)

    d1 = 2.0 * math.sqrt(2.0) * math.pi * math.sqrt(k1)
    d2 = 4.0 * math.pi * math.sqrt(k2)
    # Vertical sides: width 2 r_j / N in height, stretched by at most the
    # reciprocal slant 1/sqrt(1 - h^2); the pieces below are provable
    # per-collar bounds, with the equator handled separately.
    e2 = 4.0 * math.pi / d1
    e1 = min(beta1 / ((beta1 + A) * math.sqrt(k2)), 2.0 * c / math.sqrt(a2))
    g1 = d1  # a diameter is at least the longer horizontal side
    g2 = math.sqrt(d2 * d2 + e2 * e2)

    c2 = 8.0 / math.sqrt(a1) + 2.0 * math.pi / d1
    c1 = c / (2.0 * math.sqrt(a2))

    return ModelConstants(
        A=A, c=c, a1=a1, a2=a2, k1=k1, k2=k2, d1=d1, d2=d2,
        e1=e1, e2=e2, g1=g1, g2=g2, c1=c1, c2=c2,
        a1_literal=a1_literal, a1_fallback_used=a1_fallback,
        k1_dot=k1_dot, k1_tilde=k1_tilde, k2_dot=k2_dot, k2_tilde=k2_tilde,
    )
