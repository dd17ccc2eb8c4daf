"""Metamorphic check: adding gamma to every theta_j rotates the ensemble and
its partition by gamma about the z axis and changes nothing else."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_random_spec, parallels_reference, random_unit_points
from diamondsphere import (
    build_partition,
    certify,
    covering_upper_bound,
    generate,
    polar_cap_profile,
    simple_model,
    validate,
)
from diamondsphere.geometry import TWO_PI

# Each angle 2*pi*i/r + theta rounds to half an ulp of at most 6*pi in
# either model, and cos, sin and the rotation add a few eps.
ROTATION_TOL = 8 * math.ulp(TWO_PI)


def _models():
    rng = np.random.default_rng(41)
    return ([validate(simple_model(M, theta_policy="seed:3")) for M in (3, 20)]
            + [validate(make_random_spec(rng, m_lo=2, m_hi=12, theta_policy=f"seed:{k}"))
               for k in (1, 2)])


MODELS = _models()
MODEL_IDS = [f"M{m.M}-n{m.spec.n}-{m.spec.theta_policy}" for m in MODELS]


def _rotation(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("gamma", [0.7, 5.9])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_theta_shift_rotates_about_the_z_axis(model, gamma):
    theta = parallels_reference(model.spec).theta + gamma
    shifted = validate(dataclasses.replace(model.spec, theta_policy=tuple(theta.tolist())))
    rot = _rotation(gamma)
    points, moved = generate(model), generate(shifted)
    assert np.max(np.abs(moved.coords - points.coords @ rot.T)) <= ROTATION_TOL

    part, moved_part = build_partition(model), build_partition(shifted)
    assert certify(moved_part, moved) == certify(part, points)
    assert covering_upper_bound(moved_part) == covering_upper_bound(part)
    assert polar_cap_profile(shifted) == polar_cap_profile(model)

    probes = np.vstack([points.coords, random_unit_points(np.random.default_rng(6), 2000)])
    assert np.array_equal(moved_part.locate_many(probes @ rot.T), part.locate_many(probes))
