"""Model validation, exact heights, point generation, instance constants."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import generate_reference, make_random_spec
from diamondsphere import (
    ModelError,
    ModelSpec,
    build_partition,
    generate,
    model_constants,
    resolve_thetas,
    simple_model,
    validate,
)
from test_partition import _reference_models


@pytest.fixture(scope="module")
def table_models():
    """One-piece M = 1..60 with and without rotations, and 300 random models."""
    return ([validate(simple_model(M, theta_policy=theta))
             for M in range(1, 61) for theta in ("zeros", "seed:3")]
            + _reference_models()[60:])


def test_simple_model_counting_closed_forms():
    for M in (1, 2, 3, 5, 11, 40):
        model = validate(simple_model(M))
        assert model.N == 4 * M * M + 2
        assert model.p == 2 * M - 1
        for j in range(1, M + 2):
            assert model.partial_count(j) == 2 * j * j - 2 * j + 1
        assert model.r[:M] == tuple(4 * j for j in range(1, M + 1))


def test_simple_model_heights_small_cases():
    m2 = validate(simple_model(2))
    assert m2.z_exact == (Fraction(12, 17), Fraction(0), Fraction(-12, 17))
    m3 = validate(simple_model(3))
    assert m3.z_exact[:3] == (Fraction(32, 37), Fraction(20, 37), Fraction(0))


def test_heights_antisymmetric_decreasing_zero_at_equator():
    rng = np.random.default_rng(11)
    specs = [simple_model(M) for M in (1, 2, 7, 23)]
    specs += [make_random_spec(rng) for _ in range(40)]
    for spec in specs:
        model = validate(spec)
        z = model.z_exact
        p, M = model.p, model.M
        assert z[M - 1] == 0
        assert all(z[k] > z[k + 1] for k in range(p - 1))
        assert all(z[k] == -z[p - 1 - k] for k in range(p))
        assert model.r == model.r[::-1]
        assert all(model.r[k] <= model.r[k + 1] for k in range(M - 1))
        assert model.N == 2 + sum(model.r)


def test_height_accessors_match_exact():
    model = validate(simple_model(4))
    for j in range(1, model.p + 1):
        assert float(model.z_exact[j - 1]) == float(model.height_z_exact(j))
    with pytest.raises(IndexError):
        model.height_z_exact(model.p + 1)


def test_generate_octahedron_vertices():
    pts = generate(validate(simple_model(1)))
    want = {(0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
            (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)}
    got = {tuple(np.round(row, 15)) for row in pts.coords}
    assert {(abs(a), abs(b), abs(c)) for a, b, c in got} == \
        {(abs(a), abs(b), abs(c)) for a, b, c in want}
    assert len(got) == 6
    assert np.allclose(np.linalg.norm(pts.coords, axis=1), 1.0, atol=1e-15)


def test_generate_layout_and_provenance():
    model = validate(simple_model(3, theta_policy="seed:5"))
    pts = generate(model)
    assert len(pts) == model.N
    assert pts.has_provenance
    assert pts.parallel[0] == 0 and pts.parallel[-1] == model.p + 1
    for j in range(1, model.p + 1):
        sel = pts.parallel == j
        assert int(sel.sum()) == model.r[j - 1]
        ring = pts.coords[sel]
        assert np.allclose(ring[:, 2], float(model.z_exact[j - 1]), atol=1e-15)
        phis = np.arctan2(ring[:, 1], ring[:, 0])
        want = model.theta[j - 1] + 2.0 * np.pi * np.arange(model.r[j - 1]) / model.r[j - 1]
        diff = (phis - want + np.pi) % (2.0 * np.pi) - np.pi
        assert np.max(np.abs(diff)) < 1e-12
        assert np.array_equal(pts.index_in_parallel[sel], np.arange(model.r[j - 1]))


def test_theta_policies():
    assert np.array_equal(resolve_thetas("zeros", 5), np.zeros(5))
    a = resolve_thetas("seed:42", 7)
    b = resolve_thetas("seed:42", 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, resolve_thetas("seed:43", 7))
    explicit = resolve_thetas([0.1, 0.2, 0.3], 3)
    assert np.allclose(explicit, [0.1, 0.2, 0.3])
    with pytest.raises(ModelError):
        resolve_thetas([0.1, 0.2], 3)
    with pytest.raises(ModelError):
        resolve_thetas("seed:x", 3)
    with pytest.raises(ModelError, match="negative seed"):
        resolve_thetas("seed:-1", 3)
    with pytest.raises(ModelError):
        resolve_thetas("random", 3)
    with pytest.raises(ModelError):
        resolve_thetas([0.1, float("nan"), 0.3], 3)


def test_spec_roundtrip_through_json():
    spec = ModelSpec(M=5, n=2, t=(0, 2, 5), alpha=(0, 4), beta=(3, 1),
                     theta_policy=(0.1, 0.2, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0))
    blob = json.dumps(spec.to_dict())
    back = ModelSpec.from_dict(json.loads(blob))
    assert back == spec
    assert validate(back).N == validate(spec).N


@pytest.mark.parametrize("patch,code", [
    (dict(M=0), "m_too_small"),
    (dict(M=2.5), "non_integer"),
    (dict(t=(1, 3)), "t0_nonzero"),
    (dict(t=(0, 4)), "tn_not_m"),
    (dict(n=2, t=(0, 2, 2, 3), alpha=(0, 0), beta=(2, 2)), "shape_mismatch"),
    (dict(n=2, t=(0, 3, 3), alpha=(0, 0), beta=(2, 2)), "breakpoints_not_increasing"),
    (dict(alpha=(1,)), "alpha1_nonzero"),
    (dict(beta=(0,)), "beta1_nonpositive"),
    (dict(n=2, t=(0, 1, 3), alpha=(0, -1), beta=(2, 3)), "negative_coefficient"),
    (dict(n=2, t=(0, 1, 3), alpha=(0, 1), beta=(2, 2)), "breakpoint_discontinuity"),
])
def test_validate_error_codes(patch, code):
    base = dict(M=3, n=1, t=(0, 3), alpha=(0,), beta=(2,), theta_policy="zeros")
    base.update(patch)
    with pytest.raises(ModelError) as err:
        validate(ModelSpec(**base))
    assert err.value.code == code


def test_validate_random_models_property():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        model = validate(make_random_spec(rng))
        # Total and per-parallel counts never leave the quadratic band.
        if model.M >= 2:
            cst = model_constants(model)
            # Fallback a1 = N / M**2 makes the lower bound an equality,
            # so allow float round-off on the products.
            slack = 1.0 + 1e-12
            assert cst.a1 * model.M**2 <= model.N * slack
            assert model.N <= cst.a2 * model.M**2 * slack
            for j in range(1, model.M + 1):
                nj = model.partial_count(j)
                rj = model.r[j - 1]
                assert cst.k1 * rj * rj <= nj * slack
                assert nj <= cst.k2 * rj * rj * slack
            assert cst.k1 > 0 and cst.d1 > 0
            assert cst.d1 <= cst.d2 and cst.g1 <= cst.g2
            assert 0 < cst.e1 and 0 < cst.c1


def test_model_constants_simple_values():
    cst = model_constants(validate(simple_model(2)))
    assert cst.A == 4.0
    assert cst.c == 1.0
    assert cst.a1_fallback_used
    assert math.isclose(cst.a1, 18.0 / 4.0, rel_tol=1e-15)
    assert cst.a2 == 16.0
    assert math.isclose(cst.k1_dot, 1.0 / 32.0, rel_tol=1e-15)
    assert cst.k2 == 16.0
    assert math.isclose(cst.d1, math.pi / 2.0, rel_tol=1e-15)
    assert math.isclose(cst.d2, 16.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(cst.c1, 1.0 / 8.0, rel_tol=1e-15)
    table = cst.to_dict()
    assert table["k1"] == cst.k1
    assert table["a1_fallback_used"] is True


def test_model_constants_requires_two_parallels():
    with pytest.raises(ValueError):
        model_constants(validate(simple_model(1)))


def test_simple_model_is_simple_flag():
    assert validate(simple_model(3)).is_simple
    other = ModelSpec(M=3, n=1, t=(0, 3), alpha=(0,), beta=(2,))
    assert not validate(other).is_simple


def test_generate_equals_the_per_parallel_reference_bit_for_bit(table_models):
    for model in table_models:
        got, want = generate(model), generate_reference(model)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.parallel.tobytes() == want.parallel.tobytes()
        assert got.index_in_parallel.tobytes() == want.index_in_parallel.tobytes()


def test_ring_table_rounds_each_exact_value_once(table_models):
    """Row j is ring j = 0..p + 1: the north pole, parallels 1..p, the south
    pole, each pole a ring of one point at height +-1 with theta 0."""
    for model in table_models:
        rings, b_exact = model.rings, build_partition(model).b_exact
        z_exact = (Fraction(1), *model.z_exact, Fraction(-1))
        assert rings.r.tolist() == [1, *model.r, 1]
        assert rings.first.tolist() == [0, *model.n_partial]
        assert rings.theta.tolist() == [0.0, *model.theta.tolist(), 0.0]
        assert np.shares_memory(model.theta, rings.theta)
        assert rings.z.tolist() == [float(z) for z in z_exact]
        assert rings.s.tolist() == [math.sqrt(float((1 - z) * (1 + z))) for z in z_exact]
        assert rings.b.tolist() == [1.0, *(float(b) for b in b_exact), -1.0]
        assert {len(column) for column in vars(rings).values()} == {model.p + 2, model.p + 3}
        for column in vars(rings).values():
            assert not column.flags.writeable
