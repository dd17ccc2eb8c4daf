"""Equal-area partition: exact areas, ownership conventions, matching,
side lengths, covering bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    covering_upper_bound_reference,
    locate_many_reference,
    make_random_spec,
    matching_reference,
    random_unit_points,
)
from diamondsphere import (
    build_partition,
    covering_upper_bound,
    generate,
    partition_records,
    polar_cap_radius,
    region_area,
    region_area_fraction_exact,
    side_lengths,
    simple_model,
    validate,
    verify_matching,
)
from diamondsphere.partition import _collar_far_radius


def test_region_inventory_m2(simple_suite):
    _, _, part = simple_suite[2]
    assert len(part) == 18
    kinds = [part.region(rid).kind for rid in range(18)]
    assert kinds[0] == "cap_north" and kinds[-1] == "cap_south"
    assert all(k == "rect" for k in kinds[1:-1])
    assert part.h_exact == (Fraction(8, 9), Fraction(4, 9))
    equator = {"h_hi": part.b_exact[1], "h_lo": part.b_exact[2]}
    assert equator["h_hi"] == Fraction(4, 9)
    assert equator["h_lo"] == Fraction(-4, 9)


def test_every_region_has_exact_area_fraction(simple_suite):
    for M, (model, _, part) in simple_suite.items():
        target = Fraction(1, model.N)
        area = 4.0 * math.pi / model.N
        for region in part:
            assert region_area_fraction_exact(part, region) == target
            assert math.isclose(region_area(region), area, rel_tol=1e-12)


def test_exact_area_fraction_random_models():
    rng = np.random.default_rng(5)
    for _ in range(12):
        model = validate(make_random_spec(rng, m_hi=12))
        part = build_partition(model)
        target = Fraction(1, model.N)
        for region in part:
            assert region_area_fraction_exact(part, region) == target


def test_region_height_ownership_upper_edge_closed(simple_suite):
    model, _, part = simple_suite[2]
    h1 = float(part.h_exact[0])  # 8/9, cap floor and first collar roof
    s = math.sqrt(1.0 - h1 * h1)
    inside_first_cell = part.region(1)
    phi = (inside_first_cell.phi_lo + inside_first_cell.phi_hi) / 2.0
    at_roof = [s * math.cos(phi), s * math.sin(phi), h1]
    rid = part.locate_many(np.array([at_roof]) / np.linalg.norm(at_roof))[0]
    assert part.region(rid).kind == "rect"
    assert part.region(rid).h_hi_exact == part.h_exact[0]
    # Slightly above the roof lies the cap.
    above = [s * math.cos(phi), s * math.sin(phi), h1 + 1e-9]
    rid_up = part.locate_many(np.array([above]) / np.linalg.norm(above))[0]
    assert rid_up == 0


def test_region_phi_ownership_low_edge_closed(simple_suite):
    model, _, part = simple_suite[2]
    reg = part.region(1)
    # Collar 1 has r = 4, theta = 0, so phi_lo = pi/4 for cell 0, and a
    # probe with x == y hits that longitude bit-exactly via atan2(1, 1).
    assert reg.phi_lo == math.atan2(1.0, 1.0)
    h_mid = (reg.h_lo + reg.h_hi) / 2.0
    w = h_mid * math.sqrt(2.0) / math.sqrt(1.0 - h_mid * h_mid)
    on_lo = np.array([1.0, 1.0, w])
    on_lo /= np.linalg.norm(on_lo)
    assert part.locate_many(on_lo[None])[0] == reg.region_id
    just_below = np.array([1.0 + 1e-9, 1.0, w])
    just_below /= np.linalg.norm(just_below)
    assert part.locate_many(just_below[None])[0] != reg.region_id


def test_locate_total_on_random_directions(simple_suite):
    rng = np.random.default_rng(3)
    model, _, part = simple_suite[3]
    probes = random_unit_points(rng, 4000)
    ids = part.locate_many(probes)
    assert ids.min() >= 0 and ids.max() <= model.N - 1
    loop = [part.locate_many(probes[i][None])[0] for i in range(0, 4000, 191)]
    assert np.array_equal(ids[::191], loop)
    assert part.locate_many(np.array([[0.0, 0.0, 1.0]]))[0] == 0
    assert part.locate_many(np.array([[0.0, 0.0, -1.0]]))[0] == model.N - 1


def test_matching_is_bijection(simple_suite):
    for M, (model, points, part) in simple_suite.items():
        report = verify_matching(part, points)
        assert report.ok, report.failures[:4]
        assert report.interleaving_ok and report.bijection_ok
        assert len(np.unique(report.point_to_region)) == model.N


def test_matching_random_models_with_rotations():
    rng = np.random.default_rng(17)
    for k in range(10):
        spec = make_random_spec(rng, m_hi=15, theta_policy=f"seed:{k}")
        model = validate(spec)
        part = build_partition(model)
        report = verify_matching(part, generate(model))
        assert report.ok, report.failures[:4]


def test_interleaving_reads_the_collar_heights():
    model = validate(simple_model(3))
    part = build_partition(model)
    j, b = 2, list(part.b_exact)
    z = model.height_z_exact(j)
    b[j] = (z + b[j - 1]) / 2
    part.b_exact = tuple(b)
    report = verify_matching(part, generate(model))
    assert not report.interleaving_ok and not report.ok
    assert report.failures[0].startswith(f"parallel {j}: z = {z} outside (")


def test_matching_convention_point_vs_region(simple_suite):
    model, points, part = simple_suite[2]
    point_to_region = verify_matching(part, points).point_to_region
    # Within a ring of r cells, region i holds point (i + 1) mod r, so
    # point i's home is one cell back.
    for col in ({"r": r, "first_region": n, "first_point": n}
                for r, n in zip(model.r, model.n_partial)):
        r = col["r"]
        for i in range(r):
            reg = part.region(col["first_region"] + i)
            assert reg.matched_point == col["first_point"] + (i + 1) % r
            home = point_to_region[col["first_point"] + i]
            assert home == col["first_region"] + (i - 1) % r


def test_side_lengths_m2_closed_forms(simple_suite):
    _, _, part = simple_suite[2]
    s1 = side_lengths(part, 1)
    top = 2.0 * math.pi * math.sqrt(1.0 - (8.0 / 9.0) ** 2) / 4.0
    bottom = 2.0 * math.pi * math.sqrt(1.0 - (4.0 / 9.0) ** 2) / 4.0
    assert math.isclose(s1.horizontal_lo, top, rel_tol=1e-15)
    assert math.isclose(s1.horizontal_hi, bottom, rel_tol=1e-15)
    assert math.isclose(s1.vertical,
                        math.acos(4.0 / 9.0) - math.acos(8.0 / 9.0),
                        rel_tol=1e-15)
    # Max corner chord: the bottom corners, a quarter turn apart.
    corner_chord = math.sqrt(1.0 - (4.0 / 9.0) ** 2) * math.sqrt(2.0)
    assert math.isclose(s1.diameter, corner_chord, rel_tol=1e-12)
    s2 = side_lengths(part, 2)
    assert math.isclose(s2.horizontal_lo, s2.horizontal_hi, rel_tol=1e-15)
    with pytest.raises(IndexError):
        side_lengths(part, 3)


def test_canonical_horizontal_side_band_small():
    lo, hi = math.pi / math.sqrt(2.0), math.pi * math.sqrt(2.0)
    for M in (1, 2, 3, 10, 50):
        model = validate(simple_model(M))
        part = build_partition(model)
        sq = math.sqrt(model.N)
        for j in range(1, M + 1):
            v = sq * side_lengths(part, j).horizontal_lo
            assert lo < v < hi


def test_polar_cap_radius_value(simple_suite):
    model, _, part = simple_suite[2]
    assert math.isclose(polar_cap_radius(part),
                        2.0 * math.asin(1.0 / math.sqrt(18.0)), rel_tol=1e-15)


def test_covering_upper_bound_certifies(simple_suite):
    rng = np.random.default_rng(8)
    for M in (1, 2, 4, 6):
        model, points, part = simple_suite[M]
        ub = covering_upper_bound(part)
        probes = random_unit_points(rng, 3000)
        d2 = 2.0 - 2.0 * probes @ points.coords.T
        far = math.sqrt(max(0.0, float(d2.min(axis=1).max())))
        assert far <= ub + 1e-12
        assert ub < 4.0 / math.sqrt(model.N) + 2.0 / model.N


def test_covering_upper_bound_octahedron(simple_suite):
    _, _, part = simple_suite[1]
    assert math.isclose(covering_upper_bound(part), 0.9725777329399127,
                        rel_tol=1e-12)


def test_partition_records_complete(simple_suite):
    model, _, part = simple_suite[3]
    records = partition_records(part)
    assert len(records) == model.N
    assert [rec["region_id"] for rec in records] == list(range(model.N))
    matched = sorted(rec["matched_point"] for rec in records)
    assert matched == list(range(model.N))
    rect = records[1]
    assert Fraction(rect["h_hi_exact"]) == part.h_exact[0]
    assert set(rect) == {"region_id", "kind", "j", "i", "phi_lo", "phi_hi",
                         "h_lo", "h_hi", "h_lo_exact", "h_hi_exact",
                         "matched_point"}


def test_region_index_errors(simple_suite):
    model, _, part = simple_suite[2]
    with pytest.raises(IndexError):
        part.region(model.N)


def test_region_areas_sum_to_sphere(simple_suite):
    rng = np.random.default_rng(12)
    parts = [simple_suite[M][2] for M in (1, 2, 6)]
    parts += [build_partition(validate(make_random_spec(rng, m_hi=10)))
              for _ in range(3)]
    for part in parts:
        areas = [region_area(part.region(i)) for i in range(part.n_regions)]
        total = math.fsum(areas)
        assert abs(total - 4.0 * math.pi) <= 1e-12 * 4.0 * math.pi
        assert max(areas) / min(areas) <= 1.0 + 1e-12


def test_scaled_diameter_bounded_and_stable():
    """sqrt(N) times the largest region diameter stays bounded.

    The widest cell is always the ring-1 rectangle (4 points, quarter
    turns); its scaled diameter climbs toward 2*sqrt(10) and never
    reaches the derived diameter constant g2.
    """
    from diamondsphere import model_constants

    limit = 2.0 * math.sqrt(10.0)
    prev = 0.0
    for M in range(2, 41):
        model = validate(simple_model(M))
        part = build_partition(model)
        h1 = float(part.h_exact[0])
        diam = 2.0 * math.sqrt(1.0 - h1 * h1)
        for j in range(1, M + 1):
            diam = max(diam, side_lengths(part, j).diameter)
        scaled = math.sqrt(model.N) * diam
        assert scaled <= model_constants(model).g2
        assert scaled <= limit + 1e-9
        assert scaled >= prev - 1e-9
        prev = scaled
    assert 6.2 < prev < limit


def recurrence_collar_heights(model):
    """(h_hi, h_lo) per ring from the recurrence the partition once used:
    h_1 = 1 - 2/N, h_{j+1} = h_j - 2 r_j / N for j < M, the equator ring
    down to -h_M, and ring 2M - j mirroring ring j with heights negated."""
    N, M = model.N, model.M
    h = [1 - Fraction(2, N)]
    for j in range(1, M):
        h.append(h[-1] - Fraction(2 * model.r[j - 1], N))
    heights = []
    for jp in range(1, model.p + 1):
        j = min(jp, 2 * M - jp)
        upper, lower = h[j - 1], (h[j] if j < M else -h[M - 1])
        if jp > M:
            upper, lower = -lower, -upper
        heights.append((upper, lower))
    return h, heights


def _reference_models():
    rng = np.random.default_rng(8)
    return ([validate(simple_model(M)) for M in range(1, 61)]
            + [validate(make_random_spec(rng, m_lo=1, m_hi=40)) for _ in range(300)])


def test_boundary_formula_equals_the_recurrence_and_mirror_rule():
    for model in _reference_models():
        part = build_partition(model)
        h, heights = recurrence_collar_heights(model)
        assert part.h_exact == tuple(h)
        assert list(zip(part.b_exact, part.b_exact[1:])) == heights
        hf = np.array([float(v) for v in h])
        want = np.concatenate([[-1.0], -hf, hf[::-1], [1.0]])
        assert part._asc_bounds.tobytes() == want.tobytes()


def _differential_models():
    rng = np.random.default_rng(15)
    return ([validate(simple_model(M, theta_policy=theta))
             for M in (1, 2, 3, 40) for theta in ("zeros", "seed:3")]
            + [validate(make_random_spec(rng, m_lo=1, m_hi=40, theta_policy=f"seed:{k}"))
               for k in range(300)])


def _sphere_rows(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _locate_probes(model, rng) -> np.ndarray:
    """The poles, every boundary height and one ulp either side of it (four
    random longitudes each), every cell-edge longitude at its parallel's
    height and one ulp either side, and 2,000 random directions."""
    b = model.rings.b
    heights = np.concatenate([b, np.nextafter(b, 2.0), np.nextafter(b, -2.0)])
    heights = np.repeat(heights[np.abs(heights) <= 1.0], 4)
    r = np.repeat(np.array(model.r), model.r)
    i = np.arange(1, model.N - 1) - np.repeat(np.array(model.n_partial[:-1]), model.r)
    edges = (np.repeat(model.theta, model.r) + (2 * i + 1) * math.pi / r) % (2 * math.pi)
    edges = np.concatenate([edges, np.nextafter(edges, 10.0), np.nextafter(edges, -10.0)])
    z = np.tile(np.repeat([float(v) for v in model.z_exact], model.r), 3)
    return np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                      _sphere_rows(heights, rng.uniform(0.0, 2 * math.pi, len(heights))),
                      _sphere_rows(z, edges), random_unit_points(rng, 2000)])


def test_ring_table_readers_equal_the_pole_branch_references():
    """locate_many, verify_matching's expected ids and covering_upper_bound
    read the poles as rings of one cell; each equals its reference with the
    poles set apart, on probes at and beside every boundary and cell edge.
    The cap rim never decides the covering bound, so the pole rows of
    _collar_far_radius are checked on their own."""
    rng = np.random.default_rng(16)
    for model in _differential_models():
        part, points = build_partition(model), generate(model)
        probes = np.vstack([points.coords, _locate_probes(model, rng)])
        assert np.array_equal(part.locate_many(probes), locate_many_reference(part, probes))
        report = verify_matching(part, points)
        assert report.ok, report.failures[:4]
        assert np.array_equal(report.point_to_region, matching_reference(model))
        assert covering_upper_bound(part) == covering_upper_bound_reference(part)
        b, z = model.rings.b.tolist(), model.rings.z.tolist()
        for j in (0, model.p + 1):  # a cap's farthest point is its rim
            assert _collar_far_radius(b[j], b[j + 1], z[j], 1) == math.sqrt(2.0 - 2.0 * b[1])
