"""The public API: every exported name, and the scalar copies and thin
wrappers that were removed because the vectorized kernels compute the same
things.  Growing the API back needs an edit here."""

import dataclasses
import inspect

import pytest

import diamondsphere as ds
from diamondsphere import ensemble, geometry, metrics, partition

PUBLIC = [
    "BOUNDARY_TOL", "DiamondModel", "DuplicatePointError", "MEAN_CHORD",
    "MetricsReport", "ModelConstants", "ModelError", "ModelSpec",
    "NORTH_POLE", "Partition", "PointSet", "Region", "SOUTH_POLE", "STOLARSKY_CONSTANT",
    "SideLengths", "SphericalCap", "SupDiscrepancy", "UnitVec", "VerificationFailure",
    "build_partition", "certify", "compute_metrics", "count_in_cap", "covering_radius",
    "covering_upper_bound", "equatorial_discrepancy", "generate",
    "l2_discrepancy_quadrature", "l2_discrepancy_stolarsky", "log_energy",
    "model_constants", "partition_records", "polar_cap_profile", "polar_cap_radius",
    "region_area", "region_area_fraction_exact", "resolve_thetas", "riesz_energy",
    "separation", "side_lengths", "simple_model", "spiral_points", "sum_distances",
    "sup_discrepancy_estimate", "sup_discrepancy_exact", "validate", "verify_matching",
]

REMOVED = [
    (geometry, "DegenerateCapError"),
    (geometry, "cap_area"),
    (geometry, "chord_distance"),
    (geometry, "circumcap"),
    (geometry, "pair_diametral_cap"),
    (metrics, "CoveringRadius"),
    (metrics, "mean_chord_monte_carlo"),
    (metrics, "mesh_ratio"),
    (metrics, "stolarsky_constant_estimate"),
    (partition, "MatchingReport"),
]

REMOVED_METHODS = [
    (geometry.PointSet, "point"),
    (geometry.PointSet, "parallel"),
    (geometry.PointSet, "index_in_parallel"),
    (geometry.PointSet, "has_provenance"),
    (geometry.UnitVec, "dot"),
    (geometry.UnitVec, "antipode"),
    (geometry.UnitVec, "phi"),
    (ensemble.DiamondModel, "r_at"),
    (ensemble.DiamondModel, "height_z"),
    (ensemble.DiamondModel, "z"),
    (ensemble.DiamondModel, "r"),
    (ensemble.DiamondModel, "n_partial"),
    (ensemble.DiamondModel, "theta"),
    (ensemble.DiamondModel, "partial_count"),
    (ensemble.DiamondModel, "height_z_exact"),
    (partition.Partition, "collars"),
    (partition.Partition, "locate"),
    (partition.Partition, "region_of_point"),
    (partition.Partition, "b_exact"),
    (partition.Partition, "h_exact"),
    (partition.Partition, "n_regions"),
]


def _instance(cls):
    """An instance of cls: hasattr on the class sees neither dataclass
    fields nor instance attributes."""
    model = ds.validate(ds.simple_model(1))
    return {geometry.PointSet: ds.generate(model), geometry.UnitVec: ds.NORTH_POLE,
            ensemble.DiamondModel: model, partition.Partition: ds.build_partition(model)}[cls]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 47
    assert sorted(ds.__all__) == PUBLIC
    for name in ds.__all__:
        assert hasattr(ds, name), name


@pytest.mark.parametrize("module, name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_names_stay_removed(module, name):
    assert not hasattr(module, name)
    assert not hasattr(ds, name)


@pytest.mark.parametrize("cls, name", REMOVED_METHODS,
                         ids=[f"{c.__name__}.{n}" for c, n in REMOVED_METHODS])
def test_removed_methods_stay_removed(cls, name):
    assert not hasattr(cls, name)
    assert not hasattr(_instance(cls), name)


def test_model_holds_the_ring_table_and_exact_heights_only():
    """Every ring count lives in DiamondModel.rings; a partition is built
    from the model alone."""
    fields = [f.name for f in dataclasses.fields(ensemble.DiamondModel)]
    assert fields == ["spec", "p", "N", "z_exact", "rings"]
    assert "partition" not in inspect.signature(ds.compute_metrics).parameters


@pytest.mark.parametrize("name", ["riesz_energy", "log_energy", "sum_distances",
                                  "l2_discrepancy_stolarsky", "compute_metrics"])
def test_pair_sweep_functions_take_no_worker_count(name):
    assert "workers" not in inspect.signature(getattr(ds, name)).parameters


@pytest.mark.parametrize("name", ["compute_metrics", "l2_discrepancy_stolarsky"])
def test_metrics_take_one_source_and_no_model(name):
    """A model stands for its own ensemble: one positional source, a point
    set or a model, and no (points, model) pair that could disagree."""
    params = inspect.signature(getattr(ds, name)).parameters
    assert [p.name for p in params.values() if p.kind is not p.KEYWORD_ONLY] == ["source"]
    assert params["source"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert "model" not in params


def test_covering_radius_takes_the_points_only():
    """A partition's certified bound is covering_upper_bound's alone."""
    assert list(inspect.signature(ds.covering_radius).parameters) == ["points"]


def test_equatorial_discrepancy_takes_the_model_only():
    """The hemisphere's count is a fact of the model's rings, so no points
    can stand beside it."""
    assert list(inspect.signature(ds.equatorial_discrepancy).parameters) == ["model"]
