"""The ring-by-ring CSV writers against their per-row references, byte for byte."""

import numpy as np
import pytest

from conftest import make_random_spec, write_partition_csv_reference, write_points_csv_reference
from diamondsphere import PointSet, build_partition, generate, simple_model, validate
from diamondsphere.cli import write_partition_csv, write_points_csv


def _models():
    models = {f"M{M}-{theta}": validate(simple_model(M, theta_policy=theta))
              for M in (1, 2, 9, 40) for theta in ("zeros", "seed:3")}
    rng = np.random.default_rng(17)
    for k in range(24):
        models[f"random-{k}"] = validate(make_random_spec(rng, 1, 20, f"seed:{k}"))
    return models


MODELS = _models()


def _same_bytes(tmp_path, write, reference, obj) -> bool:
    path, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    write(str(path), obj)
    reference(str(ref), obj)
    return path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("label", list(MODELS))
def test_points_csv_matches_per_row_reference(label, tmp_path):
    points = generate(MODELS[label])
    assert _same_bytes(tmp_path, write_points_csv, write_points_csv_reference, points)


@pytest.mark.parametrize("label", list(MODELS))
def test_partition_csv_matches_per_record_reference(label, tmp_path):
    part = build_partition(MODELS[label])
    assert _same_bytes(tmp_path, write_partition_csv, write_partition_csv_reference, part)


def test_points_csv_of_points_off_rings(tmp_path):
    """Heights that form no rings, runs of one and of several rows, and
    signed zeros, which print as 0 and -0 in both z columns."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal((40, 3))
    coords = np.vstack([v / np.linalg.norm(v, axis=1, keepdims=True),
                        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, -0.0],
                         [-1.0, 0.0, -0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]])
    n = len(coords)
    points = PointSet(coords, parallel=np.arange(n) % 3, index_in_parallel=np.arange(n))
    assert _same_bytes(tmp_path, write_points_csv, write_points_csv_reference, points)
    z_cols = [line.split(",")[5::2] for line in (tmp_path / "out.csv").read_text().splitlines()]
    assert z_cols[41:46] == [["0", "0"], ["0", "0"], ["-0", "-0"], ["-0", "-0"], ["0", "0"]]

