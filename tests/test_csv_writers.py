"""The ring-by-ring CSV writers against their per-row references, byte for byte."""

import numpy as np
import pytest

from conftest import make_random_spec, write_partition_csv_reference, write_points_csv_reference
from diamondsphere import build_partition, generate, simple_model, validate
from diamondsphere.cli import write_partition_csv, write_points_csv


def _models():
    models = {f"M{M}-{theta}": validate(simple_model(M, theta_policy=theta))
              for M in (1, 2, 9, 40) for theta in ("zeros", "seed:3")}
    rng = np.random.default_rng(17)
    for k in range(24):
        models[f"random-{k}"] = validate(make_random_spec(rng, 1, 20, f"seed:{k}"))
    return models


MODELS = _models()


def _same_bytes(tmp_path, write, reference, *args) -> bool:
    path, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    write(str(path), *args)
    reference(str(ref), *args)
    return path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("label", list(MODELS))
def test_points_csv_matches_per_row_reference(label, tmp_path):
    model = MODELS[label]
    assert _same_bytes(tmp_path, write_points_csv, write_points_csv_reference,
                       model, generate(model))


@pytest.mark.parametrize("label", list(MODELS))
def test_partition_csv_matches_per_record_reference(label, tmp_path):
    part = build_partition(MODELS[label])
    assert _same_bytes(tmp_path, write_partition_csv, write_partition_csv_reference, part)

