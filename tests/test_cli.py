"""End-to-end command checks: files, exit codes, determinism."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diamondsphere
from diamondsphere import generate, l2_discrepancy_stolarsky, simple_model, validate
from diamondsphere.cli import CSV_HEADER, main, read_points_csv, write_points_csv


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip_bit_exact(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    code, out, _ = run(["gen", "--simple-M", "3", "--out", str(csv_path)],
                       capsys)
    assert code == 0 and "38 points" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 39
    back = read_points_csv(str(csv_path))
    direct = generate(validate(simple_model(3)))
    assert back.coords.tobytes() == direct.coords.tobytes()
    parallel = [int(line.split(",")[1]) for line in lines[1:]]
    assert parallel == np.repeat(np.arange(7), [1, 4, 8, 12, 8, 4, 1]).tolist()


def test_gen_reruns_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["gen", "--model", _model_file(tmp_path),
                          "--theta", "seed:42", "-o", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def _model_file(tmp_path) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "M": 4, "n": 2, "t": [0, 2, 4], "alpha": [0, 4], "beta": [3, 1],
    }))
    return str(path)


def test_gen_sidecar_exact_heights(tmp_path, capsys):
    csv_path, side = tmp_path / "p.csv", tmp_path / "side.json"
    code, _, _ = run(["gen", "--simple-M", "2", "-o", str(csv_path),
                      "--json", str(side)], capsys)
    assert code == 0
    payload = json.loads(side.read_text())
    assert payload["N"] == 18
    assert payload["r"] == [4, 8, 4]
    assert [Fraction(z) for z in payload["z_exact"]] == \
        [Fraction(12, 17), Fraction(0), Fraction(-12, 17)]


def test_partition_json_and_csv(tmp_path, capsys):
    code, out, _ = run(["partition", "--simple-M", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["regions"]) == 18
    assert payload["covering_upper_bound"] > 0
    csv_path = tmp_path / "part.csv"
    code, _, _ = run(["partition", "--simple-M", "2", "-o", str(csv_path)],
                     capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("region_id,kind,j,i,")


def test_verify_passes_and_prints_checks(capsys):
    code, out, _ = run(["verify", "--simple-M", "5"], capsys)
    assert code == 0
    assert "area 4*pi/N" in out
    assert "interleaving" in out
    assert "bijection" in out
    assert "horizontal sides" in out
    assert "all checks passed" in out


def test_verify_points_mismatch_exits_3(tmp_path, capsys):
    good = tmp_path / "good.csv"
    run(["gen", "--simple-M", "2", "-o", str(good)], capsys)
    lines = good.read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = str(-float(cells[3]) or 0.25)  # corrupt x of one row
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(["verify", "--simple-M", "2", "--points", str(bad)],
                       capsys)
    assert code == 3
    assert "does not match" in err


def _set_row_2(**fields):
    def edit(lines):
        cells = lines[3].split(",")
        for name, value in fields.items():
            cells[CSV_HEADER.index(name)] = value
        lines[3] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("edit", [
    _set_row_2(parallel="7", i="9", phi="3.0", z_height="0.5"),
    _set_row_2(parallel="7"),
    _set_row_2(i="9"),
    _set_row_2(phi="3.0"),
    _set_row_2(z_height="0.5"),
    lambda lines: lines[:-1],
], ids=["all-four", "parallel", "i", "phi", "z_height", "last-row-missing"])
def test_points_file_must_match_every_column(edit, tmp_path, capsys):
    """x, y and z alone passed: a file with wrong tags, phi or z_height
    was reported as the regenerated ensemble bit for bit."""
    good = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "3", "-o", str(good)], capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    for argv, want in ((["verify"], 3), (["metrics", "--sup", "none", "--no-energies"], 2)):
        code, out, err = run([*argv, "--simple-M", "3", "--points", str(bad)], capsys)
        assert (code, out) == (want, "")
        assert f"{bad} does not match the model ensemble" in err
    code, out, _ = run(["verify", "--simple-M", "3", "--points", str(good)], capsys)
    assert code == 0 and "matches the regenerated ensemble bit for bit" in out


def _raise_x(k: int, by: float):
    def edit(lines):
        cells = lines[k + 1].split(",")
        cells[3] = repr(float(cells[3]) + by)
        lines[k + 1] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("edit, where", [
    (_raise_x(5, 1e-13), "row 5, column x"),
    (lambda lines: _set_field(7, 1, "9")(_set_field(5, 7, "0.5")(lines)), "row 5, column z_height"),
    (lambda lines: lines[:-1], "37 data rows, want 38"),
], ids=["x-of-row-5", "first-row-first", "last-row-missing"])
def test_ensemble_file_check_names_where_the_file_differs(edit, where, tmp_path, capsys):
    """Data rows count from 0, as in the reader's `row k has index ...`; of
    several differing fields the first row's first column is named.  x + 1e-12
    on row 5 (x = 0.84) would move its squared norm by 1.7e-12, past
    UNIT_NORM_TOL, so the raise is 1e-13."""
    good = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "3", "-o", str(good)], capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    for argv, want, prefix in ((["verify"], 3, "verification failure"), (["metrics"], 2, "error")):
        code, out, err = run([*argv, "--simple-M", "3", "--points", str(bad)], capsys)
        assert (code, out) == (want, "")
        assert err == f"{prefix}: {bad} does not match the model ensemble: {where}\n"


def test_explicit_theta_zeros_wins_over_the_model_file(tmp_path, capsys):
    seeded, plain = tmp_path / "seeded.json", tmp_path / "plain.json"
    model = {"M": 4, "n": 2, "t": [0, 2, 4], "alpha": [0, 4], "beta": [3, 1]}
    seeded.write_text(json.dumps({**model, "theta_policy": "seed:5"}))
    plain.write_text(json.dumps(model))
    outputs = {}
    for name, argv in {
        "zeros": ["--model", str(seeded), "--theta", "zeros"],
        "file": ["--model", str(seeded)],
        "plain": ["--model", str(plain)],
        "seed5": ["--model", str(plain), "--theta", "seed:5"],
    }.items():
        path = tmp_path / f"{name}.csv"
        assert run(["gen", *argv, "-o", str(path)], capsys)[0] == 0
        outputs[name] = path.read_bytes()
    assert outputs["zeros"] == outputs["plain"]
    assert outputs["file"] == outputs["seed5"] != outputs["plain"]


def test_invalid_model_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps({"M": 2, "n": 1, "t": [0, 2],
                                "alpha": [0], "beta": [0]}))
    code, _, err = run(["verify", "--model", str(path)], capsys)
    assert code == 2
    assert "beta" in err


@pytest.fixture
def no_generate(monkeypatch):
    def fail(model):
        raise AssertionError("the points were generated")

    monkeypatch.setattr(diamondsphere.cli, "generate", fail)
    monkeypatch.setattr(diamondsphere.metrics, "generate", fail)


def test_discrepancy_polar_literal(no_generate, capsys):
    code, out, _ = run(["discrepancy", "--simple-M", "3", "--mode", "polar"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] == {"j": 3, "exact": "3/19",
                              "value": pytest.approx(3.0 / 19.0)}


def test_discrepancy_exact_envelope(capsys):
    code, out, _ = run(["discrepancy", "--simple-M", "4", "--mode", "exact",
                        "--check-envelope"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["envelope_ok"]
    assert payload["envelope"]["lower"] <= payload["value"] <= \
        payload["envelope"]["upper"]


@pytest.mark.parametrize("mode, simple", [
    ("polar", True), ("equatorial", True), ("l2-stolarsky", True), ("l2-quadrature", True),
    ("exact", False), ("estimate", False),
])
def test_check_envelope_outside_its_modes_exits_2_before_generating(mode, simple, tmp_path,
                                                                   no_generate, capsys):
    """The envelope is a one-piece bound on a sup value; elsewhere the flag
    would check nothing."""
    model = ["--simple-M", "3"] if simple else ["--model", _model_file(tmp_path)]
    code, out, err = run(["discrepancy", *model, "--mode", mode, "--check-envelope"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --check-envelope needs --mode exact or estimate and a one-piece model\n"


def test_discrepancy_size_cap_message(capsys):
    code, _, err = run(["discrepancy", "--simple-M", "7", "--mode", "exact"],
                       capsys)
    assert code == 2
    assert "use --mode estimate" in err


def test_metrics_exact_sup_past_the_limit_exits_2_before_any_work(monkeypatch, capsys):
    def fail(points):
        raise AssertionError("separation ran before the size check")

    monkeypatch.setattr(diamondsphere.metrics, "separation", fail)
    code, out, err = run(["metrics", "--simple-M", "7", "--sup", "exact"], capsys)
    assert code == 2 and out == ""
    assert "198 over the limit of 150" in err and "--sup estimate" in err


@pytest.mark.parametrize("limit, argv, message", [
    (226, ["--simple-M", "3", "--riesz-s", "1,3"],
     "nodes of the exact ring sums for a Riesz exponent s > 2: 227 over the limit of 226"),
    (100, ["--points", "PTS"], "point pairs of the energy sweep: 703 over the limit of 100"),
], ids=["ring-nodes", "pair-sweep"])
def test_metrics_pair_sums_past_their_limit_exit_2_before_any_work(limit, argv, message, tmp_path,
                                                                   monkeypatch, capsys):
    """At M = 3 (N = 38): 227 ring nodes for s = 3, 703 point pairs for a file."""
    pts = str(tmp_path / "pts.csv")
    run(["gen", "--simple-M", "3", "-o", pts], capsys)

    def fail(points):
        raise AssertionError("separation ran before the size check")

    monkeypatch.setattr(diamondsphere.metrics, "separation", fail)
    monkeypatch.setattr(diamondsphere.metrics, "_PAIR_SWEEP_MAX_PAIRS", limit)
    argv = [pts if a == "PTS" else a for a in argv]
    code, out, err = run(["metrics", *argv, "--sup", "none"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


def test_plot_scaling_past_the_estimate_limit_exits_2_before_any_sweep(tmp_path, monkeypatch,
                                                                       capsys):
    """M = 2 (N = 18) fits 2,002 center rows in 76,075 dots; M = 3 (N = 38) does not."""
    def fail(*args, **kwargs):
        raise AssertionError("a sweep ran before the size check")

    monkeypatch.setattr(diamondsphere.cli, "sup_discrepancy_estimate", fail)
    monkeypatch.setattr(diamondsphere.metrics, "_CENTER_SWEEP_MAX_DOTS", 76_075)
    svg = tmp_path / "scaling.svg"
    code, out, err = run(["plot", "--kind", "scaling", "--M-range", "2:3", "-o", str(svg)], capsys)
    assert code == 2 and out == "" and not svg.exists()
    assert err.startswith("error: dots of the sup estimate: 76076 over the limit of 76075")


@pytest.mark.parametrize("argv, message", [
    (["metrics", "--simple-M", "2", "--riesz-s", "nan"],
     "error: Riesz exponent must be positive and finite, got nan\n"),
    (["metrics", "--simple-M", "7", "--sup", "exact"], "198 over the limit of 150"),
    (["discrepancy", "--simple-M", "7", "--mode", "exact"], "use --mode estimate"),
    (["discrepancy", "--simple-M", "3", "--mode", "exact", "--max-points", "37"],
     "38 over the limit of 37"),
], ids=["metrics-riesz-nan", "metrics-sup-exact", "discrepancy-exact", "discrepancy-max-points"])
def test_argument_and_size_errors_exit_2_before_generating(argv, message, no_generate, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert message in err


def test_discrepancy_l2_stolarsky_generates_no_points(no_generate, capsys):
    """The model's rings give the distance sum; its points are never made."""
    code, out, err = run(["discrepancy", "--simple-M", "3", "--mode", "l2-stolarsky"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == l2_discrepancy_stolarsky(validate(simple_model(3)))


def test_discrepancy_equatorial_generates_no_points(no_generate, capsys):
    """At M = 3 the closed upper hemisphere holds 1 + 4 + 8 + 12 of 38 points."""
    code, out, err = run(["discrepancy", "--simple-M", "3", "--mode", "equatorial"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"N": 38, "mode": "equatorial", "exact": "3/19",
                               "value": 3 / 19, "counting": abs(25 / 38 - 0.5)}


def test_metrics_points_of_the_wrong_size_exit_2_before_generating(no_generate, tmp_path,
                                                                    capsys):
    """With a model, --points is checked first, and its row count before
    any point is generated: before the work limits too."""
    pts = tmp_path / "pts.csv"
    model = validate(simple_model(3))
    write_points_csv(str(pts), model, generate(model))
    code, out, err = run(["metrics", "--simple-M", "7", "--sup", "exact", "--points", str(pts)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {pts} does not match the model ensemble: 38 data rows, want 198\n"


def test_metrics_matching_points_past_a_limit_exit_2_before_any_metric(tmp_path, monkeypatch,
                                                                       capsys):
    pts = str(tmp_path / "pts.csv")
    run(["gen", "--simple-M", "7", "-o", pts], capsys)

    def fail(points):
        raise AssertionError("separation ran before the size check")

    monkeypatch.setattr(diamondsphere.metrics, "separation", fail)
    code, out, err = run(["metrics", "--simple-M", "7", "--sup", "exact", "--points", pts],
                         capsys)
    assert (code, out) == (2, "")
    assert err == ("error: points of the exact supremum: 198 over the limit of 150; "
                   "use --mode estimate (discrepancy) or --sup estimate (metrics)\n")


def test_metrics_wrong_points_exit_2_before_any_metric(tmp_path, monkeypatch, capsys):
    good = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "3", "-o", str(good)], capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(_raise_x(5, 1e-13)(good.read_text().splitlines())) + "\n")

    def fail(*args, **kwargs):
        raise AssertionError("the metrics ran before the points file was checked")

    monkeypatch.setattr(diamondsphere.cli, "compute_metrics", fail)
    code, out, err = run(["metrics", "--simple-M", "3", "--points", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {bad} does not match the model ensemble: row 5, column x\n"


def test_discrepancy_l2_modes_agree(capsys):
    code, out, _ = run(["discrepancy", "--simple-M", "2", "--mode",
                        "l2-stolarsky"], capsys)
    assert code == 0
    a = json.loads(out)["value"]
    code, out, _ = run(["discrepancy", "--simple-M", "2", "--mode",
                        "l2-quadrature"], capsys)
    assert code == 0
    b = json.loads(out)["value"]
    assert math.isclose(a, b, rel_tol=2e-2)


def test_metrics_roundtrip_matches_in_memory(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "3", "-o", str(pts)], capsys)
    j1, j2 = tmp_path / "m1.json", tmp_path / "m2.json"
    base = ["metrics", "--simple-M", "3", "--sup", "exact", "--json"]
    code, _, _ = run(base + [str(j1)], capsys)
    assert code == 0
    code, _, _ = run(base[:-1] + ["--points", str(pts), "--json", str(j2)],
                     capsys)
    assert code == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_metrics_points_with_nan_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "1", "-o", str(pts)], capsys)
    lines = pts.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = "nan"
    lines[2] = ",".join(fields)
    pts.write_text("\n".join(lines) + "\n")
    code, out, err = run(["metrics", "--points", str(pts)], capsys)
    assert code == 2 and out == ""
    assert "row norms" in err


def test_metrics_points_with_short_row_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "1", "-o", str(pts)], capsys)
    lines = pts.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    pts.write_text("\n".join(lines) + "\n")
    code, out, err = run(["metrics", "--points", str(pts)], capsys)
    assert code == 2 and out == ""
    assert "row 1 has 7 fields" in err


def _edit_points_csv(tmp_path, capsys, edit) -> str:
    pts = tmp_path / "pts.csv"
    run(["gen", "--simple-M", "2", "-o", str(pts)], capsys)
    lines = pts.read_text().splitlines()
    pts.write_text("\n".join(edit(lines)) + "\n")
    return str(pts)


def _set_field(k: int, col: int, value: str):
    def edit(lines):
        fields = lines[k + 1].split(",")
        fields[col] = value
        lines[k + 1] = ",".join(fields)
        return lines
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_field(4, 0, "9"), "row 4 has index 9"),
    (_set_field(4, 1, "1.5"), "'1.5'"),
    (lambda lines: lines[:1], "coords must be a nonempty (N, 3) array"),
], ids=["wrong-index", "non-integer-parallel", "header-only"])
def test_malformed_points_csv_exits_2(edit, message, tmp_path, capsys):
    pts = _edit_points_csv(tmp_path, capsys, edit)
    for argv in (["metrics", "--points", pts], ["verify", "--simple-M", "2", "--points", pts]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end in exit 1
            code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"M": 2, "n": 1, "t": 5, "alpha": [0], "beta": [4]},
], ids=["not-an-object", "t-not-a-list"])
def test_malformed_model_exits_2(payload, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(["verify", "--model", str(path)], capsys)
    assert code == 2
    assert "[shape_mismatch]" in err


def test_non_string_theta_policy_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"M": 2, "n": 1, "t": [0, 2], "alpha": [0],
                                "beta": [4], "theta_policy": 5}))
    code, _, err = run(["verify", "--model", str(path)], capsys)
    assert code == 2
    assert "[theta_invalid]" in err


@pytest.mark.parametrize("argv", [
    ["metrics"],
    ["verify", "--simple-M", "2"],
], ids=["metrics", "verify"])
def test_empty_points_csv_exits_2(argv, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, out, err = run(argv + ["--points", str(empty)], capsys)
    assert code == 2 and out == ""
    assert "no CSV header" in err


@pytest.mark.parametrize("policy", [[True, False, 1], ["a", 0, 1]],
                         ids=["booleans", "string"])
def test_non_number_theta_entries_exit_2(policy, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"M": 2, "n": 1, "t": [0, 2], "alpha": [0],
                                "beta": [4], "theta_policy": policy}))
    code, out, err = run(["verify", "--model", str(path)], capsys)
    assert code == 2 and out == ""
    assert "[theta_invalid]" in err


def test_envelope_same_in_metrics_and_discrepancy(capsys):
    _, out, _ = run(["metrics", "--simple-M", "3", "--sup", "none",
                     "--no-energies"], capsys)
    report = json.loads(out)
    _, out, _ = run(["discrepancy", "--simple-M", "3", "--mode", "exact"], capsys)
    envelope = json.loads(out)["envelope"]
    n = 4 * 3 * 3 + 2
    assert envelope == {"lower": report["envelope_lower"],
                        "upper": report["envelope_upper"]}
    assert envelope["lower"] == math.sqrt(n - 2) / n
    assert envelope["upper"] == (4.0 + 2.0 * math.sqrt(2.0)) / math.sqrt(n)


def test_metrics_octahedron_log_energy(capsys):
    code, out, _ = run(["metrics", "--simple-M", "1", "--sup", "none"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["log_energy"] == pytest.approx(-18.0 * math.log(2.0),
                                                  rel=1e-12)
    assert "d_sup_exact" not in payload


def test_constants_table(capsys):
    code, out, _ = run(["constants", "--simple-M", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k1"] == pytest.approx(1.0 / 32.0)
    assert payload["a2"] == 16.0


def test_constants_rejects_single_ring_model(capsys):
    code, _, err = run(["constants", "--simple-M", "1"], capsys)
    assert code == 2


def test_plot_partition_svg(tmp_path, capsys):
    svg = tmp_path / "m2.svg"
    code, _, _ = run(["plot", "--simple-M", "2", "--kind", "partition",
                      "-o", str(svg)], capsys)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") >= 18


def test_plot_scaling_svg(tmp_path, capsys):
    svg = tmp_path / "scal.svg"
    code, _, _ = run(["plot", "--kind", "scaling", "--M-range", "1:5",
                      "--samples", "200", "-o", str(svg)], capsys)
    assert code == 0
    text = svg.read_text()
    assert "4+2*sqrt(2)" in text
    assert "polyline" in text


def test_plot_without_model_errors(tmp_path, capsys):
    svg = tmp_path / "no.svg"
    code, _, err = run(["plot", "--kind", "partition", "-o", str(svg)], capsys)
    assert code == 2
    assert not svg.exists()


_NO_MODEL = "error: --theta needs --simple-M or --model\n"
_SCALING = "error: --kind scaling takes no {}: it draws the one-piece model over --M-range\n"
_MODE = "error: --mode {} takes no {}: it is for --mode {}\n"
_PARTITION = "error: --kind partition takes no {}: it is for --kind scaling\n"
_M2 = ["--simple-M", "2"]


@pytest.mark.parametrize("argv, message", [
    (["metrics", "--points", "PTS", "--theta", "seed:3"], _NO_MODEL),
    (["plot", "--theta", "seed:3"], _NO_MODEL),
    (["plot", "--kind", "scaling", "--simple-M", "3"], _SCALING.format("--simple-M")),
    (["plot", "--kind", "scaling", "--model", "MODEL"], _SCALING.format("--model")),
    (["plot", "--kind", "scaling", "--theta", "zeros"], _SCALING.format("--theta")),
    (["discrepancy", *_M2, "--mode", "polar", "--samples", "5"],
     _MODE.format("polar", "--samples", "estimate")),
    (["discrepancy", *_M2, "--mode", "exact", "--seed", "9"],
     _MODE.format("exact", "--seed", "estimate")),
    (["discrepancy", *_M2, "--max-points", "3"],
     _MODE.format("estimate", "--max-points", "exact")),
    (["discrepancy", *_M2, "--mode", "l2-stolarsky", "--quad-centers", "7"],
     _MODE.format("l2-stolarsky", "--quad-centers", "l2-quadrature")),
    (["plot", *_M2, "--M-range", "1:2"], _PARTITION.format("--M-range")),
    (["plot", *_M2, "--samples", "5"], _PARTITION.format("--samples")),
    (["plot", *_M2, "--kind", "partition", "--seed", "9"], _PARTITION.format("--seed")),
], ids=["metrics-theta", "plot-partition-theta", "scaling-simple-M", "scaling-model",
        "scaling-theta", "polar-samples", "exact-seed", "estimate-max-points",
        "l2-stolarsky-quad-centers", "partition-M-range", "partition-samples",
        "partition-seed"])
def test_a_flag_the_command_would_ignore_exits_2_before_any_work(argv, message, tmp_path,
                                                                 monkeypatch, capsys):
    """--theta without a model rotated nothing, plot --kind scaling drew
    the same SVG with or without a model or rotations, and a discrepancy mode
    or plot --kind partition printed the same bytes with or without the
    flags of another mode or kind."""
    def fail(*args, **kwargs):
        raise AssertionError("work ran before the flag check")

    for name in ("_read_points", "generate", "sup_discrepancy_estimate"):
        monkeypatch.setattr(diamondsphere.cli, name, fail)
    svg = tmp_path / "out.svg"
    subs = {"PTS": str(tmp_path / "pts.csv"), "MODEL": _model_file(tmp_path)}
    argv = [subs.get(a, a) for a in argv] + (["-o", str(svg)] if argv[0] == "plot" else [])
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", message)
    assert not svg.exists()


@pytest.mark.parametrize("argv, defaults", [
    (["discrepancy", *_M2, "--mode", "estimate"], ["--samples", "10000", "--seed", "0"]),
    (["discrepancy", *_M2, "--mode", "exact"], ["--max-points", "150"]),
    (["discrepancy", *_M2, "--mode", "l2-quadrature"], ["--quad-centers", "4096"]),
    (["plot", "--kind", "scaling"], ["--M-range", "2:24", "--samples", "2000", "--seed", "0"]),
], ids=["estimate", "exact", "l2-quadrature", "scaling"])
def test_a_mode_flag_left_out_takes_its_default(argv, defaults, tmp_path, capsys):
    """The handlers apply the defaults the parser no longer holds."""
    runs = []
    for extra in ([], defaults):
        svg = tmp_path / "out.svg"
        code, out, err = run(argv + extra + (["-o", str(svg)] if argv[0] == "plot" else []),
                             capsys)
        runs.append((code, out, err, svg.read_text() if argv[0] == "plot" else None))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_theta_list_flag(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(["gen", "--simple-M", "2", "--theta", "0.1,0.2,0.3",
                      "-o", str(out_path)], capsys)
    assert code == 0
    pts = read_points_csv(str(out_path))
    model = validate(simple_model(2))
    ring1 = pts.coords[model.rings.first[1]:model.rings.first[2]]
    assert math.isclose(math.atan2(ring1[0, 1], ring1[0, 0]), 0.1,
                        abs_tol=1e-12)


def test_console_entry_point_runs():
    # The child must import the package under test, wherever it was found.
    src = str(Path(diamondsphere.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "diamondsphere.cli",
                           "gen", "--simple-M", "1", "-o", "/dev/null"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0


def test_metrics_rejects_points_that_are_not_the_model_ensemble(tmp_path, capsys):
    rng = np.random.default_rng(4)
    coords = rng.standard_normal((66, 3))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    pts = tmp_path / "pts.csv"
    rows = [",".join(CSV_HEADER)] + [
        f"{k},0,{k},{x:.17g},{y:.17g},{z:.17g},0,{z:.17g}" for k, (x, y, z) in enumerate(coords)
    ]
    pts.write_text("\n".join(rows) + "\n")
    code, out, err = run(["metrics", "--simple-M", "4", "--points", str(pts)], capsys)
    assert code == 2 and out == ""
    assert "does not match the model ensemble" in err
    # Without a model the same file is measured as it is.
    code, out, _ = run(["metrics", "--points", str(pts), "--sup", "none"], capsys)
    assert code == 0 and json.loads(out)["covering_upper_bound"] == 2.0


# sha256 of the structure outputs as the per-cell partition records and the
# per-row CSV writer made them: gen CSV and sidecar, partition JSON (stdout)
# and CSV, verify stdout.
GOLDEN_SHA256 = {
    "simple-9-seed3": {
        "gen.csv": "e75666377d755fb8e396fef0d693ae267dc3734b85c34e4df6eab7a9bdbfc480",
        "gen.json": "e73c5cdb9421c704f335b3a9ddf52ca28b4f343f89a724f72f573f463dec62af",
        "partition.json": "5ffce7f4676afa32a9c7fefc646bd425266c8ed17962fd5f4c4bf9ac15f96d4f",
        "partition.csv": "198dfe4ca33c0928132222d139256d969c2408f7503753e1379d6d790a9cd442",
        "verify.txt": "7a3dcd46155faa47935067e57b3cf68400bcb05796f83a87bfe00d629ba0bfa9",
    },
    "two-piece": {
        "gen.csv": "7cd9724c9b712b3ea12700fcb6e7cc820602615f596ee0af882feb0800bae9d1",
        "gen.json": "0110d881809d2108205fa1f0ca327848db96ae818c05c4f6f7cf750936444ad6",
        "partition.json": "b0a940a92bdfa6b5e8fb880268db263865758fc193860a316e24b354ed6b4826",
        "partition.csv": "a1d0ea3f1b04fc90c204d52107ec20f4351c4cdd2d58b50e66e57e6ed9d688e4",
        "verify.txt": "df44d45f146534799fc34ad636e6134e43e1cc0a4efa932958a1ef5adafaaf42",
    },
}


# sha256 of the outputs that read the ring table, recorded from the per-ring
# loops it replaced: the partition plot (file) and the polar profile (stdout).
RING_TABLE_SHA256 = {
    "plot-simple-4-seed2": (
        ["plot", "--kind", "partition", "--simple-M", "4", "--theta", "seed:2"],
        "8ba1f63f9b509d5060441f600ed13bedb4f6762e76002ab264cbbdd8e5f51de5"),
    "plot-two-piece": (
        ["plot", "--kind", "partition", "--model", "model.json"],
        "1141cdf84dbb351d6881d7398ffcbf848165aa16366c8bcb8e0aa652519bac01"),
    "discrepancy-9-seed3-polar": (
        ["discrepancy", "--simple-M", "9", "--theta", "seed:3", "--mode", "polar"],
        "fdfbe5516831ef1b1ded2f42cadacd8e0a176452f65c468429cf0697876a2691"),
    # recorded while the poles were branches of their own in every reader
    "metrics-two-piece": (
        ["metrics", "--model", "model.json", "--sup", "none", "--no-energies"],
        "b95f32fbb4dba9c6f01c0f6bdebe4114db83a83d914448d73093fc2364be0857"),
}


@pytest.mark.parametrize("label", list(RING_TABLE_SHA256))
def test_ring_table_outputs_match_golden_digests(label, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _model_file(tmp_path)
    argv, digest = RING_TABLE_SHA256[label]
    plot = argv[0] == "plot"
    code, out, _ = run(argv + (["-o", "plot.svg"] if plot else []), capsys)
    assert code == 0
    data = Path("plot.svg").read_bytes() if plot else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of the stdout of the pair-sum commands, which take the ring route,
# recorded once every printed sum matched the tile sweep at rel 1e-12 (the
# Stolarsky D, which cancels digits, at 8.7e-12 and its D^2 at abs 3e-17);
# neither runs the BLAS-dependent sup sweep.  test_pair_kernel.py pins the
# sweep's own bits.
PAIR_SWEEP_SHA256 = {
    "metrics-12-seed4": (
        ["metrics", "--simple-M", "12", "--theta", "seed:4", "--riesz-s", "0.5,1,2",
         "--sup", "none"],
        "f630d78c4fa59c286c9f0770773dc4ddb9086e34525d5e6fce0deb6e8a6a5bfa"),
    "discrepancy-20-seed3-l2-stolarsky": (
        ["discrepancy", "--simple-M", "20", "--theta", "seed:3", "--mode", "l2-stolarsky"],
        "7ab9c8441aaaa3a49b7b990922b247fa1659979d75c05603534162ecf63f0d88"),
}


@pytest.mark.parametrize("label", list(PAIR_SWEEP_SHA256))
def test_pair_sweep_outputs_match_golden_digests(label, capsys):
    argv, digest = PAIR_SWEEP_SHA256[label]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("label", list(GOLDEN_SHA256))
def test_structure_outputs_match_golden_digests(label, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    model = (["--simple-M", "9", "--theta", "seed:3"] if label == "simple-9-seed3"
             else ["--model", _model_file(tmp_path)])
    outputs = {}

    def command(argv, *files):
        code, out, _ = run(argv, capsys)
        assert code == 0
        return out.encode(), *(Path(name).read_bytes() for name in files)

    _, outputs["gen.csv"], outputs["gen.json"] = command(
        ["gen", *model, "-o", "pts.csv", "--json", "meta.json"], "pts.csv", "meta.json")
    outputs["partition.json"], = command(["partition", *model])
    _, outputs["partition.csv"] = command(["partition", *model, "-o", "part.csv"], "part.csv")
    outputs["verify.txt"], = command(["verify", *model])
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_SHA256[label]


@pytest.mark.parametrize("command", [["metrics", "--simple-M", "2"],
                                     ["discrepancy", "--simple-M", "2", "--mode", "l2-stolarsky"]],
                         ids=["metrics", "discrepancy"])
def test_workers_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--simple-M", "2", "--riesz-s", "nan"], "Riesz exponent must be positive and finite, got nan"),
    (["--simple-M", "2", "--riesz-s", "inf"], "Riesz exponent must be positive and finite, got inf"),
    (["--simple-M", "10", "--riesz-s", "1000"], "Riesz sum for s = 1000.0 overflows"),
    (["--simple-M", "10", "--riesz-s", "400"], "Riesz sum for s = 400.0 overflows"),
], ids=["nan", "inf", "overflow-1000", "fsum-overflow-400"])
def test_riesz_sums_that_are_not_finite_exit_2(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would end in exit 1
        code, out, err = run(["metrics", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("exponent", ["nan", "inf", "0", "-1"])
def test_riesz_exponents_are_checked_without_energies(exponent, capsys):
    code, out, err = run(["metrics", "--simple-M", "2", "--riesz-s", f"1,{exponent}",
                          "--no-energies"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: Riesz exponent must be positive and finite, got {float(exponent)}\n"


def test_repeated_riesz_exponent_runs_once(monkeypatch, capsys):
    swept = []
    ring_sums = diamondsphere.metrics._ring_sums

    def spy(model, riesz_s=(), **kw):
        swept.append(riesz_s)
        return ring_sums(model, riesz_s, **kw)

    monkeypatch.setattr(diamondsphere.metrics, "_ring_sums", spy)
    argv = ["metrics", "--simple-M", "3", "--sup", "none", "--riesz-s"]
    _, once, _ = run(argv + ["1,2"], capsys)
    _, repeated, _ = run(argv + ["1,2,1.0,2"], capsys)
    assert repeated == once
    assert swept == [(1.0, 2.0), (1.0, 2.0)]


def test_points_file_and_its_model_agree_across_routes(tmp_path, capsys):
    """--points alone takes the pair sweep, with its model the ring route."""
    pts = str(tmp_path / "pts.csv")
    run(["gen", "--simple-M", "12", "--theta", "seed:3", "-o", pts], capsys)
    argv = ["metrics", "--points", pts, "--sup", "none", "--riesz-s", "0.5,1,2,3"]
    _, swept, _ = run(argv, capsys)
    _, ringed, _ = run(argv + ["--simple-M", "12", "--theta", "seed:3"], capsys)
    swept, ringed = json.loads(swept), json.loads(ringed)
    for key in ("separation", "covering_estimate", "mesh_ratio_estimate"):
        assert ringed[key] == swept[key]
    for s in ("0.5", "1.0", "2.0", "3.0"):
        assert math.isclose(ringed["riesz"][s], swept["riesz"][s], rel_tol=1e-12)
    for key in ("log_energy", "sum_distances"):
        assert math.isclose(ringed[key], swept[key], rel_tol=1e-12)
    # D cancels digits of the distance sum; D^2 keeps its absolute error
    assert math.isclose(ringed["d_l2_stolarsky"] ** 2, swept["d_l2_stolarsky"] ** 2,
                        rel_tol=0.0, abs_tol=1e-15)


def test_metrics_and_discrepancy_print_one_stolarsky_value(capsys):
    model = ["--simple-M", "20", "--theta", "seed:3"]
    _, metrics, _ = run(["metrics", *model, "--sup", "none"], capsys)
    _, disc, _ = run(["discrepancy", *model, "--mode", "l2-stolarsky"], capsys)
    assert json.loads(metrics)["d_l2_stolarsky"] == json.loads(disc)["value"]


def test_pair_sweep_past_its_budget_exits_2(tmp_path, capsys, monkeypatch):
    """The sweep stops before it starts and names the flag that avoids it;
    a model's own ensemble takes the ring route, which has no budget."""
    monkeypatch.setattr(diamondsphere.metrics, "_PAIR_SWEEP_MAX_PAIRS", 100)
    pts = str(tmp_path / "pts.csv")
    run(["gen", "--simple-M", "3", "-o", pts], capsys)  # 38 points, 703 pairs
    code, out, err = run(["metrics", "--points", pts, "--sup", "none"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "703" in err and "--no-energies" in err
    for model in (["--simple-M", "3"], ["--simple-M", "3", "--points", pts]):
        code, out, _ = run(["metrics", *model, "--sup", "none"], capsys)
        assert code == 0 and json.loads(out)["sum_distances"] > 0


def test_exact_riesz_ring_sums_past_their_budget_exit_2(capsys, monkeypatch):
    """An exponent s > 2 sums every one of the L offsets of each ring pair;
    past the budget (227 nodes at M = 3) it stops before any work and
    names the flags that avoid it.  The sup estimate and the L2 quadrature
    have a budget of their own (test_center_sweeps_past_their_budget_exit_2)."""
    model = ["--simple-M", "3", "--sup", "none"]
    monkeypatch.setattr(diamondsphere.metrics, "_PAIR_SWEEP_MAX_PAIRS", 226)
    code, out, err = run(["metrics", *model, "--riesz-s", "1,3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "227" in err
    assert "--no-energies" in err and "at most 2" in err
    monkeypatch.setattr(diamondsphere.metrics, "_PAIR_SWEEP_MAX_PAIRS", 227)
    code, out, _ = run(["metrics", *model, "--riesz-s", "3"], capsys)
    assert code == 0 and "3.0" in json.loads(out)["riesz"]
    monkeypatch.setattr(diamondsphere.metrics, "_PAIR_SWEEP_MAX_PAIRS", 1)
    for extra in (["--riesz-s", "0.5,2"], ["--riesz-s", "3", "--no-energies"]):
        code, out, _ = run(["metrics", *model, *extra], capsys)
        assert code == 0 and json.loads(out)["d_l2_stolarsky"] > 0


@pytest.mark.parametrize("argv, message", [
    (["metrics", "--simple-M", "3"], "sup estimate: 380076 over the limit of 1000; lower --samples"),
    (["metrics", "--simple-M", "3", "--sup", "none", "--l2-quadrature"],
     "L2 quadrature: 155648 over the limit of 1000; lower --quad-centers"),
    (["discrepancy", "--simple-M", "3", "--mode", "estimate"],
     "sup estimate: 380076 over the limit of 1000; lower --samples"),
    (["discrepancy", "--simple-M", "3", "--mode", "l2-quadrature"],
     "L2 quadrature: 155648 over the limit of 1000; lower --quad-centers"),
], ids=["metrics-estimate", "metrics-quadrature", "discrepancy-estimate",
        "discrepancy-quadrature"])
def test_center_sweeps_past_their_budget_exit_2_before_generating(argv, message, no_generate,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr(diamondsphere.metrics, "_CENTER_SWEEP_MAX_DOTS", 1000)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: dots of the ") and message in err


@pytest.mark.parametrize("mode, flag, fits", [("estimate", "--samples", 24),
                                              ("l2-quadrature", "--quad-centers", 26)])
def test_center_sweeps_past_their_budget_exit_2(mode, flag, fits, monkeypatch, capsys):
    """At N = 38 a budget of 988 dots fits 26 center rows: 24 samples and
    the two poles, or 26 quadrature centers; one more row stops."""
    monkeypatch.setattr(diamondsphere.metrics, "_CENTER_SWEEP_MAX_DOTS", 988)
    model = ["discrepancy", "--simple-M", "3", "--mode", mode, flag]
    code, out, _ = run([*model, str(fits)], capsys)
    assert code == 0 and json.loads(out)["value"] > 0
    code, out, err = run([*model, str(fits + 1)], capsys)
    assert code == 2 and out == "" and f"over the limit of 988; lower {flag}" in err


@pytest.mark.parametrize("extra", [[], ["--no-energies"]], ids=["energies", "no-energies"])
def test_metrics_duplicate_points_exit_2(extra, tmp_path, capsys):
    def repeat_row_1(lines):
        lines[3] = "2," + lines[2].split(",", 1)[1]
        return lines

    pts = _edit_points_csv(tmp_path, capsys, repeat_row_1)
    code, out, err = run(["metrics", "--points", pts, "--sup", "none", *extra], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "coincident points" in err


@pytest.mark.parametrize("policy", ["abc", "0.1,abc", "", "seed:-1"],
                         ids=["word", "list-with-word", "empty", "negative-seed"])
def test_bad_theta_flag_is_a_model_error(policy, tmp_path, capsys):
    code, out, err = run(["gen", "--simple-M", "2", "--theta", policy,
                          "-o", str(tmp_path / "pts.csv")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("model error [theta_invalid]: ")
    assert not (tmp_path / "pts.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["metrics", "--simple-M", "2", "--samples", "-1"], "--samples"),
    (["discrepancy", "--simple-M", "2", "--samples", "-1"], "--samples"),
    (["plot", "--kind", "scaling", "--M-range", "1:2", "--samples", "-1", "-o", "x.svg"],
     "--samples"),
    (["discrepancy", "--simple-M", "2", "--mode", "l2-quadrature", "--quad-centers", "0"],
     "--quad-centers"),
    (["discrepancy", "--simple-M", "2", "--samples", "many"], "--samples"),
    (["metrics", "--simple-M", "2", "--seed", "-1"], "--seed"),
    (["discrepancy", "--simple-M", "2", "--seed", "-1"], "--seed"),
    (["plot", "--kind", "scaling", "--M-range", "1:2", "--seed", "-1", "-o", "x.svg"], "--seed"),
    (["discrepancy", "--simple-M", "2", "--mode", "exact", "--max-points", "-5"],
     "--max-points"),
    (["discrepancy", "--simple-M", "2", "--mode", "exact", "--max-points", "1"],
     "--max-points"),
], ids=["metrics-samples", "discrepancy-samples", "plot-samples", "quad-centers",
        "not-an-integer", "metrics-seed", "discrepancy-seed", "plot-seed",
        "max-points-negative", "max-points-one"])
def test_count_flags_fail_at_parse_time(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def test_count_flags_accept_their_least_value(capsys):
    code, out, _ = run(["discrepancy", "--simple-M", "2", "--samples", "0"], capsys)
    assert code == 0 and json.loads(out)["value"] > 0
    code, out, _ = run(["discrepancy", "--simple-M", "2", "--mode", "l2-quadrature",
                        "--quad-centers", "1"], capsys)
    assert code == 0 and json.loads(out)["value"] > 0


@pytest.mark.parametrize("value", ["1:2:3", "a:b", "5:2", "0:3"],
                         ids=["three-fields", "not-integers", "lo-above-hi", "lo-zero"])
def test_bad_m_range_fails_at_parse_time(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--kind", "scaling", "--M-range", value, "-o", "x.svg"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --M-range" in err and "LO:HI" in err and repr(value) in err


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("diamondsphere ")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every example of README's Command line block, in order (verify reads
    the file that gen writes), exits 0."""
    commands = _readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv, capsys)[0] == 0, argv
