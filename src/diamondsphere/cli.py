"""Command-line front end.

Subcommands: gen, partition, verify, metrics, discrepancy, constants, plot.
Exit codes: 0 success, 1 unexpected runtime error, 2 invalid model or
arguments, 3 verification failure.  All output is deterministic for a
given command line, so re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .ensemble import (
    DiamondModel,
    ModelError,
    ModelSpec,
    generate,
    model_constants,
    simple_model,
    validate,
)
from .geometry import TWO_PI, PointSet
from .metrics import (
    ENVELOPE_UPPER_COEFF,
    _check_riesz_s,
    cap_discrepancy_envelope,
    compute_metrics,
    equatorial_discrepancy,
    l2_discrepancy_quadrature,
    l2_discrepancy_stolarsky,
    polar_cap_profile,
    sup_discrepancy_estimate,
    sup_discrepancy_exact,
)
from .partition import (
    VerificationFailure,
    build_partition,
    certify,
    partition_records,
    polar_cap_radius,
    covering_upper_bound,
)
from . import plotting

CSV_HEADER = ["index", "parallel", "i", "x", "y", "z", "phi", "z_height"]
_CSV_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g"
_CSV_DTYPE = [(name, np.int64 if name in ("index", "parallel", "i") else float)
              for name in CSV_HEADER]


def _csv_columns(points: PointSet) -> list:
    """The values of the CSV_HEADER columns for a tagged point set, as sequences."""
    x, y, z = points.coords.T.tolist()
    phi = [math.atan2(b, a) % TWO_PI for a, b in zip(x, y)]
    return [range(len(points)), points.parallel.tolist(),
            points.index_in_parallel.tolist(), x, y, z, phi, z]


def write_points_csv(path: str, points: PointSet) -> None:
    rows = zip(*_csv_columns(points))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join([",".join(CSV_HEADER), *(_CSV_ROW % row for row in rows)]) + "\n")


def _read_points(path: str) -> tuple[np.ndarray, PointSet]:
    """The CSV as a structured array with the CSV_HEADER fields, and its points."""
    with open(path) as f:
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path} is empty: no CSV header")
    header = next(csv.reader(lines[:1]))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = lines[1:]
    for k, line in enumerate(rows):
        fields = line.count(",") + 1 if line else 0
        if fields != len(CSV_HEADER):
            raise ValueError(f"row {k} has {fields} fields, want {len(CSV_HEADER)}")
    table = np.loadtxt(rows, dtype=_CSV_DTYPE, delimiter=",", comments=None, quotechar='"',
                       ndmin=1) if rows else np.empty(0, _CSV_DTYPE)
    bad = np.flatnonzero(table["index"] != np.arange(len(rows)))
    if bad.size:
        raise ValueError(f"row {bad[0]} has index {rows[bad[0]].split(',', 1)[0]}")
    coords = np.column_stack([table["x"], table["y"], table["z"]])
    coords.setflags(write=False)  # fresh, so PointSet keeps it without a copy
    return table, PointSet(coords, parallel=table["parallel"], index_in_parallel=table["i"])


def read_points_csv(path: str) -> PointSet:
    return _read_points(path)[1]


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as f:
            f.write(text)


def _add_model_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--simple-M", type=int, metavar="M",
                   help="one-piece model with slope 4 and M northern parallels")
    g.add_argument("--model", metavar="FILE",
                   help="JSON file with keys M, n, t, alpha, beta")
    p.add_argument("--theta",
                   help='ring rotations: "zeros", "seed:<int>", or a comma-separated '
                        "list (default: the model file's theta_policy, else zeros)")


def _parse_theta(raw: str):
    """Angles if every comma field is a float, else a policy for resolve_thetas."""
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        return raw


def _count(least: int):
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return count


def _m_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and 1 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"want LO:HI with integers 1 <= LO <= HI, got {text!r}")
    return range(int(lo), int(hi) + 1)


def _resolve_model(args) -> DiamondModel | None:
    theta = "zeros" if args.theta is None else _parse_theta(args.theta)
    if args.simple_M is not None:
        return validate(simple_model(args.simple_M, theta_policy=theta))
    if args.model is not None:
        with open(args.model) as f:
            spec = ModelSpec.from_dict(json.load(f))
        # an explicit --theta wins over whatever the file carries
        if args.theta is not None:
            spec = dataclasses.replace(spec, theta_policy=theta)
        return validate(spec)
    return None


def _model_sidecar(model: DiamondModel) -> dict:
    return {
        "model": model.spec.to_dict(),
        "N": model.N,
        "p": model.p,
        "r": list(model.r),
        "z_exact": [str(z) for z in model.z_exact],
        "theta": list(model.theta),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    model = _resolve_model(args)
    points = generate(model)
    write_points_csv(args.output, points)
    if args.json:
        _dump_json(_model_sidecar(model), args.json)
    print(f"wrote {len(points)} points to {args.output}")
    return 0


PARTITION_CSV_COLUMNS = [
    "region_id", "kind", "j", "i", "phi_lo", "phi_hi",
    "h_lo", "h_hi", "h_lo_exact", "h_hi_exact", "matched_point",
]


def cmd_partition(args) -> int:
    model = _resolve_model(args)
    part = build_partition(model)
    records = partition_records(part)
    if args.output not in (None, "-") and args.output.endswith(".csv"):
        lines = [",".join(PARTITION_CSV_COLUMNS)]
        for rec in records:
            lines.append(",".join("" if rec[c] is None else str(rec[c])
                                  for c in PARTITION_CSV_COLUMNS))
        with open(args.output, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        return 0
    payload = _model_sidecar(model)
    payload["regions"] = records
    payload["polar_cap_radius"] = polar_cap_radius(part)
    payload["covering_upper_bound"] = covering_upper_bound(part)
    _dump_json(payload, args.output)
    return 0


def _check_ensemble_file(path: str, points: PointSet, error: type[Exception]) -> None:
    """Every column of the file must equal what write_points_csv writes for points."""
    table, _ = _read_points(path)  # its points pass PointSet's row checks, as in any file
    columns = zip(CSV_HEADER, _csv_columns(points))
    if any(table[k].tolist() != list(v) for k, v in columns):
        raise error(f"{path} does not match the model ensemble")


def cmd_verify(args) -> int:
    model = _resolve_model(args)
    points = generate(model)
    if args.points:
        _check_ensemble_file(args.points, points, VerificationFailure)
    label = certify(build_partition(model), points)
    print(f"ok: all {model.N} regions have area 4*pi/N (exact + float)")
    print("ok: height interleaving certificate")
    print("ok: region-point matching is the designed bijection")
    print(f"ok: sqrt(N) x canonical horizontal sides within {label}")
    if args.points:
        print(f"ok: {args.points} matches the regenerated ensemble bit for bit")
    print("all checks passed")
    return 0


def cmd_metrics(args) -> int:
    # distinct exponents in first-seen order, checked before any work
    raw = args.riesz_s
    riesz_s = tuple(dict.fromkeys(float(s) for s in raw.split(","))) if raw else ()
    _check_riesz_s(riesz_s)
    model = _resolve_model(args)
    if model is not None:  # its bound and exact profiles hold for its own points only
        points = generate(model)
        if args.points:
            _check_ensemble_file(args.points, points, ValueError)
    elif args.points:
        points = read_points_csv(args.points)
    else:
        raise ValueError("need --points or a model")
    part = build_partition(model) if model is not None else None
    report = compute_metrics(
        points, model, part,
        riesz_s=riesz_s,
        energies=not args.no_energies,
        sup_mode=None if args.sup == "none" else args.sup,
        sup_samples=args.samples,
        sup_seed=args.seed,
        l2_quadrature=args.l2_quadrature,
    )
    _dump_json(report.to_dict(), args.json)
    return 0


def cmd_discrepancy(args) -> int:
    model = _resolve_model(args)
    points = generate(model)
    n = model.N
    out = {"N": n, "mode": args.mode}
    code = 0

    if args.mode == "polar":
        prof = polar_cap_profile(model)
        out["profile"] = [
            {"j": j, "exact": str(v), "value": float(v)}
            for j, v in zip(prof.j, prof.exact)
        ]
        out["max"] = {"j": prof.argmax_j, "exact": str(prof.max_exact),
                      "value": float(prof.max_exact)}
    elif args.mode == "equatorial":
        eq = equatorial_discrepancy(model, points)
        out["exact"] = str(eq.exact)
        out["value"] = float(eq.exact)
        out["counting"] = eq.counting
    elif args.mode == "l2-stolarsky":
        out["value"] = l2_discrepancy_stolarsky(points, model)
    elif args.mode == "l2-quadrature":
        out["value"] = l2_discrepancy_quadrature(points, n_centers=args.quad_centers)
    else:
        if args.mode == "exact":
            if n > args.max_points:
                raise ValueError(
                    f"exact mode handles at most {args.max_points} points "
                    f"(model has {n}); use --mode estimate"
                )
            sup = sup_discrepancy_exact(points, max_points=args.max_points)
        else:
            sup = sup_discrepancy_estimate(points, n_samples=args.samples,
                                           seed=args.seed)
        c = sup.witness.center
        out["value"] = sup.value
        out["side"] = sup.side
        out["witness_center"] = [c.x, c.y, c.z]
        out["witness_t"] = sup.witness.t
        if model.is_simple:
            lower, upper = cap_discrepancy_envelope(n)
            out["envelope"] = {"lower": lower, "upper": upper}
            ok = lower - 1e-12 <= sup.value <= upper + 1e-12
            out["envelope_ok"] = bool(ok)
            if args.check_envelope and not ok:
                code = 3
    _dump_json(out, args.json)
    return code


def cmd_plot(args) -> int:
    if args.kind == "partition":
        model = _resolve_model(args)
        if model is None:
            raise ValueError("--kind partition needs --simple-M or --model")
        points = generate(model)
        part = build_partition(model)
        svg = plotting.svg_projection(points, part)
    else:
        ns, sup_vals, polar_vals = [], [], []
        for m in args.m_range:
            model = validate(simple_model(m))
            points = generate(model)
            ns.append(model.N)
            sup = sup_discrepancy_estimate(points, n_samples=args.samples,
                                           seed=args.seed)
            sup_vals.append(math.sqrt(model.N) * sup.value)
            prof = polar_cap_profile(model)
            polar_vals.append(math.sqrt(model.N) * float(prof.max_exact))
        svg = plotting.svg_scaling(
            ns,
            {"sqrt(N) * sup-cap estimate": sup_vals,
             "sqrt(N) * polar maximum": polar_vals},
            guides=[("1", 1.0), ("4+2*sqrt(2)", ENVELOPE_UPPER_COEFF)],
            title="scale-free cap discrepancy, one-piece model",
        )
    with open(args.output, "w", newline="\n") as f:
        f.write(svg)
    print(f"wrote {args.output}")
    return 0


def cmd_constants(args) -> int:
    model = _resolve_model(args)
    _dump_json(model_constants(model).to_dict(), args.json)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diamondsphere",
        description="equal-area diamond point ensembles on the unit sphere",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an ensemble as CSV")
    _add_model_args(p)
    p.add_argument("-o", "--out", "--output", dest="output", required=True,
                   metavar="CSV")
    p.add_argument("--json", metavar="FILE", help="model sidecar with exact heights")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("partition", help="emit the equal-area partition as JSON")
    _add_model_args(p)
    p.add_argument("-o", "--output", default="-", metavar="FILE")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="run the exact structure checks")
    _add_model_args(p)
    p.add_argument("--points", metavar="CSV", help="also check a points file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", help="compute quality metrics as JSON")
    _add_model_args(p, required=False)
    p.add_argument("--points", metavar="CSV", help="load points instead of generating")
    p.add_argument("--json", default="-", metavar="FILE")
    p.add_argument("--riesz-s", default="1", metavar="S1,S2,...")
    p.add_argument("--no-energies", action="store_true")
    p.add_argument("--sup", choices=["estimate", "exact", "none"], default="estimate")
    p.add_argument("--samples", type=_count(0), default=10_000)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--l2-quadrature", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("discrepancy", help="cap discrepancy report as JSON")
    _add_model_args(p)
    p.add_argument("--mode", default="estimate",
                   choices=["polar", "equatorial", "exact", "estimate",
                            "l2-stolarsky", "l2-quadrature"])
    p.add_argument("--samples", type=_count(0), default=10_000)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--max-points", type=_count(2), default=150)
    p.add_argument("--quad-centers", type=_count(1), default=4096)
    p.add_argument("--check-envelope", action="store_true",
                   help="exit 3 if a simple model leaves its guaranteed band")
    p.add_argument("--json", default="-", metavar="FILE")
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("constants", help="print the model constant table as JSON")
    _add_model_args(p)
    p.add_argument("--json", default="-", metavar="FILE")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("plot", help="render an SVG figure")
    _add_model_args(p, required=False)
    p.add_argument("--kind", choices=["partition", "scaling"], default="partition")
    p.add_argument("--M-range", "--m-range", dest="m_range", type=_m_range, default="2:24",
                   metavar="LO:HI", help="M values for --kind scaling")
    p.add_argument("--samples", type=_count(0), default=2000)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("-o", "--output", required=True, metavar="SVG")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"model error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
