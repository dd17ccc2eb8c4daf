"""The benchmark's workloads: the CLI commands of one pass and their output checks.

A workload is a fixed script of user commands.  ``script(s)`` returns the
argv lists of one pass for the pass seed ``s``, which goes in as
``--theta seed:<s>`` (and as ``--seed <s>`` for the randomized estimate),
so no two passes see the same inputs.  ``check(results)`` returns one
error string (or None) per command, from invariants that hold for every
seed.  Commands write their files into the current directory, so the
captured stdout does not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass
class CommandResult:
    argv: list[str]
    code: int | None = None          # None when cli.main raised
    stdout: str = ""
    error: str | None = None         # the exception, when cli.main raised
    seconds: float = 0.0


def _simple_n(m: int) -> int:
    return 4 * m * m + 2


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _count_lines(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def _json(res: CommandResult) -> dict:
    return json.loads(res.stdout)


# ---------------------------------------------------------------------------
# structure: exact structure and CSV/JSON I/O at large N

STRUCTURE_M = 150
PARTITION_M = 75


def structure_script(s: int) -> list[list[str]]:
    theta = ["--theta", f"seed:{s}"]
    m, mp = str(STRUCTURE_M), str(PARTITION_M)
    return [
        ["gen", "--simple-M", m, *theta, "--out", "pts.csv", "--json", "meta.json"],
        ["verify", "--simple-M", m, *theta, "--points", "pts.csv"],
        ["partition", "--simple-M", mp, *theta, "-o", "regions.csv"],
        ["discrepancy", "--simple-M", m, *theta, "--mode", "polar"],
    ]


def _check_gen(res: CommandResult) -> str | None:
    n = _simple_n(STRUCTURE_M)
    lines = _count_lines("pts.csv")
    if lines != n + 1:
        return f"pts.csv has {lines} lines, want N + 1 = {n + 1}"
    with open("meta.json") as f:
        meta_n = json.load(f)["N"]
    if meta_n != n:
        return f"meta.json has N = {meta_n}, want 4M^2 + 2 = {n}"
    return None


def _check_verify(res: CommandResult) -> str | None:
    if not res.stdout.rstrip().endswith("all checks passed"):
        return "verify did not end with 'all checks passed'"
    return None


def _check_partition(res: CommandResult) -> str | None:
    want = _simple_n(PARTITION_M)
    rows = _count_lines("regions.csv") - 1
    if rows != want:
        return f"regions.csv has {rows} rows, want 4*75^2 + 2 = {want}"
    return None


def _check_polar(res: CommandResult) -> str | None:
    n = _simple_n(STRUCTURE_M)
    got = _json(res)["max"]["value"]
    want = math.sqrt(n - 2) / n
    if not _close(got, want, 1e-12):
        return f"polar max {got!r} != sqrt(N-2)/N = {want!r}"
    return None


def structure_check(results: list[CommandResult]) -> list[str | None]:
    checks = [_check_gen, _check_verify, _check_partition, _check_polar]
    return [check(res) for check, res in zip(checks, results)]


# ---------------------------------------------------------------------------
# report: the user-facing quality report, O(N^2) kernels

REPORT_M = 40
REPORT_SAMPLES = 2000


def report_script(s: int) -> list[list[str]]:
    return [["metrics", "--simple-M", str(REPORT_M), "--theta", f"seed:{s}",
             "--samples", str(REPORT_SAMPLES), "--seed", str(s)]]


def report_check(results: list[CommandResult]) -> list[str | None]:
    rep = _json(results[0])
    n = rep["n_points"]
    lower, upper = rep["envelope_lower"], rep["envelope_upper"]
    if n != _simple_n(REPORT_M):
        return [f"n_points {n}, want {_simple_n(REPORT_M)}"]
    if not lower - 1e-12 <= rep["d_sup_estimate"] <= upper:
        return [f"d_sup_estimate {rep['d_sup_estimate']!r} outside "
                f"[{lower!r}, {upper!r}]"]
    if rep["d_polar_max"] != lower:
        return [f"d_polar_max {rep['d_polar_max']!r} != envelope_lower {lower!r}"]
    stolarsky = math.sqrt((4.0 / 3.0 - rep["sum_distances"] / n ** 2) / 8.0)
    if not _close(rep["d_l2_stolarsky"], stolarsky, 1e-12):
        return [f"d_l2_stolarsky {rep['d_l2_stolarsky']!r} != {stolarsky!r} "
                "from sum_distances"]
    if not rep["covering_estimate"] <= rep["covering_upper_bound"]:
        return ["covering_estimate exceeds covering_upper_bound"]
    if not rep["separation"] > 0:
        return ["separation is not positive"]
    return [None]


# ---------------------------------------------------------------------------
# discrepancy: the cap-discrepancy kernels that report never runs

EXACT_M = 5
L2_M = 20

# tests/test_discrepancy.py holds the two L2 routes to the same tolerance
L2_AGREEMENT = 2e-2


def discrepancy_script(s: int) -> list[list[str]]:
    theta = ["--theta", f"seed:{s}"]
    return [
        ["discrepancy", "--simple-M", str(EXACT_M), *theta, "--mode", "exact",
         "--check-envelope"],
        ["discrepancy", "--simple-M", str(L2_M), *theta, "--mode", "l2-quadrature"],
        ["discrepancy", "--simple-M", str(L2_M), *theta, "--mode", "l2-stolarsky"],
    ]


def discrepancy_check(results: list[CommandResult]) -> list[str | None]:
    exact = _json(results[0])
    errors: list[str | None] = [None, None, None]
    if exact.get("envelope_ok") is not True:
        errors[0] = "exact sup outside the envelope"
    elif exact["value"] < exact["envelope"]["lower"] - 1e-12:
        errors[0] = f"exact sup {exact['value']!r} below the envelope's lower end"
    quad, stol = _json(results[1])["value"], _json(results[2])["value"]
    if not _close(quad, stol, L2_AGREEMENT):
        errors[1] = f"L2 quadrature {quad!r} and Stolarsky {stol!r} disagree"
    return errors


WORKLOADS = {
    "structure": (structure_script, structure_check),
    "report": (report_script, report_check),
    "discrepancy": (discrepancy_script, discrepancy_check),
}
