"""diamondsphere benchmark: CLI workloads driven in-process, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One closed-loop client: a single process calls ``diamondsphere.cli.main``
with the next command of the workload's script only after the previous
one returned.  One pass runs the script once, with its own theta seed
derived from ``--seed``.  After one warm-up pass the run repeats passes
for ``--seconds`` seconds and reports the median pass time.  Every
command's exit code and outputs are checked (workloads.py); a command
that fails counts in ``failed``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints its per-layer metrics, from passes run with the
outside-in tracer (tracer.py), one tracemalloc pass and the layer
ladder (ladder.py).  The last line of stdout is one JSON object.
Details (environment, every pass, output digests, spans) go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ladder import run_ladder
from tracer import Tracer
from workloads import WORKLOADS, CommandResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS and the library's own pair-sum workers pinned to one thread: the
# numbers then do not depend on how busy the machine's other cores are.
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "DIAMONDSPHERE_WORKERS": "1",
}
SETUP_SAMPLES = 24     # at least, per untraced run
SETUP_TIMEOUT_S = 60
# share of --seconds spent on traced/untraced pass pairs in a traced run
TRACE_PAIR_SHARE = 0.7
LADDER_BUDGET_S = 1.5


def pass_seed(run_seed: int, k: int) -> int:
    digest = hashlib.sha256(f"diamondsphere-bench:{run_seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up time and environment


def measure_setup(count: int) -> list[float]:
    """Seconds from a fresh interpreter's launch to diamondsphere.cli imported.

    The child reads CLOCK_MONOTONIC, which is one clock for the whole
    machine, once the import is done, so neither its exit nor the
    parent's wait is counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c",
           "import diamondsphere.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"]
    samples = []
    for _ in range(count):
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        samples.append(float(proc.stdout.split()[-1]) - launch)
    return samples


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_ENV,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """One run of a workload's script: timings, failures and output digests."""

    seed: int
    results: list[CommandResult]
    wall: float
    errors: list[str | None]
    digest: dict

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)

    def mark_failed(self, reason: str) -> None:
        self.errors = [e if e is not None else reason for e in self.errors]

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "wall_s": self.wall,
            "commands": [{"argv": r.argv, "code": r.code, "seconds": r.seconds}
                         for r in self.results],
            "errors": self.errors,
            "digest": self.digest,
        }


def run_pass(cli, workload: str, seed: int, workdir: Path) -> Pass:
    script, check = WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # each CLI call starts with a fresh heap; so does each pass
    gc.collect()
    results = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for argv in script(seed):
            res = CommandResult(argv)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    res.code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crashed command is a failed one
                res.error = repr(exc)
            res.seconds = time.perf_counter() - t0
            res.stdout = out.getvalue()
            if res.error is None and res.code != 0:
                res.error = f"exit code {res.code}: {err.getvalue().strip()[-500:]}"
            results.append(res)
        wall = time.perf_counter() - start
        errors = [r.error for r in results]
        if not any(errors):
            try:
                errors = check(results)
            except (KeyError, ValueError, TypeError, OSError) as exc:
                errors = [f"output check raised {exc!r}"] * len(results)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}
    finally:
        os.chdir(here)
    digest = {
        "stdout": [hashlib.sha256(r.stdout.encode()).hexdigest() for r in results],
        "files": files,
    }
    return Pass(seed, results, wall, errors, digest)


def check_against_record(workload: str, run_seed: int, passes: list[Pass]) -> None:
    """Compare output digests with an earlier run of the same seed and sources.

    Same seed, same sources: every pass must be byte-identical.  A pass
    that is not has all its commands marked failed.
    """
    path = OUT / "digests" / f"{workload}-seed{run_seed}.json"
    source = source_digest()
    known = {}
    if path.is_file():
        with open(path) as f:
            rec = json.load(f)
        if rec.get("source") == source:
            known = rec["passes"]
    for p in passes:
        old = known.get(str(p.seed))
        if old is not None and old != p.digest:
            p.mark_failed("output digest differs from an earlier run with this seed")
        known.setdefault(str(p.seed), p.digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"source": source, "passes": known}, f, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(cli, args, workdir: Path) -> tuple[list[Pass], dict, list[float]]:
    """A warm-up pass, then timed passes for --seconds.

    Set-up samples are taken between passes, so that they spread over
    the run as the passes do, rather than all falling into one stretch
    in which the machine runs fast or slow.
    """
    warm = run_pass(cli, args.workload, pass_seed(args.seed, 0), workdir)
    per_pass = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * warm.wall / args.seconds))
    passes, setup = [], []
    measured = 0.0
    while True:
        setup += measure_setup(per_pass)
        start = time.perf_counter()
        p = run_pass(cli, args.workload, pass_seed(args.seed, len(passes) + 1), workdir)
        passes.append(p)
        measured += time.perf_counter() - start
        if measured + p.wall > args.seconds:
            break
    setup += measure_setup(max(0, SETUP_SAMPLES - len(setup)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": statistics.median(p.wall for p in passes),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": rss_mb}
    return [warm] + passes, values, setup


def traced_run(cli, ds, args, workdir: Path) -> tuple[list[Pass], dict, dict, Tracer]:
    """Pairs of untraced and traced passes on one seed, a tracemalloc pass, the ladder.

    Layer values are means per traced pass, so the self times add up to
    the mean traced pass time less the unwrapped glue.
    """
    warm = run_pass(cli, args.workload, pass_seed(args.seed, 0), workdir)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        seed = pass_seed(args.seed, len(traced) + 1)
        # alternate which side runs first, so a drift in machine speed
        # does not land on one side
        if len(traced) % 2:
            with Tracer() as tracer:
                p = run_pass(cli, args.workload, seed, workdir)
            plain = run_pass(cli, args.workload, seed, workdir)
        else:
            plain = run_pass(cli, args.workload, seed, workdir)
            with Tracer() as tracer:
                p = run_pass(cli, args.workload, seed, workdir)
        if p.digest != plain.digest:
            p.mark_failed("traced output differs from the untraced pass with this seed")
        untraced.append(plain)
        traced.append(p)
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + plain.wall + p.wall > TRACE_PAIR_SHARE * args.seconds:
            break

    with Tracer(alloc=True) as alloc_tracer:
        alloc_pass = run_pass(cli, args.workload, traced[0].seed, workdir)
    if alloc_pass.digest != traced[0].digest:
        alloc_pass.mark_failed("tracemalloc pass output differs from the pass with this seed")

    ladder = run_ladder(ds, args.seed, LADDER_BUDGET_S)

    n = len(traced)
    values: dict[str, float] = {}
    top = 0.0
    for t in tracers:
        self_s, calls, top_s = t.summary()
        top += top_s / n
        for name in t.names:
            for key, v in ((f"{name}.self_s", self_s.get(name, 0.0)),
                           (f"{name}.calls", calls.get(name, 0))):
                values[key] = values.get(key, 0.0) + v / n
        for key, v in t.counts.items():
            values[key] = values.get(key, 0.0) + v / n
    for name, mb in alloc_tracer.alloc_peak_mb.items():
        values[f"{name}.alloc_peak_mb"] = mb
    for name, rungs in ladder.items():
        values[f"{name}.growth_exp"] = rungs["growth_exp"]
    traced_wall = statistics.fmean(p.wall for p in traced)
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.glue_s"] = traced_wall - top
    details = {"pairs": n, "ladder": ladder}
    return [warm] + untraced + traced + [alloc_pass], values, details, tracers[0]


def select_metrics(values: dict[str, float], specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order, with their units.

    A size or memory figure of a function that no pass of this workload
    called is 0.
    """
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif values.get(name.rsplit(".", 1)[0] + ".calls") == 0:
            value = 0.0
        else:
            raise KeyError(f"the run produced no value for metric {name!r}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.update(PINNED_ENV)
    # the first start writes the bytecode caches that every later CLI call finds
    measure_setup(1)

    sys.path.insert(0, str(SRC))
    import diamondsphere as ds
    import diamondsphere.cli as cli
    if Path(ds.__file__).resolve().parent != SRC / "diamondsphere":
        print(f"error: imported diamondsphere from {ds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            passes, values, details, tracer = traced_run(cli, ds, args, workdir)
            setup = []
            specs = bench["per_layer"]
        else:
            passes, values, setup = untraced_run(cli, args, workdir)
            details, tracer = {}, None
            specs = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_against_record(args.workload, args.seed, passes)
    metrics = select_metrics(values, specs)

    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.json")
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "setup_s_samples": setup, "values": values, "details": details,
                   "passes": [p.record() for p in passes]}, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  {env['blas']} threads {env['blas_threads']}  "
          f"numpy {env['numpy']}  python {env['python']}")
    if not args.trace:
        walls = sorted(p.wall for p in passes[1:])
        print(f"  wall_s       {values['wall_s']:.4f} s   median of {len(walls)} passes "
              f"(min {walls[0]:.4f}, max {walls[-1]:.4f}), after 1 warm-up pass")
        print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(setup)} fresh interpreters")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    else:
        print(f"  traced pass {values['trace.wall_s']:.4f} s, untraced {values['trace.untraced_wall_s']:.4f} s "
              f"({details['pairs']} pairs): overhead {values['trace.overhead_s']:+.4f} s, "
              f"unwrapped glue {values['trace.glue_s']:.4f} s")
    print(f"  fail_ratio   {failed / attempted:.4f}   {failed} of {attempted} commands failed")
    for p in passes:
        for argv, err in zip((r.argv for r in p.results), p.errors):
            if err is not None:
                print(f"  FAILED {' '.join(argv)}: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "diamondsphere" / "cli.py").is_file():
        print(f"error: no diamondsphere sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
