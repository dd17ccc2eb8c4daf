"""Every name the benchmark's tracer and layer ladder reach must resolve,
every command its workloads run must parse, and one pass of each workload
must exit 0 and pass the workload's own output check.

perfbench/tracer.py wraps module functions and methods by name,
perfbench/ladder.py calls package attributes as ds.<name>, and
perfbench/workloads.py passes CLI flags; a rename in the library or the
CLI would otherwise surface only in a benchmark run.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import diamondsphere
from diamondsphere.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass resolves its annotations there
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _load("tracer")
    wrapped = set()
    for mod_name, funcs in tracer.MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"diamondsphere.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{mod_name}.{func}"
            wrapped.add(f"{mod_name}.{func}")
    for mod_name, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"diamondsphere.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{mod_name}.{cls_name}.{meth}"
    assert set(tracer.COUNTERS) <= wrapped
    assert set(tracer.ALLOC_FUNCTIONS) <= wrapped


def test_ladder_names_resolve():
    names = set(re.findall(r"\bds\.(\w+)", (PERFBENCH / "ladder.py").read_text()))
    assert names
    missing = sorted(n for n in names if not callable(getattr(diamondsphere, n, None)))
    assert not missing


LADDER = _load("ladder")._ladders(diamondsphere, "seed:7")


@pytest.mark.parametrize("ms, make", [(ms, make) for _, ms, make in LADDER],
                         ids=[name for name, _, _ in LADDER])
def test_ladder_first_rung_runs(ms, make):
    """The layer's first rung, called once as run_ladder's warm-up call
    does: a signature that the ladder's call no longer binds to fails here."""
    make(ms[0])()


def test_workload_argvs_parse():
    """Every command of every workload, for two pass seeds, parses with the
    CLI's own parser (argparse exits 2 on an unknown flag)."""
    parser = build_parser()
    for script, _ in _load("workloads").WORKLOADS.values():
        for seed in (0, 7):
            for argv in script(seed):
                parser.parse_args(argv)


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_pass_exits_0_and_passes_its_check(name, tmp_path, monkeypatch, capsys):
    """One pass at pass seed 7, run as the benchmark runs it: every command
    through cli.main in a fresh directory, stdout captured for the check."""
    workloads = _load("workloads")
    script, check = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    results = []
    for argv in script(7):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (argv, out.err)
        results.append(workloads.CommandResult(argv, code, out.out))
    errors = check(results)
    assert errors == [None] * len(errors), errors
