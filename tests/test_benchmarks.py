"""The benchmark's workloads import everything they use from flab, and pass
their own correctness checks."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_workloads_import(monkeypatch):
    # workloads.py imports flab names at module level; a name deleted from
    # flab would otherwise only show when the benchmark is run
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module("workloads")


def test_benchmark_checks_pass_at_seed_1(monkeypatch, tmp_path):
    # one untraced pass over every case of every workload, judged by the
    # workload's own checks: a changed call signature, report assertion or
    # result shows here, not only when the benchmark is run
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    for name, kind in workloads.WORKLOADS.items():
        workload = kind(1, tmp_path / name)
        outputs = {case.name: case.run()[0] for case in workload.cases}
        checks = workload.check(outputs)
        assert checks, name
        failed = [f"{check.name}: {check.detail}" for check in checks if not check.ok]
        assert not failed, (name, failed)
