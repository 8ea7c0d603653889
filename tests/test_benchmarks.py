"""The benchmark's workloads import everything they use from flab."""

import importlib
from pathlib import Path


def test_benchmark_workloads_import(monkeypatch):
    # workloads.py imports flab names at module level; a name deleted from
    # flab would otherwise only show when the benchmark is run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    importlib.import_module("workloads")
