"""The benchmark's workloads import everything they use from flab, and pass
their own correctness checks."""

import ast
import importlib
from pathlib import Path

from flab import cli, focklimit, geometry

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


def test_benchmark_reads_only_existing_flab_attributes():
    # the traced replays (--trace 1) call flab functions that the untraced
    # pass above never reaches, so a renamed one would only show when the
    # benchmark is traced
    modules = {"cli": cli, "focklimit": focklimit, "geometry": geometry}
    reads, missing = 0, []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                reads += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert reads and not missing, missing


def test_dense_chain_replay_matches_the_top_level_call(monkeypatch, tmp_path):
    # the traced pass (--trace 1) replays each dense-chain case through the
    # dim^2 route, `homogeneous_coarse_graining` and `contraction_spectrum`,
    # which no untraced pass reaches: the replay must reproduce the orbit
    # route's spectrum and pass the workload's own checks
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    workload = workloads.DenseChain(1, tmp_path)
    replayed = {}
    for case in workload.cases:
        top_level = case.run()[0]
        replayed[case.name] = case.replay(tracing.Tracer())[0]
        assert workloads.agree(top_level, replayed[case.name]), case.name
    checks = workload.check(replayed)
    failed = [f"{check.name}: {check.detail}" for check in checks if not check.ok]
    assert len(checks) == len(workload.cases) and not failed, failed
