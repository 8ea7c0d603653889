"""One workload in a fresh interpreter; started by run.py, not by hand.

The process imports flab from the checkout's src/, generates the inputs
from the seed, and records the monotonic clock when it is ready: that is
the end of set-up.  With --setup-only it stops there.  Otherwise it warms
up untimed (one pass, or the workload's own cheaper `warm_up` where it
has one), then runs timed passes for as long as the next one still fits
in --seconds (at least one).  Correctness checks run after
each pass, outside its timed region.  With --trace 1 every untraced pass
is followed by a traced pass that replays the same cases with spans; the
spans are written to .bench_out/spans/ when the run ends.  The last
stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def layer_values(table: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span table."""

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def self_time(name):
        return table[name]["self_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def attr(name, key, reduce="attrs"):
        return table[name][reduce].get(key, 0) if name in table else 0

    from workloads import CliExperiments

    values = {
        "operators.word_basis_s": total("operators.symmetric_klocal_basis"),
        "operators.word_ops": attr("operators.symmetric_klocal_basis", "word_ops"),
        "operators.klocal_basis_s": total("operators.klocal_basis", "operators.sector_span"),
        "channels.coarse_graining_build_s": total("channels.homogeneous_coarse_graining"),
        "channels.hilbert_dim": attr("channels.homogeneous_coarse_graining", "hilbert_dim", "attrs_max"),
        "channels.apply_s": total("channels.apply"),
        "channels.apply_calls": calls("channels.apply"),
        "channels.pair_semigroup_s": total("channels.pair_semigroup"),
        "geometry.contraction_s": self_time("geometry.contraction_spectrum"),
        "geometry.gram_dim": attr("geometry.contraction_spectrum", "gram_dim", "attrs_max"),
        "geometry.kept_rank": attr("geometry.contraction_spectrum", "kept_rank"),
        "geometry.whiten_s": total("geometry.whiten_psd"),
        "geometry.pushforward_norm_s": total("geometry.pushforward_norm"),
        "geometry.pushforward_calls": calls("geometry.pushforward_norm"),
        "focklimit.sector_spectrum_s": total("focklimit.symmetric_sector_spectrum"),
        "focklimit.word_gram_s": total("focklimit.word_gram"),
        "focklimit.fock_block_s": self_time("focklimit.fock_block_spectrum"),
        "focklimit.block_dim": attr("focklimit.fock_block_spectrum", "block_dim", "attrs_max"),
        "focklimit.permanents": attr("focklimit.word_gram", "permanents"),
        "focklimit.permanent_terms": attr("focklimit.word_gram", "permanent_terms"),
        "focklimit.beta_bound_s": total("focklimit.beta_bound_test"),
        "lattice.mode_contraction_s": total("lattice.mode_contraction_k1"),
        "lattice.probe_s": total(
            "lattice.high_momentum_suppression_probe", "lattice.swap_factorization_probe"
        ),
        "reporting.write_s": total("reporting.write_json"),
        "reporting.bytes": attr("reporting.write_json", "bytes"),
    }
    for experiment in CliExperiments.CONFIGS:
        values[f"cli.{experiment}_s"] = total(f"cli.{experiment}")
    return values


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")
        },
    }


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    from tracing import Tracer, children_time, interposed, span_table
    from workloads import Check, agree

    ledger = []

    def untraced_pass():
        wall, cpu = time.perf_counter(), time.process_time()
        outputs, tops = {}, {}
        for case in workload.cases:
            outputs[case.name], tops[case.name] = case.run()
        return outputs, tops, time.perf_counter() - wall, time.process_time() - cpu

    if hasattr(workload, "warm_up"):
        workload.warm_up()
    else:
        outputs, _, _, _ = untraced_pass()
        ledger += workload.check(outputs)

    tracer = Tracer()
    walls, cpus, traced_walls, pass_roots, missing = [], [], [], [], []
    tops = defaultdict(list)
    # stop before a pass that would end past the budget; always run one
    begin, last = time.perf_counter(), 0.0
    while not walls or time.perf_counter() - begin + last <= seconds:
        started = time.perf_counter()
        outputs, top, wall, cpu = untraced_pass()
        walls.append(wall)
        cpus.append(cpu)
        for name, value in top.items():
            tops[name].append(value)
        ledger += workload.check(outputs)
        if trace:
            tracer.pass_id = len(traced_walls)
            replayed, roots = {}, {}
            with interposed(tracer, workload.interpose) as missing:
                start = time.perf_counter()
                for case in workload.cases:
                    replayed[case.name], roots[case.name] = case.replay(tracer)
                traced_walls.append(time.perf_counter() - start)
            pass_roots.append(roots)
            ledger += workload.check(replayed)
            ledger += [
                Check(f"replay-matches-top-level {name}", agree(outputs[name], replayed[name]), "")
                for name in outputs
            ]
        last = time.perf_counter() - started

    failed = [c for c in ledger if not c.ok]
    result = {
        "pass_s": walls,
        "cpu_s": cpus,
        "attempted": len(ledger),
        "failed": len(failed),
        "failures": [f"{c.name}: {c.detail}" for c in failed[:10]],
        "check_details": {c.name: c.detail for c in ledger if c.detail},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        per_pass = [
            layer_values(span_table([s for s in tracer.spans if s["pass"] == p]))
            for p in range(len(traced_walls))
        ]
        layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        top_median = {name: statistics.median(v) for name, v in tops.items()}
        gaps = [
            sum(top_median[name] - children_time(tracer.spans, root["id"]) for name, root in roots.items())
            for roots in pass_roots
        ]
        layers["trace.replay_gap"] = statistics.median(gaps)
        layers["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        layers["trace.cpu_per_wall"] = sum(cpus) / sum(walls)
        result.update(layers=layers, traced_pass_s=traced_walls, not_measurable=sorted(missing))
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import flab

    import_s = time.perf_counter() - start
    if Path(flab.__file__).resolve().parent != root / "src" / "flab":
        print(f"imported flab from {flab.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = root / ".bench_out"
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        result = {"ready": ready, "import_s": import_s}
        if not args.setup_only:
            spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
            result.update(measure(workload, args.seconds, bool(args.trace), spans_path))
            result.update(inputs=workload.inputs(), environment=environment())
            if args.trace:
                result["layers"]["flab.import_s"] = import_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
