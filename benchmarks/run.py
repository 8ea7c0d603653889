"""flab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 benchmarks/run.py --workload dense-chain --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --compare RESULTS_A RESULTS_B

Workloads (see workloads.py for why each was chosen):

  dense-chain       dense symmetric-sector spectra, (d,n,k) = (2,8,2), (3,5,2)
  collective-limit  sector spectrum and Fock block at d=3, k=4, n -> infinity
  cli-experiments   the six CLI experiments, in-process through flab.cli.main

Each run starts the workload in a child process (worker.py) that uses one
BLAS thread, after several set-up-only children.  End-to-end
metrics come from untraced passes: the median wall seconds of one pass over
all cases, the child's peak resident memory, and the median set-up time
(interpreter start, `import flab` and input generation, one sample per
child).  With --trace 1 the run reports the per-layer metrics of
BENCHMARK.json instead, from spans the benchmark records around its calls
into each flab module; the spans go to .bench_out/spans/.

Every run writes a result file to --results-dir (default
.bench_out/results/).  --compare takes two such directories and prints,
per workload and end-to-end metric, both medians and quartiles, the share
of seed-matched pairs the second set wins, and "unresolved" wherever a
set's run-to-run spread exceeds the metric's bound.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The exit code is not 0 when the flab sources are missing or a
child fails; no JSON line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 14
# a whole run, set-up children included, must end within 180 s
RUN_DEADLINE_S = 170.0
# layer metrics that are derived from word counts and j!, not counted
COMPUTED = {"focklimit.permanents", "focklimit.permanent_terms"}


class BenchmarkError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread.  On a shared 2-vCPU host a second thread mostly
    # spins: the CLI's thousands of tiny calls ran no faster with it, and
    # every pass then also timed the neighbours' load on the other core
    # (window medians of the same call spread 0.28-0.41 s with two
    # threads, 0.25-0.32 s with one).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Whether numpy's large arrays get transparent huge pages depends on the
    # host's memory fragmentation; with them, peak RSS moved by ~10% and
    # times drifted between runs of the same code.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} child did not finish before the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} child exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = [spawn(workload, seed, seconds, trace, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
    child = spawn(workload, seed, seconds, trace, deadline, False)
    setup.append(child["setup_s"])

    q1, median, q3 = quartiles(child["pass_s"])
    measured = {
        "pass_s": median,
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    if trace:
        measured = child["layers"]
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "fail_ratio": child["failed"] / child["attempted"],
        "failures": child["failures"],
        "metrics": metrics,
        "pass_stats": {"median": median, "q1": q1, "q3": q3, "n": len(child["pass_s"]), "values": child["pass_s"]},
        "cpu_s": child["cpu_s"],
        "setup_samples": setup,
        "import_s": child["import_s"],
        "unmeasured": sorted(set(m["name"] for m in listed) - set(measured)),
        "not_measurable": child.get("not_measurable", []),
        "traced_pass_s": child.get("traced_pass_s"),
        "spans_file": child.get("spans_file"),
        "check_details": child["check_details"],
        "inputs": child["inputs"],
        "environment": {**provenance(seed), **child["environment"]},
    }


def print_record(record: dict):
    stats = record["pass_stats"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {stats['n']}  checks {record['attempted']} attempted, {record['failed']} failed"
    )
    for name, metric in record["metrics"].items():
        note = ""
        if name == "pass_s":
            note = f"  (q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n={stats['n']})"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} children)"
        elif name in COMPUTED:
            note = "  (computed)"
        elif record["trace"] and metric["value"] == 0:
            note = "  (not exercised by this workload)"
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:.6g} ratio")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["not_measurable"] or record["unmeasured"]:
        names = ", ".join(record["not_measurable"] + record["unmeasured"])
        print(f"  not measurable from outside the package: {names}")
    env = record["environment"]
    print(
        f"  environment: nproc {env['nproc']}, {env['blas']} with {env['blas_threads']} threads, "
        f"python {env['python']}, numpy {env['numpy']}, git {env['git_sha']}, seed {env['seed']}"
    )


def load_results(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def compare(spec: dict, dir_a: Path, dir_b: Path) -> int:
    """Print parent (a) against change (b) per workload and end-to-end metric."""
    a, b = load_results(dir_a), load_results(dir_b)
    print(f"{'workload':18s} {'metric':12s} {'a median [q1, q3]':>32s} {'b median [q1, q3]':>32s} {'b wins':>7s}  verdict")
    for workload in sorted(set(a) & set(b)):
        runs_a = {r["seed"]: r for r in a[workload]}
        runs_b = {r["seed"]: r for r in b[workload]}
        seeds = sorted(set(runs_a) & set(runs_b))
        for metric in spec["end_to_end"] + [{"name": "fail_ratio", "better": "lower", "bound": 0.0}]:
            name, bound = metric["name"], metric["bound"]

            def value(record):
                return record["fail_ratio"] if name == "fail_ratio" else record["metrics"][name]["value"]

            va = [value(r) for r in a[workload]]
            vb = [value(r) for r in b[workload]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (value(runs_b[s]) - value(runs_a[s])) < 0 for s in seeds)
            qa, qb = quartiles(va), quartiles(vb)
            spread = max(
                (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
            )
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else qb[1] - qa[1]
            worse_by = sign * change
            all_better = max(sign * x for x in vb) < min(sign * x for x in va)
            if spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            elif worse_by > bound:
                verdict = "worse"
            elif seeds and wins >= 0.9 * len(seeds) and -worse_by * abs(qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            else:
                verdict = "no change beyond bound"
            verdict += f", b/a - 1 = {change:+.1%}"
            cell_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            cell_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            share = f"{wins}/{len(seeds)}" if seeds else "n/a"
            print(f"{workload:18s} {name:12s} {cell_a:>32s} {cell_b:>32s} {share:>7s}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=ROOT / ".bench_out" / "results")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "flab" / "__init__.py").is_file():
        print(f"no flab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    records = []
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            record = run_workload(spec, workload, args.seed, seconds, args.trace)
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        args.results_dir.mkdir(parents=True, exist_ok=True)
        path = args.results_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1))
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
