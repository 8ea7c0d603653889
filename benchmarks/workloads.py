"""The benchmark's workloads: seeded inputs, cases and correctness checks.

Each workload is a fixed list of cases.  A case has two forms:

* `run()` makes the top-level flab call untraced and returns its output
  with the wall seconds of that call alone;
* `replay(tracer)` makes the public calls the top-level function makes,
  one span per call, under a root span named after the top-level
  function, and returns the output it gets together with that root span.
  Where the top-level function calls a private helper, the replay builds
  the same result from public calls (the permanent Grams from
  `focklimit.permanent`, the Kronecker powers with numpy).  The CLI
  experiment runners are no such pipeline; there the replay stops at
  `cli.run_experiment` and `Report.write_json`, and the public functions
  the runners call are spanned by interposition (see tracing.py).

A traced pass checks that each replay reproduces the top-level output.

Inputs come from numpy draws seeded by the workload seed, never from
`flab.sampling`, so a change to the package cannot change them.  The seed
picks y and the single-site states; the case sizes are fixed, and full-rank
states keep the word counts, hence the work, the same for every seed.

Which end-to-end metric each layer should move, and where:

=========================  ============================  ==================
layer metric               moves                         on workload
=========================  ============================  ==================
operators.word_basis_s     pass_s                        dense-chain
operators.klocal_basis_s   pass_s                        cli-experiments
channels.*_build/apply     pass_s, peak_rss_mb           dense-chain
channels.pair_semigroup_s  pass_s                        cli-experiments
geometry.contraction_s     pass_s                        dense-chain
geometry.whiten_s          pass_s                        collective-limit
geometry.pushforward_*     pass_s                        cli-experiments
focklimit.sector/fock/...  pass_s, peak_rss_mb           collective-limit
focklimit.beta_bound_s     pass_s                        cli-experiments
lattice.*, reporting.*     pass_s                        cli-experiments
cli.<experiment>_s         pass_s                        cli-experiments
flab.import_s              setup_s                       every workload
=========================  ============================  ==================
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flab import cli, focklimit, geometry
from flab.channels import SwapDiffusion, homogeneous_coarse_graining
from flab.operators import (
    DensityMatrix,
    QuditSystem,
    basis_pure_density,
    product_density,
    symmetric_klocal_basis,
    symmetric_words,
)

from tracing import ChannelProxy, Tracer

# Tolerances of the correctness checks; scratch runs at this commit agreed
# to about 1e-15 (dense vs closed form) and 1e-17 (sector vs Fock block).
DENSE_TOL = 1e-10
SECTOR_IN_FOCK_TOL = 1e-12
UNIT_INTERVAL_SLACK = 1e-10
# replayed public steps must reproduce the top-level output
REPLAY_TOL = 1e-12


@dataclass
class Case:
    name: str
    run: Callable[[], tuple[object, float]]
    replay: Callable[[Tracer], tuple[object, dict]]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def draw_y(rng: np.random.Generator) -> float:
    return float(rng.uniform(2.0, 4.0))


def draw_full_rank_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Ginibre density matrix mixed with I/d, so every eigenvalue is >= 0.1/d."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = 0.9 * rho / np.trace(rho).real + 0.1 * np.eye(d) / d
    return 0.5 * (rho + rho.conj().T)


def _matrix_record(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def agree(a, b, tol: float = REPLAY_TOL) -> bool:
    """Outputs equal: arrays within tol, dicts key by key, the rest exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(agree(a[k], b[k], tol) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))
    return a == b


def _dense_name(d: int, n: int, k: int) -> str:
    return f"d={d} n={n} k={k}"


class DenseChain:
    """Dense symmetric-sector spectra at seeded full-rank mixed site states.

    Nearly all of the time goes to operators (word build by kron), channels
    (the orbit projector at n=8, the n! exact sum at n=5) and geometry
    (Gram and pairing).  focklimit does no timed work, so this workload is
    the bypass for closed-form optimisations.
    """

    name = "dense-chain"
    CASES = ((2, 8, 2), (3, 5, 2))
    interpose: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.params = []
        for d, n, k in self.CASES:
            y = draw_y(rng)
            self.params.append((d, n, k, y, draw_full_rank_state(rng, d)))
        self._references: dict[str, np.ndarray] = {}
        self.cases = [self._case(*p) for p in self.params]

    def inputs(self) -> list[dict]:
        return [
            {"d": d, "n": n, "k": k, "y": y, "site_state": _matrix_record(site)}
            for d, n, k, y, site in self.params
        ]

    def _case(self, d, n, k, y, site) -> Case:
        name = _dense_name(d, n, k)

        def prepare():
            return QuditSystem(d, n), product_density(DensityMatrix(site), n)

        def run():
            system, state = prepare()
            spectrum, seconds = _timed(geometry.symmetric_sector_dense_spectrum, system, state, y, k)
            return spectrum.eigenvalues, seconds

        def replay(tracer: Tracer):
            system, state = prepare()
            threshold = geometry.NULL_THRESHOLD
            with tracer.span("geometry.symmetric_sector_dense_spectrum", case=name) as root:
                with tracer.span("operators.symmetric_klocal_basis"):
                    basis = symmetric_klocal_basis(k, system, state, null_threshold=threshold)
                with tracer.span("operators.symmetric_klocal_basis") as span:
                    full = symmetric_klocal_basis(k, system, state, prune=False)
                # both calls build every word; the first prunes afterwards
                span["attrs"]["word_ops"] = 2 * len(full)
                with tracer.span("channels.homogeneous_coarse_graining", hilbert_dim=system.dim):
                    channel = homogeneous_coarse_graining(system, y)
                with tracer.span("geometry.contraction_spectrum", gram_dim=len(full)) as span:
                    spectrum = geometry.contraction_spectrum(
                        ChannelProxy(channel, tracer), state, basis, out_basis=full, null_threshold=threshold
                    )
                span["attrs"]["kept_rank"] = spectrum.out_space.rank
            return spectrum.eigenvalues, root

        return Case(name, run, replay)

    def check(self, outputs: dict) -> list[Check]:
        checks = []
        for d, n, k, y, site in self.params:
            name = _dense_name(d, n, k)
            if name not in self._references:
                closed = focklimit.symmetric_sector_spectrum(
                    n, d, y, k, state=DensityMatrix(site), include_identity=True
                )
                self._references[name] = closed["eigenvalues"]
            ref, got = self._references[name], outputs[name]
            if ref.shape != got.shape:
                checks.append(Check(f"dense-vs-closed-form {name}", False, f"{got.size} vs {ref.size} eigenvalues"))
                continue
            dev = float(np.max(np.abs(ref - got)))
            checks.append(Check(f"dense-vs-closed-form {name}", dev <= DENSE_TOL, f"max deviation {dev:.3e}"))
        return checks


def _word_gram(kernel: np.ndarray, rows, cols) -> np.ndarray:
    """Permanent Gram over letter words, one focklimit.permanent per entry."""
    out = np.empty((len(rows), len(cols)), dtype=complex)
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            out[i, j] = focklimit.permanent(kernel[np.ix_(u, v)])
    return out


def _kron_power(mat: np.ndarray, k: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for _ in range(k):
        out = np.kron(out, mat)
    return out


class CollectiveLimit:
    """Closed forms in the large-n limit at the pure qutrit, degree 4.

    The time goes to Python permanent loops (sector spectrum) and to
    whitening and eigh on the 4096-square coarse tuple Gram (Fock block).
    The dense channels and operators code does no work here, so this
    workload is the bypass for dense-path optimisations.
    """

    name = "collective-limit"
    D, K = 3, 4
    interpose: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.y = draw_y(np.random.default_rng(seed))
        self._lower_blocks: dict[int, np.ndarray] | None = None
        self.cases = [
            Case("sector", self._sector_run, self._sector_replay),
            Case("fock", self._fock_run, self._fock_replay),
        ]

    def inputs(self) -> dict:
        return {"d": self.D, "k": self.K, "y": self.y, "site_state": "pure basis state |0><0|"}

    def warm_up(self):
        """Both top-level calls at degree 2, in well under a second.

        They load the same code and BLAS kernels as a pass; a degree-4
        warm-up pass would take ~24 s of the run's time budget.
        """
        focklimit.symmetric_sector_spectrum(None, self.D, self.y, 2)
        focklimit.fock_block_spectrum(*focklimit.depolarizing_fock_setup(self.D, self.y), 2)

    def _sector_run(self):
        out, seconds = _timed(focklimit.symmetric_sector_spectrum, None, self.D, self.y, self.K)
        return out["by_degree"], seconds

    def _sector_replay(self, tracer: Tracer):
        threshold = focklimit.NULL_LETTER_THRESHOLD
        by_degree = {}
        with tracer.span("focklimit.symmetric_sector_spectrum") as root:
            with tracer.span("focklimit.depolarizing_fock_setup"):
                sp_fine, sp_coarse, m = focklimit.depolarizing_fock_setup(
                    self.D, self.y, state=basis_pure_density(self.D)
                )
            with tracer.span("focklimit.reduced"):
                fine_red, kept = sp_fine.reduced(threshold)
            pair_single = fine_red.kernel @ m[kept, :]
            for j in range(1, self.K + 1):
                words_f = [w for w in symmetric_words(fine_red.dim, j) if len(w) == j]
                words_c = [w for w in symmetric_words(sp_coarse.dim, j) if len(w) == j]
                grams = []
                for kernel, rows, cols in (
                    (fine_red.kernel, words_f, words_f),
                    (sp_coarse.kernel, words_c, words_c),
                    (pair_single, words_f, words_c),
                ):
                    # counts computed from word counts and j!, not counted
                    entries = len(rows) * len(cols)
                    with tracer.span(
                        "focklimit.word_gram", permanents=entries, permanent_terms=entries * math.factorial(j)
                    ):
                        grams.append(np.real(_word_gram(kernel, rows, cols)))
                gram_f, gram_c, pairing = grams
                with tracer.span("geometry.whiten_psd", dim=len(words_f)):
                    w_f, _ = geometry.whiten_psd(gram_f, threshold)
                with tracer.span("geometry.whiten_psd", dim=len(words_c)):
                    w_c, _ = geometry.whiten_psd(gram_c, threshold)
                small = w_f.T @ pairing @ w_c
                vals = np.linalg.eigvalsh(small @ small.T)
                by_degree[j] = np.clip(vals[::-1], 0.0, None)
        return by_degree, root

    def _fock_run(self):
        sp_fine, sp_coarse, m = focklimit.depolarizing_fock_setup(self.D, self.y)
        block, seconds = _timed(focklimit.fock_block_spectrum, sp_fine, sp_coarse, m, self.K)
        return block.eigenvalues, seconds

    def _fock_replay(self, tracer: Tracer):
        threshold = focklimit.NULL_LETTER_THRESHOLD
        sp_fine, sp_coarse, m = focklimit.depolarizing_fock_setup(self.D, self.y)
        with tracer.span("focklimit.fock_block_spectrum") as root:
            with tracer.span("focklimit.reduced"):
                fine_red, kept = sp_fine.reduced(threshold)
            pair_single = fine_red.kernel @ m[kept, :]
            gram_fine = np.real(_kron_power(fine_red.kernel, self.K))
            gram_coarse = np.real(_kron_power(sp_coarse.kernel, self.K))
            pairing = np.real(_kron_power(pair_single, self.K))
            root["attrs"]["block_dim"] = gram_coarse.shape[0]
            with tracer.span("geometry.whiten_psd", dim=gram_fine.shape[0]):
                w_fine, _ = geometry.whiten_psd(gram_fine, threshold)
            with tracer.span("geometry.whiten_psd", dim=gram_coarse.shape[0]):
                w_coarse, _ = geometry.whiten_psd(gram_coarse, threshold)
            small = w_fine.T @ pairing @ w_coarse
            vals, _ = np.linalg.eigh(small @ small.T)
            padded = np.zeros(fine_red.dim**self.K)
            padded[: vals.size] = np.clip(vals[::-1], 0.0, None)
        return padded, root

    def check(self, outputs: dict) -> list[Check]:
        if self._lower_blocks is None:
            sp_fine, sp_coarse, m = focklimit.depolarizing_fock_setup(self.D, self.y)
            self._lower_blocks = {
                j: focklimit.fock_block_spectrum(sp_fine, sp_coarse, m, j).eigenvalues
                for j in range(1, self.K)
            }
        blocks = {**self._lower_blocks, self.K: outputs["fock"]}
        checks = []
        for j, sector in outputs["sector"].items():
            gap = max((float(np.min(np.abs(blocks[j] - v))) for v in sector), default=0.0)
            checks.append(
                Check(f"sector-in-fock-block j={j}", gap <= SECTOR_IN_FOCK_TOL, f"largest distance {gap:.3e}")
            )
        values = np.concatenate([*outputs["sector"].values(), outputs["fock"]])
        lo, hi = float(values.min()), float(values.max())
        checks.append(
            Check("eigenvalues-in-unit-interval", lo >= 0.0 and hi <= 1.0 + UNIT_INTERVAL_SLACK, f"range [{lo:.3e}, {hi:.6f}]")
        )
        return checks


class CliExperiments:
    """The six CLI experiments in-process through flab.cli.main.

    Uses channels and geometry in the opposite shape from dense-chain:
    thousands of tiny applies and eigendecompositions (bound-check, lattice
    probes) instead of one large build, so added per-call overhead shows
    here.  It is also the only workload that covers lattice, reporting and
    cli.  The configs are fixed; the seed goes to --seed.
    """

    name = "cli-experiments"
    CONFIGS = {
        "spectrum": {"d": 2, "n": 6, "y": 2.5, "k": 2},
        "fock": {"d": 3, "y": 2.0, "k_max": 3},
        "compare": {"d": 2, "y": 2.0, "k": 2, "n_list": [2, 4, 8]},
        "bound-check": {"d": 3, "n": 3, "y": 3.0, "k": 1, "samples": 1000},
        "lattice": {"L": 24, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0, 4.0], "pair_probe": True, "probe_samples": 32},
        "clt": {"d": 2, "n_list": [4, 8, 16, 32]},
    }
    # exit code and assertion verdicts of each experiment, recorded at the
    # commit that defined the benchmark; compare is red by design
    # (criterion 2: the finite-n deviations sit at roundoff)
    EXPECTED = {
        "spectrum": (0, {"spectrum-in-unit-interval": True}),
        "fock": (0, {"block-spectrum-in-unit-interval": True}),
        "compare": (
            1,
            {
                "deviation-rate-near-minus-one": False,
                "deviations-strictly-decreasing": False,
                "final-deviation-small": True,
            },
        ),
        "bound-check": (0, {"no-bound-violations": True}),
        "lattice": (
            0,
            {
                "high-momentum-mode-bound": True,
                "low-momentum-exponent-near-continuum": True,
                "mode-contraction-matches-closed-form": True,
                "multiplier-gap-within-dispersion-bound": True,
                "pair-deviation-decreasing-in-smoothing": True,
            },
        ),
        "clt": (0, {"word-metric-converges-at-one-over-n": True}),
    }
    # public functions called inside the experiment runners, whose bodies
    # are not sequences of public calls; spanned where flab looks them up
    interpose = (
        (cli, "beta_bound_test", "focklimit.beta_bound_test"),
        (focklimit, "klocal_basis", "operators.klocal_basis"),
        (focklimit, "sector_span", "operators.sector_span"),
        (focklimit, "pushforward_norm", "geometry.pushforward_norm"),
        (cli, "mode_contraction_k1", "lattice.mode_contraction_k1"),
        (cli, "high_momentum_suppression_probe", "lattice.high_momentum_suppression_probe"),
        (cli, "swap_factorization_probe", "lattice.swap_factorization_probe"),
        (SwapDiffusion, "pair_semigroup", "channels.pair_semigroup"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for name, config in self.CONFIGS.items():
            path = workdir / f"{name}.config.json"
            path.write_text(json.dumps(config))
            self.cases.append(self._case(name, path, workdir / f"{name}.report.json"))

    def inputs(self) -> dict:
        return {"seed": self.seed, "configs": self.CONFIGS}

    def _case(self, name: str, config: Path, out: Path) -> Case:
        def run():
            argv = [name, "--config", str(config), "--seed", str(self.seed), "--out", str(out)]
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = _timed(cli.main, argv)
            return (code, _report_payload(out)), seconds

        def replay(tracer: Tracer):
            # cli.main: load the config, override the seed, run, write
            out.unlink(missing_ok=True)
            with tracer.span(f"cli.{name}") as root:
                params = json.loads(config.read_text())
                params["seed"] = self.seed
                with tracer.span("cli.run_experiment"):
                    report = cli.run_experiment(name, params)
                with tracer.span("reporting.write_json") as span:
                    report.write_json(str(out))
                span["attrs"]["bytes"] = out.stat().st_size
            return (0 if report.passed else 1, _report_payload(out)), root

        return Case(name, run, replay)

    def check(self, outputs: dict) -> list[Check]:
        checks = []
        for name, (code, report) in outputs.items():
            verdicts = report and {k: v["passed"] for k, v in report["assertions"].items()}
            got = (code, verdicts)
            checks.append(Check(f"exit-and-verdicts {name}", got == self.EXPECTED[name], f"exit {code}, {verdicts}"))
        return checks


def _report_payload(path: Path) -> dict | None:
    """The written report without its timestamp, the part that must repeat.

    None when the experiment wrote no report (a config or numerical error).
    """
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    del report["metadata"]["timestamp"]
    return report


WORKLOADS = {w.name: w for w in (DenseChain, CollectiveLimit, CliExperiments)}
