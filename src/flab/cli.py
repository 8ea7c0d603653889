"""Command-line entry point.

    flab <experiment> --config settings.json [--seed N] [--out report.json]
                      [--format json|csv]

Experiments: spectrum, fock, compare, bound-check, lattice, clt.  Configs
are flat JSON objects (scalars and arrays of scalars only); unknown or
ill-typed keys are rejected before any computation starts.  Runs with the
same config and seed produce byte-identical reports apart from the
timestamp.  Exit codes: 0 all assertions passed, 1 an assertion failed,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channels import check_walker_budget
from .errors import ConfigError, DimensionBudgetError, NumericalError
from .focklimit import (
    beta_bound_decreasing,
    beta_bound_test,
    check_letter_setup,
    clt_convergence,
    depolarizing_fock_setup,
    finite_limit_comparison,
    fock_block_spectrum,
    SingleParticleSpace,
)
from .geometry import symmetric_sector_dense_spectrum
from .lattice import (
    RingLattice,
    continuum_mode_multiplier,
    dispersion_bound,
    heat_exponent,
    lattice_mode_multiplier,
    high_momentum_suppression_probe,
    mode_contractions,
    swap_factorization_probe,
)
from .operators import QuditSystem, basis_pure_density
from .reporting import Report

_SCALAR = (bool, int, float, str)
# absolute allowance of the lattice verdicts: semigroup entries from the
# eigendecomposition carry machine-level noise, unobservable below it
SEMIGROUP_NOISE_FLOOR = 1e-13
# marks a config key without a default
REQUIRED = object()


def _value(key: str, value, kind, rule=None, describe: str = ""):
    """`value` of config key `key` as a `kind`, then checked by `rule`: an
    int (not a bool), a finite float (an int is converted), a bool or a
    list.  A list[int] lists sizes, integers >= 2, at least two of them; a
    list[float] lists positive finite floats, at least one.  Both are
    strictly increasing: each feeds a fit or a trend over its entries."""
    if kind is float:
        # json.load reads Infinity and NaN, and an integer literal may overflow a float
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    else:
        base = getattr(kind, "__origin__", kind)
        ok = isinstance(value, base) and not (base is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"config key {key!r} must be {'a finite' if kind is float else 'of type'} {kind.__name__}")
    if kind == list[int] and not all(isinstance(v, int) and not isinstance(v, bool) and v >= 2 for v in value):
        raise ConfigError(f"config key {key!r} must list integers >= 2")
    if kind == list[float]:
        value = [_value(key, v, float, lambda x: x > 0, "need positive numbers") for v in value]
        if not value:
            raise ConfigError(f"config key {key!r} must not be empty")
    if isinstance(value, list) and any(b <= a for a, b in zip(value, value[1:])):
        raise ConfigError(f"config key {key!r} must be strictly increasing")
    if kind == list[int] and len(value) < 2:
        raise ConfigError(f"config key {key!r} must list at least two sizes")
    if rule is not None and not rule(value):
        raise ConfigError(f"config key {key!r} invalid: {describe}")
    return value


def _parse(rows, params: dict) -> dict:
    """The values of `params` by the rows (key, type, default, rule, what
    the rule needs), in row order: ConfigError names the first fault.  A key
    that is absent or null takes its default, unless it is REQUIRED."""
    for key, value in params.items():
        flat = isinstance(value, list) and all(isinstance(v, _SCALAR) for v in value)
        if not (flat or isinstance(value, _SCALAR) or value is None):
            raise ConfigError(f"config key {key!r} must be a scalar or an array of scalars")
    unknown = sorted(set(params) - {row[0] for row in rows})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, kind, default, rule, describe in rows:
        if key not in params and default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        optional = params.get(key) is None and default is not REQUIRED
        values[key] = default if optional else _value(key, params[key], kind, rule, describe)
    return values


def run_spectrum(report: Report, d: int, n: int, y: float, k: int):
    # the route reads the site state; the chain's product state is never built
    spectrum = symmetric_sector_dense_spectrum(QuditSystem(d, n), basis_pure_density(d), y, k)
    rows = [
        {"index": i, "eigenvalue": float(v), "contraction_factor": math.sqrt(max(v, 0.0))}
        for i, v in enumerate(spectrum.eigenvalues)
    ]
    report.add_table("eigenvalues", rows)
    in_range = bool(np.all(spectrum.eigenvalues <= 1.0 + 1e-10))
    report.add_assertion(
        "spectrum-in-unit-interval",
        in_range,
        f"max eigenvalue {float(spectrum.eigenvalues.max(initial=0.0)):.6g}",
    )
    if y == 1.0:
        flat = bool(np.all(np.abs(spectrum.eigenvalues - 1.0) < 1e-8))
        report.add_assertion(
            "identity-channel-fixes-sector",
            flat,
            "permutation averaging alone must leave symmetric words untouched",
        )


def run_fock(report: Report, d: int, y: float, k_max: int):
    sp_fine, sp_coarse, m = depolarizing_fock_setup(d, y)
    # largest block first, so one over the dimension budget is refused
    # before any smaller block has run
    blocks = [fock_block_spectrum(sp_fine, sp_coarse, m, k) for k in range(k_max, 0, -1)]
    rows = []
    worst = 0.0
    for block in reversed(blocks):
        for i, (v, label) in enumerate(zip(block.eigenvalues, block.eigen_labels)):
            rows.append({"k": block.k, "index": i, "eigenvalue": float(v), "eigenvector": label})
            worst = max(worst, float(v))
    report.add_table("blocks", rows)
    report.add_assertion(
        "block-spectrum-in-unit-interval", worst <= 1.0 + 1e-10, f"max eigenvalue {worst:.6g}"
    )


def run_compare(report: Report, d: int, y: float, k: int, n_list: list[int]):
    # every degree up to k appears at each size
    if n_list[0] < k:
        raise ConfigError(f"config key 'n_list' must list integers >= {k}")
    data = finite_limit_comparison(n_list, d, y, k)
    report.add_table(
        "deviations",
        [{"n": n, "deviation": dev} for n, dev in zip(data["n_list"], data["deviations"])],
    )
    spectra_rows = [
        {"n": "limit", "index": i, "eigenvalue": float(v)}
        for i, v in enumerate(data["limit"])
    ]
    for n in n_list:
        spectra_rows.extend(
            {"n": n, "index": i, "eigenvalue": float(v)}
            for i, v in enumerate(data["spectra"][n])
        )
    report.add_table("spectra", spectra_rows)
    devs = data["deviations"]
    report.add_assertion(
        "final-deviation-small",
        devs[-1] <= 0.05,
        f"deviation {devs[-1]:.3e} at n={n_list[-1]}",
    )
    strict = all(b < a for a, b in zip(devs, devs[1:]))
    report.add_assertion(
        "deviations-strictly-decreasing",
        strict,
        "sequence " + ", ".join(f"{v:.3e}" for v in devs),
    )
    if all(v > 1e-14 for v in devs):
        rate = float(np.polyfit(np.log(n_list), np.log(devs), 1)[0])
        report.add_assertion(
            "deviation-rate-near-minus-one",
            abs(rate + 1.0) <= 0.3,
            f"fitted rate {rate:.3f}",
        )
    else:
        report.add_assertion(
            "deviation-rate-near-minus-one",
            False,
            "deviations sit at roundoff level; no 1/n scaling is measurable",
        )


def run_bound_check(report: Report, d: int, y: float, n: int, k: int, samples: int):
    if k > n:
        raise ConfigError("config key 'k' must not exceed 'n'")
    data = beta_bound_test(n, d, y, k, samples, seed=report.seed)
    report.add_table(
        "bound",
        [
            {
                "n": n,
                "d": d,
                "y": y,
                "k": k,
                "samples": samples,
                "bound": data["bound"],
                "max_ratio_sq": data["max_ratio_sq"],
                "supremum": data["supremum"],
                "violations": data["violations"],
                "bound_decreasing_in_k": beta_bound_decreasing(d, y),
            }
        ],
    )
    report.add_assertion(
        "no-bound-violations",
        data["violations"] == 0,
        f"max ratio {data['max_ratio_sq']:.6g} against bound {data['bound']:.6g}",
    )


def run_lattice(
    report: Report,
    L: int,
    spacing: float,
    y: float,
    sigma_list: list[float],
    cutoff: float | None,
    pair_probe: bool,
    probe_samples: int,
):
    # the degree-2 probe applies the pair semigroup to this many words per
    # block; the budget is integer arithmetic, checked before L meets a float
    pair_samples = max(4, probe_samples // 4) if pair_probe else 0
    check_walker_budget(L, 2 if pair_probe else 1, pair_samples)
    lattice = RingLattice(L, spacing)
    # the probes draw profiles from the modes at or above the cutoff, and the
    # highest mode below Nyquist is L/2 - 1
    top_momentum = lattice.momentum(L // 2 - 1)
    if cutoff is not None and not 0 < cutoff <= top_momentum:
        raise ConfigError(
            f"config key 'cutoff' invalid: cutoff must lie in (0, {top_momentum:.6g}], "
            "the highest sub-Nyquist momentum"
        )
    cutoff = 0.5 * lattice.nyquist if cutoff is None else cutoff
    # refused before any mode is computed: each mode squares sigma p (the
    # largest at the top mode), the low-momentum check divides by
    # (sigma p)^2 / 2 at the lowest, the degree-2 probe divides by y^2, and
    # the probes draw modes at or above the cutoff
    reach, low = sigma_list[-1] * top_momentum, lattice.momentum(1)
    smoothing = "config keys 'sigma_list' and 'spacing' invalid: (sigma p)^2"
    if not math.isfinite(reach * reach):
        raise ConfigError(f"{smoothing} overflows at p={top_momentum:.6g}")
    if 0 < low * spacing <= 0.5 and 0.5 * (sigma_list[0] * low) ** 2 == 0.0:
        raise ConfigError(f"{smoothing} / 2 underflows to 0 at p={low:.6g}")
    if pair_probe and not math.isfinite(y * y):
        raise ConfigError(f"config key 'y' invalid: y^2 overflows at y={y:.6g}")
    if not 0 < cutoff <= top_momentum:
        raise ConfigError(f"config key 'spacing' invalid: no sub-Nyquist mode reaches the cutoff {cutoff:.6g}")

    # one pass over the modes of every sigma: each mode's lattice and
    # continuum multipliers feed the mode table, the closed-form and
    # low-momentum checks and the dispersion bound
    mode_rows, disp_rows = [], []
    formula_gap = 0.0
    exponent_gaps = []
    disp_detail = ""
    for sigma in sigma_list:
        max_gap = bound_at_max = 0.0
        failure = ""
        for m, contraction in mode_contractions(lattice, sigma, y).items():
            p = lattice.momentum(m)
            lat = lattice_mode_multiplier(lattice, sigma, m)
            cont = continuum_mode_multiplier(sigma, p)
            mode_rows.append(
                {
                    "sigma": sigma,
                    "mode": m,
                    "momentum": p,
                    "contraction": contraction,
                    "closed_form": lat / y,
                    "continuum": cont / y,
                }
            )
            formula_gap = max(formula_gap, abs(contraction - lat / y))
            if 0 < abs(p) * spacing <= 0.5:
                a = heat_exponent(lattice, sigma, p)
                b = 0.5 * (sigma * p) ** 2
                exponent_gaps.append(abs(a - b) / b)
            gap, allowance = abs(lat - cont), dispersion_bound(lattice, sigma, m) + 1e-12
            if gap > allowance and not failure:
                failure = f"mode {m}: multiplier gap {gap:.3e} exceeds dispersion bound {allowance:.3e}"
            if gap > max_gap:
                max_gap, bound_at_max = gap, allowance
        disp_rows.append({"sigma": sigma, "max_gap": max_gap, "bound_at_max": bound_at_max})
        # the detail names the first failing mode of the last failing sigma
        disp_detail = failure or disp_detail
    report.add_table("modes", mode_rows)
    report.add_assertion(
        "mode-contraction-matches-closed-form",
        formula_gap <= 1e-10,
        f"max gap {formula_gap:.3e}",
    )
    # the lowest nonzero mode sits at p*eps = 2 pi / L, above 0.5 for L <= 12;
    # a check over no mode is not a pass
    exponent_gap = max(exponent_gaps, default=math.inf)
    report.add_assertion(
        "low-momentum-exponent-near-continuum",
        exponent_gap <= 0.10,
        f"max relative exponent gap {exponent_gap:.3%} below p*eps = 0.5"
        if exponent_gaps
        else "no sub-Nyquist mode lies at p*eps <= 0.5",
    )

    probe_rows = []
    bound_detail = ""
    degrees = [(1, probe_samples), (2, pair_samples)] if pair_probe else [(1, probe_samples)]
    keys = ("k", "max_contraction", "mode_bound", "gaussian_claim")
    for sigma in sigma_list:
        for k, samples in degrees:
            out = high_momentum_suppression_probe(lattice, sigma, y, cutoff, k, samples=samples, seed=report.seed)
            probe_rows.append({"sigma": sigma} | {key: out[key] for key in keys})
            if k == 1 and out["max_contraction"] > out["mode_bound"] * (1.0 + 1e-10) + SEMIGROUP_NOISE_FLOOR:
                bound_detail = (
                    f"high-momentum contraction {out['max_contraction']:.6e} exceeds the "
                    f"mode bound {out['mode_bound']:.6e}"
                )
    report.add_table("high_momentum", probe_rows)
    report.add_assertion("high-momentum-mode-bound", not bound_detail, bound_detail)
    report.add_table("dispersion", disp_rows)
    report.add_assertion("multiplier-gap-within-dispersion-bound", not disp_detail, disp_detail)

    if pair_probe:
        pair_rows = []
        keys = ("sigma_over_eps", "sup_deviation", "word_count")
        for sigma in sigma_list:
            out = swap_factorization_probe(lattice, sigma)
            pair_rows.append({"sigma": sigma} | {key: out[key] for key in keys})
        report.add_table("pair_independence", pair_rows)
        sups = [row["sup_deviation"] for row in pair_rows]
        if len(sups) >= 2:
            # two neighbours both at or below the noise floor are a tie, not a rise
            ties = [max(a, b) <= SEMIGROUP_NOISE_FLOOR for a, b in zip(sups, sups[1:])]
            mono = all(tie or b < a for tie, a, b in zip(ties, sups, sups[1:]))
            detail = "sup deviations " + ", ".join(f"{v:.3e}" for v in sups)
            if any(ties):
                detail += f"; neighbours both at or below the {SEMIGROUP_NOISE_FLOOR:.0e} noise floor count as a tie"
            report.add_assertion("pair-deviation-decreasing-in-smoothing", mono, detail)


def run_clt(report: Report, d: int, n_list: list[int], letter: int):
    if letter >= d * d - 1:
        raise ConfigError(f"letter index {letter} out of range for d={d}")
    # refused before the site state, d^2 floats, is built
    check_letter_setup(d, 1)
    sp = SingleParticleSpace.from_eigenvalues(np.eye(d)[0])
    rows = []
    all_ok = True
    details = []
    for degree, word in ((1, (letter,)), (2, (letter, letter))):
        data = clt_convergence(sp, word, word, n_list)
        devs, rate = data["deviations"], data["rate"]
        rows.extend({"degree": degree, "n": n, "deviation": dev} for n, dev in zip(data["n_list"], devs))
        rises = [(a, b) for a, b in zip(devs, devs[1:]) if b > a * (1.0 + 1e-12) + 1e-300]
        if rises:
            all_ok = False
            details.append(f"degree {degree}: finite-n deviations increased: {rises[0][0]:.3e} -> {rises[0][1]:.3e}")
        elif rate is not None and degree == 2 and abs(rate + 1.0) > 0.2:
            all_ok = False
            details.append(f"degree 2: degree-2 convergence rate {rate:.3f} outside -1 +- 0.2")
        elif rate is not None:
            details.append(f"degree {degree} rate {rate:.3f}")
    report.add_table("convergence", rows)
    report.add_assertion(
        "word-metric-converges-at-one-over-n", all_ok, "; ".join(details)
    )


# one row per config key: (key, type, default, rule, what the rule needs)
_SEED = ("seed", int, 0, lambda v: v >= 0, "need seed >= 0")
_D = ("d", int, REQUIRED, lambda v: v >= 2, "need d >= 2")
_N = ("n", int, REQUIRED, lambda v: v >= 2, "need n >= 2")
_Y = ("y", float, REQUIRED, lambda v: v >= 1.0, "need y >= 1")
_K = ("k", int, REQUIRED, lambda v: v >= 1, "need k >= 1")
_N_LIST = ("n_list", list[int], REQUIRED, None, "")

# each experiment's runner and the keys it takes besides the seed, parsed
# in this order; cross-key checks are the runner's
EXPERIMENTS = {
    "spectrum": (run_spectrum, (_D, _N, _Y, _K)),
    "fock": (run_fock, (_D, _Y, ("k_max", int, REQUIRED, lambda v: 1 <= v <= 4, "need 1 <= k_max <= 4"))),
    "compare": (run_compare, (_D, ("y", float, REQUIRED, lambda v: v > 1.0, "need y > 1"), _K, _N_LIST)),
    "bound-check": (
        run_bound_check,
        (
            _D,
            ("y", float, REQUIRED, lambda v: 1.0 < v < 1.79e305, "need 1 < y < 1.79e305 (draw key int(1000 y))"),
            _N,
            _K,
            ("samples", int, REQUIRED, lambda v: 1 <= v <= 100000, "1..100000"),
        ),
    ),
    "lattice": (
        run_lattice,
        (
            ("L", int, REQUIRED, lambda v: v >= 8 and v % 2 == 0, "need even L >= 8"),
            ("spacing", float, REQUIRED, lambda v: v > 0, "need spacing > 0"),
            _Y,
            ("sigma_list", list[float], REQUIRED, None, ""),
            # None: half the Nyquist momentum of the ring
            ("cutoff", float, None, None, ""),
            ("pair_probe", bool, True, None, ""),
            ("probe_samples", int, 32, lambda v: v >= 1, "need >= 1"),
        ),
    ),
    "clt": (
        run_clt,
        (("d", int, 2, lambda v: v >= 2, "need d >= 2"), _N_LIST, ("letter", int, 0, lambda v: v >= 0, "need letter >= 0")),
    ),
}


def run_experiment(name: str, params: dict) -> Report:
    """Run experiment `name` on the flat config `params`: every key is
    parsed by the experiment's table and the seed row, in row order, before
    the runner computes.  The report keeps `params` as given."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    runner, keys = EXPERIMENTS[name]
    values = _parse((*keys, _SEED), params)
    report = Report(name, params, values.pop("seed"))
    runner(report, **values)
    return report


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call and reused:
    parsing leaves it unchanged, and each parse returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="flab",
        description="Contraction spectra of coarse-graining channels on spin systems.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="path to a flat JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        params = _load_config(args.config)
        if args.seed is not None:
            params["seed"] = args.seed
        report = run_experiment(args.experiment, params)
    except (ConfigError, DimensionBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for line in report.summary_lines():
        print(line)
    if args.out:
        if args.format == "json":
            report.write_json(args.out)
        else:
            report.write_csv(args.out)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
