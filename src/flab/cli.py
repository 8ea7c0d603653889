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
from .errors import ConfigError, DimensionBudgetError, FlabError, NumericalError
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


def _check_flat(config: dict):
    for key, value in config.items():
        if isinstance(value, _SCALAR) or value is None:
            continue
        if isinstance(value, list) and all(isinstance(v, _SCALAR) for v in value):
            continue
        raise ConfigError(
            f"config key {key!r} must be a scalar or an array of scalars"
        )


def _require(params: dict, key: str, kind, predicate=None, describe: str = ""):
    if key not in params:
        raise ConfigError(f"missing required config key {key!r}")
    value = params[key]
    if kind is float:
        # json.load reads Infinity and NaN, and an integer literal may overflow a float
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is list:
        ok = isinstance(value, list)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {'a finite' if kind is float else 'of type'} {kind.__name__}")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"config key {key!r} invalid: {describe}")
    return value


def _optional(params: dict, key: str, kind, default, predicate=None, describe: str = ""):
    if key not in params or params[key] is None:
        return default
    return _require(params, key, kind, predicate, describe)


def _int_list(params: dict, key: str, minimum: int):
    raw = _require(params, key, list)
    out = []
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise ConfigError(f"config key {key!r} must list integers >= {minimum}")
        out.append(v)
    if out != sorted(out) or len(set(out)) != len(out):
        raise ConfigError(f"config key {key!r} must be strictly increasing")
    # every size list feeds a fit or a trend over sizes
    if len(out) < 2:
        raise ConfigError(f"config key {key!r} must list at least two sizes")
    return out


def _float_list(params: dict, key: str):
    raw = _require(params, key, list)
    out = [_require({key: v}, key, float, lambda x: x > 0, "need positive numbers") for v in raw]
    if not out:
        raise ConfigError(f"config key {key!r} must not be empty")
    # every value list feeds a trend over its values
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"config key {key!r} must be strictly increasing")
    return out


def _reject_unknown(params: dict, allowed: set[str]):
    unknown = sorted(set(params) - allowed - {"seed"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _seed(params: dict) -> int:
    return _optional(params, "seed", int, 0, lambda v: v >= 0, "need seed >= 0")


def run_spectrum(params: dict) -> Report:
    _reject_unknown(params, {"d", "n", "y", "k"})
    d = _require(params, "d", int, lambda v: v >= 2, "need d >= 2")
    n = _require(params, "n", int, lambda v: v >= 2, "need n >= 2")
    y = _require(params, "y", float, lambda v: v >= 1.0, "need y >= 1")
    k = _require(params, "k", int, lambda v: v >= 1, "need k >= 1")
    report = Report("spectrum", params, _seed(params))
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
    return report


def run_fock(params: dict) -> Report:
    _reject_unknown(params, {"d", "y", "k_max"})
    d = _require(params, "d", int, lambda v: v >= 2, "need d >= 2")
    y = _require(params, "y", float, lambda v: v >= 1.0, "need y >= 1")
    k_max = _require(params, "k_max", int, lambda v: 1 <= v <= 4, "need 1 <= k_max <= 4")
    report = Report("fock", params, _seed(params))
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
    return report


def run_compare(params: dict) -> Report:
    _reject_unknown(params, {"d", "y", "k", "n_list"})
    d = _require(params, "d", int, lambda v: v >= 2, "need d >= 2")
    y = _require(params, "y", float, lambda v: v > 1.0, "need y > 1")
    k = _require(params, "k", int, lambda v: v >= 1, "need k >= 1")
    n_list = _int_list(params, "n_list", minimum=max(2, k))
    report = Report("compare", params, _seed(params))
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
    return report


def run_bound_check(params: dict) -> Report:
    _reject_unknown(params, {"d", "y", "n", "k", "samples"})
    d = _require(params, "d", int, lambda v: v >= 2, "need d >= 2")
    y = _require(params, "y", float, lambda v: 1.0 < v < 1.79e305, "need 1 < y < 1.79e305 (draw key int(1000 y))")
    n = _require(params, "n", int, lambda v: v >= 2, "need n >= 2")
    k = _require(params, "k", int, lambda v: v >= 1, "need k >= 1")
    samples = _require(params, "samples", int, lambda v: 1 <= v <= 100000, "1..100000")
    if k > n:
        raise ConfigError("config key 'k' must not exceed 'n'")
    report = Report("bound-check", params, _seed(params))
    data = beta_bound_test(n, d, y, k, samples, seed=_seed(params))
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
    return report


def run_lattice(params: dict) -> Report:
    _reject_unknown(params, {"L", "spacing", "y", "sigma_list", "cutoff", "pair_probe", "probe_samples"})
    L = _require(params, "L", int, lambda v: v >= 8 and v % 2 == 0, "need even L >= 8")
    spacing = _require(params, "spacing", float, lambda v: v > 0, "need spacing > 0")
    y = _require(params, "y", float, lambda v: v >= 1.0, "need y >= 1")
    sigma_list = _float_list(params, "sigma_list")
    lattice = RingLattice(L, spacing)
    # the probes draw profiles from the modes at or above the cutoff, and the
    # highest mode below Nyquist is L/2 - 1
    top_momentum = lattice.momentum(L // 2 - 1)
    cutoff = _optional(
        params,
        "cutoff",
        float,
        0.5 * lattice.nyquist,
        lambda v: 0 < v <= top_momentum,
        f"cutoff must lie in (0, {top_momentum:.6g}], the highest sub-Nyquist momentum",
    )
    pair_probe = _optional(params, "pair_probe", bool, True)
    probe_samples = _optional(params, "probe_samples", int, 32, lambda v: v >= 1, "need >= 1")
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
    # the degree-2 probe applies the pair semigroup to this many words per block
    pair_samples = max(4, probe_samples // 4) if pair_probe else 0
    check_walker_budget(L, 2 if pair_probe else 1, pair_samples)
    seed = _seed(params)
    report = Report("lattice", params, seed)

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
            u = abs(p) * spacing
            if 0 < u <= 0.5:
                a = (sigma / spacing) ** 2 * (1.0 - math.cos(u))
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
            out = high_momentum_suppression_probe(lattice, sigma, y, cutoff, k, samples=samples, seed=seed)
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
    return report


def run_clt(params: dict) -> Report:
    _reject_unknown(params, {"d", "n_list", "letter"})
    d = _optional(params, "d", int, 2, lambda v: v >= 2, "need d >= 2")
    n_list = _int_list(params, "n_list", minimum=2)
    letter = _optional(params, "letter", int, 0, lambda v: v >= 0, "need letter >= 0")
    if letter >= d * d - 1:
        raise ConfigError(f"letter index {letter} out of range for d={d}")
    report = Report("clt", params, _seed(params))
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
    return report


EXPERIMENTS = {
    "spectrum": run_spectrum,
    "fock": run_fock,
    "compare": run_compare,
    "bound-check": run_bound_check,
    "lattice": run_lattice,
    "clt": run_clt,
}


def run_experiment(name: str, params: dict) -> Report:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    _check_flat(params)
    return EXPERIMENTS[name](params)


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
    except FlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
