"""Command-line entry: configs, exit codes, determinism of reports."""

import ast
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flab
from flab import cli, geometry, operators
from flab.cli import main, run_experiment
from flab.errors import ConfigError, NumericalError
from flab.lattice import RingLattice, continuum_mode_multiplier, lattice_mode_multiplier


def write_config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_spectrum_runs_clean(tmp_path, capsys):
    cfg = write_config(tmp_path, "spectrum", {"d": 2, "n": 3, "y": 2.0, "k": 2})
    out = tmp_path / "report.json"
    code = main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "overall: PASS" in printed
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["assertions"]["spectrum-in-unit-interval"]["passed"] is True


def test_fock_runs_clean(tmp_path):
    cfg = write_config(tmp_path, "fock", {"d": 2, "y": 2.0, "k_max": 2})
    assert main(["fock", "--config", cfg]) == 0


def test_compare_reports_flat_deviations(tmp_path, capsys):
    # finite-size deviations sit at roundoff, so the decrease and rate
    # assertions come out red; the exit code reflects that honestly
    cfg = write_config(tmp_path, "cmp", {"d": 2, "y": 2.0, "k": 2, "n_list": [2, 4, 8]})
    code = main(["compare", "--config", cfg])
    assert code == 1
    printed = capsys.readouterr().out
    assert "[PASS] final-deviation-small" in printed
    assert "[FAIL] deviations-strictly-decreasing" in printed


def test_bound_check_runs_clean(tmp_path):
    cfg = write_config(
        tmp_path, "bound", {"d": 2, "y": 3.0, "n": 3, "k": 1, "samples": 20}
    )
    assert main(["bound-check", "--config", cfg]) == 0


def test_clt_runs_clean(tmp_path):
    cfg = write_config(tmp_path, "clt", {"n_list": [4, 8, 16]})
    assert main(["clt", "--config", cfg]) == 0


def test_lattice_runs_clean(tmp_path):
    cfg = write_config(
        tmp_path,
        "lat",
        {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0, 4.0], "probe_samples": 8},
    )
    assert main(["lattice", "--config", cfg]) == 0


def test_config_errors(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["spectrum", "--config", str(arr)]) == 2
    # unknown key
    cfg = write_config(tmp_path, "extra", {"d": 2, "n": 3, "y": 2.0, "k": 2, "zz": 1})
    assert main(["spectrum", "--config", cfg]) == 2
    # missing required key
    cfg = write_config(tmp_path, "short", {"d": 2, "n": 3, "y": 2.0})
    assert main(["spectrum", "--config", cfg]) == 2
    # wrong type: bool is not an int
    cfg = write_config(tmp_path, "boolish", {"d": True, "n": 3, "y": 2.0, "k": 2})
    assert main(["spectrum", "--config", cfg]) == 2
    # nested config values are rejected
    cfg = write_config(tmp_path, "nested", {"d": 2, "n": 3, "y": 2.0, "k": {"a": 1}})
    assert main(["spectrum", "--config", cfg]) == 2
    valid = {
        "spectrum": {"d": 2, "n": 3, "y": 2.0, "k": 2},
        "fock": {"d": 2, "y": 2.0, "k_max": 2},
        "compare": {"d": 2, "y": 2.0, "k": 2, "n_list": [2, 4, 8]},
        "bound-check": {"d": 2, "y": 3.0, "n": 3, "k": 1, "samples": 20},
        "lattice": LATTICE,
        "clt": {"n_list": [4, 8, 16]},
    }
    # a seed is an integer >= 0, from the config or the flag
    for experiment, payload in valid.items():
        assert main([experiment, "--config", write_config(tmp_path, "seed", payload | {"seed": -3})]) == 2
        assert main([experiment, "--config", write_config(tmp_path, "flag", payload), "--seed", "-1"]) == 2
    # json.load reads Infinity and NaN; every number must be finite
    for value in (math.inf, -math.inf, math.nan):
        for experiment, key in [(name, "y") for name in valid if "y" in valid[name]] + [("lattice", "spacing")]:
            cfg = write_config(tmp_path, "nonfinite", valid[experiment] | {key: value})
            assert main([experiment, "--config", cfg]) == 2, (experiment, key, value)
        cfg = write_config(tmp_path, "nonfinite", LATTICE | {"sigma_list": [2.0, value]})
        assert main(["lattice", "--config", cfg]) == 2, value
    # an integer literal too large for a float
    assert main(["fock", "--config", write_config(tmp_path, "huge", valid["fock"] | {"y": 10**400})]) == 2
    # bound-check's draw key int(1000 y) overflows
    cfg = write_config(tmp_path, "overflow", valid["bound-check"] | {"y": 1e306})
    assert main(["bound-check", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"L": 80, "pair_probe": True},  # pair blocks over the byte budget
        {"L": 100},  # pair blocks (the default probe) over the byte budget
        {"L": 8, "cutoff": math.pi},  # above the highest sub-Nyquist momentum
    ],
)
def test_lattice_limits_are_config_errors(tmp_path, capsys, monkeypatch, overrides):
    # FLAB_MAX_DIM=1024 allows 16 MiB: the walker arrays of the 16-site base
    # ring fit (12.2 MiB), those of 80 sites (29.6 MiB) do not; every refusal
    # comes before a walker generator is diagonalised
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called before the budget check")

    monkeypatch.setenv("FLAB_MAX_DIM", "1024")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    payload = {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0], "probe_samples": 4, **overrides}
    out = tmp_path / "report.json"
    assert main(["lattice", "--config", write_config(tmp_path, "lat", payload), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, payload",
    [
        ("compare", {"d": 2, "y": 2.0, "k": 2, "n_list": []}),
        ("clt", {"n_list": [4]}),  # one size: no rate to fit
        ("lattice", {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": []}),
        # the pair check reads deviations in list order as smoothing grows
        ("lattice", {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [4.0, 2.0]}),
        ("lattice", {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0, 2.0]}),
    ],
    ids=[
        "compare-n_list",
        "clt-n_list",
        "lattice-sigma_list",
        "lattice-sigma_list-descending",
        "lattice-sigma_list-repeated",
    ],
)
def test_size_lists_are_config_errors(tmp_path, capsys, experiment, payload):
    out = tmp_path / "report.json"
    assert main([experiment, "--config", write_config(tmp_path, experiment, payload), "--out", str(out)]) == 2
    key = "sigma_list" if experiment == "lattice" else "n_list"
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


LATTICE = {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0, 4.0], "probe_samples": 8}


def _failed_run(tmp_path, experiment, payload, assertion):
    """Exit code, tables and the named assertion's detail of a run whose
    named assertion, and only that one, fails."""
    out = tmp_path / "report.json"
    code = main([experiment, "--config", write_config(tmp_path, experiment, payload), "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1
    assert [name for name, a in report["assertions"].items() if not a["passed"]] == [assertion]
    return report["tables"], report["assertions"][assertion]["detail"]


def test_dispersion_failure_is_an_assertion(tmp_path, monkeypatch):
    # a negative bound fails every mode; the detail names the first mode of
    # the last sigma, and every sigma keeps its row
    monkeypatch.setattr(cli, "dispersion_bound", lambda lattice, sigma, m: -1.0)
    tables, detail = _failed_run(tmp_path, "lattice", LATTICE, "multiplier-gap-within-dispersion-bound")
    assert [row["sigma"] for row in tables["dispersion"]] == [2.0, 4.0]
    lat = RingLattice(16, 1.0)
    gap = abs(lattice_mode_multiplier(lat, 4.0, -7) - continuum_mode_multiplier(4.0, lat.momentum(-7)))
    assert detail == f"mode -7: multiplier gap {gap:.3e} exceeds dispersion bound {-1.0 + 1e-12:.3e}"


def test_high_momentum_failure_is_an_assertion(tmp_path, monkeypatch):
    probe = cli.high_momentum_suppression_probe

    def loud(*args, **kwargs):
        out = probe(*args, **kwargs)
        return out | {"max_contraction": 2.0 * out["mode_bound"]} if out["k"] == 1 else out

    monkeypatch.setattr(cli, "high_momentum_suppression_probe", loud)
    tables, detail = _failed_run(tmp_path, "lattice", LATTICE, "high-momentum-mode-bound")
    rows = [row for row in tables["high_momentum"] if row["k"] == 1]
    assert [row["sigma"] for row in rows] == [2.0, 4.0]
    last = rows[-1]
    assert detail == (
        f"high-momentum contraction {last['max_contraction']:.6e} exceeds the "
        f"mode bound {last['mode_bound']:.6e}"
    )


@pytest.mark.parametrize("spacing", [1e-4, 1e-6, 1e-12])
def test_pair_deviations_at_roundoff_tie(tmp_path, spacing):
    # at small spacings both sup deviations are roundoff (about 1e-30, or
    # exactly 0): neighbours at or below the noise floor tie, and the
    # detail names the floor
    payload = {"L": 16, "spacing": spacing, "y": 2.0, "sigma_list": [1.0, 2.0]}
    out = tmp_path / "report.json"
    assert main(["lattice", "--config", write_config(tmp_path, "lat", payload), "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["assertions"]["pair-deviation-decreasing-in-smoothing"]
    assert verdict["passed"] is True
    assert verdict["detail"].endswith("; neighbours both at or below the 1e-13 noise floor count as a tie")


def test_pair_deviation_rise_fails():
    # 0.0898 then 0.1016 at sigma 1, 2: a rise far above the noise floor,
    # judged as before, with the detail unchanged
    payload = {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [1.0, 2.0]}
    report = run_experiment("lattice", payload)
    verdict = report.assertions["pair-deviation-decreasing-in-smoothing"]
    sups = [row["sup_deviation"] for row in report.tables["pair_independence"]]
    assert 0.08 < sups[0] < sups[1] < 0.11
    assert not verdict["passed"] and verdict["detail"] == f"sup deviations {sups[0]:.3e}, {sups[1]:.3e}"


def test_clt_failure_is_an_assertion(tmp_path, monkeypatch):
    convergence = cli.clt_convergence

    def rising(*args):
        out = convergence(*args)
        return out | {"deviations": out["deviations"][::-1]}

    monkeypatch.setattr(cli, "clt_convergence", rising)
    tables, detail = _failed_run(tmp_path, "clt", {"n_list": [4, 8, 16]}, "word-metric-converges-at-one-over-n")
    rows = tables["convergence"]
    assert [(row["degree"], row["n"]) for row in rows] == [(g, n) for g in (1, 2) for n in (4, 8, 16)]
    # degree 1 sits exactly at its limit, so only degree 2 rises
    first, second = (row["deviation"] for row in rows[3:5])
    assert detail == f"degree 2: finite-n deviations increased: {first:.3e} -> {second:.3e}"


def test_runners_only_compute():
    # the config is parsed, the seed read and the report built once, in
    # run_experiment: a runner takes the parsed values, and neither reads
    # the config nor parses a value nor builds a report
    tree = ast.parse(inspect.getsource(cli))
    runners = {runner.__name__ for runner, _ in cli.EXPERIMENTS.values()}
    found = {
        func.name: sorted(
            {arg.arg for arg in func.args.args} & {"params"}
            | {sub.id for stmt in func.body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
            & {"params", "Report", "_parse", "_value"}
        )
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name in runners
    }
    assert found == dict.fromkeys(runners, [])


def test_only_main_catches_numerical_errors():
    # verdicts are report assertions: NumericalError means exit 3 and is
    # caught nowhere but at the entry point, by name or through a base class
    def catches(handler):
        names = set(re.findall(r"\w+", ast.unparse(handler.type))) if handler.type else {"BaseException"}
        return bool(names & {"NumericalError", "FlabError", "Exception", "BaseException"})

    tree = ast.parse(inspect.getsource(cli))
    catchers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for handler in ast.walk(func)
        if isinstance(handler, ast.ExceptHandler) and catches(handler)
    }
    assert catchers == {"main"}


def test_lattice_fits_budget_at_base_ring(monkeypatch):
    monkeypatch.setenv("FLAB_MAX_DIM", "1024")
    payload = {"L": 16, "spacing": 1.0, "y": 2.0, "sigma_list": [2.0], "probe_samples": 4}
    assert run_experiment("lattice", payload).passed


@pytest.mark.parametrize("L, passed", [(8, False), (14, True)])
def test_low_momentum_check_needs_a_mode(tmp_path, L, passed):
    # the lowest nonzero mode sits at p*eps = 2 pi / L: above 0.5 at L = 8,
    # below it at L = 14; a check over no mode fails instead of passing
    payload = {"L": L, "spacing": 1.0, "y": 2.0, "sigma_list": [1.0, 2.0], "probe_samples": 4}
    out = tmp_path / "report.json"
    assert main(["lattice", "--config", write_config(tmp_path, "lat", payload), "--out", str(out)]) == (0 if passed else 1)
    verdict = json.loads(out.read_text())["assertions"]["low-momentum-exponent-near-continuum"]
    assert verdict["passed"] is passed
    if not passed:
        assert verdict["detail"] == "no sub-Nyquist mode lies at p*eps <= 0.5"


def test_budget_maps_to_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("FLAB_MAX_DIM", "8")
    cfg = write_config(tmp_path, "big", {"d": 2, "n": 5, "y": 2.0, "k": 1})
    assert main(["spectrum", "--config", cfg]) == 2


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failing(report, **values):
        raise NumericalError("Gram not positive")

    monkeypatch.setitem(cli.EXPERIMENTS, "spectrum", (failing, cli.EXPERIMENTS["spectrum"][1]))
    cfg = write_config(tmp_path, "spec", {"d": 2, "n": 3, "y": 2.0, "k": 2})
    out = tmp_path / "report.json"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: Gram not positive")
    assert not out.exists()


@pytest.mark.parametrize("d,n,k", [(2, 4, 2), (3, 4, 3), (4, 3, 2)])
def test_identity_channel_fixes_the_sector(d, n, k):
    # at y = 1 only the permutation average acts, and it fixes symmetric words
    name = "identity-channel-fixes-sector"
    assert run_experiment("spectrum", {"d": d, "n": n, "y": 1, "k": k}).assertions[name]["passed"]
    assert name not in run_experiment("spectrum", {"d": d, "n": n, "y": 1.5, "k": k}).assertions


def test_spectrum_builds_no_product_state(tmp_path, monkeypatch):
    # the orbit route reads the site state: at n = 13, where the chain's
    # product state would take 1 GiB, neither it nor its product check is
    # built, and the default budget admits the run
    def nothing_built(*args, **kwargs):
        raise AssertionError("dense product state built for the spectrum")

    monkeypatch.delenv("FLAB_MAX_DIM", raising=False)
    monkeypatch.setattr(operators, "product_density", nothing_built)
    monkeypatch.setattr(geometry, "identical_site_state", nothing_built)
    cfg = write_config(tmp_path, "big", {"d": 2, "n": 13, "y": 2.5, "k": 2})
    out = tmp_path / "report.json"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["tables"]["eigenvalues"]


def test_fock_budget_is_config_error(tmp_path, monkeypatch, capsys):
    # the pure qubit at y = 1, k = 3: one key of 8 fine and 8 coarse tuples
    # needs 8192 bytes, over the 16 * 22**2 of FLAB_MAX_DIM = 22, while the
    # letter setup (five stacks of the 3 letters with the two kernels and
    # letter names, 2016 bytes) and the 2**3 fine tuples fit; refused before
    # any key stack is built, with no report.  At 11 the letter setup
    # refuses it before any letter is built
    from flab import focklimit

    def nothing_built(*args, **kwargs):
        raise AssertionError("key stacks built before the budget check")

    cfg = write_config(tmp_path, "fock", {"d": 2, "y": 1.0, "k_max": 3})
    out = tmp_path / "report.json"
    with monkeypatch.context() as spy:
        spy.setattr(focklimit, "_kron_stack", nothing_built)
        refusals = {
            "22": "Fock block 3 needs an estimated 8192 bytes",
            "11": "letter setup at d=2 needs an estimated 2016 bytes",
        }
        for budget, message in refusals.items():
            spy.setenv("FLAB_MAX_DIM", budget)
            assert main(["fock", "--config", cfg, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
    monkeypatch.setenv("FLAB_MAX_DIM", "23")
    assert main(["fock", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "experiment, config",
    [
        ("fock", {"d": 30, "y": 2.0, "k_max": 1}),
        ("clt", {"d": 30, "n_list": [4, 8]}),
        ("bound-check", {"d": 30, "n": 2, "y": 3.0, "k": 1, "samples": 10}),
    ],
)
def test_letter_setup_is_refused_before_any_letter_is_built(tmp_path, monkeypatch, capsys, experiment, config):
    # at d = 30 the letter setup of one space (clt) or two (fock and
    # bound-check) takes about 62 or 87 MiB (the traced peaks when it was
    # built before any check); with a 64-byte budget each experiment exits
    # 2 having built no letter
    monkeypatch.setenv("FLAB_MAX_DIM", "2")
    cfg = write_config(tmp_path, experiment, config)
    tracemalloc.start()
    try:
        assert main([experiment, "--config", cfg]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "letter setup at d=30 needs an estimated" in capsys.readouterr().err
    assert peak < 2**20, peak


def test_fock_runs_the_pure_ququart_at_the_identity_channel(tmp_path):
    # d = 4, y = 1: the singular coarse kernel needs the dense coarse tuple
    # Gram, over the 6**4 tuples of the letters the pairing reaches (15**4
    # over all coarse letters was over the default budget)
    cfg = write_config(tmp_path, "fock", {"d": 4, "y": 1.0, "k_max": 4})
    out = tmp_path / "report.json"
    assert main(["fock", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tables"]["blocks"]
    assert {k: sum(row["k"] == k for row in rows) for k in range(1, 5)} == {k: 6**k for k in range(1, 5)}
    # the identity channel keeps every direction the fine metric keeps
    kept = [row["eigenvalue"] for row in rows if row["eigenvector"] != "0"]
    assert kept and max(abs(value - 1.0) for value in kept) <= 1e-11


def test_bound_check_budget_is_config_error(tmp_path, monkeypatch, capsys):
    # at the pure qutrit the key stacks of sizes up to 9 hold about 8**9
    # entries a side, over the budget; nothing is built before the refusal
    from flab import focklimit

    def no_stacks(*args, **kwargs):
        raise AssertionError("key stacks built before the budget check")

    with monkeypatch.context() as spy:
        spy.setattr(focklimit, "_kron_stack", no_stacks)
        cfg = write_config(tmp_path, "bound", {"d": 3, "n": 9, "y": 3.0, "k": 1, "samples": 10})
        out = tmp_path / "report.json"
        assert main(["bound-check", "--config", cfg, "--out", str(out)]) == 2
        assert "needs an estimated" in capsys.readouterr().err
        assert not out.exists()
    # n = 6 with 1000 draws, refused at an estimated 66784 MiB when every
    # carried product was a dim x dim matrix, now runs
    cfg = write_config(tmp_path, "bound", {"d": 3, "n": 6, "y": 3.0, "k": 1, "samples": 1000})
    assert main(["bound-check", "--config", cfg, "--out", str(out)]) == 0
    row = json.loads(out.read_text())["tables"]["bound"][0]
    assert row["max_ratio_sq"] <= row["supremum"] <= row["bound"]


def test_fock_refuses_largest_block_first(tmp_path, monkeypatch, capsys):
    # at d = 3, y = 2 the fine side has 4 letters: 4**2 fits a budget of 50,
    # 4**3 does not; the k = 3 block is refused before k = 1, 2 have run
    built = []
    real_block = cli.fock_block_spectrum

    def recording_block(sp_fine, sp_coarse, m, k):
        built.append(k)
        return real_block(sp_fine, sp_coarse, m, k)

    monkeypatch.setattr(cli, "fock_block_spectrum", recording_block)
    monkeypatch.setenv("FLAB_MAX_DIM", "50")
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "fock", {"d": 3, "y": 2.0, "k_max": 2})
    assert main(["fock", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tables"]["blocks"]
    assert [row["k"] for row in rows] == [1] * 4 + [2] * 16
    out.unlink()
    built.clear()
    cfg = write_config(tmp_path, "fock", {"d": 3, "y": 2.0, "k_max": 3})
    assert main(["fock", "--config", cfg, "--out", str(out)]) == 2
    assert "fine tuple dimension 4**3" in capsys.readouterr().err
    assert built == [3]
    assert not out.exists()


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        run_experiment("nonsense", {})


def test_seed_override_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path, "bc", {"d": 2, "y": 3.0, "n": 3, "k": 1, "samples": 10}
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bound-check", "--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
    assert main(["bound-check", "--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["metadata"]["seed"] == 11
    a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b
    # a different seed changes the sampled table
    out3 = tmp_path / "r3.json"
    assert main(["bound-check", "--config", cfg, "--seed", "12", "--out", str(out3)]) == 0
    c = json.loads(out3.read_text())
    assert c["tables"] != a["tables"]


def test_csv_output(tmp_path):
    cfg = write_config(tmp_path, "spectrum", {"d": 2, "n": 3, "y": 2.0, "k": 1})
    out = tmp_path / "report.csv"
    code = main(["spectrum", "--config", cfg, "--out", str(out), "--format", "csv"])
    assert code == 0
    assert out.exists()
    assert out.read_text().startswith("# ")


def test_consecutive_main_calls_parse_independently(tmp_path, monkeypatch):
    # the parser is built once and reused; flags of one call must not leak
    # into the next
    calls = []

    def recording(name, params):
        calls.append((name, dict(params)))
        return run_experiment(name, params)

    monkeypatch.setattr(cli, "run_experiment", recording)
    cli._parser.cache_clear()
    spectrum = write_config(tmp_path, "spectrum", {"d": 2, "n": 3, "y": 2.0, "k": 1})
    fock = write_config(tmp_path, "fock", {"d": 2, "y": 2.0, "k_max": 1})
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["spectrum", "--config", spectrum, "--seed", "7", "--format", "csv", "--out", str(csv_out)]) == 0
    assert main(["fock", "--config", fock]) == 0
    assert main(["spectrum", "--config", spectrum, "--out", str(json_out)]) == 0
    assert calls == [
        ("spectrum", {"d": 2, "n": 3, "y": 2.0, "k": 1, "seed": 7}),
        ("fock", {"d": 2, "y": 2.0, "k_max": 1}),
        ("spectrum", {"d": 2, "n": 3, "y": 2.0, "k": 1}),
    ]
    assert csv_out.read_text().startswith("# ")
    assert json.loads(json_out.read_text())["metadata"]["seed"] == 0
    assert cli._parser.cache_info().misses == 1


BOUND = {"d": 2, "n": 3, "y": 3.0, "k": 1, "samples": 10}
SMOOTHING = "config keys 'sigma_list' and 'spacing' invalid"
# each ended in a traceback; each is refused with exit 2, naming its key or
# its estimate, before its arithmetic overflows or its arrays are built
EXTREMES = [
    pytest.param("bound-check", {**BOUND, "n": 1000}, "bound check at d=2, n=1000, k=1 needs an", id="bound-check-n=1000"),
    pytest.param("lattice", {**LATTICE, "spacing": 1e300}, SMOOTHING, id="lattice-spacing=1e300"),
    pytest.param("lattice", {**LATTICE, "sigma_list": [1e-300, 1.0]}, SMOOTHING, id="lattice-sigma_list=[1e-300,1]"),
    pytest.param("lattice", {**LATTICE, "spacing": 1e-300}, SMOOTHING, id="lattice-spacing=1e-300"),
    pytest.param("lattice", {**LATTICE, "sigma_list": [2.0, 1e300]}, SMOOTHING, id="lattice-sigma_list=[2,1e300]"),
    pytest.param("lattice", {**LATTICE, "y": 1e300}, "config key 'y' invalid", id="lattice-y=1e300"),
    pytest.param("lattice", {**LATTICE, "y": 1.7e308}, "config key 'y' invalid", id="lattice-y=1.7e308"),
    pytest.param("lattice", {**LATTICE, "spacing": 1.7e308}, "config key 'spacing' invalid", id="lattice-spacing=1.7e308"),
    pytest.param("clt", {"d": 10**6, "n_list": [4, 8]}, "letter setup at d=1000000 needs an", id="clt-d=1e6"),
    pytest.param("clt", {"d": 10**20, "n_list": [4, 8]}, f"letter setup at d={10**20} needs an", id="clt-d=1e20"),
    pytest.param("bound-check", {**BOUND, "d": 10**400}, f"letter setup at d={10**400} needs an", id="bound-check-d=1e400"),
    pytest.param("lattice", {**LATTICE, "L": 10**400}, f"on {10**400} sites needs an", id="lattice-L=1e400"),
]
# these never returned: each runs in a child with a timeout and a 2 GiB
# address space, so a regression fails here instead of hanging the suite
HANGING = [
    pytest.param("spectrum", {"d": 2, "n": 10**20, "y": 2.5, "k": 2}, "dense dimension 2**", id="spectrum-n=1e20"),
    pytest.param("bound-check", {**BOUND, "n": 10**6}, "k=1 needs an estimated", id="bound-check-n=1e6"),
    pytest.param("bound-check", {**BOUND, "n": 10**20}, "k=1 needs an estimated", id="bound-check-n=1e20"),
]


# chains whose product state alone would fill the address space: each
# runs in a child with a 1 GiB address space and a timeout, so a return
# of the dim-square state to the spectrum path fails here
OFF_THE_DENSE_STATE = [
    pytest.param({"d": 2, "n": 13, "y": 2.5, "k": 2}, id="d=2-n=13-k=2"),
    pytest.param({"d": 2, "n": 14, "y": 2.5, "k": 4}, id="d=2-n=14-k=4"),
    pytest.param({"d": 4, "n": 7, "y": 2.5, "k": 2}, id="d=4-n=7-k=2"),
]


@pytest.mark.parametrize("experiment, config, message", EXTREMES)
def test_extreme_configs_are_refused_within_a_second(tmp_path, capsys, experiment, config, message):
    cfg = write_config(tmp_path, experiment, config)
    start = time.perf_counter()
    assert main([experiment, "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err


# a small valid config per experiment, and the extremes of each declared
# key type, a wrong type among them
SMALL = {
    "spectrum": {"d": 2, "n": 3, "y": 2.0, "k": 2},
    "fock": {"d": 2, "y": 2.0, "k_max": 2},
    "compare": {"d": 2, "y": 2.0, "k": 2, "n_list": [2, 4, 8]},
    "bound-check": BOUND,
    "lattice": LATTICE,
    "clt": {"n_list": [4, 8, 16]},
}
TYPE_EXTREMES = {
    int: [-1, 0, 10**400, True, "a"],
    float: [0, 5e-324, 1.7e308, 10**400, math.inf, -math.inf, math.nan, True, "a"],
    bool: [0, 1, "a"],
}


def _extremes(kind, valid):
    """Null and the type's extremes; for a list, a scalar, the empty list,
    the valid list reversed, its first entry twice, and the valid list with
    each extreme of its entry type, or a fraction, appended."""
    if kind in TYPE_EXTREMES:
        return [None, *TYPE_EXTREMES[kind]]
    (entry,) = kind.__args__
    return [None, 7, [], valid[::-1], valid[:1] * 2, *(valid + [bad] for bad in [*TYPE_EXTREMES[entry], 2.5])]


@pytest.mark.parametrize(
    "experiment, key, kind",
    [(name, key, kind) for name, (_, keys) in cli.EXPERIMENTS.items() for key, kind, *_ in (*keys, cli._SEED)],
)
def test_every_table_key_at_its_extremes(tmp_path, capsys, experiment, key, kind):
    # one key at a time on a small valid config: an exit code, never an
    # escaped exception, and each call within a second
    for value in _extremes(kind, SMALL[experiment].get(key)):
        cfg = write_config(tmp_path, experiment, SMALL[experiment] | {key: value})
        start = time.perf_counter()
        code = main([experiment, "--config", cfg])
        assert code in {0, 1, 2, 3} and time.perf_counter() - start < 1.0, (value, code)
    capsys.readouterr()


def test_readme_lists_every_config_key():
    # each experiment's row lists its keys in table order, each key with a
    # default followed by it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([\w-]+)` \|.*\| (.*) \|$", readme, re.M))
    for name, (_, keys) in cli.EXPERIMENTS.items():
        where = [re.search(f"(^|, )`{key}`", rows[name]) for key, *_ in keys]
        assert None not in where and where == sorted(where, key=lambda found: found.start()), name
        defaults = [key for key, _, default, *_ in keys if default is not cli.REQUIRED]
        assert all(f"`{key}` (default " in rows[name] for key in defaults), name


def test_spectrum_refuses_chains_past_the_factorial_limit(tmp_path, capsys, monkeypatch):
    # with the budget raised past d^n, n = 171 is refused before any word
    # is built (its orbit weights would hold 171!, over the float maximum),
    # and n = 170 runs
    def nothing_built(*args, **kwargs):
        raise AssertionError("words built past the factorial limit")

    monkeypatch.setenv("FLAB_MAX_DIM", str(2**200))
    config = {"d": 2, "n": 171, "y": 2.0, "k": 2}
    with monkeypatch.context() as spy:
        spy.setattr(geometry, "symmetric_words", nothing_built)
        assert main(["spectrum", "--config", write_config(tmp_path, "s", config)]) == 2
    assert "dense sector at n=171: n! overflows a float past n=170" in capsys.readouterr().err
    assert main(["spectrum", "--config", write_config(tmp_path, "s", config | {"n": 170})]) == 0


def _child_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="limits the child with setrlimit")
@pytest.mark.parametrize("experiment, config, message", HANGING)
def test_configs_that_never_returned_are_refused(tmp_path, experiment, config, message):
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "flab.cli", experiment, "--config", write_config(tmp_path, experiment, config)],
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_child_address_space,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("config error:") and message in run.stderr and "Traceback" not in run.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="limits the child with setrlimit")
@pytest.mark.parametrize("config", OFF_THE_DENSE_STATE)
def test_spectrum_runs_without_the_product_state(tmp_path, config):
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {key: value for key, value in os.environ.items() if key != "FLAB_MAX_DIM"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "flab.cli", "spectrum", "--config", write_config(tmp_path, "spectrum", config)],
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert run.returncode == 0, run.stderr
    assert "overall: PASS" in run.stdout
