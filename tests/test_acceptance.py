"""Acceptance gate: every release criterion at its stated tolerance.

Each test records exactly one [PASS]/[FAIL] line, printed in the terminal
summary block.  Criterion 2 is implemented faithfully and is expected to
fail two of its three clauses: the finite-chain sector spectrum is exactly
independent of the chain length, so its deviations from the limit sit at
roundoff and show neither a strict decrease nor a 1/n rate.  The supporting
cross-check test next to it demonstrates that the dense pipeline and the
closed form agree to 1e-13 at every tested size.
"""

import math
import time

import numpy as np

from flab.channels import homogeneous_coarse_graining
from flab.focklimit import (
    beta_bound_test,
    depolarizing_fock_setup,
    finite_limit_comparison,
    fock_block_spectrum,
    klocal_decay_check,
    symmetric_sector_spectrum,
)
from flab.geometry import (
    bures_norm,
    contraction_spectrum,
    pushforward_norm,
    symmetric_sector_dense_spectrum,
)
from flab.lattice import (
    ContinuumField,
    RingLattice,
    continuum_inner_convergence,
    mode_contractions,
    swap_factorization_probe,
)
from flab.operators import (
    QuditSystem,
    basis_pure_density,
    product_density,
    single_site_zero_mean_basis,
    symmetric_klocal_basis,
    symmetric_word_operator,
    symmetric_words,
)
from flab.sampling import (
    random_cptp_channel,
    random_positive_density,
    random_zero_mean_hermitian,
    task_rng,
)


def test_criterion_1_fock_blocks(record_criterion):
    t0 = time.monotonic()
    worst = 0.0
    for y in (1.5, 2.0, 4.0):
        sp_f, sp_c, m = depolarizing_fock_setup(2, y)
        b1 = fock_block_spectrum(sp_f, sp_c, m, 1)
        gap1 = np.max(np.abs(np.sort(b1.eigenvalues) - np.full(2, y**-2)))
        lam = 2.0 * y**-2 / (1.0 + y**2)
        b2 = fock_block_spectrum(sp_f, sp_c, m, 2)
        want2 = np.array([lam, lam, 0.0, 0.0])
        gap2 = np.max(np.abs(np.sort(b2.eigenvalues)[::-1] - want2))
        worst = max(worst, gap1, gap2)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    record_criterion(
        "criterion-1 limiting block spectra at y in {1.5, 2, 4}",
        ok,
        f"max gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert ok, f"block spectra off by {worst:.3e} or too slow ({elapsed:.2f}s)"


def test_criterion_2_finite_size_approach(record_criterion):
    t0 = time.monotonic()
    out = finite_limit_comparison([4, 8, 16], 2, 2.0, 2)
    devs = out["deviations"]
    elapsed = time.monotonic() - t0
    final_ok = devs[-1] <= 0.05
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    measurable = all(d > 1e-14 for d in devs)
    if measurable:
        rate = float(np.polyfit(np.log([4, 8, 16]), np.log(devs), 1)[0])
        rate_ok = abs(rate + 1.0) <= 0.3
        rate_note = f"rate {rate:.3f}"
    else:
        rate_ok = False
        rate_note = "rate unmeasurable at roundoff"
    ok = final_ok and decreasing and rate_ok and elapsed < 120.0
    seq = ", ".join(f"{d:.3e}" for d in devs)
    record_criterion(
        "criterion-2 finite-chain approach to the limit spectrum",
        ok,
        f"deviations [{seq}], {rate_note}, final<=0.05 {'ok' if final_ok else 'FAIL'}",
    )
    assert ok, (
        f"deviations [{seq}] sit at floating-point roundoff for every chain "
        "length: the sector spectrum is exactly size independent (one common "
        "combinatorial factor per word degree scales the fine metric, the "
        "coarse metric, and their pairing, and cancels after whitening), so "
        "no strict decrease and no 1/n rate exist to measure. The final "
        f"deviation clause itself passes ({devs[-1]:.1e} <= 0.05)."
    )


def test_criterion_2_support_dense_matches_closed_form():
    # the companion fact: the dense channel pipeline reproduces the
    # closed-form spectrum at every tested size, so the flat deviation
    # sequence above is a property of the model, not a pipeline bug
    for n in (2, 3, 4):
        system = QuditSystem(2, n)
        state = product_density(basis_pure_density(2), n)
        dense = symmetric_sector_dense_spectrum(system, state, 2.0, 2)
        closed = symmetric_sector_spectrum(n, 2, 2.0, 2, include_identity=True)
        want = np.sort(np.asarray(closed["eigenvalues"]))[::-1]
        got = np.sort(dense.eigenvalues)[::-1]
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 1e-13, f"n={n}"


def test_criterion_3_sector_bound_sweep(record_criterion):
    t0 = time.monotonic()
    total_violations = 0
    closest = 0.0
    for d in (2, 3):
        for y in (3.0, 4.0):
            for k in (1, 2):
                out = beta_bound_test(n=3, d=d, y=y, k=k, samples=1000, seed=2024)
                total_violations += out["violations"]
                closest = max(closest, out["max_ratio_sq"] / out["bound"])
    elapsed = time.monotonic() - t0
    ok = total_violations == 0 and elapsed < 300.0
    record_criterion(
        "criterion-3 locality bound over 8 cells x 1000 samples",
        ok,
        f"0 violations, worst ratio/bound {closest:.3f}, {elapsed:.1f}s",
    )
    assert ok, f"{total_violations} violations or too slow ({elapsed:.1f}s)"


def test_criterion_4_pushforward_never_expands(record_criterion):
    t0 = time.monotonic()
    worst = 0.0
    violations = 0
    for i in range(200):
        rng = task_rng(2024, (4, i))
        dim = 2 + (i % 3)
        rho = random_positive_density(dim, rng, min_eigenvalue=0.02)
        channel = random_cptp_channel(dim, 3, rng)
        a = random_zero_mean_hermitian(rho, rng)
        fine = bures_norm(rho, a)
        if fine < 1e-12:
            continue
        ratio = pushforward_norm(rho, channel, a) / fine
        worst = max(worst, ratio)
        if ratio > 1.0 + 1e-10:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    record_criterion(
        "criterion-4 channel pushforward is a contraction (200 draws)",
        ok,
        f"worst ratio {worst:.6f}, {elapsed:.1f}s",
    )
    assert ok, f"{violations} expansions, worst ratio {worst}"


def test_criterion_5_high_locality_decay_slopes(record_criterion):
    t0 = time.monotonic()
    out = klocal_decay_check(3, 2, [4.0, 8.0, 16.0, 32.0], k_max=1)
    elapsed = time.monotonic() - t0
    slopes = {k: out["k"][k]["slope"] for k in (0, 1)}
    # the sector bound is judged wherever its validity condition holds
    violations = [
        f"sector decay bound violated at k={k}: max ratio {e['max_contraction']} exceeds {e['bound']}"
        for k, e in out["k"].items()
        if e["bound_checked"] and not e["bound_ok"]
    ]
    ok = all(slopes[k] <= -(k + 1) + 0.2 for k in (0, 1)) and elapsed < 120.0 and not violations
    record_criterion(
        "criterion-5 decay exponents beyond locality k",
        ok,
        "; ".join([f"slopes {slopes[0]:.3f}, {slopes[1]:.3f} vs -1, -2", *violations, f"{elapsed:.1f}s"]),
    )
    assert ok, f"slopes {slopes} too shallow or too slow ({elapsed:.1f}s), or {violations}"


def test_criterion_6_mode_multipliers(record_criterion):
    t0 = time.monotonic()
    lattice = RingLattice(32, 1.0)
    y = 2.0
    worst_mode = 0.0
    worst_exp = 0.0
    for sigma in (1.0, 2.0, 4.0):
        for m, got in mode_contractions(lattice, sigma, y).items():
            u = lattice.momentum(m) * lattice.spacing
            want = math.exp(-((sigma / lattice.spacing) ** 2) * (1.0 - math.cos(u))) / y
            worst_mode = max(worst_mode, abs(got - want))
            if 0 < abs(u) <= 0.5:
                lat_exp = (sigma / lattice.spacing) ** 2 * (1.0 - math.cos(u))
                cont_exp = 0.5 * (sigma * lattice.momentum(m)) ** 2
                worst_exp = max(worst_exp, abs(lat_exp - cont_exp) / cont_exp)
    elapsed = time.monotonic() - t0
    ok = worst_mode <= 1e-10 and worst_exp <= 0.10 and elapsed < 10.0
    record_criterion(
        "criterion-6 smoothing multipliers per ring mode",
        ok,
        f"max formula gap {worst_mode:.3e}, exponent gap {100 * worst_exp:.2f}% "
        f"at p*eps<=0.5, {elapsed:.1f}s",
    )
    assert ok, f"mode gap {worst_mode:.3e}, exponent gap {worst_exp:.3%}, {elapsed:.1f}s"


def test_criterion_7_site_product_converges(record_criterion):
    t0 = time.monotonic()
    state = basis_pure_density(2)
    L = 2.0 * math.pi
    scale = 0.18

    def sym(d):
        out = dict(d)
        for m, c in d.items():
            out[-m] = np.conj(c)
        return out

    f = ContinuumField(L, sym({1: scale * (0.8 + 0.3j), 2: scale * (0.25 - 0.1j)}))
    g = ContinuumField(L, sym({1: scale * (0.5 - 0.2j), 3: scale * 0.2}))
    eps_list = [L / 16 / (2**i) for i in range(5)]
    out = continuum_inner_convergence(state, f, g, eps_list)
    devs = out["deviations"]
    elapsed = time.monotonic() - t0
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = decreasing and devs[-1] <= 1e-3 and elapsed < 10.0
    seq = ", ".join(f"{d:.3e}" for d in devs)
    record_criterion(
        "criterion-7 lattice products vs exponential pairing",
        ok,
        f"deviations [{seq}], quadrature gap {out['quadrature_gap']:.1e}, {elapsed:.1f}s",
    )
    assert ok, f"deviation sequence [{seq}] (final must be <= 1e-3 and strictly decreasing)"


def test_criterion_8_pair_factorization_improves(record_criterion):
    t0 = time.monotonic()
    lattice = RingLattice(24, 1.0)
    devs = [swap_factorization_probe(lattice, s)["sup_deviation"] for s in (2.0, 4.0, 8.0)]
    elapsed = time.monotonic() - t0
    ok = devs[0] > devs[1] > devs[2]
    seq = ", ".join(f"{d:.3e}" for d in devs)
    record_criterion(
        "criterion-8 two-walker correlations fade with smoothing",
        ok,
        f"sup deviations [{seq}], {elapsed:.1f}s",
    )
    assert ok, f"sup deviations [{seq}] not strictly decreasing"


def test_criterion_9_null_letters_are_silent(record_criterion):
    worst_norm = 0.0
    worst_gap = 0.0
    site = basis_pure_density(2)
    letters = single_site_zero_mean_basis(site)
    null_words = [w for w in symmetric_words(3, 2) if 2 in w]
    for n in (2, 3, 4):
        system = QuditSystem(2, n)
        state = product_density(site, n)
        for w in null_words:
            op = symmetric_word_operator(w, letters, system)
            worst_norm = max(worst_norm, bures_norm(state, op))
        channel = homogeneous_coarse_graining(system, 2.0)
        full = symmetric_klocal_basis(2, system, state, prune=False)
        pruned = symmetric_klocal_basis(2, system, state, prune=True)
        spectrum_full = contraction_spectrum(channel, state, full, out_basis=full)
        spectrum_pruned = contraction_spectrum(channel, state, pruned, out_basis=full)
        a = np.sort(spectrum_full.eigenvalues)[::-1]
        b = np.sort(spectrum_pruned.eigenvalues)[::-1]
        width = max(len(a), len(b))
        a = np.pad(a, (0, width - len(a)))
        b = np.pad(b, (0, width - len(b)))
        worst_gap = max(worst_gap, float(np.max(np.abs(a - b))))
    ok = worst_norm <= 1e-12 and worst_gap <= 1e-10
    record_criterion(
        "criterion-9 null-letter words carry no weight",
        ok,
        f"max word norm {worst_norm:.3e}, max spectrum shift {worst_gap:.3e}",
    )
    assert ok, f"null word norm {worst_norm:.3e} or exclusion shift {worst_gap:.3e}"
