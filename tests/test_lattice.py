"""Ring kinematics, smoothing multipliers, and the continuum probes."""

import math

import numpy as np
import pytest

from flab.channels import SwapDiffusion
from flab.errors import NumericalError
from flab import lattice
from flab.lattice import (
    ContinuumField,
    RingLattice,
    _high_mode_profiles,
    _high_modes,
    continuum_inner_convergence,
    continuum_mode_multiplier,
    dispersion_bound,
    lattice_mode_multiplier,
    high_momentum_suppression_probe,
    mode_contractions,
    swap_factorization_probe,
)
from flab.operators import basis_pure_density
from flab.sampling import task_rng

from conftest import assert_close
import walker_oracle
from walker_oracle import ring_laplacian


def test_ring_validation_and_kinematics():
    with pytest.raises(ValueError):
        RingLattice(7, 1.0)  # odd
    with pytest.raises(ValueError):
        RingLattice(4, 1.0)  # too small
    with pytest.raises(ValueError):
        RingLattice(8, 0.0)
    lat = RingLattice(16, 0.5)
    assert lat.length == 8.0
    assert abs(lat.nyquist - 2 * math.pi) < 1e-15
    assert lat.mode_indices() == list(range(-7, 9))
    assert abs(lat.momentum(2) - 4 * math.pi / 8.0) < 1e-15


def test_plane_wave_is_laplacian_eigenvector():
    lat = RingLattice(12, 1.0)
    lap = ring_laplacian(12)
    for m in (1, 3, 5):
        wave = lat.plane_wave(m)
        u = lat.momentum(m) * lat.spacing
        eig = -(2.0 - 2.0 * math.cos(u))
        assert_close(lap @ wave, eig * wave, tol=1e-12)
        assert abs(np.linalg.norm(wave) - 1.0) < 1e-12


def test_smoother_multiplier_and_composition():
    lat = RingLattice(16, 1.0)
    for m in (1, 3, -3):
        p = lat.momentum(m)
        want = math.exp(-0.5 * (2.0 * p) ** 2)
        assert abs(continuum_mode_multiplier(2.0, p) - want) < 1e-15
        # two smoothings compose in quadrature
        twice = continuum_mode_multiplier(1.0, p) * continuum_mode_multiplier(2.0, p)
        assert abs(twice - continuum_mode_multiplier(math.sqrt(5.0), p)) < 1e-15


def test_mode_contraction_closed_form():
    lat = RingLattice(16, 1.0)
    y, sigma = 2.0, 1.0
    contractions = mode_contractions(lat, sigma, y)
    assert sorted(contractions) == list(range(-7, 8))
    for m in (1, 2, 5, 7):
        got = contractions[m]
        u = lat.momentum(m) * lat.spacing
        want = math.exp(-((sigma / lat.spacing) ** 2) * (1.0 - math.cos(u))) / y
        assert abs(got - want) < 1e-10


@pytest.mark.parametrize("spacing", [1e-4, 1e-6, 1e-12])
def test_constant_mode_survives_long_smoothing(spacing):
    # the constant mode is exactly null; the smoothing time (sigma/eps)^2 / 2
    # reaches 2e24, so any roundoff left in its eigenvalue would move it
    contractions = mode_contractions(RingLattice(16, spacing), 2.0, 2.0)
    assert abs(contractions[0] - 0.5) < 1e-15
    assert abs(contractions[1] - lattice_mode_multiplier(RingLattice(16, spacing), 2.0, 1) / 2.0) < 1e-12


def test_dispersion_bound_dominates_multiplier_gap():
    lat = RingLattice(32, 1.0)
    sigma = 2.0
    for m in lat.mode_indices():
        if m == 0:
            continue
        gap = abs(
            lattice_mode_multiplier(lat, sigma, m)
            - continuum_mode_multiplier(sigma, lat.momentum(m))
        )
        assert gap <= dispersion_bound(lat, sigma, m) + 1e-12


def test_walker_applies_keep_uniform_profiles():
    L = 8
    sd = SwapDiffusion(RingLattice(L, 1.0), 1.0)
    assert_close(sd.single_walker_apply(np.ones((L, 1))), np.ones((L, 1)), tol=1e-10)
    # the uniform pair profile is block 0, constant in r
    uniform = np.zeros((L, L - 1, 1))
    uniform[0] = 1.0
    assert_close(sd.pair_apply(uniform), uniform, tol=1e-10)


def test_pair_apply_on_pair_states_matches_dense_oracle():
    L = 8
    sd = SwapDiffusion(RingLattice(L, 1.0), 1.3)
    rng = np.random.default_rng(20261018)
    c = rng.standard_normal(L * (L - 1)) + 1j * rng.standard_normal(L * (L - 1))
    dense = walker_oracle.pair_semigroup(L, sd.time)
    U = walker_oracle.bloch_basis(L)
    for v, what in ((c, "pair-sector evolution"), (c.real, "real input")):
        blocks = (U.conj().T @ v).reshape(L, L - 1, 1)
        assert_close(U @ sd.pair_apply(blocks).ravel(), dense @ v, tol=1e-12, what=what)


def test_continuum_field_profile():
    f = ContinuumField(2 * math.pi, {1: 0.5, -1: 0.5})
    xs = np.linspace(0.0, 2 * math.pi, 7)
    assert_close(f.profile_at(xs), np.cos(xs), tol=1e-12)
    assert f.max_mode() == 1
    with pytest.raises(ValueError):
        ContinuumField(2 * math.pi, {1: 1j})
    with pytest.raises(ValueError):
        ContinuumField(-1.0, {})


def test_continuum_inner_convergence_basics():
    state = basis_pure_density(2)
    L = 2 * math.pi
    f = ContinuumField(L, {1: 0.1, -1: 0.1})
    g = ContinuumField(L, {1: 0.1, -1: 0.1})
    out = continuum_inner_convergence(state, f, g, [L / 16, L / 32])
    assert out["quadrature_gap"] < 1e-14
    assert out["deviations"][1] < out["deviations"][0]
    # rings must stay even and large enough
    with pytest.raises(ValueError):
        continuum_inner_convergence(state, f, g, [L / 10.5])
    # amplitudes too large for the site product to make sense
    loud = ContinuumField(L, {1: 4.0, -1: 4.0})
    with pytest.raises(NumericalError):
        continuum_inner_convergence(state, loud, loud, [L / 16])


def test_high_momentum_suppression_probe_k1_respects_mode_bound():
    lat = RingLattice(16, 1.0)
    out = high_momentum_suppression_probe(lat, 2.0, 2.0, cutoff=0.5 * lat.nyquist, k=1, samples=8)
    assert out["k"] == 1
    assert out["max_contraction"] <= out["mode_bound"] * (1 + 1e-10) + 1e-13
    assert out["gaussian_claim"] <= out["mode_bound"] + 1e-15


def test_high_momentum_suppression_probe_k2_reports():
    lat = RingLattice(12, 1.0)
    out = high_momentum_suppression_probe(lat, 1.0, 2.0, cutoff=0.5 * lat.nyquist, k=2, samples=4)
    assert out["k"] == 2
    assert out["max_contraction"] >= 0.0
    with pytest.raises(ValueError):
        high_momentum_suppression_probe(lat, 1.0, 2.0, cutoff=0.5 * lat.nyquist, k=3)


def test_swap_factorization_probe_j2_smoothing_decreases_deviation():
    lat = RingLattice(16, 1.0)
    devs = [swap_factorization_probe(lat, s)["sup_deviation"] for s in (2.0, 4.0)]
    assert devs[1] < devs[0]
    assert swap_factorization_probe(lat, 2.0)["word_count"] > 0


@pytest.mark.parametrize("L", [16, 30])
@pytest.mark.parametrize("fraction", [0.3, 0.7])
def test_high_mode_profiles_match_the_per_sample_draws(L, fraction):
    lat = RingLattice(L, 1.0)
    modes, waves = _high_modes(lat, fraction * lat.nyquist)
    one, batched = task_rng(9, L), task_rng(9, L)
    want = np.array([walker_oracle.high_mode_profile(modes, waves, one) for _ in range(12)])
    got = _high_mode_profiles(modes, waves, batched, 12)
    assert got.tobytes() == want.tobytes()
    # both leave the stream at the same point
    assert one.standard_normal() == batched.standard_normal()


def _swap_probes(lat):
    return [swap_factorization_probe(lat, sigma) for sigma in (2.0, 4.0)]


# the last case caps the entries so that every group holds a single block
@pytest.mark.parametrize(
    "L, cap", [(12, None), (16, None), (24, None), (30, None), (24, 1)], ids=["12", "16", "24", "30", "24-single-blocks"]
)
def test_pair_probes_match_dense_loops(L, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(lattice, "DRAW_CHUNK_ENTRIES", cap)
    lat = RingLattice(L, 1.0)
    for sigma, got in zip((2.0, 4.0), _swap_probes(lat)):
        want = walker_oracle.swap_factorization_probe_j2(lat, sigma)
        assert got["word_count"] == want["word_count"]
        assert abs(got["sup_deviation"] - want["sup_deviation"]) <= 1e-12
    cutoff = 0.5 * lat.nyquist
    got = high_momentum_suppression_probe(lat, 2.0, 2.0, cutoff, k=2, samples=8, seed=5)
    want = walker_oracle.high_momentum_k2(lat, 2.0, 2.0, cutoff, samples=8, seed=5)
    assert got["samples"] == want["samples"]
    assert abs(got["max_contraction"] - want["max_contraction"]) <= 1e-12


def test_grouped_pair_probe_matches_block_by_block(monkeypatch):
    # at L = 64 the dense loops would need a 4032-square eigh, so the grouped
    # probe (several groups of unequal width here) is checked against one
    # block per group, which the dense loops check at small L
    lat, calls = RingLattice(64, 1.0), []
    apply = SwapDiffusion.pair_apply
    monkeypatch.setattr(SwapDiffusion, "pair_apply", lambda sd, x, block=None: calls.append(block) or apply(sd, x, block))
    grouped = _swap_probes(lat)
    sizes = [len(block) for block in calls]
    calls.clear()
    monkeypatch.setattr(lattice, "DRAW_CHUNK_ENTRIES", 1)
    single = _swap_probes(lat)
    assert all(len(block) == 1 for block in calls) and len(calls) == sum(sizes)
    assert 2 < len(sizes) < sum(sizes) / 4
    for a, b in zip(grouped, single):
        assert a["word_count"] == b["word_count"]
        assert abs(a["sup_deviation"] - b["sup_deviation"]) <= 1e-13
