"""Metric pairings, whitening, and contraction spectra."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import flab
from flab import channels, focklimit, geometry, operators
from flab.channels import (
    Channel,
    DepolarizingChannel,
    SuperoperatorChannel,
    homogeneous_coarse_graining,
)
from flab.errors import DimensionBudgetError, NumericalError
from flab.focklimit import klocal_decay_check, symmetric_sector_spectrum
from flab.geometry import (
    bures_norm,
    channel_pairing_matrix,
    NULL_THRESHOLD,
    check_dense_sector_budget,
    contraction_spectrum,
    gns_build,
    gns_gram,
    omega_apply,
    omega_inverse_apply,
    pushforward_norm,
    symmetric_sector_dense_spectrum,
    whiten_psd,
    whitened_contraction,
)
from flab.operators import (
    DensityMatrix,
    QuditSystem,
    basis_pure_density,
    dense_from_orbits,
    identical_site_state,
    orbit_counts,
    product_density,
    single_site_zero_mean_basis,
    state_product,
    symmetric_klocal_basis,
    symmetric_word_values,
    symmetric_words,
)
from flab.sampling import (
    haar_unitary,
    random_cptp_channel,
    random_positive_density,
    random_zero_mean_hermitian,
    task_rng,
)

from conftest import assert_close, maximally_mixed_density
import dense_oracle
from dense_oracle import norm_grams, original_frame_spectrum, support_family, tensor_many


def test_omega_roundtrip_full_rank():
    rng = task_rng(1)
    rho = random_positive_density(3, rng, min_eigenvalue=0.05)
    x = random_zero_mean_hermitian(rho, rng)
    assert_close(omega_apply(rho, x), 0.5 * (rho.matrix @ x + x @ rho.matrix))
    back = omega_inverse_apply(rho, omega_apply(rho, x))
    assert_close(back, x, tol=1e-10)


def test_omega_inverse_rejects_out_of_range():
    rho = basis_pure_density(2)
    # sigma_x |0><0| sector overlaps the kernel complement, but the pure
    # z-direction |1><1| is outside the range of the anticommutator map
    bad = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NumericalError):
        omega_inverse_apply(rho, bad)


def test_inner_products():
    rng = task_rng(2)
    rho = random_positive_density(2, rng, min_eigenvalue=0.1)
    a = random_zero_mean_hermitian(rho, rng)
    b = random_zero_mean_hermitian(rho, rng)
    direct = np.trace(rho.matrix @ a.conj().T @ b)
    assert abs(bures_norm(rho, a) - np.sqrt(np.trace(rho.matrix @ a.conj().T @ a).real)) < 1e-12
    # polarization: the real inner product Re tr(rho A^dagger B)
    polarized = (bures_norm(rho, a + b) ** 2 - bures_norm(rho, a - b) ** 2) / 4
    assert abs(polarized - direct.real) < 1e-12


def test_pushforward_identity_channel_is_isometric():
    rng = task_rng(3)
    rho = random_positive_density(3, rng, min_eigenvalue=0.05)
    ident = DepolarizingChannel(1.0, QuditSystem(3, 1))
    for _ in range(5):
        a = random_zero_mean_hermitian(rho, rng)
        assert abs(pushforward_norm(rho, ident, a) - bures_norm(rho, a)) < 1e-9


def test_pushforward_against_dense_reimplementation():
    # independent route: build Omega at the coarse state explicitly and
    # invert it on the pushed tangent vector
    rng = task_rng(4)
    rho = random_positive_density(3, rng, min_eigenvalue=0.05)
    ch = random_cptp_channel(3, 3, rng)
    a = random_zero_mean_hermitian(rho, rng)
    coarse = ch.apply(rho.matrix)
    pushed = ch.apply(omega_apply(rho, a))
    vals, vecs = np.linalg.eigh(coarse)
    xt = vecs.conj().T @ pushed @ vecs
    denom = 0.5 * (vals[:, None] + vals[None, :])
    solved = vecs @ (xt / denom) @ vecs.conj().T
    want = np.sqrt(np.trace(pushed.conj().T @ solved).real)
    got = pushforward_norm(rho, ch, a)
    assert abs(got - want) < 1e-9


def test_pushforward_never_expands():
    rng = task_rng(5)
    for i in range(20):
        dim = 2 + (i % 3)
        rho = random_positive_density(dim, rng, min_eigenvalue=0.02)
        ch = random_cptp_channel(dim, 3, rng)
        a = random_zero_mean_hermitian(rho, rng)
        fine = bures_norm(rho, a)
        assert pushforward_norm(rho, ch, a) <= fine * (1 + 1e-10)


def test_whiten_psd():
    gram = np.array([[2.0, 0.0], [0.0, 0.5]])
    w, kept = whiten_psd(gram)
    assert_close(w.T @ gram @ w, np.eye(2), tol=1e-12)
    # rank-deficient gram drops the null direction
    w2, kept2 = whiten_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert w2.shape == (2, 1)
    assert len(kept2) == 1
    with pytest.raises(NumericalError):
        whiten_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _whiten_psd_one_eigh(gram, null_threshold):
    """Reference: whiten_psd as one eigh of the whole symmetrized Gram."""
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    top = max(float(vals.max(initial=0.0)), 0.0)
    keep = vals > null_threshold * max(top, 1e-300)
    return vecs[:, keep] / np.sqrt(vals[keep]), vals[keep]


def _block_diagonal_gram(rng):
    """A PSD Gram of six blocks on interleaved rows, with their row keys.
    Blocks 0-2 are 3 x 3, blocks 3-5 are 4 x 4; two are rank deficient and
    one lies wholly below the global cut."""
    sizes, scales, ranks = (3, 3, 3, 4, 4, 4), (1.0, 1e-12, 0.3, 2.5, 0.7, 1.5), (3, 3, 2, 4, 4, 2)
    keys = np.repeat(np.arange(6), sizes)
    rng.shuffle(keys)
    gram = np.zeros((keys.size, keys.size))
    for key, (size, scale, rank) in enumerate(zip(sizes, scales, ranks)):
        rows = np.flatnonzero(keys == key)
        factor = rng.standard_normal((size, rank))
        gram[np.ix_(rows, rows)] = scale * factor @ factor.T
    return gram, keys


def _key_stacks(gram, keys):
    """The Gram's diagonal blocks, stacked by size: [(3, 3, 3), (3, 4, 4)]."""
    blocks = [gram[np.ix_(rows, rows)] for rows in (np.flatnonzero(keys == key) for key in range(6))]
    return [np.stack(blocks[:3]), np.stack(blocks[3:])]


def test_keyed_whiten_psd_matches_one_eigh():
    # one whitener per key block, from a list of stacks, against one eigh
    # of the whole Gram: same cut, kept eigenspace and inverse
    rng = task_rng(20261019, 7)
    gram, keys = _block_diagonal_gram(rng)
    w_ref, kept_ref = whiten_psd(gram, NULL_THRESHOLD)
    stacks = _key_stacks(gram, keys)
    whiteners, kept = whiten_psd(stacks, NULL_THRESHOLD)
    assert [w.shape for w in whiteners] == [(3, 3, 3), (3, 4, 4)]
    # 3 + 2 + 4 + 4 + 2 kept; the whole 1e-12 block is cut against the
    # global top, and the dropped columns are a leading run of zeros
    assert w_ref.shape == (21, 15) and kept.size == 15
    assert_close(np.sort(kept), kept_ref, tol=1e-12 * kept_ref[-1])
    assert [np.count_nonzero(w.any(axis=1), axis=1).tolist() for w in whiteners] == [[3, 0, 2], [4, 4, 2]]
    for w in whiteners:
        kept_cols = w.any(axis=1)
        assert np.all(np.diff(kept_cols.astype(int), axis=1) >= 0)
    # scattered back over the rows, the blocks whiten the Gram; the kept
    # eigenspace (its projector W W^T G) and the inverse on it agree
    blocks = [block for w in whiteners for block in w]
    w = np.zeros((21, 21))
    for key, (block, start) in enumerate(zip(blocks, np.cumsum([0, 3, 3, 3, 4, 4]))):
        w[np.flatnonzero(keys == key), start : start + len(block)] = block
    w = w[:, w.any(axis=0)]
    assert_close(w.T @ gram @ w, np.eye(15), tol=1e-12)
    assert_close(w @ w.T @ gram, w_ref @ w_ref.T @ gram, tol=1e-12)
    assert_close(w @ w.T, w_ref @ w_ref.T, tol=1e-12 * np.max(np.abs(w_ref @ w_ref.T)))
    # the check on negative eigenvalues sees every block (the last one has
    # rank 2)
    stacks[1][2] -= 1e-3 * np.eye(4)
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        whiten_psd(stacks, NULL_THRESHOLD)


def test_unkeyed_whiten_psd_is_one_eigh_bit_for_bit():
    rng = task_rng(20261019, 8)
    for gram in (_block_diagonal_gram(rng)[0], np.eye(3), np.array([[1.0, 1.0], [1.0, 1.0]])):
        w, kept = whiten_psd(gram)
        w_ref, kept_ref = _whiten_psd_one_eigh(gram, NULL_THRESHOLD)
        assert np.array_equal(w, w_ref) and np.array_equal(kept, kept_ref)
    # a stack of one gives the same eigh, and so the same kept columns
    gram = _block_diagonal_gram(rng)[0]
    (w_stack,), kept = whiten_psd([gram[None]])
    w_ref, kept_ref = _whiten_psd_one_eigh(gram, NULL_THRESHOLD)
    assert np.array_equal(w_stack[0][:, w_stack[0].any(axis=0)], w_ref) and np.array_equal(kept, kept_ref)


def _one_key_contraction(w_fine, w_coarse, pairing):
    vals, coeffs = whitened_contraction(w_fine[None], w_coarse[None], pairing[None])
    return vals[0], coeffs[0]


def test_whitened_contraction_closed_forms():
    rng = task_rng(9)
    z = rng.standard_normal((4, 4))
    gram = z @ z.T + 0.1 * np.eye(4)
    w, _ = whiten_psd(gram)
    # pairing equal to both Grams: every whitened direction is kept whole
    vals, coeffs = _one_key_contraction(w, w, gram)
    assert_close(vals, np.ones(4), tol=1e-10)
    assert_close(coeffs.T @ gram @ coeffs, np.eye(4), tol=1e-10)
    vals, _ = _one_key_contraction(w, w, 0.5 * gram)
    assert_close(vals, np.full(4, 0.25), tol=1e-10)
    # rank-3 fine Gram: exactly its null direction drops out
    b = rng.standard_normal((4, 3))
    fine = b @ b.T
    null = np.linalg.svd(b.T)[2][-1]
    w_f, _ = whiten_psd(fine)
    vals, coeffs = _one_key_contraction(w_f, w_f, fine)
    assert vals.shape == (3,) and coeffs.shape == (4, 3)
    assert_close(vals, np.ones(3), tol=1e-10)
    assert_close(null @ coeffs, np.zeros(3), tol=1e-10)
    # rank-2 pairing: descending, and the zero eigenvalues are clipped at 0
    pairing = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    vals, _ = _one_key_contraction(w, w, pairing)
    assert np.all(np.diff(vals) <= 0.0)
    assert vals.min() >= 0.0 and vals[2] < 1e-12


def test_gns_build_rank_and_hermiticity_check():
    pure = basis_pure_density(2)
    letters = single_site_zero_mean_basis(pure)
    space = gns_build(pure, letters)
    # the diagonal letter is null at the pure state; the two quadratures
    # collapse to one complex ray but stay independent over the reals
    assert space.rank == 2
    assert gns_gram(pure, letters).shape == (3, 3)
    with pytest.raises(NumericalError):
        gns_build(pure, [np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_channel_pairing_matrix_against_loops():
    rng = task_rng(6)
    rho = random_positive_density(2, rng, min_eigenvalue=0.1)
    ch = random_cptp_channel(2, 2, rng)
    coarse = DensityMatrix(ch.apply(rho.matrix), check=False)
    fine_letters = single_site_zero_mean_basis(rho)
    coarse_letters = single_site_zero_mean_basis(coarse)
    out_space = gns_build(rho, fine_letters)
    in_space = gns_build(coarse, coarse_letters)
    got = channel_pairing_matrix(ch, out_space, in_space)
    want = np.zeros_like(got)
    for a, e in enumerate(fine_letters):
        for b, f in enumerate(coarse_letters):
            want[a, b] = np.trace(rho.matrix @ e.conj().T @ ch.adjoint_apply(f)).real
    assert_close(got, want, tol=1e-12)


def test_contraction_spectrum_identity_channel():
    rng = task_rng(8)
    rho = random_positive_density(2, rng, min_eigenvalue=0.1)
    letters = single_site_zero_mean_basis(rho)
    spectrum = contraction_spectrum(DepolarizingChannel(1.0, QuditSystem(2, 1)), rho, letters)
    assert_close(spectrum.eigenvalues, np.ones(3), tol=1e-10)


def test_contraction_spectrum_depolarizing_mixed_site():
    # at the maximally mixed state the centered letters are traceless and
    # the depolarizing adjoint scales each by 1/y, so every factor is 1/y
    y = 3.0
    rho = maximally_mixed_density(2)
    letters = single_site_zero_mean_basis(rho)
    spectrum = contraction_spectrum(DepolarizingChannel(y, QuditSystem(2, 1)), rho, letters)
    assert_close(spectrum.eigenvalues, np.full(3, y**-2), tol=1e-12)
    assert spectrum.coefficients.shape == (3, 3)


def test_dense_sector_spectrum_matches_closed_form(qubit_triple, pure_triple):
    dense = symmetric_sector_dense_spectrum(qubit_triple, pure_triple, 2.0, 2)
    closed = symmetric_sector_spectrum(3, 2, 2.0, 2, include_identity=True)
    want = np.sort(closed["eigenvalues"])[::-1]
    got = np.sort(dense.eigenvalues)[::-1]
    assert len(got) == len(want)
    assert_close(got, want, tol=1e-13, what="dense vs closed-form spectrum")
    assert_close(want, [1.0, 0.25, 0.25, 0.1, 0.1], tol=1e-12)


def test_dense_sector_spectrum_matches_closed_form_at_mixed_states():
    rng = task_rng(20261017)
    cases = []
    for d, n, k in ((2, 3, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2)):
        y = float(rng.uniform(1.5, 4.0))
        cases.append((d, n, k, y, random_positive_density(d, rng, min_eigenvalue=0.05)))
    # degenerate site spectra, where an eigenframe is not unique
    u = haar_unitary(3, rng)
    cases.append((2, 4, 2, 2.5, maximally_mixed_density(2)))
    cases.append((3, 3, 2, 1.7, DensityMatrix(u @ np.diag([0.5, 0.25, 0.25]) @ u.conj().T)))
    for d, n, k, y, site in cases:
        dense = symmetric_sector_dense_spectrum(QuditSystem(d, n), product_density(site, n), y, k)
        closed = symmetric_sector_spectrum(n, d, y, k, state=site, include_identity=True)
        assert dense.eigenvalues.shape == closed["eigenvalues"].shape
        assert_close(dense.eigenvalues, closed["eigenvalues"], tol=1e-13, what=f"d={d} n={n} k={k}")


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_dense_sector_spectrum_at_degree_zero(d, n):
    # the degree-0 sector is the identity alone, which the channel fixes
    dense = symmetric_sector_dense_spectrum(QuditSystem(d, n), product_density(basis_pure_density(d), n), 2.5, 0)
    closed = symmetric_sector_spectrum(n, d, 2.5, 0, include_identity=True)
    assert dense.eigenvalues.shape == closed["eigenvalues"].shape == (1,)
    assert_close(dense.eigenvalues, closed["eigenvalues"], tol=1e-13, what=f"d={d} n={n} k=0")
    assert_close(closed["eigenvalues"], [1.0], tol=1e-13)


def test_klocal_decay_check_output_and_validation():
    out = klocal_decay_check(2, 2, [3.0, 4.0], k_max=0)
    assert out["y_values"] == [3.0, 4.0]
    assert set(out["k"]) == {0}
    entry = out["k"][0]
    assert len(entry["max_contraction"]) == 2
    assert entry["expected_slope"] == -1
    assert entry["bound_checked"] is True
    assert entry["bound_ok"] is True
    with pytest.raises(ValueError, match="y > 1"):
        klocal_decay_check(2, 2, [0.5, 3.0], k_max=0)
    with pytest.raises(ValueError, match="k_max"):
        klocal_decay_check(2, 2, [3.0, 4.0], k_max=2)
    with pytest.raises(ValueError, match="local dimension"):
        klocal_decay_check(2, 1, [3.0, 4.0], k_max=0)
    # a slope needs two points: one y, or one y repeated, fits nothing
    for y_values in ([3.0], [3.0, 3.0]):
        with pytest.raises(ValueError, match="two distinct y values"):
            klocal_decay_check(2, 2, y_values, k_max=0)


def test_klocal_decay_check_reports_a_failed_bound(monkeypatch):
    # the bound is a verdict for the caller to judge, so a supremum above it
    # reads bound_ok False and raises nothing
    monkeypatch.setattr(focklimit, "beta_bound_value", lambda d, y, k: 1e-30)
    out = klocal_decay_check(3, 2, [4.0, 8.0], k_max=1)
    assert [(e["bound_checked"], e["bound_ok"]) for e in out["k"].values()] == [(True, False)] * 2


def test_klocal_decay_check_runs_past_the_dense_family(monkeypatch):
    # the whole family at d = 3, n = 12 would be 9**12 operators of 3**24
    # entries; the sector blocks behind the check take well under a second,
    # and no dense word, Gram block or depolarizing channel is built
    def dense_builder(*args, **kwargs):
        raise AssertionError("the decay check built a dense family")

    for owner, name in (
        (operators, "symmetric_word_values"),
        (focklimit, "_bound_grams"),
        (channels, "DepolarizingChannel"),
        (geometry, "DepolarizingChannel"),
    ):
        monkeypatch.setattr(owner, name, dense_builder)
    site = random_positive_density(3, task_rng(24, 0), min_eigenvalue=0.05)
    elapsed = []
    # best of three calls, so host load does not decide the gate
    for _ in range(3):
        start = time.perf_counter()
        out = klocal_decay_check(12, 3, [1.5, 2.0, 4.0, 8.0], k_max=3, state_1site=site)
        elapsed.append(time.perf_counter() - start)
    assert set(out["k"]) == {0, 1, 2, 3}
    for entry in out["k"].values():
        assert all(0.0 < c <= 1.0 for c in entry["max_contraction"])
    assert min(elapsed) < 1.0, f"{min(elapsed):.2f}s"


def test_klocal_decay_check_refused_before_building(monkeypatch):
    # pure qubit at y = 2: degree 4, the top block of k_max = 3, is one key
    # of 5 multisets on both sides (x and p with the 2 coarse letters the
    # pairing reaches), 16 * 8 * 5**2 = 3200 bytes, over the 16 * 14**2 =
    # 3136 of FLAB_MAX_DIM = 14, which the letter setup's 2016 bytes fit;
    # every degree is refused before any block is built
    def nothing_built(*args, **kwargs):
        raise AssertionError("sector arrays built before the budget check")

    monkeypatch.setenv("FLAB_MAX_DIM", "14")
    with monkeypatch.context() as spy:
        for name in ("_kron_power", "_kron_stack", "whiten_psd"):
            spy.setattr(focklimit, name, nothing_built)
        with pytest.raises(DimensionBudgetError, match="sector degree 4 needs an estimated 3200 bytes"):
            klocal_decay_check(4, 2, [2.0, 3.0], k_max=3)
    assert set(klocal_decay_check(4, 2, [2.0, 3.0], k_max=1)["k"]) == {0, 1}


def _diagonal_site(d, rng):
    """diag(mu) for the eigenvalues mu of a random full-rank site state: the
    site state in its eigenframe, where `norm_grams` works."""
    mu = random_positive_density(d, rng, min_eigenvalue=0.05).eigensystem()[0]
    return DensityMatrix(np.diag(mu), check=False)


def _support_family(d, n, site):
    """The family with nonempty support, with each operator's support."""
    system = QuditSystem(d, n)
    matrices, supports = support_family(d, n, site)
    return system, product_density(site, n), matrices, supports


def _diagonal(state):
    return np.diagonal(state.matrix).real


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_norm_grams_cross_support_blocks(d, n):
    site = _diagonal_site(d, task_rng(17, d))
    system, state, matrices, supports = _support_family(d, n, site)
    labels = np.array([supports.index(s) for s in supports])
    cross = labels[:, None] != labels[None, :]
    for channel, push_cross_vanishes in (
        (DepolarizingChannel(2.5, system), True),
        (homogeneous_coarse_graining(system, 2.5), False),
    ):
        bures, push = norm_grams(_diagonal(state), channel, matrices)
        assert np.max(np.abs(bures[cross])) <= 1e-14
        if push_cross_vanishes:
            assert np.max(np.abs(push[cross])) <= 1e-14
        else:
            assert np.max(np.abs(push[cross])) > 1e-3
        # the Grams reproduce the per-operator norms
        coeffs = task_rng(18, d).standard_normal(len(matrices))
        a = np.tensordot(coeffs, matrices, axes=1)
        assert abs(coeffs @ bures @ coeffs - bures_norm(state, a) ** 2) <= 1e-12
        assert abs(coeffs @ push @ coeffs - pushforward_norm(state, channel, a) ** 2) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_norm_grams_do_not_depend_on_the_chunking(d, n, monkeypatch):
    # one operator per chunk, and chunks of 6 that leave a shorter last one
    site = _diagonal_site(d, task_rng(21, d))
    system, state, matrices, _ = _support_family(d, n, site)
    assert len(matrices) % 6 != 0
    for channel in (DepolarizingChannel(2.5, system), homogeneous_coarse_graining(system, 2.5)):
        whole = norm_grams(_diagonal(state), channel, matrices)
        for entries in (1, 6 * system.dim**2):
            monkeypatch.setattr(dense_oracle, "GRAM_CHUNK_ENTRIES", entries)
            for want, got in zip(whole, norm_grams(_diagonal(state), channel, matrices)):
                assert_close(got, want, tol=1e-14 * np.max(np.abs(want)), what=f"{entries} entries per chunk")
            monkeypatch.undo()


def _decay_cells():
    rng = task_rng(25)
    cells = []
    for d, n, y_values, checked in ((2, 3, [1.2, 6.0], 2), (2, 4, [1.2, 6.0], 2), (3, 3, [2.0, 4.0], 1)):
        cells.append(pytest.param(d, n, y_values, checked, _diagonal_site(d, rng), id=f"mixed-d{d}-n{n}"))
    cells.append(pytest.param(2, 3, [4.0, 32.0], 2, basis_pure_density(2), id="pure-qubit-n3"))
    return cells


@pytest.mark.parametrize("d, n, y_values, checked, site", _decay_cells())
def test_klocal_decay_check_is_the_family_supremum(d, n, y_values, checked, site):
    # the supremum of |A|_N / |A| over the whole family on more than k sites
    # is the root of the top eigenvalue of W^T P W, with W whitening the
    # Bures Gram G; the first `checked` y values are compared
    system, state, matrices, supports = _support_family(d, n, site)
    sizes = np.array([len(s) for s in supports])
    out = klocal_decay_check(n, d, y_values, k_max=n - 1, state_1site=site)
    for yi, y in enumerate(y_values[:checked]):
        bures, push = norm_grams(_diagonal(state), homogeneous_coarse_graining(system, y), matrices)
        for k in range(n):
            wide = np.flatnonzero(sizes > k)
            w = whiten_psd(bures[np.ix_(wide, wide)])[0]
            sup = np.sqrt(np.linalg.eigvalsh(w.T @ push[np.ix_(wide, wide)] @ w)[-1])
            assert abs(out["k"][k]["max_contraction"][yi] - sup) <= 1e-12, (k, y)


class _NonPositiveMap(Channel):
    """Linear, trace changing and not positive: feeds |1><1| from the
    off-diagonal part, so it leaves a pure |0><0| singular yet pushes
    weight onto its null corner."""

    dim = 2

    def apply(self, X):
        X = np.asarray(X, dtype=complex)
        out = X.copy()
        out[..., 1, 1] += X[..., 0, 1] + X[..., 1, 0]
        return out


def test_norm_grams_check_singular_directions_per_row():
    rho = basis_pure_density(2)
    tau1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match="singular"):
        pushforward_norm(rho, _NonPositiveMap(), tau1)
    with pytest.raises(NumericalError, match="singular"):
        norm_grams(_diagonal(rho), _NonPositiveMap(), [np.diag([1.0, -1.0]).astype(complex), tau1])
    # the diagonal letter alone stays in the support and passes
    _, push = norm_grams(_diagonal(rho), _NonPositiveMap(), [np.diag([1.0, -1.0]).astype(complex)])
    assert abs(push[0, 0] - pushforward_norm(rho, _NonPositiveMap(), np.diag([1.0, -1.0])) ** 2) <= 1e-15


def test_norm_grams_refuse_a_channel_that_rotates_the_state():
    # the Hadamard unitary maps diag(0.8, 0.2) off the diagonal, where the
    # entrywise weights of Omega_{N(rho)}^{-1} no longer hold
    hadamard = SuperoperatorChannel([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)])
    tau1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match="does not keep the state diagonal"):
        norm_grams(np.array([0.8, 0.2]), hadamard, [tau1])


def test_symmetric_sector_dense_spectrum_forms_the_fine_gram_once(monkeypatch):
    overlaps, checks, walks = [], [], []
    real_overlaps, real_check = geometry.real_overlaps, operators._check_hermitian
    real_walk = operators.symmetric_word_values

    def counting_overlaps(a, b):
        overlaps.append((len(a), len(b)))
        return real_overlaps(a, b)

    def counting_check(values, transposed, labels):
        checks.append(len(values))
        return real_check(values, transposed, labels)

    def counting_walk(words, letters, n):
        walks.append(len(words))
        return real_walk(words, letters, n)

    def no_dense_gram(*args, **kwargs):
        raise AssertionError("dense Gram formed on the orbit route")

    def no_prune(*args, **kwargs):
        raise AssertionError("the orbit route pruned its fine family")

    monkeypatch.setattr(geometry, "real_overlaps", counting_overlaps)
    monkeypatch.setattr(geometry, "gns_gram", no_dense_gram)
    monkeypatch.setattr(operators, "_check_hermitian", counting_check)
    monkeypatch.setattr(operators, "symmetric_word_values", counting_walk)
    monkeypatch.setattr(operators, "_greedy_gram_prune", no_prune)
    got = symmetric_sector_dense_spectrum(QuditSystem(2, 4), product_density(basis_pure_density(2), 4), 2.5, 2)
    # one Gram at the fine state and one at the coarse state, both over the
    # full word family, which is built by one orbit walk and checked
    # hermitian once; the pairing is the fine Gram recombined, so no third
    # overlap is formed, and both sides whiten all 10 words, the fine side
    # keeping the 5 directions left at the pure state
    assert overlaps == [(10, 10), (10, 10)]
    assert walks == [10]
    assert checks == [10]
    assert got.out_space.matrices.shape[0] == got.in_space.matrices.shape[0] == 10
    assert got.out_space.rank == 5


def _image_oracle(d, n, k, y, mu):
    """The orbit values of the words and of their Heisenberg images, both
    built by an orbit walk, the images over the depolarized letters."""
    letters = operators.zero_mean_letters(mu)
    words = symmetric_words(d * d - 1, k)
    images = symmetric_word_values(words, DepolarizingChannel(y, QuditSystem(d, 1)).adjoint_apply(letters), n)
    return letters, symmetric_word_values(words, letters, n), images


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sites", ["k", "k+1", "8"])
def test_image_matrix_recombines_the_word_values_into_their_images(d, k, sites):
    n = {"k": k, "k+1": k + 1, "8": 8}[sites]
    rng = task_rng(47, 10 * d + k)
    pure = np.eye(d)[0]
    mixed = np.sort(rng.dirichlet(np.ones(d)))[::-1]
    for mu, y in ((pure, 2.5), (mixed, float(rng.uniform(1.2, 4.0)))):
        letters, values, want = _image_oracle(d, n, k, y, mu)
        transform = geometry._image_matrix(np.trace(letters, axis1=1, axis2=2).real / d, y, n, k)
        # lower triangular in `symmetric_words` order, with 1/y^j on the
        # diagonal
        assert np.array_equal(transform, np.tril(transform))
        degrees = np.array([len(w) for w in symmetric_words(d * d - 1, k)])
        assert_close(np.diagonal(transform), y**-degrees.astype(float), tol=1e-15)
        got = transform @ values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, f"d={d} n={n} k={k} mu={mu}"


@pytest.mark.parametrize(
    "mu",
    [np.array([1 - 2e-4, 1e-4, 1e-4]), np.array([1 - 1e-4, 1e-4])],
    ids=["nearly-pure-qutrit", "nearly-pure-qubit"],
)
@pytest.mark.parametrize("k", [2, 3])
def test_unpruned_whitening_keeps_the_closed_form_count_near_pure_states(mu, k):
    # the fine Gram is nearly singular here: whitening the full family cuts
    # the same directions the closed form's whitening does
    d, n = mu.size, k + 2
    site = DensityMatrix(np.diag(mu))
    got = symmetric_sector_dense_spectrum(QuditSystem(d, n), product_density(site, n), 2.5, k)
    closed = symmetric_sector_spectrum(n, d, 2.5, k, state=site, include_identity=True)
    assert got.eigenvalues.shape == closed["eigenvalues"].shape
    assert_close(got.eigenvalues, closed["eigenvalues"], tol=1e-12, what=f"d={d} k={k}")


@pytest.mark.parametrize("d, n, k", [(2, 4, 3), (3, 3, 3)])
def test_orbit_images_are_the_coarse_graining_adjoint_of_the_words(d, n, k):
    # the two identities the orbit route rests on: the permutation average
    # fixes a symmetric word, and the sitewise depolarizing adjoint, being
    # unital, maps it to the word of the image letters
    y, system = 2.7, QuditSystem(d, n)
    site = random_positive_density(d, task_rng(23, d), min_eigenvalue=0.05)
    letters = np.array(single_site_zero_mean_basis(site))
    depolarizing = DepolarizingChannel(y, QuditSystem(d, 1))
    words = symmetric_words(d * d - 1, k)
    dense = dense_from_orbits(symmetric_word_values(words, letters, n), d, n, k)
    images = symmetric_word_values(words, depolarizing.adjoint_apply(letters), n)
    want = homogeneous_coarse_graining(system, y).adjoint_apply(dense)
    assert_close(dense_from_orbits(images, d, n, k), want, tol=1e-13, what=f"d={d} n={n} images")


def _dense_cases():
    rng = task_rng(20261018)
    cases = []
    for d, n, k in ((2, 6, 1), (2, 6, 2), (3, 4, 1), (3, 4, 2), (2, 5, 3)):
        site = random_positive_density(d, rng, min_eigenvalue=0.05)
        cases.append(pytest.param(d, n, k, float(rng.uniform(1.2, 4.0)), site, id=f"mixed-d{d}-n{n}-k{k}"))
    cases.append(pytest.param(2, 6, 2, 2.5, basis_pure_density(2), id="pure-qubit-n6-k2"))
    return cases


@pytest.mark.parametrize("d, n, k, y, site", _dense_cases())
def test_dense_sector_spectrum_matches_original_frame_oracle(d, n, k, y, site):
    system, state = QuditSystem(d, n), product_density(site, n)
    got = symmetric_sector_dense_spectrum(system, state, y, k)
    want = original_frame_spectrum(system, state, y, k)
    assert got.eigenvalues.shape == want.shape
    assert_close(got.eigenvalues, want, tol=1e-12, what=f"eigenframe vs original frame, d={d} n={n} k={k}")
    # the family lives in the site eigenframe, in orbit coordinates: both
    # spaces hold the diagonal site states, and the coarse words, gathered
    # through each entry's orbit, are the original-frame words rotated by
    # the site eigenvectors
    for space in (got.out_space, got.in_space):
        rho = space.state.matrix
        assert rho.shape == (d, d)
        assert np.count_nonzero(rho - np.diag(np.diagonal(rho))) == 0
        assert space.matrices.shape[1] == len(orbit_counts(d, n, k))
    _, u = identical_site_state(state, system).eigensystem()
    rotation = tensor_many([u] * n)
    full = symmetric_klocal_basis(k, system, state, prune=False)
    words = dense_from_orbits(got.in_space.matrices, d, n, k)
    assert_close(words, rotation.conj().T @ full @ rotation, tol=1e-13, what="eigenframe words")


@pytest.mark.parametrize("d, n", [(2, 6), (3, 5), (4, 3)])
def test_dense_sector_spectrum_from_the_site_state(d, n):
    # the route reads mu from a site state directly and from a product
    # state through its partial trace: the same bits at a pure basis state,
    # within the partial trace's roundoff at mixed ones
    system = QuditSystem(d, n)
    mixed = random_positive_density(d, task_rng(20261020, d), min_eigenvalue=0.05)
    for site, tol in ((basis_pure_density(d), 0.0), (mixed, 4e-15)):
        product = product_density(site, n)
        for k in (1, 2, 3):
            got = symmetric_sector_dense_spectrum(system, site, 2.5, k).eigenvalues
            want = symmetric_sector_dense_spectrum(system, product, 2.5, k).eigenvalues
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= tol, (d, n, k)


def test_dense_sector_spectrum_names_a_wrong_state_dimension():
    # a state of neither the site's nor the chain's dimension is refused
    # before the route reshapes it
    for system, state in (
        (QuditSystem(2, 5), product_density(basis_pure_density(2), 3)),
        (QuditSystem(3, 3), basis_pure_density(2)),
    ):
        want = rf"state of dimension {state.dim} .*\(d={system.d}\) .*\(d\*\*n={system.dim}\)"
        with pytest.raises(ValueError, match=want):
            symmetric_sector_dense_spectrum(system, state, 2.0, 2)


@pytest.mark.parametrize("d, n", [(2, 11), (3, 6)])
def test_dense_sector_spectrum_past_the_old_ceiling(d, n):
    # chains whose words would be large as dense matrices (the 10 qubit
    # words at n = 11 take 640 MiB) are small in orbit coordinates (364
    # values each)
    site = random_positive_density(d, task_rng(20261019, d), min_eigenvalue=0.05)
    got = symmetric_sector_dense_spectrum(QuditSystem(d, n), product_density(site, n), 2.5, 2)
    closed = symmetric_sector_spectrum(n, d, 2.5, 2, state=site, include_identity=True)
    assert got.eigenvalues.shape == closed["eigenvalues"].shape
    assert_close(got.eigenvalues, closed["eigenvalues"], tol=1e-12, what=f"d={d} n={n}")


def test_state_product_scales_columns_only_for_diagonal_states():
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    rho = np.diag(rng.uniform(0.1, 1.0, 5)).astype(complex)
    assert_close(state_product(mats, rho), mats @ rho, tol=1e-15)
    assert_close(state_product(mats[0], rho), mats[0] @ rho, tol=1e-15)
    # one off-diagonal entry is enough to take the full product
    rho[1, 3] = 1e-3
    assert_close(state_product(mats, rho), mats @ rho, tol=1e-15)
    assert np.max(np.abs(mats * np.diagonal(rho) - mats @ rho)) > 1e-6


def test_dense_sector_budget_default_limits(monkeypatch):
    # at the default budget (4 GiB) no dim-square array is the route's: d=2,
    # k=2 needs about 12 MiB at n=13 and at the cap n=14, and d=4, n=7 fits
    # at k=3 (1842 MiB), not at k=4, where the orbit arrays alone exceed it
    monkeypatch.delenv("FLAB_MAX_DIM", raising=False)
    for n in (13, 14):
        check_dense_sector_budget(QuditSystem(2, n), 2)
    check_dense_sector_budget(QuditSystem(4, 7), 3)
    refusal = r"estimated 21590 MiB \(3876 x 45536 orbit values and their weighted copy 5386 MiB"
    with pytest.raises(DimensionBudgetError, match=refusal):
        check_dense_sector_budget(QuditSystem(4, 7), 4)
    # degrees above n have no words: k=3 at n=2 counts 1 + 3 + 6 of them,
    # on the 10 multisets of 2 joint labels out of 4
    pair = QuditSystem(2, 2)
    monkeypatch.setenv("FLAB_MAX_DIM", "2")
    with pytest.raises(DimensionBudgetError, match="10 x 10 orbit values and their weighted copy"):
        check_dense_sector_budget(pair, 3)


def test_dense_sector_spectrum_refused_before_building(monkeypatch):
    def nothing_built(*args, **kwargs):
        raise AssertionError("word or product check before the budget check")

    site = random_positive_density(2, task_rng(22), min_eigenvalue=0.05)
    system, state = QuditSystem(2, 5), product_density(site, 5)
    # 10 words on the 28 orbits with at most 2 off-diagonal sites: the orbit
    # arrays take 41216 bytes and a first run 12582912, 12624128 in all,
    # between 16 * 888**2 and 16 * 889**2; the caller's state is not counted
    monkeypatch.setenv("FLAB_MAX_DIM", "888")
    with monkeypatch.context() as spy:
        spy.setattr(operators, "symmetric_word_values", nothing_built)
        spy.setattr(geometry, "identical_site_state", nothing_built)
        for given in (state, site):
            with pytest.raises(DimensionBudgetError, match="dense sector at d=2, n=5 needs an estimated 12 MiB"):
                symmetric_sector_dense_spectrum(system, given, 2.0, 2)
    monkeypatch.setenv("FLAB_MAX_DIM", "889")
    assert symmetric_sector_dense_spectrum(system, state, 2.0, 2).eigenvalues.shape == (10,)


# the child builds the product state, then reads its own peak resident set
# (VmHWM, in KiB) around the dense sector spectrum
DENSE_PEAK = """
import sys
import flab
from flab.geometry import symmetric_sector_dense_spectrum
from flab.operators import QuditSystem, product_density
from flab.sampling import random_positive_density, task_rng

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

d, n, k = map(int, sys.argv[1:])
site = random_positive_density(d, task_rng(5, 3), min_eigenvalue=0.05)
system = QuditSystem(d, n)
state = product_density(site, n)
before = peak()
symmetric_sector_dense_spectrum(system, state, 2.5, k)
print(1024 * (peak() - before))
"""


class _Counted(Exception):
    pass


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
@pytest.mark.parametrize(
    "d, n, k, floor",
    [
        # the product check of a 1024-square state: the later sites'
        # 256-square product, beside a block of it and its modulus
        pytest.param(2, 10, 2, 16 * 256**2, id="dense-state"),
        # the last level's parents' copy, running slot sum, one slot's
        # gathered sources and site factors and their product: 165
        # monomials on the 657 orbits with at most 3 off-diagonal sites
        pytest.param(3, 5, 3, 5 * 16 * 657 * 165, id="orbit-polynomials"),
    ],
)
def test_dense_sector_budget_bounds_the_measured_peak(monkeypatch, d, n, k, floor):
    # a fresh interpreter at one BLAS thread and a mixed site state: peak
    # growth of the spectrum over the caller's product state, bounded by
    # the route's estimate and that of its product check
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    args = [sys.executable, "-c", DENSE_PEAK, str(d), str(n), str(k)]
    growth = int(subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout)
    parts = {}

    def record(what, estimate):
        parts.update(estimate)
        if what.startswith("product check"):
            raise _Counted

    monkeypatch.setattr(geometry, "check_byte_budget", record)
    monkeypatch.setattr(operators, "check_byte_budget", record)
    system = QuditSystem(d, n)
    check_dense_sector_budget(system, k)
    # refused, were it over, before the state is read
    with pytest.raises(_Counted):
        identical_site_state(None, system)
    assert floor < growth <= sum(parts.values())
