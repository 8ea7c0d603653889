"""Single-particle kernels, permanents, and the limiting block spectra."""

import ast
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import flab
from flab import focklimit
from flab.channels import DepolarizingChannel
from flab.errors import DimensionBudgetError, NumericalError
from flab.focklimit import (
    NULL_LETTER_THRESHOLD,
    SingleParticleSpace,
    beta_bound_decreasing,
    beta_bound_test,
    beta_bound_value,
    clt_convergence,
    depolarizing_fock_setup,
    distinct_site_factor,
    finite_limit_comparison,
    fock_block_spectrum,
    permanent,
    sampled_norms,
    symmetric_sector_spectrum,
)
from flab.geometry import bures_norm, pushforward_norm, whiten_psd, whitened_contraction
from flab.operators import (
    DensityMatrix,
    QuditSystem,
    basis_pure_density,
    gell_mann_basis,
    product_density,
    single_site_zero_mean_basis,
    symmetric_word_operator,
    zero_mean_letters,
)
from flab.sampling import haar_unitary, random_positive_density, task_rng

from conftest import assert_close, maximally_mixed_density
from dense_oracle import letter_products, norm_grams, site_product, support_family, tuple_oracle


def test_kernel_at_pure_qubit():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    want = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 0]])
    assert_close(sp.kernel, want, tol=1e-12)
    assert sp.letter_names == ["x", "p", "z0"]
    for threshold in (NULL_LETTER_THRESHOLD, 0.0):
        sub, kept = sp.reduced(threshold)
        assert kept == [0, 1]
        assert sub.letter_names == ["x", "p"]


def test_kernel_is_psd_at_random_state():
    rng = task_rng(21)
    rho = random_positive_density(3, rng, min_eigenvalue=0.05)
    sp = SingleParticleSpace.from_eigenvalues(rho.eigensystem()[0])
    k = sp.kernel
    assert_close(k, k.conj().T, tol=1e-12, what="kernel hermiticity")
    assert np.linalg.eigvalsh(k).min() > -1e-12


def _site_states(d):
    """The pure default, a seeded mixed state, I/d, and a diagonal state
    (degenerate for d = 3) with a Haar-rotated copy of it."""
    rng = task_rng(22, d)
    diag = np.diag([0.75, 0.25] if d == 2 else [0.5, 0.25, 0.25])
    u = haar_unitary(d, rng)
    return {
        "pure": None,
        "mixed": random_positive_density(d, rng, min_eigenvalue=0.05),
        "maximally-mixed": maximally_mixed_density(d),
        "diagonal": DensityMatrix(diag),
        "rotated": DensityMatrix(u @ diag @ u.conj().T),
    }


def test_letter_matrix_is_identity_over_y():
    # checked against DepolarizingChannel in the site eigenframe: the
    # adjoint maps each coarse letter to the letter matrix's combination of
    # fine letters, and the coarse kernel is the GNS kernel at the channel
    # image of diag(mu)
    for d in (2, 3):
        for (name, state), y in itertools.product(_site_states(d).items(), (1.0, 1.5, 3.0)):
            mu = np.eye(d)[0] if state is None else state.eigensystem()[0]
            sp_fine, sp_coarse, m = depolarizing_fock_setup(d, y, state)
            channel = DepolarizingChannel(y, QuditSystem(d, 1))
            coarse = channel.apply(np.diag(mu))
            what = f"d={d} {name} y={y}"
            for c, letter in enumerate(sp_coarse.basis):
                want = np.tensordot(m[:, c], np.array(sp_fine.basis), axes=1)
                assert_close(channel.adjoint_apply(letter), want, tol=1e-15, what=f"{what} letter {c}")
            gns = [[np.trace(coarse @ f.conj().T @ g) for g in sp_coarse.basis] for f in sp_coarse.basis]
            assert_close(sp_coarse.kernel, gns, tol=1e-15, what=f"{what} coarse kernel")
    with pytest.raises(ValueError, match="y >= 1"):
        depolarizing_fock_setup(2, 0.5)
    with pytest.raises(ValueError, match="local dimension"):
        depolarizing_fock_setup(1, 2.0)
    with pytest.raises(ValueError, match="site state of dimension 3 for local dimension 2"):
        depolarizing_fock_setup(2, 2.0, maximally_mixed_density(3))
    # the letter setup checks the letter matrix for every regime
    sp_fine, sp_coarse, m = depolarizing_fock_setup(2, 2.0)
    with pytest.raises(ValueError, match="letter matrix shape .3, 2. does not match spaces .3, 3."):
        fock_block_spectrum(sp_fine, sp_coarse, m[:, :2], 1)


def test_permanent_values():
    assert permanent(np.array([[3.0]])) == 3.0
    assert abs(permanent(np.ones((2, 2))) - 2.0) < 1e-12
    assert abs(permanent(np.ones((3, 3))) - 6.0) < 1e-12
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(permanent(a) - 10.0) < 1e-12  # 1*4 + 2*3
    with pytest.raises(ValueError):
        permanent(np.ones((9, 9)))


def test_distinct_site_factor():
    assert distinct_site_factor(4, 0) == 1.0
    assert distinct_site_factor(4, 1) == 1.0
    assert abs(distinct_site_factor(4, 2) - 0.75) < 1e-15
    assert abs(distinct_site_factor(4, 3) - 0.375) < 1e-15
    with pytest.raises(ValueError):
        distinct_site_factor(2, 3)


def finite_inner(sp, u, v, n):
    """The inner product of two symmetric letter words at n sites, as
    `clt_convergence` reports it (a second site count gives its rate fit
    two points)."""
    return clt_convergence(sp, u, v, [n, 2 * n])["finite"][0]


def test_finite_inner_degree_one_is_kernel():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    for n in (2, 5):
        for a in range(3):
            for b in range(3):
                got = finite_inner(sp, (a,), (b,), n)
                assert abs(got - sp.kernel[a, b]) < 1e-12


def test_finite_inner_cross_degree_vanishes():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    assert finite_inner(sp, (0,), (0, 1), 4) == 0
    assert finite_inner(sp, (), (0,), 4) == 0
    assert clt_convergence(sp, (0,), (0, 1), [4, 8])["limit"] == 0


def test_finite_inner_rejects_words_longer_than_chain():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    # the first site count decides, at equal and at unequal degrees
    for u, v in (((0, 0, 0), (0, 0, 0)), ((0,), (0, 0, 0))):
        with pytest.raises(ValueError, match="word degree 3 exceeds site count 2"):
            clt_convergence(sp, u, v, [2, 8])


def test_finite_inner_against_dense_words():
    # independent oracle: dense distinct-site word operators at n = 3
    n, d = 3, 2
    site = DensityMatrix(np.diag([0.7, 0.3]))
    system = QuditSystem(d, n)
    state = product_density(site, n)
    sp = SingleParticleSpace.from_eigenvalues(site.eigensystem()[0])
    words = [(0,), (2,), (0, 0), (0, 2), (2, 2)]
    dense = {w: symmetric_word_operator(w, sp.basis, system) for w in words}
    for u in words:
        for v in words:
            want = np.trace(state.matrix @ dense[u].conj().T @ dense[v])
            got = finite_inner(sp, u, v, n)
            assert abs(got - want) < 1e-11, (u, v)


def permanent_gram(kernel, rows, cols):
    """Gram of permanents, out[r, c] = permanent(kernel[rows[r], cols[c]]).

    rows and cols are letter words of one common degree j; all minors are
    stacked as one (j, j, R, C) array and expanded together over the j!
    permutations.
    """
    rows = np.asarray(rows, dtype=np.intp).T
    cols = np.asarray(cols, dtype=np.intp).T
    if len(rows) != len(cols):
        raise ValueError(f"words of degree {len(rows)} and {len(cols)}")
    minors = np.asarray(kernel)[rows[:, None, :, None], cols[None, :, None, :]]
    total = np.zeros(minors.shape[2:], dtype=complex)
    for perm in itertools.permutations(range(len(rows))):
        prod = np.ones(minors.shape[2:], dtype=complex)
        for i, j in enumerate(perm):
            prod = prod * minors[i, j]
        total = total + prod
    return total


def test_permanent_gram_matches_ryser():
    def ryser(a):
        # perm(A) = (-1)^m sum over column subsets S of (-1)^|S| prod_i sum_{j in S} a_ij
        size = a.shape[0]
        total = 0j
        for r in range(1, size + 1):
            for subset in itertools.combinations(range(size), r):
                total += (-1) ** r * np.prod(a[:, subset].sum(axis=1))
        return (-1) ** size * total

    rng = task_rng(31)
    kernel = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for j in range(1, 5):
        rows = list(itertools.combinations_with_replacement(range(4), j))[:5]
        cols = list(itertools.product(range(4), repeat=j))[1::5][:3]
        got = permanent_gram(kernel, rows, cols)
        assert got.shape == (len(rows), len(cols))
        for r, u in enumerate(rows):
            for c, v in enumerate(cols):
                assert abs(got[r, c] - ryser(kernel[np.ix_(u, v)])) < 1e-12
    with pytest.raises(ValueError):
        permanent_gram(kernel, [(0,)], [(0, 1)])


def test_limiting_inner_is_permanent():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    # per [[K_xx, K_xx], [K_xx, K_xx]] with K_xx = 1
    out = clt_convergence(sp, (0, 0), (0, 0), [4, 8])
    assert abs(out["limit"] - 2.0) < 1e-12
    assert abs(out["finite"][0] - 2.0 * distinct_site_factor(4, 2)) < 1e-12


def generating_overlap(sp, a, b, n):
    """Overlap (1 + tr(rho a^dagger b) / n)^n of the generating operators
    prod_i (1 + i a / sqrt(n)) at rho^n, for real letter coefficients a, b."""
    return (1.0 + float(np.real(a @ sp.kernel @ b)) / n) ** n


def vertex_overlap(sp, a, b):
    """Its large-n limit exp(tr(rho a^dagger b))."""
    return math.exp(float(np.real(a @ sp.kernel @ b)))


def test_generating_overlap_against_dense():
    n, d = 6, 2
    site = maximally_mixed_density(d)  # real kernel, overlaps real
    state = product_density(site, n)
    sp = SingleParticleSpace.from_eigenvalues(site.eigensystem()[0])
    rng = task_rng(23)
    a = rng.standard_normal(3) * 0.5
    b = rng.standard_normal(3) * 0.5
    mat_a = sum(c * f for c, f in zip(a, sp.basis))
    mat_b = sum(c * f for c, f in zip(b, sp.basis))
    # the dense generating operators prod_i (1 + i a^{(i)} / sqrt(n))
    ga, gb = (
        functools.reduce(np.kron, [np.eye(d) + 1j * mat / np.sqrt(n)] * n) for mat in (mat_a, mat_b)
    )
    dense = np.trace(state.matrix @ ga.conj().T @ gb)
    assert abs(dense.imag) < 1e-12
    assert abs(generating_overlap(sp, a, b, n) - dense.real) < 1e-12


def test_generating_overlap_approaches_vertex():
    sp, _, _ = depolarizing_fock_setup(2, 2.0)
    a = np.array([0.6, -0.3, 0.0])
    b = np.array([0.2, 0.3, 0.0])
    limit = vertex_overlap(sp, a, b)
    gaps = [abs(generating_overlap(sp, a, b, n) - limit) for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3 * max(limit, 1.0)


def test_clt_convergence_rate():
    site = DensityMatrix(np.diag([0.8, 0.2]))
    sp = SingleParticleSpace.from_eigenvalues(site.eigensystem()[0])
    out = clt_convergence(sp, (0, 0), (0, 0), [4, 8, 16, 32])
    assert out["rate"] is not None
    assert abs(out["rate"] + 1.0) < 0.2
    with pytest.raises(ValueError):
        clt_convergence(sp, (0,), (0,), [8, 4])


def test_clt_convergence_fits_no_rate_to_one_size():
    site = DensityMatrix(np.diag([0.8, 0.2]))
    sp = SingleParticleSpace.from_eigenvalues(site.eigensystem()[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clt_convergence(sp, (0, 0), (0, 0), [8])
    assert out["rate"] is None and len(out["deviations"]) == 1 and out["deviations"][0] > 0


def test_fock_blocks_closed_form():
    for y in (1.5, 2.0, 4.0):
        sp_f, sp_c, m = depolarizing_fock_setup(2, y)
        b1 = fock_block_spectrum(sp_f, sp_c, m, 1)
        assert_close(np.sort(b1.eigenvalues), np.full(2, y**-2), tol=1e-10)
        b2 = fock_block_spectrum(sp_f, sp_c, m, 2)
        lam = 2.0 * y**-2 / (1.0 + y**2)
        assert_close(np.sort(b2.eigenvalues)[::-1], [lam, lam, 0.0, 0.0], tol=1e-10)
        assert b2.fine_rank == 2


def test_fock_block_labels():
    sp_f, sp_c, m = depolarizing_fock_setup(2, 2.0)
    b1 = fock_block_spectrum(sp_f, sp_c, m, 1)
    assert set(b1.eigen_labels) == {"1*x", "1*p"}
    b2 = fock_block_spectrum(sp_f, sp_c, m, 2)
    assert any("x(x)x" in label or "x(x)p" in label for label in b2.eigen_labels)
    # the columns past the fine rank are zero padding
    assert b2.fine_rank == 2 and b2.eigen_labels[2:] == ["0", "0"]
    assert "0" not in b2.eigen_labels[:2]


def _dense_fock_oracle(sp_f, sp_c, m, k):
    """The dense tuple-Gram route: kron powers, whiten_psd on both sides, transport, eigh."""
    fine_red, kept = sp_f.reduced(NULL_LETTER_THRESHOLD)

    def real_power(mat):
        out = np.ones((1, 1))
        for _ in range(k):
            out = np.kron(out, mat)
        return np.real(out)

    w_f, _ = whiten_psd(real_power(fine_red.kernel), NULL_LETTER_THRESHOLD)
    w_c, _ = whiten_psd(real_power(sp_c.kernel), NULL_LETTER_THRESHOLD)
    small = w_f.T @ real_power(fine_red.kernel @ m[kept, :]) @ w_c
    vals, vecs = np.linalg.eigh(small @ small.T)
    order = np.argsort(vals)[::-1]
    return np.clip(vals[order], 0.0, None), w_f @ vecs[:, order]


def _clusters(vals, rel_gap=1e-9):
    """Index ranges of descending eigenvalues split where the gap exceeds rel_gap * top."""
    cuts = np.flatnonzero(-np.diff(vals) > rel_gap * vals[0])
    return np.split(np.arange(vals.size), cuts + 1)


def _nearly_pure(d, eps):
    return DensityMatrix(np.diag([1.0 - (d - 1) * eps] + [eps] * (d - 1)).astype(complex))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("state", ["pure", "mixed", "nearly-pure"])
def test_fock_block_matches_dense_oracle(d, state):
    # nearly pure at y = 1: cond(K') ~ 1e4, where an uncapped factored
    # inverse was 2.7e-9 off at k = 2 (d = 3) against 2.9e-12 for the dense
    # route.  It is not taken at y > 1: at k = 3 there it has eigenvalue
    # clusters near 1e-9 spaced by ~1e-10, whose projectors move by up to
    # 2e-8 relative when one product of the dense route is re-associated.
    site = {
        "pure": None,
        "mixed": random_positive_density(d, task_rng(20261018, d), min_eigenvalue=0.05),
        "nearly-pure": _nearly_pure(d, 1e-4),
    }[state]
    for y in (1.0,) if state == "nearly-pure" else (1.0, 1.5, 3.0):
        sp_f, sp_c, m = depolarizing_fock_setup(d, y, site)
        for k in (1, 2, 3):
            block = fock_block_spectrum(sp_f, sp_c, m, k)
            want_vals, want_coeffs = _dense_fock_oracle(sp_f, sp_c, m, k)
            what = f"d={d} {state} y={y} k={k}"
            assert block.fine_rank == want_vals.size, what
            assert np.max(np.abs(block.eigenvalues[want_vals.size :]), initial=0.0) == 0.0
            if y == 1.0:
                # the identity channel: every kept eigenvalue is exactly 1,
                # one cluster.  The oracle whitens the whole coarse Gram and
                # is off by up to 9.9e-8 here (nearly pure qutrit, k = 3)
                assert_close(block.eigenvalues[: want_vals.size], 1.0, tol=1e-11, what=what)
                clusters = [np.arange(want_vals.size)]
            else:
                assert_close(block.eigenvalues[: want_vals.size], want_vals, tol=1e-12, what=what)
                clusters = _clusters(want_vals)
            got_coeffs = np.zeros((want_coeffs.shape[0], want_vals.size))
            for col, (rows, values) in zip(got_coeffs.T, block.vectors):
                col[rows] = values
            for idx in clusters:
                want_proj = want_coeffs[:, idx] @ want_coeffs[:, idx].T
                got_proj = got_coeffs[:, idx] @ got_coeffs[:, idx].T
                dev = np.max(np.abs(got_proj - want_proj))
                assert dev <= 1e-8 * np.max(np.abs(want_proj)), f"{what} cluster {idx}: {dev:.3e}"


@pytest.mark.parametrize("d, k_max", [(2, 3), (3, 3), (4, 2)])
def test_reached_coarse_letters_give_the_unrestricted_spectra(d, k_max):
    # the brute-force tuple problem over every coarse letter (whole Kronecker
    # powers, one eigenproblem) against the Fock block and the sector, which
    # form only the key stacks of the letter blocks the pairing reaches
    thr = NULL_LETTER_THRESHOLD
    sites = [None, random_positive_density(d, task_rng(20261019, d), min_eigenvalue=0.05), _nearly_pure(d, 1e-4)]
    for site, y in itertools.product(sites, (1.0, 1.5, 2.7)):
        sp_f, sp_c, m = depolarizing_fock_setup(d, y, site)
        fine_red, kept = sp_f.reduced(thr)
        sectors = focklimit._sector_blocks(None, sp_f, sp_c, m, k_max)
        pairing = fine_red.kernel @ m[kept, :]
        for k, symmetric in itertools.product(range(1, k_max + 1), (False, True)):
            want = tuple_oracle(fine_red.kernel, sp_c.kernel, pairing, k, symmetric, thr)
            block = fock_block_spectrum(sp_f, sp_c, m, k)
            got = sectors[k] if symmetric else block.eigenvalues[: block.fine_rank]
            what = f"d={d} site={'pure' if site is None else site.eigensystem()[0]} y={y} k={k} sym={symmetric}"
            assert got.size == want.size, what
            if y == 1.0:
                # the identity channel: the oracle whitens the whole coarse
                # Gram and carries its error (up to 9.9e-8 at nearly pure
                # states), so every kept eigenvalue is checked against 1
                assert_close(got, 1.0, tol=1e-11, what=what)
            else:
                assert_close(got, want, tol=1e-13, what=what)
    # a pairing that reaches no coarse letter contracts everything to 0
    assert not fock_block_spectrum(sp_f, sp_c, 0 * m, 2).eigenvalues.any()
    assert not np.concatenate(list(focklimit._sector_blocks(None, sp_f, sp_c, 0 * m, 2).values())).any()


def _eigh_sizes(monkeypatch) -> list:
    """Size of every matrix np.linalg.eigh solves from now on, one entry per
    matrix of a stack."""
    sizes, eigh = [], np.linalg.eigh

    def recording_eigh(mat):
        sizes.extend([mat.shape[-1]] * int(np.prod(mat.shape[:-2])))
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return sizes


def test_fock_block_at_the_pure_qutrit_stays_on_reached_letter_blocks(monkeypatch):
    # k = 4: two letter blocks per site (the index pairs (0, 1) and (0, 2))
    # make 16 keys of 16 tuples, so no eigh runs on a matrix above 16 x 16
    # (256 fine and 8**4 coarse tuples over all letters)
    sizes = _eigh_sizes(monkeypatch)
    block = fock_block_spectrum(*depolarizing_fock_setup(3, 2.5), 4)
    assert sizes and max(sizes) <= 16, sizes
    # both Grams whitened key by key
    assert sizes.count(16) == 32, sizes
    assert block.eigenvalues.size == 256


def test_mixed_qutrit_fock_block_4_runs_on_key_stacks(monkeypatch):
    # 8**4 = 4096 fine tuples; four letter blocks of two letters make 256
    # keys of 16.  Over whole tuple Grams this took 19 s and 1.2 GB
    site = random_positive_density(3, task_rng(20261019, 3), min_eigenvalue=0.05)
    sizes = _eigh_sizes(monkeypatch)
    setup = depolarizing_fock_setup(3, 3.0, site)
    block = fock_block_spectrum(*setup, 4)
    sector = symmetric_sector_spectrum(None, 3, 3.0, 4, state=site)["by_degree"][4]
    assert max(sizes) <= 16, max(sizes)
    assert block.fine_rank == len(block.vectors) == 4096
    assert {(rows.size, values.size) for rows, values in block.vectors} == {(16, 16)}
    vals = np.concatenate([block.eigenvalues, sector])
    assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-10, (vals.min(), vals.max())
    # the symmetric sector is a part of the Fock block
    gap = max(float(np.min(np.abs(block.eigenvalues - v))) for v in sector)
    assert gap <= 1e-12, gap


def test_mixed_qutrit_fock_block_4_keeps_each_vector_on_its_key():
    # 4096 eigenvectors of 16 coefficients; scattered into one 4096-square
    # array they took 128 MiB of a 132 MiB traced peak
    site = random_positive_density(3, task_rng(20261019, 3), min_eigenvalue=0.05)
    setup = depolarizing_fock_setup(3, 3.0, site)
    tracemalloc.start()
    try:
        labels = fock_block_spectrum(*setup, 4).eigen_labels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 4096 and "0" not in labels
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("state", ["pure", "mixed", "nearly-pure"])
def test_fock_eigen_labels_match_the_dense_format(d, state):
    # the dense format: each eigenvector a column over all r^k tuples in C
    # order, zero past the fine rank, labelled over all r^k tuple labels.
    # Built a column at a time: at d = 4, k = 3 the square array is 87 MiB
    site = {
        "pure": None,
        "mixed": random_positive_density(d, task_rng(20261018, d), min_eigenvalue=0.05),
        "nearly-pure": _nearly_pure(d, 1e-4),
    }[state]
    for y, k in itertools.product((1.0, 1.5, 3.0), (1, 2, 3)):
        block = fock_block_spectrum(*depolarizing_fock_setup(d, y, site), k)
        labels = ["(x)".join(word) for word in itertools.product(block.letter_names, repeat=k)]
        pad = [(np.zeros(0, dtype=int), np.zeros(0))] * (len(labels) - len(block.vectors))
        want = []
        for rows, values in block.vectors + pad:
            col = np.zeros(len(labels))
            col[rows] = values
            want.append(focklimit._combo_label(col, labels))
        assert block.eigen_labels == want, f"d={d} {state} y={y} k={k}"


def test_fock_block_budget_counts_dense_tuple_spaces(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("key stacks built before the budget check")

    # d = 3, k = 2 at the pure state: 4 keys of 4 fine and 4 coarse tuples,
    # 8192 bytes, within 16 * 50**2 whether the coarse kernel is faithful
    # (y = 2) or singular (y = 1)
    monkeypatch.setenv("FLAB_MAX_DIM", "50")
    fock_block_spectrum(*depolarizing_fock_setup(3, 2.0), 2)
    fock_block_spectrum(*depolarizing_fock_setup(3, 1.0), 2)
    # a mixed qubit at y = 1.01, k = 3: the letter blocks {x, p} and {z}
    # make 8 keys, 16000 bytes between 16 * 31**2 and 16 * 32**2, while its
    # 3**3 fine tuples pass the r**k cap at both
    mixed = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    with monkeypatch.context() as spy:
        spy.setenv("FLAB_MAX_DIM", "31")
        for name in ("_kron_stack", "whiten_psd"):
            spy.setattr(focklimit, name, no_allocation)
        with pytest.raises(DimensionBudgetError, match="Fock block 3 needs an estimated 16000 bytes .8 key stacks"):
            fock_block_spectrum(*depolarizing_fock_setup(2, 1.01, mixed), 3)
        # at 15 the letter setup, five stacks of the 8 letters with the two
        # kernels and letter names, is refused before the r**k cap
        spy.setenv("FLAB_MAX_DIM", "15")
        with pytest.raises(DimensionBudgetError, match="letter setup at d=3 needs an estimated 9856 bytes"):
            fock_block_spectrum(*depolarizing_fock_setup(3, 2.0), 2)
        # the pure qubit's letter setup, 2016 bytes, fits 16 * 12**2, and the
        # r**k cap refuses its 2**4 fine tuples
        spy.setenv("FLAB_MAX_DIM", "12")
        with pytest.raises(DimensionBudgetError, match="fine tuple dimension 2\\*\\*4"):
            fock_block_spectrum(*depolarizing_fock_setup(2, 2.0), 4)
    monkeypatch.setenv("FLAB_MAX_DIM", "32")
    assert fock_block_spectrum(*depolarizing_fock_setup(2, 1.01, mixed), 3).eigenvalues.size == 27


def test_sector_spectrum_is_n_independent():
    a = symmetric_sector_spectrum(2, 2, 2.0, 2)
    b = symmetric_sector_spectrum(17, 2, 2.0, 2)
    assert_close(a["eigenvalues"], b["eigenvalues"], tol=1e-12)
    assert_close(np.sort(a["eigenvalues"])[::-1], [0.25, 0.25, 0.1, 0.1], tol=1e-12)
    assert set(a["by_degree"]) == {1, 2}
    with_id = symmetric_sector_spectrum(4, 2, 2.0, 2, include_identity=True)
    assert abs(max(with_id["eigenvalues"]) - 1.0) < 1e-12
    # words longer than the chain have no distinct-site realization
    assert set(symmetric_sector_spectrum(2, 2, 2.0, 4)["by_degree"]) == {1, 2}


def test_finite_limit_comparison_structure():
    # the pure qubit and a mixed qutrit
    for d, k, n_list, state in ((2, 2, [2, 4, 8], None), (3, 3, [3, 5], DensityMatrix(np.diag([0.5, 0.3, 0.2])))):
        out = finite_limit_comparison(n_list, d, 2.0, k, state)
        assert out["n_list"] == n_list
        assert out["deviations"] == [0.0] * len(n_list)
        # the per-degree scalar weights cancel between gram and pairing, and
        # n >= k drops no degree, so each finite spectrum is the limit bit for bit
        for n in n_list:
            finite = symmetric_sector_spectrum(n, d, 2.0, k, state)["eigenvalues"]
            assert finite.tobytes() == out["spectra"][n].tobytes() == out["limit"].tobytes()


def test_beta_bound_values():
    assert abs(beta_bound_value(2, 3.0, 1) - 1.0 / 3.0) < 1e-15
    assert abs(beta_bound_value(2, 3.0, 2) - 1.0 / 9.0) < 1e-15
    assert abs(beta_bound_value(3, 4.0, 1) - 0.25) < 1e-15
    assert beta_bound_decreasing(2, 3.0) is True
    assert beta_bound_decreasing(2, 1.5) is False


def test_beta_bound_test_cell():
    out = beta_bound_test(n=3, d=2, y=3.0, k=1, samples=25, seed=5)
    assert out["violations"] == 0
    assert out["max_ratio_sq"] <= out["bound"] * (1 + 1e-10)
    assert abs(out["bound"] - 1.0 / 3.0) < 1e-15


def test_sampled_norms_draw_blocks_follow_the_stream(monkeypatch):
    # the draws run over the products of nonzero Bures norm: all of them at
    # the mixed site, the carried ones at the pure one.  The supports of one
    # size share their Grams and run as one, each given as one block with
    # its members in reverse order
    mixed = random_positive_density(2, task_rng(19, 0), min_eigenvalue=0.05).eigensystem()[0]
    for site in (DensityMatrix(np.diag(mixed), check=False), basis_pure_density(2)):
        matrices, supports = support_family(2, 3, site)
        state = product_density(site, 3)
        kept = [bures_norm(state, m) > 0.0 for m in matrices]
        matrices, supports = matrices[kept], [s for s, keep in zip(supports, kept) if keep]
        channel = DepolarizingChannel(3.0, QuditSystem(2, 3))
        grams = []
        for size in (1, 2, 3):
            first = next(s for s in supports if len(s) == size)
            family = [m for m, t in zip(matrices, supports) if t == first]
            bures, push = norm_grams(np.diagonal(state.matrix).real, channel, family)
            members = np.arange(len(bures))[::-1]
            count = sum(len(s) == size for s in dict.fromkeys(supports))
            block = [gram[np.ix_(members, members)][None] for gram in (bures, push)]
            grams.append((count, [(members[None], *block)]))
        rng = task_rng(20, 0)
        draws = [np.tensordot(rng.standard_normal(len(matrices)), matrices, axes=1) for _ in range(7)]
        want_base = [bures_norm(state, a) for a in draws]
        want_push = [pushforward_norm(state, channel, a) for a in draws]
        # one draw per block, three per block and all in one block
        for entries in (1, 3 * len(matrices), 2**16):
            monkeypatch.setattr(focklimit, "DRAW_CHUNK_ENTRIES", entries)
            base, push = sampled_norms(task_rng(20, 0), 7, grams)
            assert_close(base, want_base, tol=1e-12, what="bures norms")
            assert_close(push, want_push, tol=1e-12, what="pushforward norms")
        monkeypatch.undo()


def test_sampled_norms_reject_negative_squares():
    rng = task_rng(22, 0)
    members = np.arange(2)[None]
    with pytest.raises(NumericalError, match="^norm squared came out negative"):
        sampled_norms(rng, 3, [(1, [(members, -np.eye(2)[None], np.eye(2)[None])])])
    with pytest.raises(NumericalError, match="pushforward norm squared came out negative"):
        sampled_norms(rng, 3, [(1, [(members, np.eye(2)[None], -np.eye(2)[None])])])


def _carried_members(d, n, k, site):
    """Mask over the products of `support_family` on |S| >= k: those whose
    letters all have positive Bures norm at the site, the carried ones."""
    letters = single_site_zero_mean_basis(site)
    carried = [bures_norm(site, f) > 0.0 for f in letters]
    return np.array(
        [
            all(carried[a] for a in word)
            for size in range(k, n + 1)
            for _ in itertools.combinations(range(n), size)
            for word in itertools.product(range(len(letters)), repeat=size)
        ]
    )


def _per_draw_ratios(n, d, y, k, samples, seed, state_1site):
    """The bound check's ratios one operator per draw: the whole sector
    family is built, and every draw, a combination of the products of
    carried letters, is assembled and measured with bures_norm and
    pushforward_norm."""
    system = QuditSystem(d, n)
    site = state_1site if state_1site is not None else basis_pure_density(d)
    state = product_density(site, n)
    channel = DepolarizingChannel(y, system)
    family, supports = support_family(d, n, site)
    stack = family[[len(s) >= k for s in supports]]
    if state_1site is None:
        # at the pure site only 2(d - 1) letters are carried; at a faithful
        # one all of them
        stack = stack[_carried_members(d, n, k, site)]
    rng = task_rng(seed, (n, d, int(y * 1000), k))
    ratios = []
    for _ in range(samples):
        a = np.tensordot(rng.standard_normal(len(stack)), stack, axes=1)
        base = bures_norm(state, a)
        if base >= 1e-12:
            ratios.append((pushforward_norm(state, channel, a) / base) ** 2)
    return np.array(ratios)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_beta_bound_test_matches_per_draw_oracle(d, k, mixed, monkeypatch):
    site = random_positive_density(d, task_rng(31, (d, k)), min_eigenvalue=0.05) if mixed else None
    ratios = _per_draw_ratios(3, d, 3.0, k, 20, 9, site)
    want_max = ratios.max()
    # the real bound holds, so violations are also counted against one the
    # draws break
    tight = 0.7 * want_max
    for bound in (beta_bound_value(d, 3.0, k), tight):
        monkeypatch.setattr(focklimit, "beta_bound_value", lambda *args: bound)
        out = beta_bound_test(n=3, d=d, y=3.0, k=k, samples=20, seed=9, state_1site=site)
        assert abs(out["max_ratio_sq"] - want_max) <= 1e-12 * want_max
        assert out["violations"] == np.count_nonzero(ratios > bound * (1.0 + 1e-10))
    assert out["violations"] > 0


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_uncarried_coefficients_move_neither_norm(d, k):
    # a product with a letter that is not carried is zero after Omega_rho,
    # so dropping its coefficient from a draw over the whole family, as
    # the bound check's draws do, leaves both norms where they were
    site = basis_pure_density(d)
    state = product_density(site, 3)
    channel = DepolarizingChannel(3.0, QuditSystem(d, 3))
    family, supports = support_family(d, 3, site)
    stack = family[[len(s) >= k for s in supports]]
    carried = _carried_members(d, 3, k, site)
    assert 0 < np.count_nonzero(carried) < len(stack)
    rng = task_rng(34, (d, k))
    for _ in range(5):
        coeffs = rng.standard_normal(len(stack))
        full, kept = (np.tensordot(c, stack, axes=1) for c in (coeffs, np.where(carried, coeffs, 0.0)))
        for norm in (lambda a: bures_norm(state, a), lambda a: pushforward_norm(state, channel, a)):
            assert abs(norm(kept) - norm(full)) <= 1e-12 * norm(full)


def test_beta_bound_supremum_is_the_sector_block_top():
    # criterion 3's eight cells, where the supremum is also the closed-form
    # sector's top, and the benchmark's bound-check config at seeds 1 to 3
    cells = [(d, y, k, 2024) for d in (2, 3) for y in (3.0, 4.0) for k in (1, 2)]
    cells += [(3, 3.0, 1, seed) for seed in (1, 2, 3)]
    for d, y, k, seed in cells:
        out = beta_bound_test(n=3, d=d, y=y, k=k, samples=1000, seed=seed)
        closed = symmetric_sector_spectrum(None, d, y, k)["by_degree"][k][0]
        assert abs(out["supremum"] - closed) <= 1e-12, (d, y, k)
        assert out["max_ratio_sq"] <= out["supremum"] <= out["bound"], (d, y, k, seed)


@pytest.mark.parametrize("d, size", [(2, 3), (3, 2)])
def test_letter_products_are_the_site_products_of_their_words(d, size):
    # the oracle's letter products are the kron towers of their words'
    # letters, in itertools.product order
    letters = zero_mean_letters(random_positive_density(d, task_rng(8, d)).eigensystem()[0])
    system = QuditSystem(d, size)
    want = np.stack(
        [site_product(dict(enumerate(word)), system) for word in itertools.product(letters, repeat=size)]
    )
    assert np.array_equal(letter_products(np.stack(letters), size), want)


def _dense_bound_blocks(n, d, y, k, site):
    """The key-block Grams of `_bound_grams`, placed into one Bures and one
    pushforward block per support size, over its carried products, with
    the number of supports of that size."""
    grams, _ = focklimit._bound_grams(n, d, y, k, site)
    out = []
    for count, blocks in grams:
        width = sum(members.size for members, _, _ in blocks)
        dense = np.zeros((2, width, width))
        for members, bures, push in blocks:
            dense[:, members[:, :, None], members[:, None, :]] = bures, push
        out.append((count, *dense))
    return out


def _oracle_bound_blocks(n, d, y, k, site):
    """The dim^2 oracle of the same blocks over every letter product, and
    the mask of the carried ones."""
    mu = np.eye(d)[0] if site is None else site.eigensystem()[0]
    letters = np.stack(zero_mean_letters(mu))
    carried = np.any((letters != 0) & (mu[:, None] + mu[None, :] > 0), axis=(1, 2))
    out = []
    for size in range(k, n + 1):
        channel = DepolarizingChannel(y, QuditSystem(d, size))
        diagonal = functools.reduce(np.kron, [mu] * size)
        words = functools.reduce(np.logical_and.outer, [carried] * size).ravel()
        out.append((norm_grams(diagonal, channel, letter_products(letters, size)), words))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_bound_grams_drop_only_exactly_null_products(d):
    # at the pure state the products of any letter that is not carried are
    # exactly zero rows of the oracle's blocks; the key-block Grams are over
    # the carried products only
    got = _dense_bound_blocks(3, d, 3.0, 1, None)
    for size, ((oracle, carried), (count, bures, push)) in enumerate(zip(_oracle_bound_blocks(3, d, 3.0, 1, None), got), 1):
        assert count == math.comb(3, size)
        assert np.count_nonzero(carried) == (2 * (d - 1)) ** size == len(bures)
        for want in oracle:
            assert np.all(want[~carried] == 0.0)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("d", [2, 3])
def test_bound_grams_match_the_dense_oracle(d, mixed):
    site = random_positive_density(d, task_rng(35, d), min_eigenvalue=0.05) if mixed else None
    for n, k, y in ((3, 1, 3.0), (3, 2, 1.5)):
        oracle = _oracle_bound_blocks(n, d, y, k, site)
        for ((want_bures, want_push), carried), (_, bures, push) in zip(oracle, _dense_bound_blocks(n, d, y, k, site)):
            for want, got in ((want_bures, bures), (want_push, push)):
                want = want[np.ix_(carried, carried)]
                assert_close(got, want, tol=2e-15 * np.max(np.abs(want)), what=f"n={n}, k={k}, y={y}")


def _arrays_built(call) -> set:
    """Shapes of every array that a flab function holds in a local or
    returns, directly or in a list or tuple, while call() runs."""
    shapes = set()

    def collect(value, depth=0):
        if isinstance(value, np.ndarray):
            shapes.add(value.shape)
        elif isinstance(value, (list, tuple)) and depth < 3:
            for item in value:
                collect(item, depth + 1)

    def profile(frame, event, arg):
        if event == "return" and frame.f_globals.get("__name__", "").startswith("flab."):
            for value in (arg, *frame.f_locals.values()):
                collect(value)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return shapes


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_bound_check_builds_no_product_operator(mixed):
    # at d = 3 no key block, draw block or letter array has the 9 x 9 or
    # 27 x 27 shape of a letter product on two or three sites
    site = random_positive_density(3, task_rng(32, 3), min_eigenvalue=0.05) if mixed else None
    shapes = _arrays_built(lambda: beta_bound_test(n=3, d=3, y=3.0, k=1, samples=10, state_1site=site))
    assert any(shape[-2:] == (3, 3) for shape in shapes)
    assert not [shape for shape in shapes if shape[-2:] in ((9, 9), (27, 27))]


@pytest.mark.parametrize("d", [2, 3])
def test_bound_check_builds_only_carried_letter_products(d, monkeypatch):
    # every draw is over the carried products: (2(d - 1))^s per support at
    # the pure state, (d^2 - 1)^s at a faithful one, so at a faithful site
    # the stream is that of a draw over every product
    widths = []
    real_sampled_norms = focklimit.sampled_norms

    def spy(rng, samples, grams):
        widths.append([(count, sum(members.size for members, _, _ in blocks)) for count, blocks in grams])
        return real_sampled_norms(rng, samples, grams)

    monkeypatch.setattr(focklimit, "sampled_norms", spy)
    beta_bound_test(n=3, d=d, y=3.0, k=1, samples=10)
    site = random_positive_density(d, task_rng(32, d), min_eigenvalue=0.05)
    beta_bound_test(n=3, d=d, y=3.0, k=1, samples=10, state_1site=site)
    assert widths == [[(math.comb(3, s), letters**s) for s in (1, 2, 3)] for letters in (2 * (d - 1), d * d - 1)]


def _diagonal_state(*mu):
    return DensityMatrix(np.diag(mu).astype(complex))


LETTER_RULE_STATES = {
    "pure-2": (2, None),
    "pure-3": (3, None),
    "pure-4": (4, None),
    "mixed-2": (2, random_positive_density(2, task_rng(36, 2), min_eigenvalue=0.05)),
    "mixed-3": (3, random_positive_density(3, task_rng(36, 3), min_eigenvalue=0.05)),
    "nearly-pure-3": (3, _nearly_pure(3, 1e-4)),
    "rank-2-of-3": (3, _diagonal_state(0.6, 0.4, 0.0)),
    "rank-3-of-4": (4, _diagonal_state(0.5, 0.3, 0.2, 0.0)),
    "tiny-3": (3, _diagonal_state(1.0 - 1e-12, 1e-12, 0.0)),
    "tiny-2": (2, _diagonal_state(1.0 - 1e-13, 1e-13)),
}


@pytest.mark.parametrize("name", list(LETTER_RULE_STATES))
def test_bound_check_letters_are_the_nonzero_kernel_diagonal(name, monkeypatch):
    # the bound check keeps the letters with K_aa > 0, which for mu >= 0 are
    # those with a nonzero entry (i, j) where mu_i + mu_j > 0; the Fock
    # block's relative cut drops more only where an eigenvalue sits far
    # below it
    d, site = LETTER_RULE_STATES[name]
    setups, real = [], focklimit._letter_blocks

    def recording(sp_fine, sp_coarse, m, threshold):
        out = real(sp_fine, sp_coarse, m, threshold)
        setups.append((threshold, out[0], sp_fine))
        return out

    monkeypatch.setattr(focklimit, "_letter_blocks", recording)
    beta_bound_test(n=3, d=d, y=3.0, k=1, samples=5, state_1site=site)
    fock = fock_block_spectrum(*depolarizing_fock_setup(d, 3.0, site), 1)
    (cut, names, sp), (fock_cut, fock_names, _) = setups
    assert (cut, fock_cut) == (0.0, NULL_LETTER_THRESHOLD) and fock.letter_names == fock_names
    assert names == [sp.letter_names[a] for a in np.flatnonzero(np.real(np.diag(sp.kernel)) > 0.0)]
    mu = np.eye(d)[0] if site is None else site.eigensystem()[0]
    carried = [np.any((f != 0) & (mu[:, None] + mu[None, :] > 0)) for f in sp.basis]
    assert names == [a for a, kept in zip(sp.letter_names, carried) if kept]
    if name.startswith("tiny"):
        assert set(fock_names) < set(names), (fock_names, names)
    else:
        assert fock_names == names


@pytest.mark.parametrize("diagonal", [(1.0, 0.0, 0.0, 0.0), (0.6, 0.4, 0.0)], ids=["rank-1-of-4", "rank-2-of-3"])
def test_rotated_rank_deficient_states_carry_no_roundoff_letters(diagonal):
    # eigh returns the zero eigenvalues of a rotated rank-deficient state as
    # +-1e-16, and the others sum to 1 only within roundoff; unless the
    # letter setup zeroes both, the cut 0.0 carries letters of roundoff
    # weight (9 to 15 of the 15 ququart letters here, for 6)
    d, y = len(diagonal), 3.0
    unrotated = beta_bound_test(n=2, d=d, y=y, k=1, samples=50, state_1site=_diagonal_state(*diagonal))
    for i in range(6):
        u = haar_unitary(d, task_rng(8, i))
        site = DensityMatrix(u @ np.diag(diagonal) @ u.conj().T)
        setup = depolarizing_fock_setup(d, y, site)
        assert focklimit._letter_blocks(*setup, 0.0)[0] == fock_block_spectrum(*setup, 1).letter_names
        got = beta_bound_test(n=2, d=d, y=y, k=1, samples=50, state_1site=site)
        for key in ("supremum", "max_ratio_sq"):
            assert abs(got[key] - unrotated[key]) <= 1e-12, (i, key, got[key], unrotated[key])


@pytest.mark.parametrize("d", [20, 30])
def test_letter_setup_estimate_bounds_its_traced_peak(monkeypatch, d):
    # the fine space's letters, kernel and names stay alive while the coarse
    # space is built (86.5 MiB at d = 30; one space's four stacks and kernel
    # counted 61.7).  The setup builds the Gell-Mann stack it counts
    estimates = []
    monkeypatch.setattr(focklimit, "check_byte_budget", lambda what, parts: estimates.append(sum(parts.values())))
    gell_mann_basis.cache_clear()
    tracemalloc.start()
    try:
        depolarizing_fock_setup(d, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.99 * estimates[0] < peak <= estimates[0], (peak, estimates)


def test_letters_are_set_up_in_one_place(monkeypatch):
    # `reduced` has one caller in flab, and `_bound_grams` neither chooses
    # letters nor whitens on its own
    callers, bound_names = set(), set()
    for path in sorted(Path(flab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                calls = [sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call)]
                called = {func.attr for func in calls if isinstance(func, ast.Attribute)}
                if "reduced" in called:
                    callers.add(f"{path.stem}.{node.name}")
                if node.name == "_bound_grams":
                    bound_names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    assert callers == {"focklimit._letter_blocks"}
    assert bound_names and not bound_names & {"whiten_psd", "whitened_contraction", "reduced"}
    cuts, real = [], focklimit._letter_blocks
    monkeypatch.setattr(focklimit, "_letter_blocks", lambda *args: cuts.append(args[3]) or real(*args))
    site = random_positive_density(3, task_rng(36, 3), min_eigenvalue=0.05)
    fock_block_spectrum(*depolarizing_fock_setup(3, 2.0, site), 3)
    assert cuts == [NULL_LETTER_THRESHOLD]
    symmetric_sector_spectrum(None, 3, 2.0, 3, state=site)
    assert cuts == [NULL_LETTER_THRESHOLD] * 2
    beta_bound_test(n=4, d=3, y=3.0, k=1, samples=5, state_1site=site)
    assert cuts == [NULL_LETTER_THRESHOLD] * 2 + [0.0]


class _Checked(Exception):
    pass


def _bound_estimate(monkeypatch, *args, **kwargs) -> dict:
    """The parts of the bound check's byte estimate, captured before anything
    is built; the letter setup's estimate is passed over.  The check runs
    once per support size, at one draw per block until the last size, whose
    estimate is the whole; the key stacks built next stop the run."""
    parts = {}

    def capture(what, p):
        if what.startswith("bound check"):
            parts.clear()
            parts.update(p)

    def stop(*args, **kwargs):
        raise _Checked

    with monkeypatch.context() as patch:
        patch.setattr(focklimit, "check_byte_budget", capture)
        patch.setattr(focklimit, "_key_contraction", stop)
        with pytest.raises(_Checked):
            beta_bound_test(*args, **kwargs)
    return parts


def test_bound_check_refused_before_building(monkeypatch):
    def no_stacks(*args, **kwargs):
        raise AssertionError("key stacks built before the budget check")

    monkeypatch.setattr(focklimit, "_kron_stack", no_stacks)
    # at a mixed site state every letter is carried, in 4 blocks of 2: the
    # 4**7 keys of size 7 hold 16**7 entries a side and do not fit
    site3 = random_positive_density(3, task_rng(33, 3), min_eigenvalue=0.05)
    with pytest.raises(DimensionBudgetError, match="21844 key stacks"):
        beta_bound_test(n=7, d=3, y=3.0, k=1, samples=10, state_1site=site3)
    # at the pure state only 4 of the 8 letters are carried, in 2 blocks of
    # 2 reaching 2 coarse letters each: 2**s keys of 2**s tuples per size
    parts = _bound_estimate(monkeypatch, n=5, d=3, y=3.0, k=1, samples=10)
    assert parts["62 key stacks"] == 16 * 3 * sum(8**s for s in range(1, 6))
    # 20 draws per block of sampled_norms: their coefficients over the
    # 5**5 - 1 carried products and four transients of the widest support
    # size, the 5 supports of 4 sites and their 4**4 products each
    assert parts["20 x 3124 draw-block transients"] == 8 * 20 * (3124 + 4 * 5 * 4**4)
    assert sum(parts.values()) <= 16 * focklimit.dense_dim_budget() ** 2
    # the byte estimate, not the dimension, sets the limit: at a mixed qubit,
    # d=2, n=3, the 14 key stacks take 16 * 3 * 155 and their whitening
    # 16 * 5 * 155 bytes, 1040 draws of 63 coefficients 8 * 1040 * (63 + 4 * 27)
    # and a first run 12 MiB, 14025472 in all, between 16 * 936**2 and
    # 16 * 937**2
    site2 = random_positive_density(2, task_rng(33, 2), min_eigenvalue=0.05)
    monkeypatch.setenv("FLAB_MAX_DIM", "936")
    with pytest.raises(DimensionBudgetError, match="1040 x 63 draw-block transients"):
        beta_bound_test(n=3, d=2, y=3.0, k=1, samples=10, state_1site=site2)
    monkeypatch.undo()
    monkeypatch.setenv("FLAB_MAX_DIM", "937")
    assert beta_bound_test(n=3, d=2, y=3.0, k=1, samples=10, state_1site=site2)["violations"] == 0


# the child reads its own peak resident set (VmHWM, in KiB) around the check
BOUND_PEAK = """
import sys
from flab import focklimit
from flab.sampling import random_positive_density, task_rng

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

d, n, mixed = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "mixed"
site = random_positive_density(d, task_rng(5, d), min_eigenvalue=0.05) if mixed else None
before = peak()
focklimit.beta_bound_test(n=n, d=d, y=3.0, k=1, samples=1000, seed=1, state_1site=site)
print(1024 * (peak() - before))
"""


def _bound_check_peak(monkeypatch, d: int, n: int, mixed: bool) -> tuple[int, int]:
    """Peak growth of a bound check with 1000 draws from the imports, in a
    fresh interpreter at one BLAS thread, and its byte estimate at the same
    site state."""
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    child = [sys.executable, "-c", BOUND_PEAK, str(d), str(n), "mixed" if mixed else "pure"]
    growth = int(subprocess.run(child, env=env, capture_output=True, text=True, check=True).stdout)
    site = random_positive_density(d, task_rng(5, d), min_eigenvalue=0.05) if mixed else None
    parts = _bound_estimate(monkeypatch, n=n, d=d, y=3.0, k=1, samples=1000, state_1site=site)
    return growth, sum(parts.values())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_bound_check_budget_bounds_the_measured_peak(monkeypatch):
    # a mixed qubit: its key stacks are small, and the largest array is a
    # block of 64 draws over the 4**5 - 1 products
    growth, estimate = _bound_check_peak(monkeypatch, 2, 5, mixed=True)
    assert 8 * 64 * (4**5 - 1) < growth <= estimate


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_pure_bound_check_builds_carried_rows_only(monkeypatch):
    # 4 of the 8 qutrit letters are carried: a block of 105 draws over the
    # 5**4 - 1 carried products is the largest array; all 8**4 dim^2 rows
    # took about 700 MiB
    growth, estimate = _bound_check_peak(monkeypatch, 3, 4, mixed=False)
    assert 8 * 105 * (5**4 - 1) < growth <= min(estimate, 100 * 2**20)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_mixed_qutrit_bound_check_peak_is_within_the_estimate(monkeypatch):
    # every letter is carried: at size 4 the fine, coarse and pairing stacks
    # are 4**4 keys of 16 x 16 complex entries; the dim^2 route grew by
    # about 1.1 GiB here, 0.8 MiB over its estimate
    growth, estimate = _bound_check_peak(monkeypatch, 3, 4, mixed=True)
    assert 3 * 16 * 16**4 < growth <= estimate


def _permanent_sector_blocks(n, d, y, k, site):
    """Sector eigenvalues per degree from permanent Grams over letter words:
    c_{n,j} per(K[u, v]) on both sides and in the pairing, whitened densely."""
    sp_fine, sp_coarse, m = depolarizing_fock_setup(d, y, site)
    fine_red, kept = sp_fine.reduced(NULL_LETTER_THRESHOLD)
    pair = fine_red.kernel @ m[kept, :]
    out = {}
    for j in range(1, k + 1):
        factor = 1.0 if n is None else distinct_site_factor(n, j)
        words_f = list(itertools.combinations_with_replacement(range(fine_red.dim), j))
        words_c = list(itertools.combinations_with_replacement(range(sp_coarse.dim), j))
        grams = [
            factor * np.real(permanent_gram(kernel, rows, cols))
            for kernel, rows, cols in (
                (fine_red.kernel, words_f, words_f),
                (sp_coarse.kernel, words_c, words_c),
                (pair, words_f, words_c),
            )
        ]
        w_f, _ = whiten_psd(grams[0], NULL_LETTER_THRESHOLD)
        w_c, _ = whiten_psd(grams[1], NULL_LETTER_THRESHOLD)
        out[j] = whitened_contraction(w_f[None], w_c[None], grams[2][None])[0][0]
    return out


@pytest.mark.parametrize("n", [None, 4, 9])
@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("d", [2, 3])
def test_sector_blocks_match_permanent_oracle(d, state, n):
    # y = 1.2 leaves the coarse inverse of the pure qubit uncertified at
    # degree 4 (cond(K')^4 = 11^4), so both transports are compared
    site = random_positive_density(d, task_rng(20261018, (d, 7)), min_eigenvalue=0.05) if state == "mixed" else None
    for y in (1.2, 2.7):
        want = _permanent_sector_blocks(n, d, y, 4, site)
        got = symmetric_sector_spectrum(n, d, y, 4, state=site)["by_degree"]
        assert set(got) == set(want)
        for j, vals in want.items():
            assert_close(got[j], vals, tol=1e-13, what=f"d={d} {state} n={n} y={y} degree {j}")


@pytest.mark.parametrize("d", [2, 3])
def test_sector_spectrum_of_the_identity_channel_is_one(d):
    # at y = 1 the channel is the identity, so every contraction eigenvalue
    # is exactly 1; the coarse inverse is uncertified and the error grows
    # with cond(K')^j (1.2e-12 at d = 3, degree 4; the permanent route was
    # 2.7e-12 off)
    site = random_positive_density(d, task_rng(20261018, (d, 7)), min_eigenvalue=0.05)
    out = symmetric_sector_spectrum(None, d, 1.0, 4, state=site)
    assert_close(out["eigenvalues"], np.ones(out["eigenvalues"].size), tol=1e-11)


def test_symmetric_kron_power_is_the_orbit_restriction():
    # R^T A^{(x)j} C against dense orbit isometries, for a complex
    # non-square A as in a block's pairing, and for no coarse letters
    rng = task_rng(20261018, 5)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    powers = focklimit._kron_power(a, 3)
    for j, got in enumerate(powers, start=1):

        def isometry(letters):
            words = list(itertools.combinations_with_replacement(range(letters), j))
            q = np.zeros((letters**j, len(words)))
            for t, tup in enumerate(itertools.product(range(letters), repeat=j)):
                q[t, words.index(tuple(sorted(tup)))] = 1.0
            return q / np.linalg.norm(q, axis=0)

        power = np.ones((1, 1))
        for _ in range(j):
            power = np.kron(power, a)
        assert_close(got, isometry(3).T @ power @ isometry(4), tol=1e-13, what=f"j={j}")
    assert [block.shape for block in focklimit._kron_power(a[:, :0], 3)] == [(3, 0), (6, 0), (10, 0)]
    assert [block.shape for block in focklimit._kron_power(a[:0, :0], 3)] == [(0, 0)] * 3


@pytest.mark.parametrize(
    "y, k, allowed, what",
    [(2.0, 4, 15, "3200 bytes .1 key stacks 1200 bytes"), (1.0, 5, 17, "4608 bytes .1 key stacks 1728 bytes")],
    ids=["certified", "uncertified"],
)
def test_sector_budget_refused_before_building(monkeypatch, y, k, allowed, what):
    # pure qubit: x and p form one letter block with the 2 coarse letters
    # the pairing reaches, so degree j is one key of j + 1 multisets on both
    # sides, whether the coarse kernel is faithful (y = 2, "certified") or
    # singular (y = 1).  The top degree, checked first, needs
    # 16 * (3 + 5) * (j + 1)**2 bytes, between 16 * (allowed - 1)**2 and
    # 16 * allowed**2; the letter setup, 2016 bytes, fits both
    def nothing_built(*args, **kwargs):
        raise AssertionError("sector arrays built before the budget check")

    monkeypatch.setenv("FLAB_MAX_DIM", str(allowed - 1))
    with monkeypatch.context() as spy:
        for name in ("_kron_power", "_kron_stack", "whiten_psd"):
            spy.setattr(focklimit, name, nothing_built)
        with pytest.raises(DimensionBudgetError, match=f"sector degree {k} needs an estimated {what}"):
            symmetric_sector_spectrum(None, 2, y, k)
    monkeypatch.setenv("FLAB_MAX_DIM", str(allowed))
    assert set(symmetric_sector_spectrum(None, 2, y, k)["by_degree"]) == set(range(1, k + 1))


# the child reads its own peak resident set (VmHWM, in KiB) around a sector
# spectrum of a seeded mixed qutrit, after one at degree 2 has loaded the
# code it runs, and prints the growth and the estimate of the top degree
SECTOR_PEAK = """
import sys
from flab import focklimit
from flab.sampling import random_positive_density, task_rng

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

degree = int(sys.argv[1])
site = random_positive_density(3, task_rng(5, 3), min_eigenvalue=0.05)
focklimit.symmetric_sector_spectrum(None, 3, 3.0, 2, site)
estimates = {}
check = focklimit.check_byte_budget
focklimit.check_byte_budget = lambda what, parts: (estimates.setdefault(what, sum(parts.values())), check(what, parts))
before = peak()
focklimit.symmetric_sector_spectrum(None, 3, 3.0, degree, site)
print(1024 * (peak() - before), estimates[f"sector degree {degree}"])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_sector_budget_bounds_the_measured_peak():
    # degree 6: 84 keys of up to 36 multisets over four letter blocks of two
    # letters each; the degree-5 and -6 key stacks dominate the peak
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    child = [sys.executable, "-c", SECTOR_PEAK, "6"]
    printed = subprocess.run(child, env=env, capture_output=True, text=True, check=True).stdout
    growth, estimate = map(int, printed.split())
    assert 2**20 < growth <= estimate, (growth, estimate)


def test_sector_degree_above_permanent_cap_runs():
    # degrees 9 and 10 were refused while the blocks were permanent Grams
    out = symmetric_sector_spectrum(None, 2, 2.0, 10)
    assert set(out["by_degree"]) == set(range(1, 11))
    assert out["eigenvalues"].min() >= 0.0 and out["eigenvalues"].max() <= 1.0
