"""Channel actions: sitewise depolarizing, permutation average, swaps."""

import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import flab
from flab import channels, cli
from flab.channels import (
    ComposedChannel,
    DepolarizingChannel,
    PermutationAverage,
    SuperoperatorChannel,
    SwapDiffusion,
    _ring_laplacian_eigh,
    check_walker_budget,
    homogeneous_coarse_graining,
)
from flab.errors import DimensionBudgetError, NumericalError
from flab.lattice import RingLattice
from flab.operators import QuditSystem
from flab.sampling import random_cptp_channel, task_rng

from conftest import assert_close
from dense_oracle import permute_sites
from walker_oracle import assemble_blocks, bloch_basis, pair_generator, ring_laplacian


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def one_site(d):
    return QuditSystem(d, 1)


def test_depolarizing_formula_and_validation():
    ch = DepolarizingChannel(2.0, one_site(2))
    x = random_matrix(2, 0)
    want = x / 2.0 + 0.5 * np.trace(x) * np.eye(2) / 2
    assert_close(ch.apply(x), want)
    # y = 1 is the identity, on one site and on four
    assert_close(DepolarizingChannel(1.0, one_site(3)).apply(random_matrix(3, 1)), random_matrix(3, 1))
    assert_close(DepolarizingChannel(1.0, QuditSystem(2, 4)).apply(random_matrix(16, 1)), random_matrix(16, 1))
    with pytest.raises(ValueError):
        DepolarizingChannel(0.5, one_site(2))


def test_depolarizing_is_self_adjoint():
    ch = DepolarizingChannel(3.0, one_site(3))
    a, b = random_matrix(3, 2), random_matrix(3, 3)
    lhs = np.trace(a.conj().T @ ch.apply(b))
    rhs = np.trace(ch.adjoint_apply(a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-12


def depolarizing_kraus(d, y):
    """Kraus family of the depolarizing map from the d^2 discrete Weyl unitaries."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    w_id = math.sqrt(1.0 / y + (1.0 - 1.0 / y) / d**2)
    w_rest = math.sqrt((1.0 - 1.0 / y) / d**2)
    return [
        (w_id if a == b == 0 else w_rest) * (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
        for a in range(d)
        for b in range(d)
    ]


def test_depolarizing_kraus_consistency():
    for d, y in ((2, 2.0), (3, 4.0)):
        ch = DepolarizingChannel(y, one_site(d))
        kraus = depolarizing_kraus(d, y)
        assert len(kraus) == d * d
        x = random_matrix(d, 7)
        via_kraus = sum(k @ x @ k.conj().T for k in kraus)
        assert_close(via_kraus, ch.apply(x), tol=1e-12)
        # trace preservation of the family
        total = sum(k.conj().T @ k for k in kraus)
        assert_close(total, np.eye(d), tol=1e-12)


def _interleave(x, d, n):
    """vec of an n-site operator with each site's (row, column) pair adjacent."""
    pairs = [a for site in range(n) for a in (site, n + site)]
    return x.reshape((d,) * (2 * n)).transpose(pairs).ravel()


def _deinterleave(v, d, n):
    pairs = [a for site in range(n) for a in (site, n + site)]
    return v.reshape((d,) * (2 * n)).transpose(np.argsort(pairs)).reshape(d**n, d**n)


def test_product_channel_matches_kron_superoperator():
    # oracle: the Kronecker product of n site superoperators from the Weyl
    # Kraus family, on operators vectorised with each site's (row, column)
    # pair adjacent; at y = 1e300 the sites are erased, one division by
    # y**n would overflow
    for d, n, y in ((2, 2, 2.0), (3, 3, 2.5), (2, 4, 1.7), (2, 3, 1e300)):
        system = QuditSystem(d, n)
        ch = DepolarizingChannel(y, system)
        s1 = sum(np.kron(k, k.conj()) for k in depolarizing_kraus(d, y))
        big = functools.reduce(np.kron, [s1] * n)
        x, z = random_matrix(system.dim, 30), random_matrix(system.dim, 31)
        want = _deinterleave(big @ _interleave(x, d, n), d, n)
        got = ch.apply(x)
        assert_close(got, want, tol=1e-13 * np.max(np.abs(want)), what=f"d={d} n={n} y={y}")
        lhs, rhs = np.vdot(z, got), np.vdot(ch.adjoint_apply(z), x)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    # the last case erases every site: only the trace is left
    assert_close(got, np.trace(x) * np.eye(system.dim) / system.dim, tol=1e-15 * np.max(np.abs(x)))


def _stack_cases():
    cases = []
    for d, n in ((3, 3), (2, 4)):
        cases.append(pytest.param(DepolarizingChannel(2.5, QuditSystem(d, n)), id=f"product-depolarizing-{d}-{n}"))
    system = QuditSystem(2, 3)
    return cases + [
        pytest.param(DepolarizingChannel(2.5, one_site(3)), id="depolarizing"),
        pytest.param(PermutationAverage(QuditSystem(3, 3)), id="permutation-average"),
        pytest.param(homogeneous_coarse_graining(system, 2.5), id="coarse-graining"),
        pytest.param(ComposedChannel(PermutationAverage(system), random_cptp_channel(8, 2, task_rng(32))), id="composed"),
        pytest.param(random_cptp_channel(4, 3, task_rng(33)), id="superoperator"),
    ]


def _subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


def test_stack_cases_cover_every_channel():
    flab_channels = {c for c in _subclasses(channels.Channel) if c.__module__ == channels.__name__}
    assert {type(p.values[0]) for p in _stack_cases()} == flab_channels


@pytest.mark.parametrize("channel", _stack_cases())
def test_channels_act_on_stacks(channel):
    # a one-member stack is the single matrix bit for bit; a stack of five
    # is the per-matrix calls up to BLAS rounding
    stack = np.stack([random_matrix(channel.dim, 40 + i) for i in range(5)])
    for action in (channel.apply, channel.adjoint_apply):
        single = action(stack[0])
        assert single.shape == (channel.dim, channel.dim)
        assert np.array_equal(action(stack[:1]), single[None])
        want = np.stack([action(x) for x in stack])
        got = action(stack)
        assert got.shape == stack.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_product_channel_preserves_trace_and_adjoint_unit():
    system = QuditSystem(2, 3)
    ch = DepolarizingChannel(3.0, system)
    x = random_matrix(8, 5)
    assert abs(np.trace(ch.apply(x)) - np.trace(x)) < 1e-12
    assert_close(ch.adjoint_apply(np.eye(8)), np.eye(8), tol=1e-12)


def test_permutation_average_is_projector():
    system = QuditSystem(2, 3)
    perm = PermutationAverage(system)
    x = random_matrix(8, 6)
    once = perm.apply(x)
    assert_close(perm.apply(once), once, tol=1e-12, what="idempotence")
    # output is permutation invariant
    for p in ((1, 0, 2), (2, 0, 1)):
        assert_close(permute_sites(once, p, system), once, tol=1e-12)


def test_permutation_average_modes_agree():
    # oracle: the literal average of U_pi X U_pi^dagger over all n! permutations
    for d, n in ((2, 3), (3, 3)):
        system = QuditSystem(d, n)
        x = random_matrix(system.dim, 8)
        perms = list(itertools.permutations(range(n)))
        exact = sum(permute_sites(x, p, system) for p in perms) / len(perms)
        assert_close(PermutationAverage(system).apply(x), exact, tol=1e-12)


@pytest.mark.parametrize(
    "d, n, expected", [(2, 5, 56), (3, 4, 495), (2, 8, 165), (6, 3, 8436)]
)
def test_permutation_average_orbit_count(d, n, expected):
    # one orbit per multiset of n joint (row, column) labels out of d^2;
    # at (6, 3) a key summing (n + 1)^label would overflow int64
    perm = PermutationAverage(QuditSystem(d, n))
    assert expected == math.comb(n + d * d - 1, n)
    assert perm._orbit_size.size == expected
    assert perm._orbit_size.sum() == d ** (2 * n)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 3)])
def test_permutation_average_orbits_match_sorted_pair_labels(d, n):
    # oracle: orbits as the rows of site-sorted joint labels
    system = QuditSystem(d, n)
    idx = np.arange(system.dim)
    digits = np.stack([(idx // d ** (n - 1 - i)) % d for i in range(n)], axis=1)
    pair_label = digits[:, None, :] * d + digits[None, :, :]
    canon = np.sort(pair_label, axis=2).reshape(system.dim**2, n)
    _, old = np.unique(canon, axis=0, return_inverse=True)
    new = PermutationAverage(system)._orbit_index
    # same partition: the label pairs biject
    joint = np.unique(np.stack([old.ravel(), new]), axis=1).shape[1]
    assert joint == old.max() + 1 == new.max() + 1


def test_coarse_graining_factors_commute():
    system = QuditSystem(2, 3)
    x = random_matrix(8, 10)
    depol = DepolarizingChannel(2.0, system)
    perm = PermutationAverage(system)
    assert_close(perm.apply(depol.apply(x)), depol.apply(perm.apply(x)), tol=1e-12)


def test_coarse_graining_composition_order():
    system = QuditSystem(2, 2)
    cg = homogeneous_coarse_graining(system, 2.0)
    x = random_matrix(4, 12)
    assert isinstance(cg.outer, PermutationAverage) and isinstance(cg.inner, DepolarizingChannel)
    manual = cg.outer.apply(cg.inner.apply(x))
    assert_close(cg.apply(x), manual, tol=1e-13)
    with pytest.raises(ValueError):
        ComposedChannel(DepolarizingChannel(2.0, one_site(2)), DepolarizingChannel(2.0, one_site(3)))


def test_superoperator_channel_checks():
    rng = task_rng(77)
    ch = random_cptp_channel(3, 4, rng)
    x = random_matrix(3, 13)
    assert abs(np.trace(ch.apply(x)) - np.trace(x)) < 1e-10
    # adjoint pairing
    a, b = random_matrix(3, 14), random_matrix(3, 15)
    lhs = np.trace(a.conj().T @ ch.apply(b))
    rhs = np.trace(ch.adjoint_apply(a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-10


def test_superoperator_rejects_nontrace_preserving():
    bad = [np.array([[1.0, 0.0], [0.0, 0.5]])]
    with pytest.raises(NumericalError):
        SuperoperatorChannel(bad)


def test_swap_single_walker_generator_is_ring_laplacian():
    sd = SwapDiffusion(RingLattice(12, 1.0), 2.0)
    gen = ring_laplacian(12)
    assert_close(gen, gen.T, what="generator symmetry")
    assert_close(gen.sum(axis=1), np.zeros(12), what="row sums")
    assert sd.time == 2.0


def block_identities(L):
    """The L identity blocks of L-1 columns: applying the pair semigroup to
    them reads its Bloch blocks."""
    return np.broadcast_to(np.eye(L - 1), (L, L - 1, L - 1))


@pytest.mark.parametrize("L", [8, 24])
def test_single_walker_semigroup_matches_fresh_eigh(L):
    for sigma in (0.5, 2.0, 4.0):
        sd = SwapDiffusion(RingLattice(L, 1.0), sigma)
        vals, vecs = np.linalg.eigh(ring_laplacian(L))
        fresh = (vecs * np.exp(sd.time * vals)) @ vecs.T
        assert_close(sd.single_walker_apply(np.eye(L)), fresh, tol=1e-13, what=f"semigroup at sigma={sigma}")
    # every sigma reuses one read-only decomposition
    vals, vecs = _ring_laplacian_eigh(L)
    assert not vals.flags.writeable and not vecs.flags.writeable
    assert _ring_laplacian_eigh.cache_info().currsize == 1


def test_swap_pair_generator_structure():
    gen = pair_generator(8)
    assert gen.shape == (56, 56)
    assert_close(gen, gen.T, tol=1e-12, what="edge swaps are involutions")
    assert_close(gen.sum(axis=1), np.zeros(56), tol=1e-12)
    # semigroup of a symmetric zero-row-sum generator is doubly stochastic
    sg = assemble_blocks(SwapDiffusion(RingLattice(8, 1.0), 1.0).pair_apply(block_identities(8)))
    assert_close(sg.imag, np.zeros((56, 56)), tol=1e-12, what="imaginary part")
    assert np.all(sg.real > -1e-12)
    assert_close(sg.sum(axis=0), np.ones(56), tol=1e-10)
    assert_close(sg.sum(axis=1), np.ones(56), tol=1e-10)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("L", [8, 12, 24])
def test_pair_blocks_match_dense_oracle(L, sigma):
    sd = SwapDiffusion(RingLattice(L, 1.0), sigma)
    blocks = sd.pair_apply(block_identities(L))
    n = L - 1
    assert blocks.shape == (L, n, n)
    vals, vecs = np.linalg.eigh(pair_generator(L))
    dense = (vecs * np.exp(sd.time * vals)) @ vecs.T
    assert_close(assemble_blocks(blocks), dense, tol=1e-12, what="assembled semigroup")
    # the oracle restricted to total momentum K is block K, and momenta do not mix
    U = bloch_basis(L)
    restricted = U.conj().T @ dense @ U
    # the index-array form, given every block in reverse order
    picked = sd.pair_apply(block_identities(L), np.arange(L)[::-1])[::-1]
    for K in range(L):
        rows = slice(K * n, (K + 1) * n)
        assert_close(restricted[rows, rows], blocks[K], tol=1e-12, what=f"block {K}")
        assert_close(picked[K], blocks[K], tol=1e-12, what=f"block {K} by index")
        restricted[rows, rows] = 0.0
    assert_close(restricted, np.zeros_like(restricted), tol=1e-12, what="momentum mixing")


def _every_pair_block(L):
    """All L Bloch blocks of the pair generator, each built from its own
    phase e^{2 pi i K / L} as in `channels._pair_block_eigh`."""
    n = L - 1
    w = np.exp(2j * np.pi * np.arange(L) / L)[:, None]
    blocks = np.zeros((L, n, n), dtype=complex)
    r = np.arange(n - 1)
    blocks[:, r, r + 1] = 1.0 + w.conj()
    blocks[:, r + 1, r] = 1.0 + w
    blocks[:, 0, n - 1] = w[:, 0]
    blocks[:, n - 1, 0] = w[:, 0].conj()
    blocks[:, np.arange(n), np.arange(n)] = -4.0
    blocks[:, [0, n - 1], [0, n - 1]] = -3.0
    return blocks


@pytest.mark.parametrize("L", [8, 24, 64])
def test_pair_apply_matches_the_eigh_of_every_block(L):
    # only the blocks K <= L/2 are diagonalised; the others are applied as
    # their conjugates, and agree with one eigh of all L blocks
    sd = SwapDiffusion(RingLattice(L, 1.0), 2.0)
    assert len(channels._pair_block_eigh(L)[0]) == L // 2 + 1
    vals, vecs = np.linalg.eigh(_every_pair_block(L))
    rng = task_rng(36, L)
    x = rng.standard_normal((L, L - 1, 3)) + 1j * rng.standard_normal((L, L - 1, 3))
    want = vecs @ (np.exp(sd.time * vals)[..., None] * (vecs.conj().swapaxes(1, 2) @ x))
    assert_close(sd.pair_apply(x), want, tol=1e-13, what="all blocks")
    # an index array picks blocks on both sides of L/2, in any order and
    # with repeats, or one block alone
    picked = np.array([L - 1, 0, L // 2 + 1, 1, L // 2, L - 1])
    assert_close(sd.pair_apply(x[picked], picked), want[picked], tol=1e-13, what="picked blocks")
    for K in (0, 1, L // 2, L // 2 + 1, L - 1):
        assert_close(sd.pair_apply(x[[K]], [K]), want[[K]], tol=1e-13, what=f"block {K} alone")


def test_swap_validation(monkeypatch):
    lattice = RingLattice(8, 1.0)
    with pytest.raises(ValueError):
        SwapDiffusion(lattice, -1.0)
    # one walker on 64 sites fits the 16 MiB of FLAB_MAX_DIM=1024 (12.5 MiB), a
    # pair does not: the pair eigenvectors, the swap probe's 1056 words and
    # one group of blocks add 12 MiB; the refusal comes before any block is
    # built or diagonalised
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called before the budget check")

    monkeypatch.setenv("FLAB_MAX_DIM", "1024")
    check_walker_budget(64, 1)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(DimensionBudgetError, match="2 walker.*swap-probe words"):
        SwapDiffusion(RingLattice(64, 1.0), 1.0).pair_apply(np.ones((64, 63, 1)))


# the child reads its own peak resident set (VmHWM, in KiB); its ru_maxrss
# would not do, since across exec it keeps the parent's peak
WALKER_PEAK = """
import sys
import flab
from flab import cli

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak()
cli.run_experiment("lattice", {"L": int(sys.argv[1]), "spacing": 1.0, "y": 2.0, "sigma_list": [2.0, 4.0], "probe_samples": 32})
print(1024 * (peak() - before))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_walker_budget_bounds_the_measured_peak(monkeypatch):
    # fresh interpreters at one BLAS thread: peak resident growth from
    # `import flab` through a lattice run (both eigendecompositions, every
    # probe), against the estimate the run checks first (8 pair words per
    # block); 24.8 and 44.9 MiB measured against 33.4 and 55.2 MiB
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    parts = {}
    monkeypatch.setattr(channels, "check_byte_budget", lambda what, p: parts.update(p))
    for L in (96, 128):
        run = subprocess.run(
            [sys.executable, "-c", WALKER_PEAK, str(L)], env=env, capture_output=True, text=True, check=True
        )
        growth = int(run.stdout)
        parts.clear()
        check_walker_budget(L, 2, 8)
        # the L/2 + 1 pair blocks diagonalised and their eigenvectors are
        # alive at once, and the estimate counts no block past L/2
        assert 2 * 16 * (L // 2 + 1) * (L - 1) ** 2 < growth <= sum(parts.values()) < 1.5 * growth


def test_walker_budget_counts_the_pair_probe_words(monkeypatch):
    # the estimate `run_lattice` checks first carries the degree-2 probe's
    # max(4, probe_samples // 4) words per Bloch block; nothing is built
    # before it, so stopping at the check shows the parts alone
    class Checked(Exception):
        pass

    def capture(what, parts):
        seen.append(parts)
        raise Checked

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called before the budget check")

    monkeypatch.setattr(channels, "check_byte_budget", capture)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    L, seen = 128, []
    for probe_samples in (32, 1000):
        params = {"L": L, "spacing": 1.0, "y": 3.0, "sigma_list": [2.0], "probe_samples": probe_samples}
        with pytest.raises(Checked):
            cli.run_experiment("lattice", params)
    with pytest.raises(Checked):
        cli.run_experiment("lattice", {**params, "pair_probe": False})
    # the two-walker estimate is its largest stage: at 8 words per block the
    # swap probe's, at 250 the high-momentum probe's
    vecs = 16 * (L // 2 + 1) * (L - 1) ** 2
    stages = [sum(size for name, size in parts.items() if "pair eigenvectors" in name) for parts in seen]
    assert any("swap-probe words" in name for name in seen[0])
    assert any("250 pair words per block" in name for name in seen[1])
    assert stages[1] == vecs + 80 * 250 * L * (L - 1) > stages[0] > 0 == stages[2]
    rest = [sum(parts.values()) - stage for parts, stage in zip(seen, stages)]
    assert rest[0] == rest[1] == rest[2]
