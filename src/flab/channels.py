"""Quantum channels used as coarse-graining maps.

The central object is the homogeneous coarse-graining: sitewise
depolarizing, applied as one partial trace per site, followed by averaging
over site permutations.
Generic Kraus channels and the classical swap-diffusion generators for
lattice walkers live here as well.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError
from .operators import DRAW_CHUNK_ENTRIES, FIRST_RUN_BYTES, QuditSystem, as_matrix, check_byte_budget, entry_orbits

TRACE_PRESERVING_TOL = 1e-10


class Channel:
    """Minimal channel interface: apply (Schrodinger) and adjoint_apply.

    Both act on the last two axes: X is one (dim, dim) matrix or an
    (m, dim, dim) stack, mapped member by member in one call.  A one-member
    stack gives bit for bit the single matrix's image.
    """

    dim: int

    def apply(self, X) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, X) -> np.ndarray:
        raise NotImplementedError


class DepolarizingChannel(Channel):
    """Sitewise depolarizing on the n sites of a QuditSystem: on each site i
    in turn X -> X/y + (1 - 1/y) tr_i(X) (x) I/d.

    The strength parameter y >= 1 interpolates from the identity (y=1)
    toward complete erasure.  The map is unital, trace preserving and equal
    to its own Heisenberg adjoint.  It works in place on one copy of X, so
    no superoperator is built, and divides by y once per site (y**n would
    overflow at large y).
    """

    def __init__(self, y: float, system: QuditSystem):
        if y < 1.0:
            raise ValueError(f"depolarizing strength must satisfy y >= 1, got {y}")
        self.y = float(y)
        self.system = system
        self.dim = system.dim

    def apply(self, X) -> np.ndarray:
        d, n = self.system.d, self.system.n
        out = as_matrix(X).copy()
        # (m, r_0..r_{n-1}, c_0..c_{n-1}): a view that the sites update in place
        sites = out.reshape((-1,) + (d,) * (2 * n))
        for i in range(n):
            share = (1.0 - 1.0 / self.y) * np.trace(sites, axis1=1 + i, axis2=1 + n + i) / d
            sites /= self.y
            for a in range(d):
                # row and column label a on site i
                sites[(slice(None),) * (1 + i) + (a,) + (slice(None),) * (n - 1) + (a,)] += share
        return out

    adjoint_apply = apply


class PermutationAverage(Channel):
    """Average over all site permutations, i.e. the orthogonal projector
    onto permutation-invariant operators.

    Matrix entries are grouped into orbits of the site permutations acting
    jointly on row and column labels (`operators.entry_orbits`); the average
    replaces every entry by its orbit mean, which is exact for any n.
    """

    def __init__(self, system: QuditSystem):
        self.system = system
        self.dim = system.dim
        self._orbit_index = entry_orbits(system.d, system.n)
        self._orbit_size = np.bincount(self._orbit_index)

    def apply(self, X) -> np.ndarray:
        X = as_matrix(X)
        flat = X.reshape(-1, self.dim * self.dim)
        orbits = self._orbit_size.size
        # member i's orbits are counted at i * orbits + orbit, so one bincount
        # serves the whole stack
        index = (self._orbit_index + orbits * np.arange(len(flat))[:, None]).ravel()
        sums = np.bincount(index, weights=flat.real.ravel()) + 1j * np.bincount(
            index, weights=flat.imag.ravel()
        )
        means = sums.reshape(len(flat), orbits) / self._orbit_size
        return np.take(means, self._orbit_index, axis=1).reshape(X.shape)

    # self-adjoint in the Hilbert-Schmidt inner product
    adjoint_apply = apply


class ComposedChannel(Channel):
    """outer after inner; the adjoint composes in reverse order."""

    def __init__(self, outer: Channel, inner: Channel):
        if outer.dim != inner.dim:
            raise ValueError("composed channels must share a dimension")
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def apply(self, X) -> np.ndarray:
        return self.outer.apply(self.inner.apply(X))

    def adjoint_apply(self, X) -> np.ndarray:
        return self.inner.adjoint_apply(self.outer.adjoint_apply(X))


def homogeneous_coarse_graining(system: QuditSystem, y: float) -> ComposedChannel:
    """Permutation average after sitewise depolarization of strength y.

    The two factors commute, so the composition order is a convention.
    """
    return ComposedChannel(PermutationAverage(system), DepolarizingChannel(y, system))


class SuperoperatorChannel(Channel):
    """Channel given by an explicit Kraus family, which must be trace
    preserving within TRACE_PRESERVING_TOL."""

    def __init__(self, kraus: list[np.ndarray]):
        kraus = [np.asarray(K, dtype=complex) for K in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        dim = kraus[0].shape[0]
        for K in kraus:
            if K.shape != (dim, dim):
                raise ValueError("all Kraus operators must be square and same-dimensional")
        self.kraus = kraus
        self.dim = dim
        total = sum(K.conj().T @ K for K in kraus)
        dev = np.max(np.abs(total - np.eye(dim)))
        if dev > TRACE_PRESERVING_TOL:
            raise NumericalError(f"Kraus family not trace preserving: deviation {dev:.3e}")

    def apply(self, X) -> np.ndarray:
        X = as_matrix(X)
        return sum(K @ X @ K.conj().T for K in self.kraus)

    def adjoint_apply(self, X) -> np.ndarray:
        X = as_matrix(X)
        return sum(K.conj().T @ X @ K for K in self.kraus)


def check_walker_budget(L: int, walkers: int, pair_words: int = 0) -> None:
    """Refuse a ring whose walker arrays would not fit, before any is built.
    Counted is what is alive at the peak: the single-walker arrays
    (eigenvectors, a batch of L plane waves and its products), a first
    run's pages, and for two walkers the largest of three stages.  The pair
    eigh holds the L/2 + 1 blocks K <= L/2, their eigenvectors and its
    workspace.  The probes keep the eigenvectors and hold their words with
    four temporaries of their size (3.5 to 4.1 measured at L = 128, 64): the
    `pair_words` words per Bloch block of the high-momentum probe, or the
    swap probe's at most L (L + 2) / 8 words and one group of blocks of at
    most L/4 + 1 words (within DRAW_CHUNK_ENTRIES and all L, or one)."""
    parts = {
        f"8 complex {L} x {L} single-walker arrays": 128 * L * L,
        "a first run's code and buffers": FIRST_RUN_BYTES,
    }
    if walkers == 2:
        n, half, swap_words = L - 1, L // 2 + 1, L * (L + 2) // 8
        vecs, block = 16 * half * n * n, n * (n + L // 4 + 1)
        stages = {
            f"the {half} pair blocks of {n} x {n}, their eigenvectors and eigh workspace": 2 * vecs + 128 * half * n,
            f"the pair eigenvectors and {pair_words} pair words per block": vecs + 80 * pair_words * L * n,
            f"the pair eigenvectors and {swap_words} swap-probe words and a group with 4 temporaries": vecs
            + 80 * (swap_words * n + max(block, min(DRAW_CHUNK_ENTRIES, L * block))),
        }
        peak = max(stages, key=stages.get)
        parts[peak] = stages[peak]
    check_byte_budget(f"swap diffusion of {walkers} walker(s) on {L} sites", parts)


def _ring_laplacian(L: int) -> np.ndarray:
    return np.roll(np.eye(L), 1, axis=1) + np.roll(np.eye(L), -1, axis=1) - 2.0 * np.eye(L)


@functools.lru_cache(maxsize=1)
def _ring_laplacian_eigh(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the L-site ring Laplacian, shared by every sigma.
    eigh returns the exactly null constant mode as roundoff of either sign,
    which long smoothing times amplify, so eigenvalues within 4 L eps of 0
    (|G| = 4) are set to 0, far inside the next, -2 (1 - cos(2 pi / L))."""
    vals, vecs = np.linalg.eigh(_ring_laplacian(L))
    vals[np.abs(vals) <= 4 * L * np.finfo(float).eps] = 0.0
    vals.flags.writeable = vecs.flags.writeable = False  # shared by every caller
    return vals, vecs


@functools.lru_cache(maxsize=1)
def _pair_block_eigh(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the L Bloch blocks of the pair generator.

    In coordinates (i, r = j - i mod L), r = 1..L-1, block K acts on
    e^{2 pi i K i / L} phi(r).  Only the edges touching a walker of (0, r)
    move it: walker 2 to (0, r +- 1), walker 1 to (-+1, r +- 1), or onto the
    other, exchanging them: (0, 1) -> (1, L-1), (0, L-1) -> (-1, 1).  A move
    to (di, r') adds e^{2 pi i K di / L} at [r, r'] and -1 on the diagonal.
    Block L - K is the complex conjugate of block K, so only the blocks
    K <= L/2 are diagonalised (see `SwapDiffusion.pair_apply`).
    """
    n = L - 1
    w = np.exp(2j * np.pi * np.arange(L // 2 + 1) / L)[:, None]
    blocks = np.zeros((len(w), n, n), dtype=complex)
    r = np.arange(n - 1)
    blocks[:, r, r + 1] = 1.0 + w.conj()
    blocks[:, r + 1, r] = 1.0 + w
    blocks[:, 0, n - 1] = w[:, 0]
    blocks[:, n - 1, 0] = w[:, 0].conj()
    blocks[:, np.arange(n), np.arange(n)] = -4.0
    blocks[:, [0, n - 1], [0, n - 1]] = -3.0
    vals, vecs = np.linalg.eigh(blocks)
    vals.flags.writeable = vecs.flags.writeable = False  # shared by every caller
    return vals, vecs


def _eigen_apply(vals: np.ndarray, vecs: np.ndarray, time: float, x: np.ndarray) -> np.ndarray:
    """exp(time G) x for G = vecs diag(vals) vecs^H, stacked over leading axes,
    on the columns of x.  vecs^H x is taken as conj(vecs^T conj(x)), so only x
    is conjugated and exp(time G) is never formed."""
    coefficients = (vecs.swapaxes(-1, -2) @ x.conj()).conj()
    return vecs @ (np.exp(time * vals)[..., None] * coefficients)


class SwapDiffusion:
    """Classical diffusion of tagged walkers driven by nearest-neighbour swaps.

    Each ring edge carries a unit-rate swap of its endpoints' contents.  A
    single tagged walker then performs a continuous-time random walk whose
    generator is the ring Laplacian; two tagged walkers move jointly on
    ordered distinct site pairs, and neighbours exchange rather than
    collide.  The pair generator commutes with ring translations and is kept
    as L Bloch blocks, one per total momentum.  The smoothing time is
    (sigma/eps)^2 / 2, so one unit of sigma matches the heat-kernel width of
    the smoother.  Both semigroups are only applied, from the generators'
    eigendecompositions cached for every sigma, never assembled.
    """

    def __init__(self, lattice, sigma: float):
        if sigma < 0:
            raise ValueError(f"smoothing width must be nonnegative, got {sigma}")
        self.lattice = lattice
        self.sigma = float(sigma)
        self.time = 0.5 * (sigma / lattice.spacing) ** 2

    def single_walker_apply(self, x) -> np.ndarray:
        """exp(time G) x for the ring Laplacian G on site profiles, the
        columns of x (shape (L, m))."""
        L = self.lattice.n_sites
        check_walker_budget(L, 1)
        return _eigen_apply(*_ring_laplacian_eigh(L), self.time, np.asarray(x))

    def pair_apply(self, x, block=None) -> np.ndarray:
        """Pair-walker semigroup on Bloch-block coefficients: exp(time G_K) on
        the columns x[K] (shape (L, L-1, m)) of every block K, or, given an
        index array `block`, on the columns x[i] of block block[i].  Blocks
        past L/2 use exp(time G_{L-K}) x = conj(exp(time G_K) conj(x)).
        DimensionBudgetError before anything is built if it would not fit."""
        L = self.lattice.n_sites
        check_walker_budget(L, 2)
        vals, vecs = _pair_block_eigh(L)
        x, half = np.asarray(x), len(vals)
        if block is not None:
            block = np.asarray(block)
            partner = np.where(block < half, block, L - block)
            upper = (block >= half)[:, None, None]
            out = _eigen_apply(vals[partner], vecs[partner], self.time, np.where(upper, x.conj(), x))
            return np.where(upper, out.conj(), out)
        out = np.empty(x.shape, dtype=complex)
        out[:half] = _eigen_apply(vals, vecs, self.time, x[:half])
        # blocks L - 1 down to half are blocks 1 to L - half conjugated
        partners = slice(1, L - half + 1)
        upper = _eigen_apply(vals[partners], vecs[partners], self.time, x[: half - 1 : -1].conj())
        out[half:] = upper.conj()[::-1]
        return out
