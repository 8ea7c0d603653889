"""Ring-lattice regularization of smoothed fluctuation fields.

A chain of qubits on a ring of L sites with spacing eps carries collective
observables polarized along one letter, with site profiles given by
bandlimited functions.  Coarse graining acts on these in three commuting
pieces: sitewise depolarizing (letter factor 1/y), nearest-neighbour swap
diffusion (site profiles evolve by the ring heat semigroup), and a Gaussian
momentum smoother on the continuum fields the profiles discretize.

Everything is computed in coefficient space: the k-letter sectors close
under the dynamics, so no dense chain operators are ever built.  The
two-letter sector is carried as L Bloch blocks of size L-1, one per total
momentum.  No semigroup is assembled: the cached walker eigendecompositions
are applied to all plane waves or draws at once, and to the swap probe's
pair words in groups of Bloch blocks of similar word count, so L is limited
only by the byte budget of the block eigh and the probes' words.

The probes measure and return their bounds next to the measurements; the
`flab lattice` runner judges them.  NumericalError here means only a failed
numerical precondition (a profile sampled to complex values, a site factor
reaching 1), never a bound that did not hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import SwapDiffusion
from .errors import NumericalError
from .operators import DRAW_CHUNK_ENTRIES, DensityMatrix
from .sampling import task_rng

FIELD_SYMMETRY_TOL = 1e-10
MIN_RING_SITES = 8


@dataclass(frozen=True)
class RingLattice:
    """Even ring of n_sites points with lattice spacing `spacing`."""

    n_sites: int
    spacing: float

    def __post_init__(self):
        if self.n_sites < MIN_RING_SITES or self.n_sites % 2 != 0:
            raise ValueError(
                f"ring size must be even and >= {MIN_RING_SITES}, got {self.n_sites}"
            )
        if not self.spacing > 0:
            raise ValueError(f"lattice spacing must be positive, got {self.spacing}")

    @property
    def length(self) -> float:
        return self.n_sites * self.spacing

    @property
    def nyquist(self) -> float:
        return math.pi / self.spacing

    def positions(self) -> np.ndarray:
        return self.spacing * np.arange(self.n_sites)

    def mode_indices(self) -> list[int]:
        """Integer mode labels m in (-L/2, L/2]."""
        half = self.n_sites // 2
        return list(range(-half + 1, half + 1))

    def momentum(self, m: int) -> float:
        return 2.0 * math.pi * m / self.length

    def plane_wave(self, m: int) -> np.ndarray:
        """Unit-norm complex profile e^{i p x} over the sites."""
        p = self.momentum(m)
        return np.exp(1j * p * self.positions()) / math.sqrt(self.n_sites)


def _pair_partner(L: int) -> np.ndarray:
    """Second site j = i + r mod L of the pair (i, r), shape (L, L-1)."""
    return (np.arange(L)[:, None] + np.arange(1, L)) % L


def _pair_gram_apply(x: np.ndarray, K) -> np.ndarray:
    """Pair-word Gram I + S (unit-kernel letter) on vectors x[..., r - 1] of
    Bloch blocks K: the swap (i, r) -> (i + r, L - r) maps r to L - r with
    phase e^{2 pi i K r / L}."""
    L = x.shape[-1] + 1
    return x + np.exp(2j * np.pi * (np.multiply.outer(K, np.arange(1, L)) % L) / L) * x[..., ::-1]


def mode_contractions(lattice: RingLattice, sigma: float, y: float) -> dict[int, float]:
    """Contraction factor of every sub-Nyquist plane-wave mode on the
    one-letter sector, keyed by mode index.

    The letter is the pure qubit's x letter (tau_1, named x by
    `depolarizing_fock_setup`): its fine and coarse kernel entries are 1
    and depolarizing scales it by exactly 1/y.  All mode profiles are
    evolved by one apply of the swap semigroup, so each value is 1/y times
    the profile's norm ratio, y^{-1} e^{-(sigma/eps)^2 (1 - cos(p eps))}.
    """
    modes = [m for m in lattice.mode_indices() if abs(m) != lattice.n_sites // 2]
    waves = np.column_stack([lattice.plane_wave(m) for m in modes])
    evolved = SwapDiffusion(lattice, sigma).single_walker_apply(waves)
    ratios = np.linalg.norm(evolved, axis=0) / np.linalg.norm(waves, axis=0)
    return {m: (1.0 / y) * float(r) for m, r in zip(modes, ratios)}


def lattice_mode_multiplier(lattice: RingLattice, sigma: float, mode_index: int) -> float:
    """Heat-semigroup eigenvalue e^{-(sigma/eps)^2 (1 - cos(p eps))} of a mode."""
    u = lattice.momentum(mode_index) * lattice.spacing
    return math.exp(-((sigma / lattice.spacing) ** 2) * (1.0 - math.cos(u)))


def continuum_mode_multiplier(sigma: float, momentum: float) -> float:
    return math.exp(-0.5 * (sigma * momentum) ** 2)


def dispersion_bound(lattice: RingLattice, sigma: float, mode_index: int) -> float:
    """Bound on the lattice-vs-continuum multiplier gap for one mode.

    With u = p eps the exponents differ by (sigma/eps)^2 |1 - cos u - u^2/2|
    <= (sigma/eps)^2 u^4 / 24, and the multipliers differ by at most the
    exponent gap.
    """
    u = abs(lattice.momentum(mode_index)) * lattice.spacing
    return (sigma / lattice.spacing) ** 2 * u**4 / 24.0


def _high_modes(lattice: RingLattice, cutoff: float) -> tuple[list[int], np.ndarray]:
    """The modes below Nyquist with momentum at least `cutoff`, and their
    plane waves e^{i p x} over the sites, one row per mode."""
    modes = [
        m
        for m in lattice.mode_indices()
        if abs(lattice.momentum(m)) >= cutoff and abs(m) != lattice.n_sites // 2
    ]
    if not modes:
        raise ValueError("no representable modes at or above the requested cutoff")
    xs = lattice.positions()
    return modes, np.exp(1j * np.multiply.outer([lattice.momentum(m) for m in modes], xs))


def _high_mode_profiles(modes: list[int], waves: np.ndarray, rng, count: int) -> np.ndarray:
    """`count` random real profiles over the plane waves of `_high_modes`,
    one row each.  Each profile draws one complex coefficient per positive
    mode, real part first, and the negative modes take the conjugates; the
    waves are summed in mode order, one array operation per mode."""
    positive = [m for m in modes if m > 0]
    drawn = rng.standard_normal((count, len(positive), 2)).view(complex)[..., 0]
    coeffs = dict(zip(positive, drawn.T)) | {-m: c.conj() for m, c in zip(positive, drawn.T)}
    values = np.zeros((count, waves.shape[1]), dtype=complex)
    for m, wave in zip(modes, waves):
        values += coeffs[m][:, None] * wave
    scale = np.maximum(1.0, np.max(np.abs(values), axis=1))
    if np.any(np.max(np.abs(values.imag), axis=1) > FIELD_SYMMETRY_TOL * scale):
        raise NumericalError("profile sampled to complex values")
    return values.real


def high_momentum_suppression_probe(
    lattice: RingLattice,
    sigma: float,
    y: float,
    cutoff: float,
    k: int,
    samples: int = 32,
    seed: int = 11,
) -> dict:
    """Contraction of sector observables carrying only high momenta.

    Random degree-k words of the pure qubit's x letter (profiles supported
    on momenta >= cutoff) are contracted through the swap semigroup and
    the letter's depolarizing factor y^{-k}.  For k=1 the exact single-mode
    analysis gives the hard bound
    y^{-1} e^{-(sigma/eps)^2 (1 - cos(cutoff eps))}, returned as `mode_bound`
    for the caller to judge; for k=2 only the measured maximum is returned,
    next to the Gaussian-limit value y^{-k} e^{-k sigma^2 cutoff^2 / 2} the
    construction aims at.  The profiles are one draw, evolved at once.  A k=2 word f_i g_j enters the
    Bloch blocks by one FFT over i of f_i g_{i+r}, and both norms are taken
    blockwise.
    """
    if not 0.0 < cutoff <= lattice.nyquist:
        raise ValueError(f"cutoff must lie in (0, pi/eps], got {cutoff}")
    if k not in (1, 2):
        raise ValueError(f"probe degree must be 1 or 2, got {k}")
    rng = task_rng(seed, k)
    sd = SwapDiffusion(lattice, sigma)
    modes, waves = _high_modes(lattice, cutoff)
    if k == 1:
        draws = _high_mode_profiles(modes, waves, rng, samples).T
        norms = np.linalg.norm(draws, axis=0)
        kept = norms >= 1e-12
        evolved = sd.single_walker_apply(draws[:, kept])
        ratios = np.linalg.norm(evolved, axis=0) / norms[kept] / y
        u = cutoff * lattice.spacing
        hard_bound = math.exp(-((sigma / lattice.spacing) ** 2) * (1.0 - math.cos(u))) / y
    else:
        L = lattice.n_sites
        draws = _high_mode_profiles(modes, waves, rng, 2 * samples)
        words = np.fft.fft(draws[0::2, :, None] * draws[1::2, _pair_partner(L)], axis=1) / math.sqrt(L)
        evolved = sd.pair_apply(words.transpose(1, 2, 0)).transpose(2, 0, 1)
        base_sq, evolved_sq = (
            np.real(np.sum(v.conj() * _pair_gram_apply(v, np.arange(L)), axis=(1, 2))) for v in (words, evolved)
        )
        kept = base_sq >= 1e-20
        ratios = np.sqrt(evolved_sq[kept] / base_sq[kept]) / y**2
        hard_bound = None
    claim = math.exp(-0.5 * k * (sigma * cutoff) ** 2) / y**k
    return {
        "k": k,
        "samples": len(ratios),
        "max_contraction": float(ratios.max()),
        "mode_bound": hard_bound,
        "gaussian_claim": claim,
    }


@dataclass
class ContinuumField:
    """Letter-polarized field on a circle: profile(x) times a fixed letter.

    The profile is a finite Fourier series sum_m c_m e^{2 pi i m x / length}
    with conjugate-symmetric coefficients.  Independent of any lattice; a
    lattice enters only when the field is sampled.
    """

    length: float
    coefficients: dict[int, complex]
    letter: np.ndarray = field(default=None)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("circle length must be positive")
        cleaned = {int(m): complex(c) for m, c in self.coefficients.items()}
        for m, c in cleaned.items():
            partner = cleaned.get(-m, 0.0)
            if abs(np.conj(c) - partner) > FIELD_SYMMETRY_TOL * max(1.0, abs(c)):
                raise ValueError(f"coefficients break conjugate symmetry at mode {m}")
        self.coefficients = cleaned
        if self.letter is None:
            self.letter = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        else:
            self.letter = np.asarray(self.letter, dtype=complex)

    def max_mode(self) -> int:
        return max((abs(m) for m in self.coefficients), default=0)

    def profile_at(self, xs: np.ndarray) -> np.ndarray:
        values = np.zeros_like(xs, dtype=complex)
        for m, c in self.coefficients.items():
            values += c * np.exp(2j * math.pi * m * xs / self.length)
        return values.real


def continuum_inner_convergence(
    state_1site: DensityMatrix,
    f: ContinuumField,
    g: ContinuumField,
    eps_list,
) -> dict:
    """Site products of pair correlations against their exponential limit.

    For each spacing eps the ring has length/eps sites and the product
    prod_j (1 - eps q(x_j)) with q(x) = profile_f profile_g tr(rho a b) is
    compared with exp(-integral of q).  The integral is evaluated two ways,
    by exact Fourier pairing and by the trapezoid rule on the sample points;
    bandlimited profiles make both exact and the match is reported.
    """
    if f.length != g.length:
        raise ValueError("fields live on circles of different lengths")
    pair_value = complex(np.trace(state_1site.matrix @ f.letter @ g.letter))
    length = f.length
    # exact Fourier pairing of the two profiles: integral of profile_f profile_g
    profile_integral = 0.0 + 0.0j
    for m, c in f.coefficients.items():
        d = g.coefficients.get(-m)
        if d is not None:
            profile_integral += c * d * length
    inner_limit = pair_value * profile_integral
    limit = np.exp(-inner_limit)

    eps_list = [float(e) for e in eps_list]
    products = []
    quadrature_gap = 0.0
    for eps in eps_list:
        sites_float = length / eps
        sites = int(round(sites_float))
        if abs(sites - sites_float) > 1e-9 or sites % 2 != 0 or sites < MIN_RING_SITES:
            raise ValueError(
                f"spacing {eps} does not give an even ring of >= {MIN_RING_SITES} "
                f"sites on length {length}"
            )
        max_mode = f.max_mode() + g.max_mode()
        if max_mode >= sites:
            raise ValueError(
                f"profiles carry beat mode {max_mode} which aliases on {sites} sites; "
                "refine the lattice"
            )
        xs = eps * np.arange(sites)
        q = f.profile_at(xs) * g.profile_at(xs) * pair_value
        if np.max(np.abs(eps * q)) >= 1.0:
            raise NumericalError(
                "site factor |eps q| reached 1; rescale the fields or refine the lattice"
            )
        products.append(complex(np.prod(1.0 - eps * q)))
        quadrature_gap = max(
            quadrature_gap, float(abs(eps * np.sum(q) - inner_limit))
        )
    deviations = [float(abs(p - limit)) for p in products]
    return {
        "eps_list": eps_list,
        "products": products,
        "limit": complex(limit),
        "inner_product": complex(inner_limit),
        "deviations": deviations,
        "quadrature_gap": quadrature_gap,
    }


def swap_factorization_probe(lattice: RingLattice, sigma: float) -> dict:
    """Two-walker swap diffusion against independent Gaussian smoothing.

    Over a fixed panel of mode pairs (momenta below half Nyquist), pair
    words evolved by the two-walker swap semigroup are compared entrywise
    with the independent-mode prediction s_{q1} s_{q2} within each Bloch
    block (words of different total momentum pair to zero), one
    `pair_apply` per group of blocks of similar word count.  The supremum
    deviation is returned; judging it is left to the caller.  The one-walker
    comparison, each mode's multiplier against the continuum smoother, is
    the per-mode pass of `flab lattice`.
    """
    L = lattice.n_sites
    sd = SwapDiffusion(lattice, sigma)
    panel = [m for m in lattice.mode_indices() if abs(lattice.momentum(m)) < 0.5 * lattice.nyquist]
    m1, m2 = np.array(list(itertools.combinations_with_replacement(panel, 2))).T
    multiplier = {m: lattice_mode_multiplier(lattice, sigma, m) for m in panel}
    s_pred = np.array([multiplier[a] * multiplier[b] for a, b in zip(m1, m2)])
    # the word (m1, m2) is sqrt(L) e^{2 pi i m2 r / L} in block m1 + m2 mod L
    blocks = (m1 + m2) % L
    words = math.sqrt(L) * np.exp(2j * np.pi * (np.outer(m2, np.arange(1, L)) % L) / L)
    # The uniform pair profile (block 0, constant in r) is stationary for the
    # swap dynamics and picks up an O(1/L) diagonal-exclusion offset in
    # opposite-momentum words that no smoothing can remove; the independence
    # question lives on its complement, so that component is projected away
    # before comparing.
    zero = blocks == 0
    words[zero] -= _pair_gram_apply(words[zero], 0).sum(axis=1, keepdims=True) / (2 * (L - 1))
    gram_words = _pair_gram_apply(words, blocks)
    norm_sq = np.real(np.sum(words.conj() * gram_words, axis=1))
    kept = norm_sq >= 1e-12 * L * (L - 1)
    scale = 1.0 / np.sqrt(norm_sq[kept])[:, None]
    # scaled in place: at large L these word stacks set the run's peak
    words, blocks, s_pred = words[kept], blocks[kept], s_pred[kept]
    words *= scale
    gram_words = gram_words[kept]
    gram_words *= scale
    # words of different blocks pair to exactly zero under both I + S and W2.
    # Blocks sorted by word count are zero-padded to their group's widest, a
    # group's eigenvectors and words within DRAW_CHUNK_ENTRIES or one block
    order = np.argsort(blocks, kind="stable")
    keys, starts, counts = np.unique(blocks[order], return_index=True, return_counts=True)
    groups = [[]]
    for b in np.argsort(counts, kind="stable"):
        if groups[-1] and (len(groups[-1]) + 1) * (L - 1) * (L - 1 + counts[b]) > DRAW_CHUNK_ENTRIES:
            groups.append([])
        groups[-1].append(b)
    sup_dev = 0.0
    for group in groups:
        valid = np.arange(counts[group[-1]]) < counts[group, None]
        rows = order[(starts[group, None] + np.arange(valid.shape[1]))[valid]]
        C, left, pred = (np.zeros(valid.shape + a.shape[1:], a.dtype) for a in (words, gram_words, s_pred))
        C[valid], left[valid], pred[valid] = words[rows], gram_words[rows].conj(), s_pred[rows]
        C = C.transpose(0, 2, 1)
        deviation = left @ sd.pair_apply(C, keys[group]) - (left @ C) * pred[:, None, :]
        sup_dev = max(sup_dev, float(np.max(np.abs(deviation))))
    return {
        "sigma_over_eps": sigma / lattice.spacing,
        "panel_modes": panel,
        "word_count": len(words),
        "sup_deviation": sup_dev,
    }
