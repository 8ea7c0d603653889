"""Dense two-walker routes kept as the oracle for the Bloch-blocked ones.

The pair generator here is the L(L-1)-square matrix on ordered distinct
pairs, built edge by edge, and the probes are the word-by-word loops over
it.  They are exact but cost O(L^6) flops, so they serve only small rings.
The profiles they draw come from `high_mode_profile`, one profile and one
scalar draw at a time, the oracle for the batched `_high_mode_profiles`.
"""

import itertools
import math

import numpy as np

from flab.errors import NumericalError
from flab.lattice import FIELD_SYMMETRY_TOL, _high_modes, lattice_mode_multiplier
from flab.sampling import task_rng


def high_mode_profile(modes, waves, rng):
    """One random real profile over the plane waves of `_high_modes`: each
    positive mode draws its coefficient's real then imaginary part, and its
    negative partner takes the conjugate."""
    coeffs = {m: 0j for m in modes}
    for m in modes:
        if m < 0:
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[m] = c
        if -m in coeffs:
            coeffs[-m] = np.conj(c)
    values = np.zeros(waves.shape[1], dtype=complex)
    for c, wave in zip(coeffs.values(), waves):
        values += c * wave
    if np.max(np.abs(values.imag)) > FIELD_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(values)))):
        raise NumericalError("profile sampled to complex values")
    return values.real


def ring_laplacian(L):
    """Single-walker generator: the ring Laplacian, built site by site."""
    gen = np.zeros((L, L))
    for i in range(L):
        gen[i, i] = -2.0
        gen[i, (i + 1) % L] = gen[i, (i - 1) % L] = 1.0
    return gen


def pair_states(L):
    return [(i, j) for i in range(L) for j in range(L) if i != j]


def pair_generator(L):
    """Generator on ordered distinct pairs; each edge swap moves both
    walkers it touches, so neighbouring walkers exchange positions rather
    than colliding."""
    states = pair_states(L)
    index = {s: a for a, s in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for a, (i, j) in enumerate(states):
        for u in range(L):
            v = (u + 1) % L
            ti = v if i == u else (u if i == v else i)
            tj = v if j == u else (u if j == v else j)
            gen[index[(ti, tj)], a] += 1.0
            gen[a, a] -= 1.0
    return gen


def pair_semigroup(L, time):
    vals, vecs = np.linalg.eigh(pair_generator(L))
    return (vecs * np.exp(time * vals)) @ vecs.T


def pair_gram(L):
    """Gram of ordered-distinct-pair words for a unit-kernel letter: I + S."""
    states = pair_states(L)
    index = {s: a for a, s in enumerate(states)}
    gram = np.eye(len(states))
    for a, (i, j) in enumerate(states):
        gram[a, index[(j, i)]] += 1.0
    return gram


def bloch_basis(L):
    """Unitary whose column (K, r) is e^{2 pi i K i / L} / sqrt(L) on the
    pairs (i, i + r mod L), in pair_states order."""
    index = {s: a for a, s in enumerate(pair_states(L))}
    U = np.zeros((L * (L - 1), L * (L - 1)), dtype=complex)
    for K in range(L):
        for r in range(1, L):
            for i in range(L):
                U[index[(i, (i + r) % L)], K * (L - 1) + r - 1] = np.exp(2j * np.pi * K * i / L) / math.sqrt(L)
    return U


def assemble_blocks(blocks):
    """Dense pair-state matrix of a stack of Bloch blocks."""
    L = blocks.shape[0]
    n = L - 1
    U = bloch_basis(L)
    diag = np.zeros((L * n, L * n), dtype=complex)
    for K in range(L):
        diag[K * n:(K + 1) * n, K * n:(K + 1) * n] = blocks[K]
    return U @ diag @ U.conj().T


def swap_factorization_probe_j2(lattice, sigma):
    L = lattice.n_sites
    W2 = pair_semigroup(L, 0.5 * (sigma / lattice.spacing) ** 2)
    states = pair_states(L)
    gram = pair_gram(L)
    panel = [m for m in lattice.mode_indices() if abs(lattice.momentum(m)) < 0.5 * lattice.nyquist]
    words = []
    xs = lattice.positions()
    uniform = np.ones(len(states))
    uniform_sq = float(uniform @ gram @ uniform)
    for m1, m2 in itertools.combinations_with_replacement(panel, 2):
        wave1 = np.exp(1j * lattice.momentum(m1) * xs)
        wave2 = np.exp(1j * lattice.momentum(m2) * xs)
        c = np.array([wave1[i] * wave2[j] for (i, j) in states])
        c = c - (uniform @ gram @ c) / uniform_sq * uniform
        norm_sq = float(np.real(np.conj(c) @ gram @ c))
        if norm_sq < 1e-12 * len(states):
            continue
        words.append((m1, m2, c / math.sqrt(norm_sq)))
    sup_dev = 0.0
    gw = gram @ W2
    for m1, m2, cv in words:
        target = gw @ cv
        s_pred = lattice_mode_multiplier(lattice, sigma, m1) * lattice_mode_multiplier(lattice, sigma, m2)
        base = gram @ cv
        for _, _, cu in words:
            swap_val = complex(np.conj(cu) @ target)
            pred_val = s_pred * complex(np.conj(cu) @ base)
            sup_dev = max(sup_dev, abs(swap_val - pred_val))
    return {"word_count": len(words), "sup_deviation": sup_dev}


def high_momentum_k2(lattice, sigma, y, cutoff, samples=32, seed=11):
    L = lattice.n_sites
    rng = task_rng(seed, 2)
    W2 = pair_semigroup(L, 0.5 * (sigma / lattice.spacing) ** 2)
    states = pair_states(L)
    gram = pair_gram(L)
    modes, waves = _high_modes(lattice, cutoff)
    ratios = []
    for _ in range(samples):
        f = high_mode_profile(modes, waves, rng)
        g = high_mode_profile(modes, waves, rng)
        c = np.array([f[i] * g[j] for (i, j) in states])
        base_sq = float(c @ gram @ c)
        if base_sq < 1e-20:
            continue
        evolved = W2 @ c
        ratios.append(math.sqrt(float(evolved @ gram @ evolved) / base_sq) / y**2)
    return {"samples": len(ratios), "max_contraction": max(ratios)}
