"""Deterministic random objects for tests and experiments.

All randomness flows through task_rng, which derives a per-task generator
from a root seed and a task index via SeedSequence spawning.  Runs with the
same (seed, index) pair reproduce bit for bit on any platform numpy
supports, and distinct indices give statistically independent streams.
"""

from __future__ import annotations

import numpy as np

from .channels import SuperoperatorChannel
from .operators import DensityMatrix


def task_rng(seed: int, task_index=0) -> np.random.Generator:
    """Counter-style stream split: Generator(PCG64(SeedSequence((seed, *index)))).

    task_index may be an int or a tuple of ints, so nested parameter sweeps
    can carve out independent streams without collisions.
    """
    if isinstance(task_index, (tuple, list)):
        entropy = (int(seed),) + tuple(int(i) for i in task_index)
    else:
        entropy = (int(seed), int(task_index))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_positive_density(dim: int, rng: np.random.Generator, min_eigenvalue: float = 0.0) -> DensityMatrix:
    """Full-rank random state; min_eigenvalue floors the spectrum."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = z @ z.conj().T + min_eigenvalue * dim * np.eye(dim)
    mat /= np.trace(mat).real
    return DensityMatrix(mat, check=False)


def random_zero_mean_hermitian(state: DensityMatrix, rng: np.random.Generator) -> np.ndarray:
    """Random hermitian with tr(rho A) = 0, unit operator-entry scale."""
    dim = state.dim
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = 0.5 * (z + z.conj().T)
    A -= np.trace(state.matrix @ A).real * np.eye(dim)
    return A


def random_cptp_channel(dim: int, kraus_count: int, rng: np.random.Generator):
    """Random channel from a truncated Haar isometry (Stinespring picture)."""
    if kraus_count < 1:
        raise ValueError("need at least one Kraus operator")
    big = haar_unitary(dim * kraus_count, rng)
    # isometry columns: input space embedded at environment index 0
    iso = big[:, :dim]
    kraus = [iso[k * dim : (k + 1) * dim, :] for k in range(kraus_count)]
    return SuperoperatorChannel(kraus)
