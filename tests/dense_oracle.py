"""Dense oracles built operator by operator, for small chains only.

`original_frame_spectrum` is the oracle for the eigenframe route of
`geometry.symmetric_sector_dense_spectrum`: the words are those of
`symmetric_klocal_basis`, over the site letters rotated into the original
frame, and every Gram and pairing entry is an explicit trace against
`mat @ rho` at the state as given.  Each product with a state is a dim^3
GEMM.

`support_family` is the whole operator family of a chain, every product of
zero-mean site letters over every nonempty support, d^(2n) - 1 operators of
dim^2 entries, each built by `site_product` as a tower of krons: the oracle
for the per-support Gram blocks of the bound check and for the sector
suprema of the decay check.

`permute_sites` conjugates by a site permutation through an axis
transpose, the oracle for permutation invariance.
"""

import itertools

import numpy as np

from flab.channels import homogeneous_coarse_graining
from flab.geometry import NULL_THRESHOLD, whiten_psd, whitened_contraction
from flab.operators import (
    QuditSystem,
    _greedy_gram_prune,
    single_site_zero_mean_basis,
    symmetric_klocal_basis,
)


def tensor_many(ops):
    out = np.array([[1.0]], dtype=complex)
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def site_product(factors, system):
    """Product of single-site operators acting on the given sites.

    factors maps site index -> (d, d) matrix; omitted sites get the identity.
    """
    eye = np.eye(system.d, dtype=complex)
    return tensor_many([factors[i] if i in factors else eye for i in range(system.n)])


def permute_sites(matrix, perm, system):
    """Conjugation U_perm X U_perm^dagger without building the unitary."""
    n = system.n
    tens = np.asarray(matrix, dtype=complex).reshape((system.d,) * (2 * n))
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    axes = inv + [n + i for i in inv]
    return np.transpose(tens, axes).reshape(system.dim, system.dim)


def support_family(d, n, site):
    """Stack of the letter products on every nonempty support of n sites, in
    order of support size, supports in lexicographic order, and the support
    of each member."""
    system = QuditSystem(d, n)
    letters = single_site_zero_mean_basis(site)
    matrices, supports = [], []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            for word in itertools.product(letters, repeat=size):
                matrices.append(site_product(dict(zip(support, word)), system))
                supports.append(support)
    return np.stack(matrices), supports


def _gram(rho, mats):
    weighted = [m @ rho for m in mats]
    return np.array([[np.vdot(a, b).real for b in weighted] for a in mats])


def original_frame_spectrum(system, state, y, k, null_threshold=NULL_THRESHOLD):
    """Eigenvalues of the squared contraction on the symmetric k-local sector:
    fine words pruned by the fine Gram, the full family on the coarse side."""
    full = symmetric_klocal_basis(k, system, state, prune=False)
    channel = homogeneous_coarse_graining(system, y)
    rho = state.matrix
    fine_gram = _gram(rho, full)
    keep = _greedy_gram_prune(fine_gram, null_threshold)
    w_fine, _ = whiten_psd(fine_gram[np.ix_(keep, keep)], null_threshold)
    w_coarse, _ = whiten_psd(_gram(channel.apply(rho), full), null_threshold)
    # B[a, b] = Re tr(rho E_a^dagger N^dagger(F_b))
    back = [channel.adjoint_apply(f) @ rho for f in full]
    pairing = np.array([[np.vdot(full[a], b).real for b in back] for a in keep])
    vals, _ = whitened_contraction(w_fine, w_coarse, pairing)
    return vals
