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

`tuple_oracle` is the contraction spectrum of the closed-form tuple
problem on all j-letter tuples or on Sym^j, from whole Kronecker powers of
the full letter kernels over every coarse letter, whole Grams and one
whitened eigenproblem in plain numpy: the oracle for the key stacks of
`focklimit.fock_block_spectrum` and the sector blocks.
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


def _symmetric_isometry(letters, j):
    """Columns |O|^{-1/2} sum_{t in O} e_t over the j-letter tuples, one per
    letter multiset O, multisets in lexicographic order."""
    words = list(itertools.combinations_with_replacement(range(letters), j))
    q = np.zeros((letters**j, len(words)))
    for t, tup in enumerate(itertools.product(range(letters), repeat=j)):
        q[t, words.index(tuple(sorted(tup)))] = 1.0
    return q / np.linalg.norm(q, axis=0)


def tuple_oracle(k_fine, k_coarse, pairing, j, symmetric, null_threshold=NULL_THRESHOLD):
    """Descending contraction eigenvalues of the tuple problem of degree j:
    fine Gram Re(K^{(x)j}), coarse Gram Re(K'^{(x)j}) and pairing
    Re((K m)^{(x)j}), each one np.kron tower, restricted to Sym^j when
    symmetric, whitened with one eigh each (cut relative to the top) and
    transported to one eigenproblem."""
    fine = np.eye(len(k_fine) ** j) if not symmetric else _symmetric_isometry(len(k_fine), j)
    coarse = np.eye(len(k_coarse) ** j) if not symmetric else _symmetric_isometry(len(k_coarse), j)

    def whitener(gram):
        vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
        keep = vals > null_threshold * max(vals.max(initial=0.0), 1e-300)
        return vecs[:, keep] / np.sqrt(vals[keep])

    def power(mat, rows, cols):
        return rows.T @ np.real(tensor_many([mat] * j)) @ cols

    w_fine = whitener(power(k_fine, fine, fine))
    w_coarse = whitener(power(k_coarse, coarse, coarse))
    small = w_fine.T @ power(pairing, fine, coarse) @ w_coarse
    return np.clip(np.linalg.eigvalsh(small @ small.T)[::-1], 0.0, None)


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
