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
for the bound check's draws and for the sector suprema of the decay check.

`norm_grams` is the Bures and pushforward Grams of a family of dim x dim
operators at a diagonal state, row by row through a channel, and
`letter_products` the products of site letters on one support as dim x dim
matrices: the dim^2 oracle for the key-block Grams of
`focklimit._bound_grams`.

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
from flab.errors import NumericalError
from flab.geometry import NULL_THRESHOLD, OMEGA_REL_TOL, SINGULAR_DIRECTION, whiten_psd, whitened_contraction
from flab.operators import (
    QuditSystem,
    _greedy_gram_prune,
    as_matrix,
    single_site_zero_mean_basis,
    symmetric_klocal_basis,
)

# matrix entries of the operators turned into Gram rows per chunk
GRAM_CHUNK_ENTRIES = 2**14


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


def norm_grams(diagonal, channel, operators) -> tuple[np.ndarray, np.ndarray]:
    """Bures and pushforward Grams (G, P) of a family of hermitian operators
    at the diagonal state rho = diag(diagonal).

    For A = sum_a c_a A_a with real c, |A|^2 = c^T G c and |A|_N^2 =
    c^T P c (see `bures_norm`, `pushforward_norm`) with

        G_ab = Re tr(A_a Omega_rho(A_b)),
        P_ab = Re tr(N(X_a)^dagger Omega_{N(rho)}^{-1} N(X_b)),  X = Omega_rho(A).

    The channel must keep rho diagonal, as sitewise depolarizing and the
    permutation average do at a product state in its site eigenframe;
    NumericalError otherwise.  Then Omega_rho weighs entry (i, j) by
    (rho_i + rho_j) / 2 and Omega_{N(rho)}^{-1} by 2 / (lam_i + lam_j), lam
    the diagonal of N(rho); scaled by the square roots of these weights,
    every operator becomes one row of each Gram and the Grams are row
    products.  Entries of weight zero, and entries where Omega_{N(rho)} is
    singular (checked negligible row by row, as in `omega_inverse_apply`),
    are dropped.

    operators is the family as an (N, dim, dim) stack or a list of
    matrices.  It is sliced into chunks of at most GRAM_CHUNK_ENTRIES matrix
    entries (one operator at least); the channel acts once per chunk stack.
    """
    rho = np.asarray(diagonal, dtype=float)
    coarse = channel.apply(np.diag(rho))
    lam = np.diagonal(coarse).real
    if np.max(np.abs(coarse - np.diag(lam))) > OMEGA_REL_TOL * max(float(lam.max()), 1e-300):
        raise NumericalError("the channel does not keep the state diagonal")
    bures_weight = 0.5 * (rho[:, None] + rho[None, :])
    bures_keep = bures_weight > 0.0
    bures_scale = np.sqrt(bures_weight[bures_keep])
    denom = lam[:, None] + lam[None, :]
    singular = denom < OMEGA_REL_TOL * max(float(lam.max()), 1e-300)
    push_scale = np.sqrt(2.0 / denom[~singular])
    count = len(operators)
    bures_rows = np.empty((count, bures_scale.size), dtype=complex)
    push_rows = np.empty((count, push_scale.size), dtype=complex)
    per_chunk = max(1, GRAM_CHUNK_ENTRIES // rho.size**2)
    for start in range(0, count, per_chunk):
        rows = slice(start, min(start + per_chunk, count))
        chunk = as_matrix(operators[rows])
        bures_rows[rows] = chunk[:, bures_keep] * bures_scale
        pushed = channel.apply(chunk * bures_weight)
        if singular.any():
            mag = np.abs(pushed)
            tol = OMEGA_REL_TOL * np.maximum(1.0, mag.max(axis=(1, 2)))
            if np.any(mag[:, singular] > tol[:, None]):
                raise NumericalError(SINGULAR_DIRECTION)
        push_rows[rows] = pushed[:, ~singular] * push_scale
    # Re(R R^dagger) as one real product over interleaved (re, im) columns
    bures_real = bures_rows.view(float)
    push_real = push_rows.view(float)
    return bures_real @ bures_real.T, push_real @ push_real.T

def letter_products(letters, size):
    """The products of `size` site letters, one per word of
    itertools.product(range(len(letters)), repeat=size) and in that order,
    as one (len(letters)**size, d**size, d**size) stack, built site by site
    as a broadcast Kronecker product."""
    letters = np.asarray(letters, dtype=complex)
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(size):
        side = out.shape[-1] * letters.shape[-1]
        out = (out[:, None, :, None, :, None] * letters[None, :, None, :, None, :]).reshape(-1, side, side)
    return out


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
    vals, _ = whitened_contraction(w_fine[None], w_coarse[None], pairing[None])
    return vals[0]
