"""State-dependent operator geometry and contraction spectra.

Two inner products on observables at a state rho drive everything here:

* the GNS product  <A, B> = tr(rho A^dagger B)  (real part where needed),
* the symmetrized product  tr(A^dagger Omega_rho(B))  built from the
  multiplication operator  Omega_rho(A) = (rho A + A rho) / 2.

A channel N acts on this geometry two ways.  Pulling back through the
Heisenberg adjoint gives the pairing matrices whitened into a finite
eigenvalue problem (`contraction_spectrum`).  Pushing the tangent vector
Omega_rho(A) forward through N and measuring it at N(rho) gives the
channel-deformed norm (`pushforward_norm`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import DepolarizingChannel
from .errors import NumericalError
from .operators import (
    FIRST_RUN_BYTES,
    NULL_THRESHOLD,
    DensityMatrix,
    QuditSystem,
    _check_hermitian,
    _fix_column_phases,
    _hermitian_word_values,
    as_matrix,
    check_byte_budget,
    gns_gram,
    identical_site_state,
    letter_multisets,
    orbit_counts,
    real_overlaps,
    state_product,
    symmetric_words,
    zero_mean_letters,
)

# relative size of eigenvalue pairs below which Omega_rho is singular
OMEGA_REL_TOL = 1e-12
SINGULAR_DIRECTION = (
    "state is singular on the requested direction; "
    "use the GNS-side formulation with a null-space quotient"
)


def omega_apply(state: DensityMatrix, x) -> np.ndarray:
    """Symmetrized multiplication (rho X + X rho) / 2, of one matrix or a stack."""
    rho = state.matrix
    mat = as_matrix(x)
    return 0.5 * (rho @ mat + mat @ rho)


def omega_inverse_apply(state: DensityMatrix, x) -> np.ndarray:
    """Solve Omega_rho(Y) = X in the eigenbasis of rho.

    Entrywise in that basis Y_ij = 2 X_ij / (lambda_i + lambda_j).  Pairs of
    near-zero eigenvalues (sums below OMEGA_REL_TOL times the largest) make
    the problem singular; in that case the symmetrized product has null
    directions and the inverse is not defined.
    """
    vals, vecs = state.eigensystem()
    tilde = vecs.conj().T @ as_matrix(x) @ vecs
    denom = vals[:, None] + vals[None, :]
    cutoff = OMEGA_REL_TOL * max(float(vals.max()), 1e-300)
    bad = denom < cutoff
    if np.any(bad & (np.abs(tilde) > OMEGA_REL_TOL * max(1.0, float(np.abs(tilde).max())))):
        raise NumericalError(SINGULAR_DIRECTION)
    out = np.where(bad, 0.0, 2.0 * tilde / np.where(bad, 1.0, denom))
    return vecs @ out @ vecs.conj().T


def bures_norm(state: DensityMatrix, a) -> float:
    """|A| with |A|^2 = tr(A^dagger Omega_rho(A)) = Re tr(rho A^dagger A)."""
    val = float(np.trace(as_matrix(a).conj().T @ omega_apply(state, a)).real)
    if val < -1e-12:
        raise NumericalError(f"norm squared came out negative: {val:.3e}")
    return math.sqrt(max(val, 0.0))


def pushforward_norm(state: DensityMatrix, channel, a) -> float:
    """Norm of A pushed through the channel as a tangent vector.

    The tangent representative of A at rho is X = Omega_rho(A); the channel
    transports it to N(X), measured with the metric at N(rho):

        |A|_N^2 = tr(N(X)^dagger Omega_{N(rho)}^{-1} N(X)).

    Directions annihilated by Omega_rho (null at rho) push to zero, so the
    value depends only on the GNS equivalence class of A.
    """
    coarse = DensityMatrix(channel.apply(state.matrix), check=False)
    pushed = channel.apply(omega_apply(state, a))
    solved = omega_inverse_apply(coarse, pushed)
    val = float(np.trace(pushed.conj().T @ solved).real)
    scale = max(float(np.max(np.abs(pushed))) ** 2, 1e-300)
    if val < -1e-10 * scale:
        raise NumericalError(f"pushforward norm squared came out negative: {val:.3e}")
    return math.sqrt(max(val, 0.0))


def whiten_psd(gram, null_threshold: float = NULL_THRESHOLD):
    """Whitening map for a symmetric PSD Gram matrix.

    Returns (whitener, kept_eigenvalues) with whitener W = V L^{-1/2} over
    the eigenpairs above null_threshold relative to the largest eigenvalue,
    so W^T G W = identity on the retained subspace.  Cholesky is avoided on
    purpose: the Gram matrices here are routinely rank deficient and the
    eigenvalue cut doubles as the null-space quotient.

    gram may also be a list of (keys, a, a) stacks (a free per stack), the
    diagonal blocks of one block-diagonal Gram: one stacked eigh each, with
    the cut and the negativity check relative to the top of all blocks.
    The whitener is then a list of (keys, a, a) stacks, each block's
    columns in ascending order of its eigenvalues and zero at or below the
    cut (a leading run); the kept eigenvalues run block by block.
    """
    listed = isinstance(gram, list)
    stacks = [np.asarray(s, dtype=float) for s in gram] if listed else [np.asarray(gram, dtype=float)[None]]
    scale = max([1.0] + [float(np.max(np.abs(s))) for s in stacks if s.size])
    sym_dev = max([0.0] + [float(np.max(np.abs(s - s.swapaxes(1, 2)))) for s in stacks if s.size])
    if sym_dev > 1e-10 * scale:
        raise NumericalError(f"gram matrix not symmetric: deviation {sym_dev:.3e}")
    eigs = [np.linalg.eigh(0.5 * (s + s.swapaxes(1, 2))) for s in stacks]
    vals = np.concatenate([block_vals.ravel() for block_vals, _ in eigs])
    top = max(float(vals.max(initial=0.0)), 0.0)
    if vals.size and vals.min() < -null_threshold * max(top, 1e-300):
        raise NumericalError(
            f"gram matrix has negative eigenvalue {vals.min():.3e}; not a valid pairing"
        )
    cut = null_threshold * max(top, 1e-300)
    if not listed:
        keep = vals > cut
        return eigs[0][1][0][:, keep] / np.sqrt(vals[keep]), vals[keep]
    whiteners = [np.where(v[:, None] > cut, vecs / np.sqrt(np.maximum(v, cut))[:, None], 0.0) for v, vecs in eigs]
    return whiteners, vals[vals > cut]


@dataclass
class GnsSpace:
    """Whitened GNS representation of an operator family at a state.

    matrices is the family as one (m, dim, dim) stack, and whitener the
    `whiten_psd` whitener of its real GNS Gram Re tr(rho A_a^dagger A_b).
    From `symmetric_sector_dense_spectrum` the family is permutation
    symmetric and held in orbit coordinates instead: matrices is (m,
    orbits), each word's values on the word-support orbits of
    `operators.orbit_counts(d, n, k)` (zero on the others), and state is
    the site state diag(mu) of which rho is the n-fold product.
    """

    state: DensityMatrix
    matrices: np.ndarray
    whitener: np.ndarray

    @property
    def rank(self) -> int:
        return self.whitener.shape[1]


def gns_build(state: DensityMatrix, basis, null_threshold: float = NULL_THRESHOLD) -> GnsSpace:
    """Whitened GNS space of a hermitian operator family at a state.

    The real part of the Gram is whitened with an eigenvalue cut at
    null_threshold (relative), which quotients out null directions.  The
    family must be hermitian so the real Gram carries the full geometry.
    """
    matrices = [as_matrix(item) for item in basis]
    if not matrices:
        raise ValueError("empty basis")
    stack = np.stack(matrices)
    _check_hermitian(stack, stack.swapaxes(1, 2), lambda i: f"b{i}")
    return GnsSpace(state, stack, whiten_psd(gns_gram(state, stack), null_threshold)[0])


def channel_pairing_matrix(channel, out_space: GnsSpace, in_space: GnsSpace) -> np.ndarray:
    """B[a, b] = Re tr(rho_out E_a^dagger N^dagger(F_b)).

    Rows run over the fine-side family at rho_out, columns over the
    coarse-side family whose Heisenberg preimages are being paired.
    """
    rho = out_space.state.matrix
    # tr(rho E^dagger X) = <vec(E), vec(X rho)> with the plain entrywise pairing
    cols = np.empty_like(in_space.matrices)
    for col, mat in zip(cols, in_space.matrices):
        col[...] = state_product(channel.adjoint_apply(mat), rho)
    return real_overlaps(out_space.matrices, cols)


def whitened_contraction(w_fine: np.ndarray, w_coarse: np.ndarray, pairing: np.ndarray):
    """Eigendata of the squared contraction between two whitened families,
    one problem per key of three (keys, ., .) stacks.

    Each key's pairing B (fine rows, coarse columns) is transported into
    the whitened frames, S = W_f^T B W_c, and T = S S^T is diagonalised
    over the key's kept fine directions (the nonzero whitener columns, a
    trailing run), one stack per kept count.  Returns the eigenvalues
    (keys, a) in descending order, clipped at 0, and the fine-side
    coefficients W_f V (keys, rows, a), both zero past the key's count.
    One Gram's 2-D `whiten_psd` whitener is passed as w[None].
    """
    kept = np.count_nonzero(w_fine.any(axis=1), axis=1)
    vals, coeffs = np.zeros((len(w_fine), w_fine.shape[2])), np.zeros(w_fine.shape)
    for count in sorted(set(kept.tolist())):
        # with one count for all keys the stacks are taken whole, uncopied
        keys = kept == count if kept.min() < kept.max() else slice(None)
        w = w_fine[keys, :, w_fine.shape[2] - count :]
        small = w.swapaxes(1, 2) @ pairing[keys] @ w_coarse[keys]
        key_vals, vecs = np.linalg.eigh(small @ small.swapaxes(1, 2))
        vals[keys, :count] = np.clip(key_vals[:, ::-1], 0.0, None)
        coeffs[keys, :, :count] = w @ vecs[:, :, ::-1]
    return vals, coeffs


@dataclass
class ContractionSpectrum:
    """Eigendata of the channel's squared contraction on a GNS family.

    coefficients holds the eigenvectors over the members of `out_space`.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    out_space: GnsSpace
    in_space: GnsSpace


def contraction_spectrum(
    channel,
    state: DensityMatrix,
    basis,
    out_basis=None,
    null_threshold: float = NULL_THRESHOLD,
) -> ContractionSpectrum:
    """Spectrum of the squared contraction map on a hermitian family.

    The fine side lives at `state`; the coarse side at the channel output
    state uses `basis` again unless `out_basis` names a different coarse
    family.  Both sides are whitened (null directions quotiented) and the
    pairing matrix goes through `whitened_contraction`; the eigenvalues come
    back in descending order together with fine-side basis coefficients of
    the eigenvectors.
    """
    coarse_state = DensityMatrix(channel.apply(state.matrix), check=False)
    fine = gns_build(state, basis, null_threshold)
    coarse = gns_build(coarse_state, out_basis if out_basis is not None else basis, null_threshold)
    return _contraction_between(fine, coarse, channel_pairing_matrix(channel, fine, coarse))


def _contraction_between(fine: GnsSpace, coarse: GnsSpace, pairing: np.ndarray) -> ContractionSpectrum:
    vals, coeffs = whitened_contraction(fine.whitener[None], coarse.whitener[None], pairing[None])
    return ContractionSpectrum(
        eigenvalues=vals[0],
        coefficients=_fix_column_phases(coeffs[0]),
        out_space=fine,
        in_space=coarse,
    )


def check_dense_sector_budget(system: QuditSystem, k: int) -> None:
    """Refuse the dense k-local sector of `symmetric_sector_dense_spectrum`
    if its arrays would not fit, before any is built.

    The words live on the word-support orbits (`operators.orbit_counts`),
    so no dim-square array is the route's own: a product state is the
    caller's, and its product check is refused by `identical_site_state`.
    Count the orbit values of the words and their weighted copy for the
    Grams, the word polynomials of the last orbit level
    (`operators.symmetric_word_values`: the polynomials, their parents'
    copies, the running slot sum, one slot's gathered sources and site
    factors and their product), the orbit bookkeeping and a first run's
    code and buffers.  The Heisenberg images of the words are never
    formed: the pairing is the fine Gram recombined by `_image_matrix`, a
    words-square array like the Grams, which the orbit values outnumber.
    """
    d, n = system.d, system.n
    labels, top = d * d, min(k, n)
    words = math.comb(labels - 1 + top, top)
    # m <= top sites on off-diagonal labels, n - m on the d diagonal ones
    orbits = sum(math.comb(n - m + d - 1, d - 1) * math.comb(m + labels - d - 1, m) for m in range(top + 1))
    check_byte_budget(
        f"dense sector at d={d}, n={n}",
        {
            f"{words} x {orbits} orbit values and their weighted copy": 2 * 16 * words * orbits,
            "last-level word polynomials": 6 * 16 * orbits * words,
            "orbit counts, ranks and levels": 6 * 8 * orbits * labels,
            "a first run's code and buffers": FIRST_RUN_BYTES,
        },
    )


def _orbit_weights(counts: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Weight of each orbit in the trace against diag(diagonal)^{(x)n}: its
    size n! / prod_l n_l! times the state's entries at the column labels."""
    n, d = int(counts[0].sum()), diagonal.size
    factorials = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    sizes = factorials[n] / np.prod(factorials[counts], axis=1)
    return sizes * np.prod(diagonal[np.arange(d * d) % d] ** counts, axis=1)


@functools.lru_cache(maxsize=4)
def _sub_words(n_letters: int, top: int):
    """Every sub-multiset of every word of `symmetric_words(n_letters, top)`,
    one entry per subset of the word's letter positions kept.

    Returns, per entry, the flat index word * words + sub-word into the
    words-square, the degrees of the word and of the sub-word, and the
    dropped letters padded with n_letters.  A sub-word is found without a
    search, by dropping its letters one at a time through the `below`
    table of `letter_multisets`.  Cached, so the arrays are read-only.
    """
    counts, below, start = letter_multisets(n_letters, top)
    parts = []
    for j in range(top + 1):
        rows = np.arange(start[j], start[j + 1])
        # each word's letters in ascending order, and one entry per subset
        # of its positions, position p kept if bit p is set
        block = np.repeat(np.tile(np.arange(n_letters), len(rows)), counts[rows].ravel()).reshape(len(rows), j)
        keep = (np.arange(2**j)[:, None] >> np.arange(j)) & 1
        sub = np.repeat(rows[:, None], 2**j, axis=1)
        for p in range(j):
            sub = np.where(keep[:, p] == 1, sub, below[sub, block[:, p, None]])
        dropped = np.full((len(rows), 2**j, top), n_letters)
        dropped[:, :, :j] = np.where(keep == 1, n_letters, block[:, None, :])
        kept = np.tile(keep.sum(axis=1), len(rows))
        index = (rows[:, None] * start[-1] + sub).ravel()
        parts.append((index, np.full(sub.size, j), kept, dropped.reshape(sub.size, top)))
    arrays = [np.concatenate(column) for column in zip(*parts)]
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _image_matrix(traces: np.ndarray, y: float, n: int, top: int) -> np.ndarray:
    """The lower-triangular T with images = T @ values: the orbit values of
    the Heisenberg images, under the coarse graining at strength y, of the
    words of `symmetric_words(len(traces), top)` on n sites, as
    combinations of the words' own values.

    The site depolarizing maps each letter to D^dagger(f_t) = f_t / y +
    a_t 1 with a_t = (1 - 1/y) tr(f_t) / d, and traces holds tr(f_t) / d.
    Expanding the image word over which letters turn into the identity
    leaves, for each sub-multiset u of the word's letter multiset c, the
    word u on the sites kept, and the identity placements fill n - |u|
    free sites with |c| - |u| ordered distinct picks.  So

        T[c, u] = y^-|u| n^((|u| - |c|)/2) (n - |u|)! / (n - |c|)!
                  prod_t C(c_t, u_t) a_t^(c_t - u_t),

    zero unless u is a sub-multiset of c.  The binomials are summed, not
    computed: each subset of c's letter positions is one entry of
    `_sub_words`, u found in the `letter_multisets` table.  T reads only y,
    n and the traces, no letter kernel.
    """
    index, degree, kept, dropped = _sub_words(len(traces), top)
    shift = np.append((1.0 - 1.0 / y) * np.asarray(traces, dtype=float), 1.0)
    # n^{-j/2} n! / (n - j)!, so that ratio[j, i] holds the degree factors
    scaled = np.cumprod(np.append(1.0, (n - np.arange(top)) / math.sqrt(n)))
    ratio = np.outer(scaled, 1.0 / scaled) * float(y) ** -np.arange(top + 1)
    coef = ratio[degree, kept] * np.prod(shift[dropped], axis=1)
    size = math.comb(len(traces) + top, top)
    return np.bincount(index, coef, size * size).reshape(size, size)


def symmetric_sector_dense_spectrum(
    system: QuditSystem,
    state: DensityMatrix,
    y: float,
    k: int,
) -> ContractionSpectrum:
    """Dense reference spectrum on the symmetric k-local sector.

    The chain is in the product of identical site states rho_1 = U diag(mu)
    U^dagger, and only mu is read from `state`: the site state rho_1
    itself (dimension d), or its n-fold product (dimension d^n), which
    `identical_site_state` checks and reduces to rho_1; ValueError, before
    any reshape, for a state of any other dimension.  Everything is
    computed in the site eigenframe U^{(x)n}: there the state is
    diag(mu)^{(x)n}, the zero-mean letters are the Gell-Mann letters
    g - (mu . diag g) 1 (`zero_mean_letters`), and the coarse graining is
    unchanged, because sitewise depolarizing is unitarily covariant and
    permutation averaging commutes with U^{(x)n}.

    The words are permutation symmetric, so they are held in orbit
    coordinates (`operators.symmetric_word_values`), on the word-support
    orbits of `operators.orbit_counts` off which every word of degree <= k
    vanishes: fewer values than dim^2 entries or C(n + d^2 - 1, n) orbits.
    A trace against a diagonal product state is a weighted sum over orbits,
    Re tr(rho A^dagger B) = Re sum_o
    |o| prod_l mu_{b(l)}^{n_l} conj(A_o) B_o, with b(l) the column of label
    l.  The coarse state is diag(D(diag mu))^{(x)n} for the site
    depolarizing D, and the Heisenberg image of a symmetric word under the
    coarse graining is the word of the image letters D^dagger(f_t): the
    permutation average fixes it, the depolarizing acts site by site,
    and D is unital, so D^dagger(1) = 1 on the other sites.  Since
    D^dagger(f_t) is f_t / y plus a multiple of the identity, each image is
    a fixed combination of the words of lower or equal degree, images =
    T @ values with the lower-triangular T of `_image_matrix`, so the
    words are built once and the pairing Re sum_o |o| prod_l
    mu_{b(l)}^{n_l} conj(E_o) (T F)_o is the fine Gram times T^T.  No
    dense word, channel apply or letter kernel is formed, so this route
    stays independent of the closed form it checks.  `out_space` and
    `in_space` hold orbit coordinates (see `GnsSpace`).

    Both sides whiten the full word family, each at its own state: the
    eigenvalue cut quotients the null and dependent directions of each
    Gram, so no word is dropped beforehand.  DimensionBudgetError, before
    any word or product check is built, if the arrays would not fit.
    """
    d, n = system.d, system.n
    if state.dim not in (d, system.dim):
        raise ValueError(f"state of dimension {state.dim} is neither the site's (d={d}) nor the chain's (d**n={d**n})")
    check_dense_sector_budget(system, k)
    top = min(k, n)
    words = symmetric_words(d * d - 1, top)
    mu, _ = (state if state.dim == d else identical_site_state(state, system)).eigensystem()
    letters = zero_mean_letters(mu)
    fine_site = DensityMatrix(np.diag(mu), check=False)
    coarse_site = DensityMatrix(DepolarizingChannel(y, QuditSystem(d, 1)).apply(fine_site.matrix), check=False)
    values = _hermitian_word_values(words, letters, n)
    counts = orbit_counts(d, n, k)
    gram = real_overlaps(values, values * _orbit_weights(counts, mu))
    coarse_gram = real_overlaps(values, values * _orbit_weights(counts, np.diagonal(coarse_site.matrix).real))
    fine = GnsSpace(fine_site, values, whiten_psd(gram)[0])
    coarse = GnsSpace(coarse_site, values, whiten_psd(coarse_gram)[0])
    # B[a, b] = Re tr(rho E_a^dagger N^dagger(F_b)) = sum_u T[b, u] gram[a, u]
    traces = np.trace(letters, axis1=1, axis2=2).real / d
    return _contraction_between(fine, coarse, gram @ _image_matrix(traces, y, n, top).T)
