"""Dense operator algebra for finite spin systems.

Everything here works with explicit complex matrices on n qudits of local
dimension d: states, traceless single-site letter bases, site
permutations, and the permutation-symmetric letter words whose contraction
spectra the rest of the package computes, built as one (m, dim, dim) stack.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionBudgetError, NumericalError

HERMITIAN_BASIS_TOL = 1e-10
STATE_TRACE_TOL = 1e-12
STATE_EIG_FLOOR = -1e-12
PRODUCT_STATE_TOL = 1e-10
PRUNE_THRESHOLD = 1e-10
DEFAULT_MAX_DIM = 2**14
# resident growth of a first run beyond its arrays (BLAS code and buffers,
# numpy.random's lazy import), measured with numpy 2.4: 8.5-10.4 MiB for
# `flab lattice`, 2.5-6 MiB for the bound check
FIRST_RUN_BYTES = 12 * 2**20


def dense_dim_budget() -> int:
    """Largest Hilbert-space dimension allowed for dense work.

    Reads the FLAB_MAX_DIM environment variable on every call so the limit
    can be raised for a single run without code changes.
    """
    raw = os.environ.get("FLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise DimensionBudgetError(f"FLAB_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 2:
        raise DimensionBudgetError(f"FLAB_MAX_DIM must be >= 2, got {value}")
    return value


def _format_bytes(nbytes: int) -> str:
    return f"{nbytes} bytes" if nbytes < 2**20 else f"{nbytes / 2**20:.0f} MiB"


def check_byte_budget(what: str, parts: dict[str, int]) -> None:
    """Refuse work before allocating it if its parts (name -> bytes) exceed
    one dense complex matrix of the FLAB_MAX_DIM dimension."""
    budget, total = dense_dim_budget(), sum(parts.values())
    if total > 16 * budget**2:
        detail = ", ".join(f"{name} {_format_bytes(size)}" for name, size in parts.items())
        raise DimensionBudgetError(
            f"{what} needs an estimated {_format_bytes(total)} ({detail}), over the "
            f"{_format_bytes(16 * budget**2)} of a dense {budget}-dimensional operator; "
            "set FLAB_MAX_DIM to override"
        )


@dataclass(frozen=True)
class QuditSystem:
    """n qudits of local dimension d, with a dense-dimension budget check."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"site count must be >= 1, got {self.n}")
        budget = dense_dim_budget()
        if self.d**self.n > budget:
            raise DimensionBudgetError(
                f"dense dimension {self.d}**{self.n} exceeds budget {budget}; "
                "set FLAB_MAX_DIM to override"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    def site_dims(self) -> tuple[int, ...]:
        return (self.d,) * self.n


def as_matrix(x) -> np.ndarray:
    """Accept a DensityMatrix or plain array; return ndarray."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    return np.asarray(x, dtype=complex)


class DensityMatrix:
    """Validated density matrix with cached eigendecomposition."""

    def __init__(self, matrix, check: bool = True):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if check:
            herm_dev = np.max(np.abs(mat - mat.conj().T))
            if herm_dev > STATE_TRACE_TOL * max(1.0, float(np.max(np.abs(mat)))):
                raise NumericalError(f"density matrix not hermitian: deviation {herm_dev:.3e}")
            mat = 0.5 * (mat + mat.conj().T)
            tr = np.trace(mat).real
            if abs(tr - 1.0) > STATE_TRACE_TOL:
                raise NumericalError(f"density matrix trace {tr} differs from 1")
            eigs = np.linalg.eigvalsh(mat)
            if eigs.min() < STATE_EIG_FLOOR:
                raise NumericalError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        self.matrix = mat
        self._eig = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (descending) and matching eigenvector columns."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            order = np.argsort(vals)[::-1]
            self._eig = (vals[order], _fix_column_phases(vecs[:, order]))
        return self._eig

    def expectation(self, op) -> float:
        return float(np.trace(self.matrix @ as_matrix(op)).real)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _fix_column_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def pure_state_density(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector cannot define a state")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), check=False)


def basis_pure_density(d: int, level: int = 0) -> DensityMatrix:
    vec = np.zeros(d)
    vec[level] = 1.0
    return pure_state_density(vec)


def maximally_mixed_density(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d) / d, check=False)


def product_density(state_1site: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold tensor power of a single-site state."""
    mat = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        mat = np.kron(mat, state_1site.matrix)
    return DensityMatrix(mat, check=False)


def reduced_density(matrix, system: QuditSystem, keep_sites) -> np.ndarray:
    """Partial trace keeping the listed sites (ascending order)."""
    keep = sorted(keep_sites)
    d, n = system.d, system.n
    tens = as_matrix(matrix).reshape((d,) * (2 * n))
    drop = [i for i in range(n) if i not in keep]
    for offset, site in enumerate(drop):
        # row axis of the partially traced tensor for this site, and its column twin
        ax = site - sum(1 for s in drop[:offset] if s < site)
        n_left = n - offset
        tens = np.trace(tens, axis1=ax, axis2=ax + n_left)
    k = len(keep)
    return tens.reshape(d**k, d**k)


def factor_product_state(state: DensityMatrix, system: QuditSystem) -> list[DensityMatrix]:
    """Split a product state into site marginals; reject correlated states."""
    marginals = [DensityMatrix(reduced_density(state, system, [i]), check=False) for i in range(system.n)]
    rebuilt = np.array([[1.0]], dtype=complex)
    for m in marginals:
        rebuilt = np.kron(rebuilt, m.matrix)
    dev = np.max(np.abs(rebuilt - state.matrix))
    if dev > PRODUCT_STATE_TOL:
        raise NumericalError(
            f"state is not a product over sites: reconstruction deviation {dev:.3e}"
        )
    return marginals


def identical_site_state(state: DensityMatrix, system: QuditSystem) -> DensityMatrix:
    """The common site marginal of a product state with identical sites.

    NumericalError if the state is not a product over sites or if its site
    marginals differ.
    """
    marginals = factor_product_state(state, system)
    first = marginals[0].matrix
    for m in marginals[1:]:
        if np.max(np.abs(m.matrix - first)) > PRODUCT_STATE_TOL:
            raise NumericalError("symmetric words need identical site marginals")
    return marginals[0]


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Traceless hermitian basis with tr(g_a g_b) = 2 delta_ab.

    Order: for each index pair j<k (lexicographic) the symmetric then the
    antisymmetric matrix, followed by the d-1 diagonal matrices.  For d=2
    this is [tau_1, tau_2, tau_3].
    """
    if d < 2:
        raise ValueError("need d >= 2")
    basis = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            antisym = np.zeros((d, d), dtype=complex)
            antisym[j, k] = -1j
            antisym[k, j] = 1j
            basis.append(antisym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        basis.append(diag * math.sqrt(2.0 / (l * (l + 1))))
    return basis


def zero_mean_letters(mu) -> list[np.ndarray]:
    """Gell-Mann letters shifted to zero mean at the diagonal state diag(mu).

    Each letter is g - (mu . diag g) 1: the site letters written in the
    eigenframe of a site state with eigenvalues mu.
    """
    mu = np.asarray(mu, dtype=float)
    return [g - float(mu @ np.diagonal(g).real) * np.eye(mu.size) for g in gell_mann_basis(mu.size)]


def single_site_zero_mean_basis(state: DensityMatrix) -> list[np.ndarray]:
    """Traceless basis rotated to the state's eigenbasis, shifted to zero mean.

    Rotating aligns the basis with the state's spectral data, so null
    directions at pure states land on single basis elements (for a pure
    qubit: tau_1, tau_2, tau_3 - 1).  The shift subtracts the expectation,
    making every element average to zero in the given state.  These are the
    `zero_mean_letters` of the state's eigenvalues, rotated by its
    eigenvectors.
    """
    vals, vecs = state.eigensystem()
    return [vecs @ f @ vecs.conj().T for f in zero_mean_letters(vals)]


def kron_apply(mat: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """mat^{(x)k} @ x as k mode products on a (cols, ..., cols, x-cols) reshape.

    Each factor is one GEMM against its own tensor axis, so no (rows^k,
    cols^k) array is built.
    """
    rows, cols = mat.shape
    out = x.reshape((cols,) * k + (x.shape[1],))
    for axis in range(k):
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [axis])), 0, axis)
    return out.reshape(rows**k, x.shape[1])


def permute_sites(matrix, perm, system: QuditSystem) -> np.ndarray:
    """Conjugation U_perm X U_perm^dagger without building the unitary."""
    perm = tuple(perm)
    n = system.n
    tens = as_matrix(matrix).reshape(system.site_dims() * 2)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    axes = inv + [n + i for i in inv]
    return np.transpose(tens, axes).reshape(system.dim, system.dim)


def _distinct_site_sum(word: tuple, letters, system: QuditSystem) -> np.ndarray:
    """Sum over ordered tuples of distinct sites of the embedded letter product.

    Built site by site over the multiset of the word: partial[c] is the sum
    over placements, on the sites seen so far, of the letter copies counted
    by c (copies of one letter placed in increasing site order).  Each new
    site takes the identity or one more copy of some letter, so the cost is
    one kron per state and transition instead of an n-fold kron tower per
    placement.  Ordering the copies of each letter in every way multiplies
    the unordered sum by prod_t m_t!.
    """
    distinct = sorted(set(word))
    ops = [as_matrix(letters[t]) for t in distinct]
    mult = tuple(word.count(t) for t in distinct)
    eye = np.eye(system.d, dtype=complex)
    partial = {(0,) * len(distinct): np.ones((1, 1), dtype=complex)}
    for site in range(system.n):
        # placements that can no longer be completed on the sites left are dropped
        need = len(word) - (system.n - 1 - site)
        nxt: dict[tuple, np.ndarray] = {}
        for counts, mat in partial.items():
            steps = [(counts, eye)] + [
                (counts[:t] + (c + 1,) + counts[t + 1 :], ops[t])
                for t, c in enumerate(counts)
                if c < mult[t]
            ]
            for target, op in steps:
                if sum(target) >= need:
                    nxt[target] = nxt.get(target, 0) + np.kron(mat, op)
        partial = nxt
    return partial[mult] * math.prod(math.factorial(m) for m in mult)


def symmetric_word_operator(word, basis_ops, system: QuditSystem) -> np.ndarray:
    """Scaled sum over distinct-site placements of a letter word.

    word indexes into basis_ops; the result is n^{-j/2} times the sum over
    ordered tuples of j distinct sites of the embedded product.  Since the
    letters commute across sites only the multiset of letters matters; the
    sorted tuple is the canonical form.
    """
    word = tuple(word)
    if len(word) > system.n:
        raise ValueError(f"word length {len(word)} exceeds site count {system.n}")
    raw = _distinct_site_sum(word, basis_ops, system)
    return raw / system.n ** (len(word) / 2.0)


def symmetric_words(n_letters: int, max_degree: int) -> list[tuple[int, ...]]:
    """Sorted letter multisets up to the given degree, shortest first."""
    words: list[tuple[int, ...]] = [()]
    for degree in range(1, max_degree + 1):
        words.extend(itertools.combinations_with_replacement(range(n_letters), degree))
    return words


def word_label(word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    return "*".join(f"f{a}" for a in word)


def _check_hermitian(stack: np.ndarray, labels) -> None:
    """NumericalError naming the first member of the family that is not hermitian."""
    for mat, label in zip(stack, labels):
        dev = np.max(np.abs(mat - mat.conj().T))
        if dev > HERMITIAN_BASIS_TOL * max(1.0, float(np.max(np.abs(mat)))):
            raise NumericalError(f"basis element {label} is not hermitian (deviation {dev:.3e})")


def _word_stack(words, letters, system: QuditSystem) -> np.ndarray:
    """The words' `symmetric_word_operator` matrices as one hermitian-checked
    (m, dim, dim) stack, filled in place so the family is held only once."""
    stack = np.empty((len(words), system.dim, system.dim), dtype=complex)
    for mat, word in zip(stack, words):
        mat[...] = symmetric_word_operator(word, letters, system)
    _check_hermitian(stack, [word_label(w) for w in words])
    return stack


def symmetric_klocal_basis(
    k: int,
    system: QuditSystem,
    state: DensityMatrix,
    prune: bool = True,
    null_threshold: float = PRUNE_THRESHOLD,
) -> np.ndarray:
    """Permutation-symmetric words of degree <= k over the zero-mean basis.

    Returned as one (m, dim, dim) stack in `symmetric_words` order; the
    degree-0 word is the identity.  With prune=True, words that are
    numerically null or linearly dependent in the state's GNS inner product
    are removed by greedy pivoting on the Gram matrix.
    """
    site_basis = single_site_zero_mean_basis(identical_site_state(state, system))
    words = [w for w in symmetric_words(system.d**2 - 1, k) if len(w) <= system.n]
    stack = _word_stack(words, site_basis, system)
    if prune and len(stack) > 1:
        # the real span is what the contraction spectra act on, so
        # dependence is judged on the real part of the GNS Gram
        stack = stack[_greedy_gram_prune(gns_gram(state, stack), null_threshold)]
    return stack


def state_product(mats: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """mats @ rho for one matrix or a stack of them.

    A state with no nonzero off-diagonal entry (a product state in its site
    eigenframe, and its coarse graining) only scales columns, so the dim^3
    product becomes dim^2 multiplications.
    """
    diag = np.diagonal(rho)
    if np.count_nonzero(rho) == np.count_nonzero(diag):
        return mats * diag
    return mats @ rho


def real_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_ij conj(a_ij) b_ij between every member of two stacks.

    b is overwritten: it is conjugated in place, so that one complex product
    a b^dagger gives the overlaps without a conjugate copy of either stack.
    """
    np.conjugate(b, out=b)
    return np.real(a.reshape(len(a), -1) @ b.reshape(len(b), -1).T)


def gns_gram(state: DensityMatrix, matrices) -> np.ndarray:
    """gram_{ab} = Re tr(rho A_a^dagger A_b) of a list or stack of matrices."""
    stack = np.asarray(matrices, dtype=complex)
    return real_overlaps(stack, state_product(stack, state.matrix))


def _greedy_gram_prune(gram: np.ndarray, threshold: float) -> list[int]:
    """Indices of a maximal numerically independent subset, by pivoted Gram.

    gram is the real symmetric Gram of the family.  Deterministic: pick the
    largest residual diagonal first, lowest index on ties, until the
    residual falls below threshold relative to the largest original norm.
    """
    diag = np.real(np.diag(gram))
    scale = max(float(diag.max()), 1e-300)
    residual = gram.copy()
    kept: list[int] = []
    active = list(range(len(gram)))
    while active:
        rd = np.real(np.diag(residual))
        i = min(active, key=lambda idx: (-rd[idx], idx))
        if rd[i] <= threshold * scale:
            break
        kept.append(i)
        active.remove(i)
        col = residual[:, i].copy()
        residual = residual - np.outer(col, col.conj()) / rd[i]
    return sorted(kept)
