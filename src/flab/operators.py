"""Dense operator algebra for finite spin systems.

Everything here works with explicit complex matrices on n qudits of local
dimension d: states, traceless single-site letter bases, and the
permutation-symmetric letter words whose contraction spectra the rest of
the package computes.  The words are built in orbit
coordinates, one value per orbit of the site permutations on matrix
entries, and gathered into (m, dim, dim) stacks where dense matrices are
wanted.
"""

from __future__ import annotations

import functools
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
# relative eigenvalue (or residual) cut below which a Gram direction is null
NULL_THRESHOLD = 1e-10
DEFAULT_MAX_DIM = 2**14
# resident growth of a first run beyond its arrays (BLAS code and buffers,
# numpy.random's lazy import), measured with numpy 2.4: 8.5-10.4 MiB for
# `flab lattice`, 3.5-9.5 MiB for the bound check
FIRST_RUN_BYTES = 12 * 2**20
# coefficient entries per block of random draws; only bounds the size of
# transient arrays
DRAW_CHUNK_ENTRIES = 2**16


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


def _half_even(value: int, bits: int) -> int:
    """value / 2**bits rounded to an integer, halves to even."""
    quotient, rest = divmod(value, 1 << bits)
    return quotient + (2 * rest > 1 << bits or (2 * rest == 1 << bits and quotient % 2))


def _format_bytes(nbytes: int) -> str:
    """Bytes below 1 MiB, else MiB as a float quotient would print them
    (the 53-bit float, then halves to even), in integer arithmetic, so an
    estimate past the float range formats too."""
    if nbytes < 2**20:
        return f"{nbytes} bytes"
    spare = max(nbytes.bit_length() - 53, 0)
    return f"{_half_even(_half_even(nbytes, spare) << spare, 20)} MiB"


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
        # d**n >= 2**n > budget once n reaches its bit length: no power taken
        if self.n >= budget.bit_length() or self.d**self.n > budget:
            raise DimensionBudgetError(
                f"dense dimension {self.d}**{self.n} exceeds budget {budget}; "
                "set FLAB_MAX_DIM to override"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n


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

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _fix_column_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry (the first of
    equal ones) is real positive; all-zero columns are left as they are."""
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :], axis=-2)
    # hypot is what abs() of one complex scalar computes; np.abs of an
    # array can differ from it in the last bit
    modulus = np.hypot(pivot.real, pivot.imag)
    return np.where(modulus > 0, vecs * (modulus / np.where(modulus > 0, pivot, 1.0)), vecs)


def pure_state_density(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector cannot define a state")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), check=False)


def basis_pure_density(d: int) -> DensityMatrix:
    """The pure ground state |0><0| of one qudit."""
    return pure_state_density(np.eye(d)[0])


def product_density(state_1site: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold tensor power of a single-site state, one broadcast outer
    product site (x) mat per site: the products np.kron(site, mat) forms,
    without its overhead.  The growing factor takes the inner axes, so
    each broadcast runs along its long rows rather than the site's d."""
    site = state_1site.matrix
    mat = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        mat = (site[:, None, :, None] * mat[None, :, None, :]).reshape(len(site) * len(mat), -1)
    return DensityMatrix(mat, check=False)


def identical_site_state(state: DensityMatrix, system: QuditSystem) -> DensityMatrix:
    """The common site marginal of a product state with identical sites.

    The first site's marginal (one partial trace) is compared once with
    the state as its n-fold product, block by block: one block of the later
    sites' product per entry of the first sites' (two for qubits, one
    otherwise), so few blocks are visited and none exceeds dim^2 / d^2
    entries.  DimensionBudgetError before the check builds anything if its
    arrays, 48 bytes per dim^2 / d^2 entries, would not fit (the state is
    the caller's); then ValueError, before any reshape, if the state is not
    of dimension d**n.  NumericalError naming the deviation if it exceeds
    PRODUCT_STATE_TOL: the state is not a product, or its sites differ.
    """
    d, n, rest = system.d, system.n, system.d ** (system.n - 1)
    check_byte_budget(f"product check at d={d}, n={n}", {f"later sites and a block ({rest}-square)": 48 * rest**2})
    if state.dim != system.dim:
        raise ValueError(f"state of dimension {state.dim} is not a chain state (d={d}, d**n={system.dim})")
    site = DensityMatrix(np.trace(state.matrix.reshape(d, rest, d, rest), axis1=1, axis2=3), check=False)
    first = min(n, 2) if d == 2 else 1
    others = product_density(site, n - first).matrix
    blocks = state.matrix.reshape(d**first, len(others), d**first, len(others))
    block, dev = np.empty_like(others), 0.0
    for (i, j), value in np.ndenumerate(product_density(site, first).matrix):
        np.multiply(others, value, out=block)
        block -= blocks[i, :, j]
        dev = max(dev, float(np.max(np.abs(block))))
    if dev > PRODUCT_STATE_TOL:
        raise NumericalError(f"state is not a product of identical site states (deviation {dev:.3e})")
    return site


@functools.lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> np.ndarray:
    """Traceless hermitian basis with tr(g_a g_b) = 2 delta_ab, as one
    read-only (d*d - 1, d, d) stack shared by every caller.

    Order: for each index pair j<k (lexicographic) the symmetric then the
    antisymmetric matrix, followed by the d-1 diagonal matrices.  For d=2
    this is [tau_1, tau_2, tau_3].
    """
    if d < 2:
        raise ValueError("need d >= 2")
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    for a, (j, k) in enumerate(itertools.combinations(range(d), 2)):
        basis[2 * a, [j, k], [k, j]] = 1.0
        basis[2 * a + 1, [j, k], [k, j]] = -1j, 1j
    for l in range(1, d):
        basis[d * (d - 1) + l - 1] = np.diag([1.0] * l + [-l] + [0.0] * (d - 1 - l)) * math.sqrt(2.0 / (l * (l + 1)))
    basis.flags.writeable = False
    return basis


def zero_mean_letters(mu) -> np.ndarray:
    """Gell-Mann letters shifted to zero mean at the diagonal state diag(mu).

    Each letter is g - (mu . diag g) 1: the site letters written in the
    eigenframe of a site state with eigenvalues mu.
    """
    mu = np.asarray(mu, dtype=float)
    letters = gell_mann_basis(mu.size)
    # one dot per strided diagonal: a stacked product rounds some means
    # differently at d >= 3
    means = np.array([mu @ np.diagonal(g).real for g in letters])
    return letters - means[:, None, None] * np.eye(mu.size)


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


def _orbit_rank(prefix_sums, n: int, labels: int):
    """Orbit order of multisets of at most n joint labels out of `labels`.

    A multiset with counts n_0, ..., n_{labels-1} has prefix sums S_j = n_0 +
    ... + n_j.  The numbers S_j + j (j < labels - 1) increase strictly, so
    they are a combination, and the multisets of each size i are ranked by
    the colexicographic rank of that combination, sum_j C(S_j + j, j + 1): a
    bijection onto range(C(i + labels - 1, i)) with no key to overflow.
    prefix_sums yields the arrays S_0, ..., S_{labels-2}, all of one shape.
    """
    binom = np.array(
        [[math.comb(p, j) for j in range(labels)] for p in range(n + labels - 1)], dtype=np.int64
    )
    return sum(binom[s + j, j + 1] for j, s in enumerate(prefix_sums))


def _count_rank(counts: np.ndarray, n: int) -> np.ndarray:
    """`_orbit_rank` of multisets given as (rows, labels) site counts."""
    return _orbit_rank(np.cumsum(counts[:, :-1], axis=1).T, n, counts.shape[1])


@functools.lru_cache(maxsize=4)
def _orbit_levels(d: int, n: int, top: int):
    """Multisets of 1, ..., n joint labels with at most `top` off-diagonal
    labels (r != c), grown one label at a time.

    Each multiset of i labels is its parent, a multiset of i - 1 labels
    with no more off-diagonal ones, plus one copy of its largest label.
    Returns the (orbits, labels) site counts of the kept multisets of n
    labels, their `_orbit_rank`s among all multisets of n labels and, per
    size i, the parent index and added label of each kept multiset of i
    labels, all in orbit order.  Cached, so the arrays are read-only.
    """
    labels = d * d
    off_diagonal = np.arange(labels) % (d + 1) != 0
    counts = np.zeros((1, labels), dtype=np.int64)
    # largest label (the empty multiset takes any) and off-diagonal count
    largest, off = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    levels = []
    for _ in range(n):
        parent, label = np.nonzero(np.arange(labels) >= largest[:, None])
        grown = off[parent] + off_diagonal[label]
        kept = grown <= top
        parent, label, off = parent[kept], label[kept], grown[kept]
        counts = counts[parent]
        counts[np.arange(len(counts)), label] += 1
        ranks = _count_rank(counts, n)
        order = np.argsort(ranks)
        parent, largest, off, counts, ranks = parent[order], label[order], off[order], counts[order], ranks[order]
        levels.append((parent, largest))
    for array in (counts, ranks, *itertools.chain.from_iterable(levels)):
        array.flags.writeable = False
    return counts, ranks, levels


def orbit_counts(d: int, n: int, top: int) -> np.ndarray:
    """Site counts of each joint (row, column) label l = r d + c, one row
    per word-support orbit of the site permutations on the entries of a
    d^n-dimensional matrix.

    Permuting sites moves an entry along with the joint labels (r_i, c_i)
    of its sites, so an orbit is a multiset of n labels out of d^2, one of
    C(n + d^2 - 1, n).  A word of degree j vanishes on every orbit with
    more than j off-diagonal labels (`symmetric_word_values`), so only the
    sum_{m <= top} C(n - m + d - 1, d - 1) C(m + d^2 - d - 1, m) orbits
    with at most `top` of them are listed, in orbit order, the order of
    `symmetric_word_values`.  The array is cached and read-only.
    """
    return _orbit_levels(d, n, min(top, n))[0]


def entry_orbits(d: int, n: int) -> np.ndarray:
    """Orbit of every entry of a dense d^n-dimensional matrix, flattened
    row-major, as its index among all orbits (a row of
    `orbit_counts(d, n, n)`).

    The site counts of the entries are never held: their prefix sums are
    accumulated label by label and ranked on the fly.
    """
    dim, labels = d**n, d * d
    idx = np.arange(dim)
    digits = [(idx // d ** (n - 1 - i)) % d for i in range(n)]

    def prefix_sums():
        total = np.zeros((dim, dim), dtype=np.int64)
        for label in range(labels - 1):
            row, col = divmod(label, d)
            for site in digits:
                total += np.outer(site == row, site == col)
            yield total

    return _orbit_rank(prefix_sums(), n, labels).ravel()


def symmetric_word_values(words, letters, n: int) -> np.ndarray:
    """`symmetric_word_operator` of each word on the orbits of
    `orbit_counts(d, n, top)`, top the largest word degree, as (m, orbits)
    rows.

    A symmetric word is constant on orbits.  On an orbit with n_l sites of
    joint label l = (a, b), the word with letter multiset c takes the value

        prod_t c_t! n^{-|c|/2} [x^c] prod_l (delta_l + sum_t x_t (f_t)_l)^{n_l},

    the sum over placements of its letters on distinct sites, with the
    identity (delta_l = 1 on diagonal labels) on the other sites.  So each
    off-diagonal site takes a letter, and a word vanishes, whatever its
    letters, on the orbits with more such sites than its degree.  The
    polynomial, truncated at the words' top degree, its monomials indexed by
    `letter_multisets`, is multiplied up one site factor at a time along
    `_orbit_levels`, so no dense entry is ever formed.
    """
    words = [tuple(sorted(w)) for w in words]
    letters = np.asarray(letters, dtype=complex)
    n_letters, d = len(letters), letters.shape[-1]
    top = max(len(w) for w in words)
    if top > n:
        raise ValueError(f"word length {top} exceeds site count {n}")
    index, source, lead, multiplicity = _monomial_tables(n_letters, top)
    width = source.shape[1]
    entries = np.concatenate([letters.reshape(n_letters, d * d), np.zeros((1, d * d))])
    # one (labels, monomials) site factor per slot
    site = entries[lead].transpose(1, 2, 0)
    identity = np.eye(d).reshape(d * d)
    poly = np.zeros((1, len(index)), dtype=complex)
    poly[0, 0] = 1.0
    for parent, label in _orbit_levels(d, n, top)[2]:
        prev = poly[parent]
        # slot by slot, in place: a sum over a short last axis is ten times slower
        slots = prev[:, source[:, 0]] * site[0][label]
        for r in range(1, width):
            slots += prev[:, source[:, r]] * site[r][label]
        poly = identity[label, None] * prev + slots
    columns = [index[w] for w in words]
    roots = [n ** (j / 2) for j in range(top + 1)]
    scale = [multiplicity[i] / roots[len(w)] for i, w in zip(columns, words)]
    return poly[:, columns].T * np.array(scale)[:, None]


@functools.lru_cache(maxsize=8)
def _monomial_tables(n_letters: int, top: int):
    """The recurrence of `symmetric_word_values` over the monomials of
    `symmetric_words(n_letters, top)`: their index by letter multiset, and
    (monomials, max(top, 1)) tables by which monomial i is monomial
    source[i, r] times x_t for each distinct letter t = lead[i, r] of it,
    ascending (unused slots take the zero row n_letters past the letters),
    and each monomial's prod_t c_t!, all read from `letter_multisets`.
    Cached, so the arrays are read-only and the index must not be modified.
    """
    counts, below, _ = letter_multisets(n_letters, top)
    index = {w: i for i, w in enumerate(symmetric_words(n_letters, top))}
    mono, letter = np.nonzero(counts)
    slot = np.cumsum(counts > 0, axis=1)[mono, letter] - 1
    source = np.zeros((len(counts), max(top, 1)), dtype=np.intp)
    lead = np.full(source.shape, n_letters)
    source[mono, slot], lead[mono, slot] = below[mono, letter], letter
    factorials = np.array([math.factorial(c) for c in range(top + 1)])
    multiplicity = np.prod(factorials[counts], axis=1)
    source.flags.writeable = lead.flags.writeable = multiplicity.flags.writeable = False
    return index, source, lead, multiplicity


def symmetric_word_operator(word, basis_ops, system: QuditSystem) -> np.ndarray:
    """Scaled sum over distinct-site placements of a letter word.

    word indexes into basis_ops; the result is n^{-j/2} times the sum over
    ordered tuples of j distinct sites of the embedded product.  Since the
    letters commute across sites only the multiset of letters matters.  The
    matrix is gathered from the word's orbit values (`symmetric_word_values`,
    `dense_from_orbits`).
    """
    values = symmetric_word_values([word], basis_ops, system.n)
    return dense_from_orbits(values, system.d, system.n, len(word))[0]


def dense_from_orbits(values: np.ndarray, d: int, n: int, top: int) -> np.ndarray:
    """(m, d^n, d^n) dense matrices of (m, orbits) values on the orbits of
    `orbit_counts(d, n, top)`: scattered to all orbits at their ranks, zero
    on the others, and gathered through each entry's `entry_orbits`."""
    _, ranks, _ = _orbit_levels(d, n, min(top, n))
    full = np.zeros((len(values), math.comb(n + d * d - 1, n)), dtype=complex)
    full[:, ranks] = values
    return full[:, entry_orbits(d, n)].reshape(len(values), d**n, d**n)


def symmetric_words(n_letters: int, max_degree: int) -> list[tuple[int, ...]]:
    """Sorted letter multisets up to the given degree, shortest first."""
    words: list[tuple[int, ...]] = [()]
    for degree in range(1, max_degree + 1):
        words.extend(itertools.combinations_with_replacement(range(n_letters), degree))
    return words


@functools.lru_cache(maxsize=16)
def letter_multisets(n_letters: int, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one index of the letter multisets of `symmetric_words(n_letters,
    top)`, in that order: counts[u, b], the multiplicity of letter b in u;
    below[u, b], the index of u minus one b (if b is not in u, of the first
    multiset one degree down; 0 for the empty multiset); and start, the
    index of the first multiset of each degree 0, ..., top + 1.  Cached, so
    the arrays are read-only.
    """
    # degree j grows from j - 1 by a letter t no smaller than the largest, in
    # lexicographic order; for b != t, u - b = (u - t - b) + t is a key of j - 1
    counts, below = [np.zeros((1, n_letters), dtype=np.int64)], [np.zeros((1, n_letters), dtype=np.intp)]
    largest = keys = np.zeros(1, dtype=np.intp)
    for _ in range(top):
        parent, label = np.nonzero(np.arange(n_letters) >= largest[:, None])
        rows = np.arange(len(parent))
        level = counts[-1][parent]
        level[rows, label] += 1
        lower = np.searchsorted(keys, below[-1][parent] * n_letters + label[:, None])
        lower[rows, label] = parent
        counts.append(level)
        below.append(np.where(level > 0, lower, 0))
        largest, keys = label, parent * n_letters + label
    start = np.cumsum([0] + [len(level) for level in counts])
    counts, below = np.concatenate(counts), np.concatenate([b + s for b, s in zip(below, [0, *start[:-2]])])
    counts.flags.writeable = below.flags.writeable = start.flags.writeable = False
    return counts, below, start


def word_label(word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    return "*".join(f"f{a}" for a in word)


def _check_hermitian(values: np.ndarray, transposed: np.ndarray, label) -> None:
    """NumericalError naming, by label(index), the first member of a family
    that is not hermitian: whose values differ from the conjugates of
    `transposed`, its values at the transposed positions."""
    axes = tuple(range(1, np.ndim(values)))
    dev = np.max(np.abs(values - np.conj(transposed)), axis=axes)
    bad = np.flatnonzero(dev > HERMITIAN_BASIS_TOL * np.maximum(1.0, np.max(np.abs(values), axis=axes)))
    if bad.size:
        raise NumericalError(f"basis element {label(bad[0])} is not hermitian (deviation {dev[bad[0]]:.3e})")


def _hermitian_word_values(words, letters, n: int) -> np.ndarray:
    """`symmetric_word_values` of a word family that must be hermitian: a
    word's value on each orbit is conjugate to its value on the orbit of
    the transposed entries."""
    values = symmetric_word_values(words, letters, n)
    d = np.shape(letters)[-1]
    # transposing keeps the off-diagonal count, so transposed orbits are listed
    counts, ranks, _ = _orbit_levels(d, n, max(map(len, words)))
    label = np.arange(d * d)
    transposed = np.searchsorted(ranks, _count_rank(counts[:, label % d * d + label // d], n))
    _check_hermitian(values, values[:, transposed], lambda i: word_label(words[i]))
    return values


def symmetric_klocal_basis(
    k: int,
    system: QuditSystem,
    state: DensityMatrix,
    prune: bool = True,
    null_threshold: float = NULL_THRESHOLD,
) -> np.ndarray:
    """Permutation-symmetric words of degree <= k over the zero-mean basis.

    Returned as one (m, dim, dim) stack in `symmetric_words` order, gathered
    from the words' orbit values; the degree-0 word is the identity.  With
    prune=True, words that are numerically null or linearly dependent in
    the state's GNS inner product are removed by greedy pivoting on the
    Gram matrix.
    """
    site_basis = single_site_zero_mean_basis(identical_site_state(state, system))
    words = [w for w in symmetric_words(system.d**2 - 1, k) if len(w) <= system.n]
    values = _hermitian_word_values(words, site_basis, system.n)
    stack = dense_from_orbits(values, system.d, system.n, k)
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
    scale = max(float(np.real(np.diag(gram)).max()), 1e-300)
    residual = gram.copy()
    active = np.ones(len(gram), dtype=bool)
    while active.any():
        rd = np.real(np.diag(residual))
        # argmax takes the first of equal maxima, the lowest index
        i = int(np.argmax(np.where(active, rd, -np.inf)))
        if rd[i] <= threshold * scale:
            break
        active[i] = False
        update = np.outer(residual[:, i], residual[:, i].conj())
        update /= rd[i]
        residual -= update
    return np.flatnonzero(~active).tolist()
