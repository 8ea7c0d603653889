"""Collective-fluctuation geometry in and near the large-n limit.

A single-site state rho and its zero-mean letter basis generate, for each n,
a family of permutation-symmetric collective observables (scaled sums over
distinct sites of letter products).  Their inner products at the product
state rho^n close over the single-site kernel K_ab = tr(rho f_a^dagger f_b):
a degree-j pair of words has inner product

    c_{n,j} * permanent(K[u, v]),      c_{n,j} = prod_{m<j} (1 - m/n),

different degrees being exactly orthogonal.  As n grows c_{n,j} -> 1 and the
geometry converges, at rate 1/n, to a bosonic (permanent) limit.

Every letter space is built in the eigenframe of the site state, where
rho = diag(mu) and the letters are `zero_mean_letters(mu)`.  Sitewise
depolarizing keeps that frame: its coarse space sits at the eigenvalues
mu/y + (1 - 1/y)/d, and its letter matrix is exactly 1/y
(`depolarizing_fock_setup`).

Coarse-graining channels act letterwise in this picture, so their
contraction spectra reduce to whitened eigenproblems over tensor powers of
K: on all k-letter tuples for the limiting blocks (`fock_block_spectrum`),
and on the symmetric tuples, a diagonal rescaling of the permanent Gram
over the multisets of `operators.letter_multisets`, for the exact finite-n
spectrum on the symmetric k-local sector (`symmetric_sector_spectrum`).
K, K' and the pairing vanish exactly between letter blocks, so each
splits into small problems, one per block sequence or block count
(`_key_contraction`), all set up by `_letter_blocks`.  `beta_bound_test`,
whose letters are set up the same way with the null cut at 0.0 (exactly
null letters only), checks the sector-wise norm bound under sitewise
depolarizing noise on random draws, beside the exact supremum the draws
sample.  The bound check owns its draws: `_bound_grams` builds the
key-block Grams on every support size, and `sampled_norms` measures both
norms of each draw as quadratic forms over them, without forming any
operator.  `klocal_decay_check` reads the exact decay of that supremum in
y under the homogeneous coarse graining from the top of each sector block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionBudgetError, NumericalError
from .geometry import whiten_psd, whitened_contraction
from .operators import (
    DRAW_CHUNK_ENTRIES,
    FIRST_RUN_BYTES,
    NULL_THRESHOLD as NULL_LETTER_THRESHOLD,
    DensityMatrix,
    check_byte_budget,
    dense_dim_budget,
    letter_multisets,
    zero_mean_letters,
)
from .sampling import task_rng

PERMANENT_MAX_SIZE = 8


@dataclass
class SingleParticleSpace:
    """Zero-mean letters at a single-site state, in its eigenframe, with their kernel.

    At a site state with eigenvalues mu the letters are the Gell-Mann
    letters shifted to zero mean, f_a = g_a - (mu . diag g_a) 1
    (`zero_mean_letters`), written in the state's eigenbasis, where the
    state is diag(mu).  There every null direction (letters with f rho = 0)
    lands on individual letters, so rank deficiency can be handled by
    dropping letters.  kernel holds K_ab = tr(rho f_a^dagger f_b),
    hermitian PSD.
    """

    basis: np.ndarray
    kernel: np.ndarray
    letter_names: list[str]

    @classmethod
    def from_eigenvalues(cls, mu, letter_names: list[str] | None = None) -> "SingleParticleSpace":
        """The letters and kernel at the site state diag(mu), DimensionBudgetError
        first if they would not fit.  Eigenvalues within d eps of 0 (relative) and
        letter entries within 2 d eps (a mean of d entries up to sqrt(2)) are the
        roundoff of a rank-deficient state; set to 0, null letters stay null."""
        mu = np.asarray(mu, dtype=float)
        check_letter_setup(mu.size, 1)
        roundoff = mu.size * np.finfo(float).eps
        mu = np.where(np.abs(mu) <= roundoff * mu.max(), 0.0, mu)
        basis = zero_mean_letters(mu)
        basis[np.abs(basis) <= 2 * roundoff] = 0.0
        if letter_names is None:
            letter_names = [f"f{a + 1}" for a in range(len(basis))]
        if len(letter_names) != len(basis):
            raise ValueError("need one name per letter")
        plain, weighted = basis.reshape(len(basis), -1), (basis * mu).reshape(len(basis), -1)
        return cls(basis, plain.conj() @ weighted.T, list(letter_names))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduced(self, threshold: float) -> tuple["SingleParticleSpace", list[int]]:
        """Drop the letters whose kernel diagonal is at or below threshold
        times its largest entry; returns the smaller space and the kept
        indices."""
        diag = np.real(np.diag(self.kernel))
        scale = max(float(diag.max(initial=0.0)), 1e-300)
        kept = [a for a, v in enumerate(diag) if v > threshold * scale]
        sub = SingleParticleSpace(
            basis=self.basis[kept],
            kernel=self.kernel[np.ix_(kept, kept)],
            letter_names=[self.letter_names[a] for a in kept],
        )
        return sub, kept


def check_letter_setup(d: int, spaces: int) -> None:
    """Refuse the letter setup of `spaces` spaces at dimension d if it would
    not fit: per space a kernel and the letter names (60 bytes a name, 128
    with the small arrays), and the stacks alive while the last is built:
    Gell-Mann, each earlier space's letters, zero-mean, weighted, conjugated."""
    r, stacks = d * d - 1, spaces + 3
    parts = {f"{stacks} stacks of {r} letters": 16 * stacks * r * d * d}
    parts[f"{spaces} x {r}-square kernel"] = 16 * spaces * r * r
    parts[f"{spaces} x {r} letter names"] = 128 * spaces * r
    check_byte_budget(f"letter setup at d={d}", parts)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent by direct expansion; intended for small word sizes.

    The j! products run in lexicographic permutation order with factors
    multiplied left to right.
    """
    matrix = np.asarray(matrix)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError(f"permanent needs a square matrix, got {matrix.shape}")
    if size > PERMANENT_MAX_SIZE:
        raise ValueError(f"permanent expansion capped at size {PERMANENT_MAX_SIZE}")
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(size)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod = prod * matrix[i, j]
        total = total + prod
    return total


def distinct_site_factor(n: int, j: int) -> float:
    """c_{n,j} = prod_{m<j} (1 - m/n), the distinct-site counting factor."""
    if j > n:
        raise ValueError(f"word degree {j} exceeds site count {n}")
    out = 1.0
    for m in range(j):
        out *= 1.0 - m / n
    return out


def clt_convergence(sp: SingleParticleSpace, u, v, n_list) -> dict:
    """Convergence of finite-n word inner products to the permanent limit.

    Words of different degree are exactly orthogonal; equal degree j gives
    the limit per(K[u, v]), the permanent of the kernel minor, and at n
    sites c_{n,j} times it.  Returns the finite values, the limit, the
    deviation sequence and its fitted log-log rate in n (None for one size
    or a zero deviation).  For degree-2 words the deviation is (1 - c_{n,2})
    |per| = |per| / n, so the rate is -1; that the deviations never
    increase and the rate is near -1 is judged by `flab clt`.  ValueError
    for an n_list that is not strictly increasing, or for a degree above
    its first n: such words have no distinct-site realization.
    """
    u, v = tuple(u), tuple(v)
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly increasing")
    if n_list and max(len(u), len(v)) > n_list[0]:
        raise ValueError(f"word degree {max(len(u), len(v))} exceeds site count {n_list[0]}")
    if len(u) == len(v):
        limit = permanent(sp.kernel[np.ix_(u, v)])
        finite = [distinct_site_factor(n, len(u)) * limit for n in n_list]
    else:
        limit = 0.0 + 0.0j
        finite = [0.0 + 0.0j] * len(n_list)
    deviations = [abs(f - limit) for f in finite]
    rate = None
    if len(n_list) > 1 and all(dev > 1e-300 for dev in deviations):
        rate = float(np.polyfit(np.log(n_list), np.log(deviations), 1)[0])
    return {
        "n_list": n_list,
        "finite": finite,
        "limit": limit,
        "deviations": deviations,
        "rate": rate,
    }


def _kron_power(mat: np.ndarray, top: int) -> list:
    """R^T mat^{(x)j} C for j = 1, ..., top, R and C the bases |O_u|^{-1/2}
    sum_{t in O_u} e_t of Sym^j, O_u the orderings of a `letter_multisets` u.

    Entry (u, v) is per(mat[u, v]) / (u! v!)^{1/2}, with u! the product of
    the factorials of the multiplicities in u.  Each degree is grown from
    the one below by expanding the permanent along the last letter a of u,
    per(mat[u, v]) = sum_b m_v(b) mat[a, b] per(mat[u - a, v - b]), u - a
    and v - b read from the tables, so no tuple-sized array and no
    permanent is formed.
    """
    (row_counts, row_below, rows), (col_counts, col_below, cols) = (letter_multisets(s, top) for s in mat.shape)
    out = [np.asarray(mat, dtype=complex)]
    for j in range(2, top + 1):
        row, col = slice(rows[j], rows[j + 1]), slice(cols[j], cols[j + 1])
        orbits = np.arange(rows[j + 1] - rows[j])
        last = np.max((row_counts[row] > 0) * np.arange(mat.shape[0]), axis=1, initial=0)
        lower = out[-1][row_below[row][orbits, last] - rows[j - 1]][:, col_below[col] - cols[j - 1]]
        terms = lower * (mat[last][:, None, :] * np.sqrt(col_counts[col]))
        out.append(terms.sum(axis=2) / np.sqrt(row_counts[row][orbits, last])[:, None])
    return out


def _letter_blocks(
    sp_fine: SingleParticleSpace, sp_coarse: SingleParticleSpace, m: np.ndarray, threshold: float
) -> tuple[list, list, list]:
    """The letter setup of the tuple core: the names of the kept fine
    letters, and the kept fine letters and the (K, K', K m) of each letter
    block with a fine letter.

    A fine letter is kept if its kernel diagonal exceeds threshold times
    the largest (`SingleParticleSpace.reduced`).  K_aa = sum_ij |f_ij|^2
    mu_j sums terms >= 0, so the cut 0.0 keeps the letters with a nonzero
    entry (i, j) where mu_i + mu_j > 0, those that survive Omega_rho; the
    cut NULL_LETTER_THRESHOLD also drops letters of roundoff weight.  A
    letter block is a connected component of the joint exact nonzero
    pattern of K, K' and K m over the kept fine and all coarse letters: in
    the site eigenframe, the letters of one off-diagonal index pair, or the
    diagonal ones.  All three vanish between blocks, and a block without
    fine letters pairs with nothing.
    """
    if m.shape != (sp_fine.dim, sp_coarse.dim):
        raise ValueError(f"letter matrix shape {m.shape} does not match spaces ({sp_fine.dim}, {sp_coarse.dim})")
    fine_red, kept = sp_fine.reduced(threshold)
    k_fine, k_coarse, pair_single = fine_red.kernel, sp_coarse.kernel, fine_red.kernel @ m[kept, :]
    r = len(k_fine)
    joined = np.block([[k_fine != 0, pair_single != 0], [pair_single.T != 0, k_coarse != 0]])
    joined |= np.eye(len(joined), dtype=bool)
    while not np.array_equal(joined, grown := joined @ joined):
        joined = grown
    # a block's first letter is the first row of its columns; fine letters come first
    members = [np.flatnonzero(joined[first]) for first in sorted(set(joined.argmax(axis=0).tolist())) if first < r]
    fine, coarse = [rows[rows < r] for rows in members], [rows[rows >= r] - r for rows in members]
    mats = [(k_fine[np.ix_(f, f)], k_coarse[np.ix_(c, c)], pair_single[np.ix_(f, c)]) for f, c in zip(fine, coarse)]
    return fine_red.letter_names, fine, mats


def _kron_stack(mats: dict, keys: list) -> np.ndarray:
    """Real parts of mats[key[0]] (x) mats[key[1]] (x) ... for keys of one
    length, as one (keys, rows, cols) stack of broadcast products."""
    first, *rest = zip(*keys)
    out = np.stack([mats[i] for i in first])
    for ids in rest:
        factor = np.stack([mats[i] for i in ids])
        shape = (len(keys), out.shape[1] * factor.shape[1], out.shape[2] * factor.shape[2])
        out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(shape)
    return out.real


def _key_bytes(keys: int, f2: int, c2: int, fc: int) -> dict:
    """Byte-budget parts of a `_key_contraction` over `keys` keys of fine and
    coarse sizes f and c, given the sums f2, c2 and fc of f^2, c^2 and f c.
    Per key: three complex stacks, 16 (f^2 + c^2 + f c) bytes, and 16 (3 f^2
    + 2 c^2) for the symmetrized copies, eigenvectors and whiteners of both
    Grams and the fine coefficients."""
    return {
        f"{keys} key stacks": 16 * (f2 + c2 + fc),
        "their whitening and eigenvectors": 16 * (3 * f2 + 2 * c2),
    }


def _check_key_budget(what: str, dims: dict, keys: list) -> None:
    """Refuse a `_key_contraction` before building it if its keys, with
    dims[i] = (f, c) the shape of factor i's pairing, would not fit
    (`_key_bytes`)."""
    sizes = [[math.prod(dims[i][side] for i in key) for side in (0, 1)] for key in keys]
    f2, c2, fc = sum(f * f for f, _ in sizes), sum(c * c for _, c in sizes), sum(f * c for f, c in sizes)
    check_byte_budget(what, _key_bytes(len(keys), f2, c2, fc))


def _key_tuples(letters: list, group: list, r: int) -> np.ndarray:
    """Each key's fine tuples as a (keys, f) array of indices into the r^j
    tuples of its length j in C order, in the Kronecker order of the letters
    of its blocks, letters[b] being those of block b."""
    tuples = np.zeros((len(group), 1), dtype=np.intp)
    for ids in zip(*group):
        tuples = (tuples[:, :, None] * r + np.stack([letters[b] for b in ids])[:, None, :]).reshape(len(group), -1)
    return tuples


def _key_contraction(factors: dict, keys: list):
    """Contraction eigendata of a tuple problem that is block diagonal by key.

    factors[i] is a (fine, coarse, pairing) triple of complex letter
    matrices and a key a tuple of factor ids i, whose fine Gram,
    coarse Gram and pairing are the real parts of the Kronecker products of
    its factors (`_kron_stack`).  Keys with factors of the same shapes are
    stacked: both sides are whitened with the cut relative to the top of
    all keys (`whiten_psd`), then `whitened_contraction`.  Yields, per
    stack, its keys, eigenvalues (m, a) and fine coefficients (m, a, a),
    descending per key over its kept directions and zero past them, and
    the stack's fine Grams, coarse whiteners and pairings.  The stacks are
    built and whitened at the call; each contraction runs when it is read.
    """
    groups: dict = {}
    for key in keys:
        groups.setdefault(tuple(factors[i][2].shape for i in key), []).append(key)
    stacked = list(groups.values())
    fine, coarse, pairing = (
        [_kron_stack({i: mats[side] for i, mats in factors.items()}, group) for group in stacked] for side in range(3)
    )
    w_fine, _ = whiten_psd(fine)
    w_coarse, _ = whiten_psd(coarse)
    return (
        (group, *whitened_contraction(wf, wc, pair), gram, wc, pair)
        for group, gram, wf, wc, pair in zip(stacked, fine, w_fine, w_coarse, pairing)
    )


def _combo_label(coeffs: np.ndarray, names: list[str]) -> str:
    """Readable combination of the coefficients above 1e-8 in modulus."""
    parts = [
        f"{'-' if coeffs[i] < 0 else '+'} {abs(coeffs[i]):.3g}*{names[i]}"
        for i in np.flatnonzero(np.abs(coeffs) > 1e-8)
    ]
    if not parts:
        return "0"
    head = parts[0].lstrip("+ ").strip()
    return " ".join([head] + parts[1:])


@dataclass
class FockBlock:
    """Contraction eigendata of one k-letter block in the limiting geometry.

    vectors holds one (rows, values) pair per kept eigenvalue (the first
    fine_rank), in their order: rows are the tuples of the key the
    eigenvector was solved on, ascending indices into the r^k tuples of
    letter_names in C order, and values its coefficients over them."""

    k: int
    eigenvalues: np.ndarray
    vectors: list[tuple[np.ndarray, np.ndarray]]
    letter_names: list[str]
    fine_rank: int

    @property
    def eigen_labels(self) -> list[str]:
        """Readable combination of each eigenvector over the labels of its
        tuples, formatted when read; the zero padding reads "0"."""
        shape = (len(self.letter_names),) * self.k
        labels = []
        for rows, values in self.vectors:
            words = zip(*np.unravel_index(rows, shape))
            labels.append(_combo_label(values, ["(x)".join(self.letter_names[a] for a in w) for w in words]))
        return labels + ["0"] * (self.eigenvalues.size - len(labels))


def fock_block_spectrum(
    sp_fine: SingleParticleSpace,
    sp_coarse: SingleParticleSpace,
    m: np.ndarray,
    k: int,
) -> FockBlock:
    """Contraction spectrum of the channel on the k-letter tuple space.

    On all tuples of the r fine letters `_letter_blocks` keeps at the cut
    NULL_LETTER_THRESHOLD, the fine Gram, coarse Gram and pairing
    Re(K^{(x)k}), Re(K'^{(x)k}), Re((K m)^{(x)k}) are block diagonal by
    key, a tuple's sequence of letter blocks: one small `_key_contraction`
    per key.  Eigenvalues come in descending order (ties in key order),
    zero padded to the r^k fine tuples so that directions the metric
    annihilates appear explicitly; each kept eigenvector stays on its
    key's tuples (`FockBlock.vectors`), with readable labels.
    DimensionBudgetError before anything is built if r^k exceeds
    `dense_dim_budget`, or the key stacks the byte budget.
    """
    if k < 1:
        raise ValueError("block degree k must be >= 1")
    names, letters, mats = _letter_blocks(sp_fine, sp_coarse, m, NULL_LETTER_THRESHOLD)
    r, budget = len(names), dense_dim_budget()
    if r**k > budget:
        raise DimensionBudgetError(
            f"dense fine tuple dimension {r}**{k} exceeds budget {budget}; set FLAB_MAX_DIM to override"
        )
    factors = dict(enumerate(mats))
    keys = list(itertools.product(factors, repeat=k))
    dims = {b: pair.shape for b, (_, _, pair) in factors.items()}
    _check_key_budget(f"Fock block {k}", dims, keys)
    vals, vectors = [], []
    for group, key_vals, coeffs, *_ in _key_contraction(factors, keys):
        kept_dirs = coeffs.any(axis=1)
        vals.append(key_vals[kept_dirs])
        rows = np.repeat(_key_tuples(letters, group, r), kept_dirs.sum(axis=1), axis=0)
        vectors.extend(zip(rows, coeffs.swapaxes(1, 2)[kept_dirs]))
    flat = np.concatenate(vals)
    order = np.argsort(-flat, kind="stable")
    return FockBlock(k, np.pad(flat[order], (0, r**k - flat.size)), [vectors[i] for i in order], names, flat.size)


def depolarizing_fock_setup(d: int, y: float, state: DensityMatrix | None = None):
    """Single-particle spaces and letter matrix for sitewise depolarizing.

    Returns (sp_fine, sp_coarse, m) at the given single-site state (default:
    pure ground state), both spaces in its eigenframe.  Depolarizing keeps
    that frame: the coarse state has eigenvalues mu / y + (1 - 1/y) / d,
    and the channel's adjoint maps each centred coarse letter to the fine
    letter over y, so the letter matrix is exactly 1 / y.  For d=2 pure the
    two non-null letters are the position- and momentum-like quadratures
    and are named x and p.
    """
    if y < 1.0:
        raise ValueError(f"depolarizing strength must satisfy y >= 1, got {y}")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    if state is not None and state.dim != d:
        raise ValueError(f"site state of dimension {state.dim} for local dimension {d}")
    check_letter_setup(d, 2)
    mu = np.eye(d)[0] if state is None else state.eigensystem()[0]
    names = ["x", "p", "z0"] if d == 2 and state is None else None
    sp_fine = SingleParticleSpace.from_eigenvalues(mu, names)
    sp_coarse = SingleParticleSpace.from_eigenvalues(mu / y + (1.0 - 1.0 / y) / d)
    return sp_fine, sp_coarse, np.eye(d * d - 1) / y


def _sector_blocks(
    n: int | None,
    sp_fine: SingleParticleSpace,
    sp_coarse: SingleParticleSpace,
    m: np.ndarray,
    k: int,
) -> dict[int, np.ndarray]:
    """Contraction eigenvalues per degree on the symmetric sector.

    Degrees are orthogonal at a product state.  The degree-j block is the
    tuple problem of `fock_block_spectrum` on Sym^j, where the fine Gram is
    per(K[u, v]) / (u! v!)^{1/2} (u! the product of the factorials of the
    letter multiplicities of u), a rescaled permanent Gram.  The factor
    c_{n,j} of all three degree-j matrices cancels after whitening, so n
    only drops degrees above n.  Keyed by its letter block counts (a
    `letter_multisets` row), a multiset's matrices are Kronecker products
    of each block's Sym^c ones (`_kron_power`; the permanents factor
    exactly): one `_key_contraction` per degree, each checked against the
    byte budget, largest first, before anything is built.
    """
    *_, blocks = _letter_blocks(sp_fine, sp_coarse, m, NULL_LETTER_THRESHOLD)
    degrees = [j for j in range(1, k + 1) if n is None or j <= n]
    top = max(degrees, default=0)
    # factor (c, b) holds block b's Sym^c matrices.  A degree-j key lists
    # the factors of the nonzero counts of a j-multiset of blocks, largest
    # count first, so that the keys of one count pattern stack
    sizes = [pair.shape for _, _, pair in blocks]
    dims = {(c, b): [math.comb(s + c - 1, c) for s in sizes[b]] for b in range(len(blocks)) for c in range(1, top + 1)}
    counts, _, start = letter_multisets(len(blocks), top)
    multiset_keys = [tuple(sorted(((c, b) for b, c in enumerate(row) if c), reverse=True)) for row in counts.tolist()]
    keys = {j: multiset_keys[start[j] : start[j + 1]] for j in degrees}
    for j in reversed(degrees):
        _check_key_budget(f"sector degree {j}", dims, keys[j])
    powers = [zip(*(_kron_power(mat, top) for mat in block)) for block in blocks]
    factors = {(c, b): mats for b, block in enumerate(powers) for c, mats in enumerate(block, start=1)}
    out = {}
    for j in degrees:
        groups = _key_contraction(factors, keys[j])
        out[j] = np.sort(np.concatenate([vals[coeffs.any(axis=1)] for _, vals, coeffs, *_ in groups]))[::-1]
    return out


def symmetric_sector_spectrum(
    n: int | None,
    d: int,
    y: float,
    k: int,
    state: DensityMatrix | None = None,
    include_identity: bool = False,
) -> dict:
    """Exact contraction spectrum on the symmetric k-local sector.

    Computed in closed form, degree by degree, as the Fock tuple blocks
    restricted to the symmetric tuples (see `_sector_blocks`); the spectrum
    is the same at every n >= k (n=None gives the limit).
    DimensionBudgetError before any block is built if one would not fit.
    The identity direction, exactly invariant under the channel, is
    excluded unless requested.
    """
    sp_fine, sp_coarse, m = depolarizing_fock_setup(d, y, state)
    by_degree = _sector_blocks(n, sp_fine, sp_coarse, m, k)
    eigs = list(by_degree.values()) + ([np.array([1.0])] if include_identity else [])
    all_vals = np.sort(np.concatenate(eigs))[::-1] if eigs else np.array([])
    return {"n": n, "eigenvalues": all_vals, "by_degree": by_degree}


def finite_limit_comparison(
    n_list,
    d: int,
    y: float,
    k: int,
    state: DensityMatrix | None = None,
) -> dict:
    """Compare exact finite-n sector spectra against the limiting spectrum.

    Returns per-n eigenvalue arrays (descending), the limit array, and the
    maximum absolute eigenvalue deviation for each n.  The closed form does
    not depend on n for n >= k (`_sector_blocks`: c_{n,j} cancels, and no
    degree is dropped), so the limit is computed once, each finite spectrum
    is it bit for bit, and each deviation is exactly 0, criterion 2's
    documented finding.
    """
    n_list = [int(n) for n in n_list]
    if min(n_list) < k:
        raise ValueError("need n >= k so every degree appears at each n")
    limit = symmetric_sector_spectrum(None, d, y, k, state=state)["eigenvalues"]
    return {
        "n_list": n_list,
        "spectra": dict.fromkeys(n_list, limit),
        "limit": limit,
        "deviations": [0.0] * len(n_list),
    }


def beta_bound_value(d: int, y: float, k: int) -> float:
    """Sector norm bound (d / (y (y - 1)))^k for depolarizing strength y."""
    if y <= 1.0:
        raise ValueError("bound needs y > 1")
    return (d / (y * (y - 1.0))) ** k


def beta_bound_decreasing(d: int, y: float) -> bool:
    """Whether the sector bound decreases in k, i.e. y (y - 1) > d."""
    return y * (y - 1.0) > d


def _bound_grams(n: int, d: int, y: float, k: int, state_1site: DensityMatrix | None):
    """Bures and pushforward Grams of the sectors with |S| >= k, as the
    `sampled_norms` runs of the letter products on every support of those
    sizes (sizes ascending, supports lexicographic, products in
    itertools.product order), and the exact supremum of their ratio.

    Only carried letters enter, the letters `_letter_blocks` keeps at the
    cut 0.0, whose kernel diagonal is nonzero (2(d - 1) at a pure site
    state, all at a faithful one): a product with any other letter is zero
    after Omega_rho, so both its norms vanish.  Under sitewise depolarizing
    at a product of identical site states, blocks of different supports
    vanish and the block of a support is that of its |S|-site chain.
    There, in the site eigenframe, the Bures Gram Re tr(rho A_a A_b) is
    Re(K^{(x)s}) over carried tuples, and the pushforward Gram is P G_c^{-1}
    P^T, the supremum over coarse observables B of Re tr(B N(X))^2 /
    |B|^2: P = Re((K m)^{(x)s}) pairs each product with the coarse letter
    products, whose Gram is G_c = Re(K'^{(x)s}).  All three are block
    diagonal by key, and `_key_contraction` builds each size's stacks once
    and whitens them; with W_c whitening G_c, a key's pushforward block is
    (P W_c)(P W_c)^T, and the supremum is the largest contraction
    eigenvalue over every key of every size.  DimensionBudgetError first if
    the keys and a draw block would not fit.
    """
    if k < 1 or k > n:
        raise ValueError(f"sector index k={k} out of range for n={n}")
    names, letters, blocks = _letter_blocks(*depolarizing_fock_setup(d, y, state_1site), 0.0)
    # the keys of size s are every block sequence, so a sum over them is a power
    f, c = np.array([pair.shape for _, _, pair in blocks]).T
    f2, c2, fc = int(f @ f), int(c @ c), int(f @ c)
    what = f"bound check at d={d}, n={n}, k={k}"
    keys = f2_sum = c2_sum = fc_sum = products = widest = 0
    for s in range(k, n + 1):
        keys += len(blocks) ** s
        f2_sum, c2_sum, fc_sum = f2_sum + f2**s, c2_sum + c2**s, fc_sum + fc**s
        size = math.comb(n, s) * len(names) ** s
        products, widest = products + size, max(widest, size)
        # one draw per block until the last size, a lower bound, so a huge n
        # is refused at its first size over the budget; the last is exact
        draws = max(1, DRAW_CHUNK_ENTRIES // products) if s == n else 1
        check_byte_budget(
            what,
            _key_bytes(keys, f2_sum, c2_sum, fc_sum)
            | {
                f"{draws} x {products} draw-block transients": 8 * draws * (products + 4 * widest),
                "a first run's code and buffers": FIRST_RUN_BYTES,
            },
        )
    factors = dict(enumerate(blocks))
    grams, supremum = [], 0.0
    for s in range(k, n + 1):
        stacks = []
        for group, vals, _, bures, wc, pair in _key_contraction(factors, list(itertools.product(factors, repeat=s))):
            supremum = max(supremum, float(vals.max(initial=0.0)))
            reach = pair @ wc
            members = _key_tuples(letters, group, len(names))
            stacks.append((members, np.ascontiguousarray(bures), reach @ reach.swapaxes(1, 2)))
        grams.append((math.comb(n, s), stacks))
    return grams, supremum


def _per_draw(terms: np.ndarray, draws: int) -> np.ndarray:
    """Sum of (keys, a, draws * groups) terms per draw."""
    return terms.sum(axis=(0, 1)).reshape(draws, -1).sum(axis=1)


def sampled_norms(rng: np.random.Generator, samples: int, grams) -> tuple[np.ndarray, np.ndarray]:
    """Bures and pushforward norms of random combinations of a family.

    The family is a sequence of groups whose Grams vanish between groups;
    grams holds one (count, blocks) pair per run of `count` groups with the
    same Grams.  Each of a group's blocks is a (members, bures, push) triple:
    a (keys, a) array of member indices within the group, which every
    member is in once, and the (keys, a, a) Gram blocks of those members;
    entries between blocks vanish.  A draw's coefficients are
    rng.standard_normal(N) over the family's N members, drawn in (m, N)
    blocks, which consume the stream exactly as one draw at a time does.
    Returns the two norms of every draw.  A squared norm negative beyond
    roundoff raises NumericalError, as in `bures_norm` and
    `pushforward_norm`; the pushforward's roundoff scale is its
    triangle-inequality bound (sum_a |c_a| P_aa^{1/2})^2.
    """
    widths = [sum(members.size for members, _, _ in blocks) for _, blocks in grams]
    total = sum(count * width for (count, _), width in zip(grams, widths))
    roots = [[np.sqrt(np.clip(np.diagonal(p, axis1=1, axis2=2), 0.0, None)) for *_, p in blocks] for _, blocks in grams]
    per_block = max(1, DRAW_CHUNK_ENTRIES // max(total, 1))
    base_sq, push_sq, push_bound = (np.zeros(samples) for _ in range(3))
    for start in range(0, samples, per_block):
        stop = min(start + per_block, samples)
        coeffs = rng.standard_normal((stop - start, total))
        lo = 0
        for (count, blocks), width, block_roots in zip(grams, widths, roots):
            # the run's coefficients by member, then draw and group
            run = coeffs[:, lo : lo + count * width].reshape(stop - start, count, width).transpose(2, 0, 1)
            lo += count * width
            for (members, bures, push), root in zip(blocks, block_roots):
                # (keys, a, draws * count): one matrix product per key
                c = run[members].reshape(*members.shape, -1)
                base_sq[start:stop] += _per_draw((bures @ c) * c, stop - start)
                push_sq[start:stop] += _per_draw((push @ c) * c, stop - start)
                push_bound[start:stop] += _per_draw(np.abs(c) * root[..., None], stop - start)
    if np.any(base_sq < -1e-12):
        raise NumericalError(f"norm squared came out negative: {base_sq.min():.3e}")
    if np.any(push_sq < -1e-10 * push_bound**2):
        raise NumericalError(f"pushforward norm squared came out negative: {push_sq.min():.3e}")
    return np.sqrt(np.maximum(base_sq, 0.0)), np.sqrt(np.maximum(push_sq, 0.0))


def beta_bound_test(
    n: int,
    d: int,
    y: float,
    k: int,
    samples: int,
    seed: int = 0,
    state_1site: DensityMatrix | None = None,
) -> dict:
    """Check the sector norm bound on random high-locality observables.

    Draws random hermitian combinations from the sectors supported on at
    least k sites and verifies, for the sitewise depolarizing channel, that
    the pushforward norm squared never exceeds beta_k times the base norm
    squared (relative slack 1e-10).  Returns the violation count, the
    largest observed ratio and the exact supremum it samples.

    Both norms are quadratic forms in a draw's coefficients, measured
    against the key-block Grams of `_bound_grams` (DimensionBudgetError,
    before anything is built, if they would not fit).  A draw is
    rng.standard_normal over the products of carried letters only: the
    other products vanish, so their coefficients would change neither norm.
    """
    bound = beta_bound_value(d, y, k)
    grams, supremum = _bound_grams(n, d, y, k, state_1site)
    rng = task_rng(seed, (n, d, int(y * 1000), k))
    base, pushed = sampled_norms(rng, samples, grams)
    kept = base >= 1e-12
    ratio_sq = (pushed[kept] / base[kept]) ** 2
    return {
        "n": n,
        "d": d,
        "y": y,
        "k": k,
        "samples": samples,
        "bound": bound,
        "violations": int(np.count_nonzero(ratio_sq > bound * (1.0 + 1e-10))),
        "max_ratio_sq": float(np.max(ratio_sq, initial=0.0)),
        "supremum": supremum,
    }


def klocal_decay_check(
    n: int,
    d: int,
    y_values,
    k_max: int,
    state_1site: DensityMatrix | None = None,
) -> dict:
    """Decay of the channel-deformed norm on high-locality observables.

    Under the homogeneous coarse graining of n sites (sitewise depolarizing
    of strength y followed by permutation averaging), the supremum of
    |A|_N / |A| over the operators supported on more than k sites is the
    square root of the top degree-(k+1) eigenvalue of
    `symmetric_sector_spectrum`, computed once per y.  Reported per k: that
    supremum at each y, its fitted log-log slope in y, the sector bound
    beta_{k+1}^{1/2}, `bound_ok` if the supremum is within it at every y
    (relative slack 1e-10), and `bound_checked` if its validity condition
    y(y-1) > d holds at every y.  The bound is reported, not asserted.
    DimensionBudgetError, before any block is built, if a sector block
    would not fit.
    """
    y_values = [float(y) for y in y_values]
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    if len(set(y_values)) < 2:
        raise ValueError("decay check needs at least two distinct y values to fit a slope")
    if any(y <= 1.0 for y in y_values):
        raise ValueError("decay check needs y > 1 so the coarse state is faithful")
    if k_max < 0 or k_max + 1 > n:
        raise ValueError(f"need k_max + 1 <= n, got k_max={k_max}, n={n}")
    blocks = [symmetric_sector_spectrum(n, d, y, k_max + 1, state_1site)["by_degree"] for y in y_values]
    logs_y = np.log(np.asarray(y_values))
    bound_valid = all(beta_bound_decreasing(d, y) for y in y_values)

    result = {"y_values": y_values, "k": {}}
    for k in range(k_max + 1):
        max_contraction = [math.sqrt(by_degree[k + 1][0]) for by_degree in blocks]
        slope = float(np.polyfit(logs_y, np.log(np.asarray(max_contraction)), 1)[0])
        bounds = [math.sqrt(beta_bound_value(d, y, k + 1)) for y in y_values]
        result["k"][k] = {
            "max_contraction": max_contraction,
            "slope": slope,
            "expected_slope": -(k + 1),
            "bound": bounds,
            "bound_checked": bound_valid,
            "bound_ok": all(e <= b * (1.0 + 1e-10) for e, b in zip(max_contraction, bounds)),
        }
    return result
