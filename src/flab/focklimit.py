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
contraction spectra reduce to one whitened eigenproblem over tensor powers
of K, with the coarse metric inverted factor by factor: on all k-letter
tuples for the limiting blocks (`fock_block_spectrum`), and on the
symmetric tuples, a diagonal rescaling of the permanent Gram, for the exact
finite-n spectrum on the symmetric k-local sector
(`symmetric_sector_spectrum`).  `beta_bound_test` checks the sector-wise
norm bound under sitewise depolarizing noise on random draws, measured as
quadratic forms over per-support Gram blocks.  A block's letter products
are made a chunk at a time, as one broadcast Kronecker product, and each
chunk goes through the channel as one stack; `beta_bound_supremum` gives
the exact supremum from the blocks.
`klocal_decay_check` reads the exact decay of that supremum in y under the
homogeneous coarse graining from the top of each sector block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionBudgetError, NumericalError
from .geometry import (
    DRAW_CHUNK_ENTRIES,
    GRAM_CHUNK_ENTRIES,
    norm_grams,
    sampled_norms,
    transported_contraction,
    whiten_psd,
    whitened_contraction,
)
from .operators import (
    FIRST_RUN_BYTES,
    DensityMatrix,
    QuditSystem,
    check_byte_budget,
    dense_dim_budget,
    kron_apply,
    zero_mean_letters,
)

NULL_LETTER_THRESHOLD = 1e-10
PERMANENT_MAX_SIZE = 8
# Largest cond(K')^k for which a coarse tuple metric is inverted in factored
# form.  That route passes through K'^{-1/2}, so its roundoff grows like
# eps * cond(K')^k (about 3e-17 cond^k, measured on nearly pure qubits and
# qutrits at y = 1); this keeps it below 1e-12.
FACTORED_COND_MAX = 1e4


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

    basis: list[np.ndarray]
    kernel: np.ndarray
    letter_names: list[str]

    @classmethod
    def from_eigenvalues(cls, mu, letter_names: list[str] | None = None) -> "SingleParticleSpace":
        """The letters and kernel at the site state diag(mu)."""
        mu = np.asarray(mu, dtype=float)
        basis = zero_mean_letters(mu)
        if letter_names is None:
            letter_names = [f"f{a + 1}" for a in range(len(basis))]
        if len(letter_names) != len(basis):
            raise ValueError("need one name per letter")
        plain = np.stack([f.ravel() for f in basis])
        weighted = np.stack([(f * mu).ravel() for f in basis])
        return cls(basis, plain.conj() @ weighted.T, list(letter_names))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def kept_indices(self, threshold: float = NULL_LETTER_THRESHOLD) -> list[int]:
        diag = np.real(np.diag(self.kernel))
        scale = max(float(diag.max(initial=0.0)), 1e-300)
        return [a for a, v in enumerate(diag) if v > threshold * scale]

    def reduced(self, threshold: float = NULL_LETTER_THRESHOLD) -> tuple["SingleParticleSpace", list[int]]:
        """Drop null letters; returns the smaller space and the kept indices."""
        kept = self.kept_indices(threshold)
        sub = SingleParticleSpace(
            basis=[self.basis[a] for a in kept],
            kernel=self.kernel[np.ix_(kept, kept)],
            letter_names=[self.letter_names[a] for a in kept],
        )
        return sub, kept


def _site_eigenvalues(d: int, state: DensityMatrix | None) -> np.ndarray:
    """Descending eigenvalues of a site state; the pure ground state by default."""
    if state is None:
        return np.eye(d)[0]
    if state.dim != d:
        raise ValueError(f"site state of dimension {state.dim} for local dimension {d}")
    return state.eigensystem()[0]


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


def finite_n_inner(sp: SingleParticleSpace, u, v, n: int) -> complex:
    """Inner product of two symmetric letter words at the n-site product state.

    Words of different degree are exactly orthogonal; equal degree j gives
    c_{n,j} times the permanent of the kernel minor K[u, v].  Degrees above
    n are rejected: such words have no distinct-site realization.
    """
    u, v = tuple(u), tuple(v)
    if max(len(u), len(v)) > n:
        raise ValueError(f"word degree {max(len(u), len(v))} exceeds site count {n}")
    if len(u) != len(v):
        return 0.0 + 0.0j
    minor = sp.kernel[np.ix_(u, v)]
    return distinct_site_factor(n, len(u)) * permanent(minor)


def limiting_inner(sp: SingleParticleSpace, u, v) -> complex:
    """Large-n limit of finite_n_inner: the plain permanent of K[u, v]."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return 0.0 + 0.0j
    return permanent(sp.kernel[np.ix_(u, v)])


def clt_convergence(sp: SingleParticleSpace, u, v, n_list) -> dict:
    """Convergence of finite-n word inner products to the permanent limit.

    Returns the deviation sequence and its fitted log-log rate in n, and
    asserts that deviations never increase.  For degree-2 words the
    deviation is (1 - c_{n,2}) |per| = |per| / n, so the fitted rate is -1;
    that is asserted within +-0.2 whenever the deviations are nonzero.
    """
    u, v = tuple(u), tuple(v)
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly increasing")
    limit = limiting_inner(sp, u, v)
    finite = [finite_n_inner(sp, u, v, n) for n in n_list]
    deviations = [abs(f - limit) for f in finite]
    for prev, nxt in zip(deviations, deviations[1:]):
        if nxt > prev * (1.0 + 1e-12) + 1e-300:
            raise NumericalError(
                f"finite-n deviations increased: {prev:.3e} -> {nxt:.3e}"
            )
    rate = None
    if all(dev > 1e-300 for dev in deviations):
        rate = float(np.polyfit(np.log(n_list), np.log(deviations), 1)[0])
        if len(u) == 2 and abs(rate + 1.0) > 0.2:
            raise NumericalError(
                f"degree-2 convergence rate {rate:.3f} outside -1 +- 0.2"
            )
    return {
        "n_list": n_list,
        "finite": finite,
        "limit": limit,
        "deviations": deviations,
        "rate": rate,
    }


@dataclass(frozen=True)
class _TupleBasis:
    """Orthonormal vectors |O_u|^{-1/2} sum_{t in O_u} e_t over j-letter tuples.

    Each orbit O_u is one tuple (all tuples, in C order) or, if symmetric,
    the rearrangements of one letter multiset (Sym^j, multisets in
    lexicographic order).  reps[u] lies in O_u and sizes[u] = |O_u|;
    steps[i][w, b] indexes the orbit of the i-letter orbit w plus letter b.
    """

    letters: int
    symmetric: bool
    reps: np.ndarray
    sizes: np.ndarray
    steps: tuple

    @classmethod
    def build(cls, letters: int, j: int, symmetric: bool) -> "_TupleBasis":
        reps, sizes, steps = np.zeros((1, 0), dtype=np.intp), np.ones(1), []
        for _ in range(j):
            grown = np.hstack([np.repeat(reps, letters, axis=0), np.tile(np.arange(letters), len(reps))[:, None]])
            if symmetric:
                grown = np.sort(grown, axis=1)
            # a row's digits in base `letters` are its 1-D key, in lexicographic order
            keys = grown @ letters ** np.arange(grown.shape[1])[::-1]
            _, first, step = np.unique(keys, return_index=True, return_inverse=True)
            reps = grown[first]
            # an orbit's tuples are those of the shorter orbits it grows from
            sizes = np.bincount(step.ravel(), weights=np.repeat(sizes, letters))
            steps.append(step.reshape(-1, letters))
        return cls(letters, symmetric, reps, sizes, tuple(steps))


def _kron_power(mat: np.ndarray, rows: _TupleBasis, cols: _TupleBasis) -> np.ndarray:
    """R^T mat^{(x)j} C between two tuple bases of one kind.

    mat^{(x)j} is invariant under one permutation of the positions on both
    sides, so entry (u, v) is (|O_u| / |O_v|)^{1/2} times
    sum_{t in O_v} prod_p mat[s_p, t_p] at the representative s of O_u.
    Those sums grow position by position over the orbits of the letters
    placed so far; over Sym^j no tuple-sized array is built.
    """
    sums = np.ones((1, len(rows.reps)), dtype=complex)
    for pos, step in enumerate(cols.steps):
        grown = np.zeros((step.max() + 1, len(rows.reps)), dtype=complex)
        for letter in range(cols.letters):
            # w -> w + letter is one to one, so the fancy-index add is exact
            grown[step[:, letter]] += sums * mat[rows.reps[:, pos], letter]
        sums = grown
    sums *= np.sqrt(rows.sizes)
    sums /= np.sqrt(cols.sizes)[:, None]
    return sums.T


def _check_tuple_budget(side: str, letters: int, k: int) -> None:
    budget = dense_dim_budget()
    if letters**k > budget:
        raise DimensionBudgetError(
            f"dense {side} tuple dimension {letters}**{k} exceeds budget {budget}; "
            "set FLAB_MAX_DIM to override"
        )


def _coarse_inverse_factors(kernel: np.ndarray, k: int, null_threshold: float):
    """Factors of the inverse of Re(K'^{(x)k}), or None if it is not certified.

    With lambda the eigenvalues of K', the spectrum of Re(K'^{(x)k}) =
    (X + conj(X)) / 2, X = K'^{(x)k}, lies in [lambda_min^k, lambda_max^k]
    (Weyl: conj(X) has the spectrum of X).  When lambda_min^k exceeds
    null_threshold * lambda_max^k, whitening keeps every direction and the
    inverse is exact; it is used only while lambda_max^k <= FACTORED_COND_MAX
    * lambda_min^k, which bounds its roundoff.  With Q = K'^{-1/2} and
    Q conj(K') Q = V diag(Lambda) V^dagger, Z = V^dagger Q gives
    Z K' Z^dagger = 1, Z conj(K') Z^dagger = diag(Lambda) and

        Re(K'^{(x)k})^{-1} = 2 Z^{dagger (x)k} diag(1 / (1 + Lambda^{(x)k})) Z^{(x)k}.

    Returns (Z, Lambda) in that case and None otherwise.
    """
    vals, vecs = np.linalg.eigh(kernel)
    low, high = vals[0], vals[-1]
    if not (
        low > 0.0
        and low**k > null_threshold * high**k
        and high**k <= FACTORED_COND_MAX * low**k
    ):
        return None
    root_inv = (vecs / np.sqrt(vals)) @ vecs.conj().T
    lam, rot = np.linalg.eigh(root_inv @ kernel.conj() @ root_inv)
    return rot.conj().T @ root_inv, lam


def _coupled(kernel: np.ndarray) -> np.ndarray:
    """Letters joined, directly or not, by the exact nonzero pattern of a
    hermitian kernel: in the site eigenframe, those of one off-diagonal
    index pair, or the diagonal ones (the entries between are exact zeros)."""
    joined = (kernel != 0) | np.eye(len(kernel), dtype=bool)
    while not np.array_equal(joined, grown := joined @ joined):
        joined = grown
    return joined


def _reached_coarse(k_coarse: np.ndarray, pair_single: np.ndarray):
    """K' and the pairing on the coarse letters R of the nonzero pairing
    columns (all if none) and those K' joins to them.  Other tuples have zero
    pairing columns, and Re(K'^{(x)j}) is block diagonal between them and
    R-tuples.  R is every letter at a faithful state, 2(d - 1) at a pure one."""
    seed = np.any(pair_single != 0, axis=0)
    reached = np.flatnonzero(_coupled(k_coarse)[seed if seed.any() else slice(None)].any(axis=0))
    return k_coarse[np.ix_(reached, reached)], pair_single[:, reached]


def _orbit_keys(kernel: np.ndarray, basis: _TupleBasis) -> list[tuple]:
    """Key of each orbit: the letter blocks of its tuples in order, or on
    Sym^j their counts.  Tuple Gram entries between orbits of different
    keys are sums of products with an exact zero factor."""
    blocks = _coupled(kernel).argmax(axis=0)[basis.reps]
    if basis.symmetric:
        blocks = (blocks[:, :, None] == np.arange(len(kernel))).sum(axis=1)
    return list(map(tuple, blocks.tolist()))


def _tuple_contraction(k_fine, k_coarse, pair_single, fine: _TupleBasis, factors, null_threshold: float):
    """Contraction eigendata of the channel on the span R of fine j-letter tuples.

    The fine Gram R^T Re(K^{(x)j}) R is whitened (W_f) and the pairing
    P = Re((K m)^{(x)j}) is transported through Re(K'^{(x)j})^{-1} over the
    coarse tuples of the same kind: in factored form given `factors` (see
    `_coarse_inverse_factors`), else by whitening the coarse Gram.  For
    R = Sym^j no coarse projector is needed: Z^{(x)j}, Re(K'^{(x)j}) and
    P^T preserve symmetric tuples, and 1 / (1 + Lambda^{(x)j}) is constant
    on orbits.  Both Grams are whitened per key of `_orbit_keys`.  Returns
    descending eigenvalues and coefficients W_f V.
    """
    k = fine.reps.shape[1]
    coarse = fine if len(k_coarse) == fine.letters else _TupleBasis.build(len(k_coarse), k, fine.symmetric)
    w_fine, _ = whiten_psd(_kron_power(k_fine, fine, fine).real, null_threshold, _orbit_keys(k_fine, fine))
    if factors is None:
        gram = _kron_power(k_coarse, coarse, coarse).real
        w_coarse, _ = whiten_psd(gram, null_threshold, _orbit_keys(k_coarse, coarse))
        return whitened_contraction(w_fine, w_coarse, _kron_power(pair_single, fine, coarse).real)
    z, lam = factors
    # R'^T Z^{(x)k} P^T R W_f, with P^T = ((K m)^{T (x)k} + conj(K m)^{T (x)k}) / 2
    halves = (z @ pair_single.T, z @ pair_single.conj().T)
    if fine.symmetric:
        lifted = _kron_power(halves[0], coarse, fine)
        lifted += _kron_power(halves[1], coarse, fine)
        lifted = 0.5 * (lifted @ w_fine)
    else:
        lifted = 0.5 * (kron_apply(halves[0], w_fine, k) + kron_apply(halves[1], w_fine, k))
    lifted *= np.sqrt(2.0 / (1.0 + np.prod(lam[coarse.reps], axis=1)))[:, None]
    # S = lifted^dagger and Re(S S^dagger) = [Re S, Im S] [Re S, Im S]^T
    return transported_contraction(w_fine, np.hstack([lifted.real.T, -lifted.imag.T]))


def _combo_label(coeffs: np.ndarray, names: list[str], tol: float = 1e-8) -> str:
    parts = [
        f"{'-' if coeffs[i] < 0 else '+'} {abs(coeffs[i]):.3g}*{names[i]}"
        for i in np.flatnonzero(np.abs(coeffs) > tol)
    ]
    if not parts:
        return "0"
    head = parts[0].lstrip("+ ").strip()
    return " ".join([head] + parts[1:])


@dataclass
class FockBlock:
    """Contraction eigendata of one k-letter block in the limiting geometry."""

    k: int
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    tuple_labels: list[str]
    fine_rank: int

    @property
    def eigen_labels(self) -> list[str]:
        """Readable combination of each eigenvector over the tuple labels,
        formatted when read; the zero padding reads "0"."""
        return [_combo_label(col, self.tuple_labels) for col in self.coefficients.T]


def fock_block_spectrum(
    sp_fine: SingleParticleSpace,
    sp_coarse: SingleParticleSpace,
    m: np.ndarray,
    k: int,
    null_threshold: float = NULL_LETTER_THRESHOLD,
) -> FockBlock:
    """Contraction spectrum of the channel on the k-letter tuple space.

    `_tuple_contraction` over all tuples of the r non-null fine letters.
    The coarse tuple metric, on the c letters the pairing reaches
    (`_reached_coarse`), is inverted by mode products when
    `_coarse_inverse_factors` certifies it, and is otherwise (a singular or
    ill-conditioned coarse kernel, as at y = 1) built and whitened densely,
    block by block.  Eigenvalues are reported in descending order, zero
    padded to the full r^k tuple dimension so that directions annihilated
    by the metric appear explicitly.  Eigenvector coefficients are given
    over the fine tuple basis, with readable combination labels.  Every
    tuple dimension built densely (r^k always, c^k on the dense coarse
    path) is checked against `dense_dim_budget` before allocation;
    DimensionBudgetError if it exceeds it.
    """
    if k < 1:
        raise ValueError("block degree k must be >= 1")
    fine_red, kept = sp_fine.reduced(null_threshold)
    if m.shape != (sp_fine.dim, sp_coarse.dim):
        raise ValueError(
            f"letter matrix shape {m.shape} does not match spaces "
            f"({sp_fine.dim}, {sp_coarse.dim})"
        )
    k_coarse, pair_single = _reached_coarse(sp_coarse.kernel, fine_red.kernel @ m[kept, :])
    factors = _coarse_inverse_factors(k_coarse, k, null_threshold)
    _check_tuple_budget("fine", fine_red.dim, k)
    if factors is None:
        _check_tuple_budget("coarse", len(k_coarse), k)
    fine = _TupleBasis.build(fine_red.dim, k, symmetric=False)
    vals, coeffs = _tuple_contraction(fine_red.kernel, k_coarse, pair_single, fine, factors, null_threshold)

    pad = fine_red.dim**k - vals.size
    return FockBlock(
        k=k,
        eigenvalues=np.pad(vals, (0, pad)),
        coefficients=np.pad(coeffs, ((0, 0), (0, pad))),
        tuple_labels=["(x)".join(fine_red.letter_names[i] for i in word) for word in fine.reps.tolist()],
        fine_rank=vals.size,
    )


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
    mu = _site_eigenvalues(d, state)
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
    null_threshold: float,
) -> dict[int, np.ndarray]:
    """Contraction eigenvalues per degree on the symmetric sector.

    Degrees are orthogonal at a product state.  The degree-j block is the
    tuple problem of `fock_block_spectrum` on Sym^j, where the fine Gram is
    per(K[u, v]) / (u! v!)^{1/2} (u! the product of the factorials of the
    letter multiplicities of u), a rescaled permanent Gram.  The factor
    c_{n,j} of all three degree-j matrices cancels after whitening, so n
    only drops degrees above n.  Before any degree is built, each is
    checked against the byte budget at 6 times its largest array, the
    complex transport between coarse multisets (of the letters the pairing
    reaches, `_reached_coarse`) and fine ones or, without a certified
    coarse inverse, the coarse Gram (measured peaks: 5 to 6 times on a
    mixed qutrit at degrees 5 to 7).
    """
    fine_red, kept = sp_fine.reduced(null_threshold)
    k_coarse, pair_single = _reached_coarse(sp_coarse.kernel, fine_red.kernel @ m[kept, :])
    r, c = fine_red.dim, len(k_coarse)
    degrees = [j for j in range(1, k + 1) if n is None or j <= n]
    factors = {j: _coarse_inverse_factors(k_coarse, j, null_threshold) for j in degrees}
    for j in degrees:
        rows, cols = math.comb(c + j - 1, j), math.comb((c if factors[j] is None else r) + j - 1, j)
        check_byte_budget(f"sector degree {j}", {f"6 x the {rows} x {cols} complex array": 96 * rows * cols})
    kernels = (fine_red.kernel, k_coarse, pair_single)
    return {
        j: _tuple_contraction(*kernels, _TupleBasis.build(r, j, symmetric=True), factors[j], null_threshold)[0]
        for j in degrees
    }


def symmetric_sector_spectrum(
    n: int | None,
    d: int,
    y: float,
    k: int,
    state: DensityMatrix | None = None,
    include_identity: bool = False,
    null_threshold: float = NULL_LETTER_THRESHOLD,
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
    by_degree = _sector_blocks(n, sp_fine, sp_coarse, m, k, null_threshold)
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
    maximum absolute eigenvalue deviation for each n.
    """
    n_list = [int(n) for n in n_list]
    if min(n_list) < k:
        raise ValueError("need n >= k so every degree appears at each n")
    limit = symmetric_sector_spectrum(None, d, y, k, state=state)
    spectra = {}
    deviations = []
    for n in n_list:
        finite = symmetric_sector_spectrum(n, d, y, k, state=state)
        spectra[n] = finite["eigenvalues"]
        if finite["eigenvalues"].size != limit["eigenvalues"].size:
            raise NumericalError("finite and limiting sector dimensions differ")
        deviations.append(float(np.max(np.abs(finite["eigenvalues"] - limit["eigenvalues"]))))
    return {
        "n_list": n_list,
        "spectra": spectra,
        "limit": limit["eigenvalues"],
        "deviations": deviations,
    }


def beta_bound_value(d: int, y: float, k: int) -> float:
    """Sector norm bound (d / (y (y - 1)))^k for depolarizing strength y."""
    if y <= 1.0:
        raise ValueError("bound needs y > 1")
    return (d / (y * (y - 1.0))) ** k


def beta_bound_decreasing(d: int, y: float) -> bool:
    """Whether the sector bound decreases in k, i.e. y (y - 1) > d."""
    return y * (y - 1.0) > d


class _LetterProducts:
    """The products of `size` site letters, one per word of
    itertools.product(range(len(letters)), repeat=size) and in that order,
    built on demand: a slice is one stack, made site by site as a broadcast
    Kronecker product of the letters its words gather.  letters is an
    (L, d, d) stack; the family has L**size members and is never held."""

    def __init__(self, letters: np.ndarray, size: int):
        self.letters, self.size = letters, size

    def __len__(self) -> int:
        return len(self.letters) ** self.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        words = np.arange(*rows.indices(len(self)))
        count, d = len(self.letters), self.letters.shape[-1]
        out = np.ones((len(words), 1, 1), dtype=complex)
        for site in range(self.size):
            # a word's letter at this site is its base-count digit, most significant first
            factor = self.letters[words // count ** (self.size - 1 - site) % count]
            side = out.shape[-1] * d
            out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(len(words), side, side)
        return out


def _bound_grams(n: int, d: int, y: float, k: int, state_1site: DensityMatrix | None):
    """Bures and pushforward Gram blocks of the sectors with |S| >= k.

    Returns ((bures, push, carried), count) per support size s = k..n,
    count = C(n, s) supports; repeated count times, in order of size, the
    blocks make up the Grams of the family of zero-mean letter products over
    every support of those sizes.  carried is a boolean mask over a
    support's (d^2 - 1)^s products, in itertools.product order, and the
    blocks are over the marked ones only (see below).
    The channel is sitewise depolarizing at a product of identical site
    states, so:

    * blocks of different supports vanish.  A site in one support only
      contributes the factor tr(rho_i f) = 0 of a zero-mean letter f to a
      Bures cross term; to a pushforward cross term it contributes
      tr N_i(rho_i f), the same number because N_i preserves traces;
    * the block of a support S is that of the |S|-site chain.  Off S the
      operators are the identity, Omega_rho puts rho_i there, the channel
      sigma_i, and Omega^{-1} at the product state maps Y (x) sigma_i to
      Omega^{-1}(Y) (x) 1, leaving factors tr rho_i = 1.

    Everything is written in the site eigenframe, where the site state is
    diag(mu) and the letters are `zero_mean_letters(mu)`; sitewise
    depolarizing is unitarily covariant, so the blocks are those of the
    original frame up to roundoff.  There both the product state and its
    image are diagonal, so `norm_grams` takes the product of the site
    diagonals and weighs entries instead of rotating them.  Only carried
    letters enter: those with a nonzero entry (i, j) where mu_i + mu_j > 0,
    the entries Omega_rho weighs.  A product with any other letter vanishes
    on every entry of positive weight, so it is exactly zero after Omega_rho
    and its rows of both Grams are zero, N(0) = 0; at a pure site state
    2(d - 1) letters are carried, at a faithful one all of them.  Each
    size's carried products (`_LetterProducts`) are built chunk by chunk as
    `norm_grams` slices them; the family itself is never held.
    """
    from .channels import DepolarizingChannel, ProductChannel

    if k < 1 or k > n:
        raise ValueError(f"sector index k={k} out of range for n={n}")
    mu = _site_eigenvalues(d, state_1site)
    letters = np.stack(zero_mean_letters(mu))
    carried = np.any((letters != 0) & (mu[:, None] + mu[None, :] > 0), axis=(1, 2))
    # the row blocks of the largest support (at most dim^2 complex entries
    # per operator), one pair of real Gram blocks per support size, the
    # transients of one chunk (at most 4.5 chunks measured) and of one
    # `sampled_norms` draw block (coefficients of all products, their
    # carried columns, two products with the largest blocks) and the pages
    # a first run touches
    rows, dim = int(carried.sum()), d**n
    products = sum(math.comb(n, s) * (d * d - 1) ** s for s in range(k, n + 1))
    draws = max(1, DRAW_CHUNK_ENTRIES // products)
    carried_products = sum(math.comb(n, s) * rows**s for s in range(k, n + 1))
    check_byte_budget(
        f"bound check at d={d}, n={n}, k={k}",
        {
            f"{rows**n} x {dim**2} row blocks": 2 * 16 * rows**n * dim**2,
            "Gram blocks": 2 * 8 * sum(rows ** (2 * s) for s in range(k, n + 1)),
            "8 chunk-sized transients": 8 * 16 * max(GRAM_CHUNK_ENTRIES, dim**2),
            f"{draws} x {products} draw-block transients": 8 * draws * (products + carried_products + 2 * rows**n),
            "a first run's code and buffers": FIRST_RUN_BYTES,
        },
    )
    blocks = []
    for size in range(k, n + 1):
        channel = ProductChannel(DepolarizingChannel(y, d), QuditSystem(d, size))
        diagonal = functools.reduce(np.kron, [mu] * size)
        bures, push = norm_grams(diagonal, channel, _LetterProducts(letters[carried], size))
        words = functools.reduce(np.logical_and.outer, [carried] * size).ravel()
        blocks.append(((bures, push, words), math.comb(n, size)))
    return blocks


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
    squared (relative slack 1e-10).  Returns the violation count and the
    largest observed ratio.

    Both norms are quadratic forms in a draw's coefficients, so each draw
    is measured against the per-support Gram blocks of `_bound_grams`,
    built once per support size, instead of being assembled as an
    operator.  The draws are the same, coefficients of letter products that
    are not carried included, but only the carried ones are measured;
    `beta_bound_supremum` gives the exact supremum they sample.
    DimensionBudgetError, before anything is built, if the blocks would not
    fit.
    """
    from .sampling import task_rng

    grams = [block for block, count in _bound_grams(n, d, y, k, state_1site) for _ in range(count)]
    bound = beta_bound_value(d, y, k)
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
    }


def beta_bound_supremum(
    n: int,
    d: int,
    y: float,
    k: int,
    state_1site: DensityMatrix | None = None,
) -> float:
    """Exact supremum of |A|_N^2 / |A|^2 over the sectors with |S| >= k.

    The quantity `beta_bound_test` samples.  The support blocks are
    orthogonal on both sides, so the supremum is the largest, over support
    sizes, top eigenvalue of W^T P W, where W whitens the Bures block
    (`whiten_psd`, which quotients null directions) and P is the
    pushforward block.
    """
    best = 0.0
    for (bures, push, _), _ in _bound_grams(n, d, y, k, state_1site):
        w = whiten_psd(bures)[0]
        best = max(best, float(np.linalg.eigvalsh(w.T @ push @ w)[-1]))
    return best


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
    supremum at each y, its fitted log-log slope in y, and the sector bound
    beta_{k+1}^{1/2}; the bound is asserted whenever its validity condition
    y(y-1) > d holds at every y.  DimensionBudgetError, before any block is
    built, if a sector block would not fit.
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
        bound_ok = all(e <= b * (1.0 + 1e-10) for e, b in zip(max_contraction, bounds))
        if bound_valid and not bound_ok:
            raise NumericalError(
                f"sector decay bound violated at k={k}: max ratio {max_contraction} exceeds {bounds}"
            )
        result["k"][k] = {
            "max_contraction": max_contraction,
            "slope": slope,
            "expected_slope": -(k + 1),
            "bound": bounds,
            "bound_checked": bound_valid,
        }
    return result
