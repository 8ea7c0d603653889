"""Operator construction, tensor bookkeeping, and symmetric word sums."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import flab
from flab import focklimit
from flab.errors import DimensionBudgetError, NumericalError
from flab.operators import (
    PRODUCT_STATE_TOL,
    DensityMatrix,
    QuditSystem,
    _fix_column_phases,
    _format_bytes,
    _greedy_gram_prune,
    _hermitian_word_values,
    basis_pure_density,
    dense_from_orbits,
    entry_orbits,
    gell_mann_basis,
    identical_site_state,
    letter_multisets,
    orbit_counts,
    product_density,
    pure_state_density,
    single_site_zero_mean_basis,
    symmetric_klocal_basis,
    symmetric_word_operator,
    symmetric_word_values,
    symmetric_words,
    word_label,
)
from flab.sampling import random_positive_density, task_rng

from conftest import assert_close, maximally_mixed_density
from dense_oracle import permute_sites, site_product, tensor_many


def reduced_density(matrix, system: QuditSystem, keep_sites) -> np.ndarray:
    """Partial trace keeping the listed sites (ascending order)."""
    keep = sorted(keep_sites)
    d, n = system.d, system.n
    tens = np.asarray(matrix).reshape((d,) * (2 * n))
    drop = [i for i in range(n) if i not in keep]
    for offset, site in enumerate(drop):
        # row axis of the partially traced tensor for this site, and its column twin
        ax = site - sum(1 for s in drop[:offset] if s < site)
        n_left = n - offset
        tens = np.trace(tens, axis1=ax, axis2=ax + n_left)
    k = len(keep)
    return tens.reshape(d**k, d**k)


def factor_product_state(state: DensityMatrix, system: QuditSystem) -> list[DensityMatrix]:
    """Oracle: split a product state into its site marginals, one partial
    trace each, and reject it if their Kronecker product is not the state."""
    marginals = [DensityMatrix(reduced_density(state.matrix, system, [i]), check=False) for i in range(system.n)]
    rebuilt = tensor_many([m.matrix for m in marginals])
    dev = np.max(np.abs(rebuilt - state.matrix))
    if dev > PRODUCT_STATE_TOL:
        raise NumericalError(f"state is not a product over sites: reconstruction deviation {dev:.3e}")
    return marginals


def test_system_validation():
    with pytest.raises(ValueError):
        QuditSystem(1, 2)
    with pytest.raises(ValueError):
        QuditSystem(2, 0)
    assert QuditSystem(3, 2).dim == 9


def test_dimension_budget_env(monkeypatch):
    monkeypatch.setenv("FLAB_MAX_DIM", "8")
    with pytest.raises(DimensionBudgetError):
        QuditSystem(2, 4)
    QuditSystem(2, 3)  # 8 is still allowed
    monkeypatch.setenv("FLAB_MAX_DIM", "banana")
    with pytest.raises(DimensionBudgetError):
        QuditSystem(2, 2)


@pytest.mark.parametrize("budget", [2, 8, 9, 2**14, 10**30])
def test_dimension_budget_is_exact_without_the_power(monkeypatch, budget):
    # d**n is compared only below the budget's bit length, where it is
    # small; at n = 10**20 the refusal keeps its message and takes no power
    monkeypatch.setenv("FLAB_MAX_DIM", str(budget))
    for d in (2, 3, 10):
        for n in range(1, 110):
            fits = d**n <= budget
            if not fits:
                with pytest.raises(DimensionBudgetError, match=rf"dense dimension {d}\*\*{n} exceeds budget {budget}"):
                    QuditSystem(d, n)
            else:
                assert QuditSystem(d, n).dim == d**n
    with pytest.raises(DimensionBudgetError, match=rf"dense dimension 2\*\*{10**20} exceeds budget"):
        QuditSystem(2, 10**20)


def test_byte_counts_format_as_the_float_quotient_did():
    # MiB in integer arithmetic, the text of f"{nbytes / 2**20:.0f}" while
    # that quotient is a float (halves to even, also past 2**53 bytes where
    # the float rounds first), and past the float range too
    rng = np.random.default_rng(5)
    values = [2**20 - 1, 2**20, 3 * 2**19, 5 * 2**19, 2**53 + 2**19, 2**62 + 2**19 + 1, 2**63 - 1, 2**1000 + 2**19]
    for bits in range(21, 64):
        base = int(rng.integers(0, 2 ** (bits - 20))) << 20
        values += [base + 2**19 + delta for delta in (-1, 0, 1)] + [base + int(rng.integers(0, 2**20))]
    for nbytes in values:
        want = f"{nbytes} bytes" if nbytes < 2**20 else f"{nbytes / 2**20:.0f} MiB"
        assert _format_bytes(nbytes) == want, nbytes
    assert _format_bytes(2**1100) == f"{2**1080} MiB"


def test_density_matrix_validation():
    with pytest.raises(NumericalError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(NumericalError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(NumericalError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    assert rho.dim == 2


def test_eigensystem_descending_and_deterministic():
    rho = DensityMatrix(np.diag([0.1, 0.6, 0.3]))
    vals, vecs = rho.eigensystem()
    assert vals[0] >= vals[1] >= vals[2]
    vals2, vecs2 = rho.eigensystem()
    assert_close(vecs, vecs2, what="eigenvector phases")


def test_expectation_and_pure_state():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = pure_state_density(psi)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(np.trace(rho.matrix @ sx).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pure_state_density(np.zeros(3))


def test_gell_mann_basis():
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for a, ga in enumerate(basis):
            assert_close(ga, ga.conj().T, what="hermiticity")
            assert abs(np.trace(ga)) < 1e-12
            for b, gb in enumerate(basis):
                # orthogonality with tr g_a g_b = 2 delta_ab
                want = 2.0 if a == b else 0.0
                assert abs(np.trace(ga @ gb) - want) < 1e-12


def test_zero_mean_basis_kills_means():
    rho = DensityMatrix(np.diag([0.7, 0.2, 0.1]))
    for f in single_site_zero_mean_basis(rho):
        assert abs(np.trace(rho.matrix @ f)) < 1e-12


def test_reduced_density_against_kron():
    rng = np.random.default_rng(3)
    a = np.diag([0.6, 0.4])
    bmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = bmat @ bmat.conj().T
    b /= np.trace(b).real
    system = QuditSystem(2, 2)
    joint = np.kron(a, b)
    assert_close(reduced_density(joint, system, [0]), a, what="left marginal")
    assert_close(reduced_density(joint, system, [1]), b, what="right marginal")
    # entangled: marginal of a Bell state is maximally mixed
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert_close(reduced_density(rho, system, [0]), np.eye(2) / 2)


@pytest.mark.parametrize("d, n", [(2, 0), (2, 8), (3, 5), (4, 1)])
def test_product_density_is_the_kron_chain_bit_for_bit(d, n):
    # each site is multiplied in on the left, site (x) mat, as np.kron(site, mat)
    site = random_positive_density(d, task_rng(45, d), min_eigenvalue=0.05)
    want = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        want = np.kron(site.matrix, want)
    assert np.array_equal(product_density(site, n).matrix, want)


def test_factor_product_state_roundtrip():
    site = DensityMatrix(np.diag([0.8, 0.2]))
    system = QuditSystem(2, 3)
    state = product_density(site, 3)
    marginals = factor_product_state(state, system)
    assert len(marginals) == 3
    for m in marginals:
        assert_close(m.matrix, site.matrix, tol=1e-10)
    # entangled states do not factor
    with pytest.raises(NumericalError):
        factor_product_state(_bell_state(), QuditSystem(2, 2))


def _bell_state() -> DensityMatrix:
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    return pure_state_density(bell)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (3, 3)])
def test_identical_site_state_accepts_an_identical_product(d, n):
    system = QuditSystem(d, n)
    site = random_positive_density(d, task_rng(41, d), min_eigenvalue=0.05)
    got = identical_site_state(product_density(site, n), system)
    assert_close(got.matrix, site.matrix, tol=1e-14)
    # the same marginal as the oracle's per-site partial traces
    for marginal in factor_product_state(product_density(site, n), system):
        assert_close(got.matrix, marginal.matrix, tol=1e-14)


def test_identical_site_state_rejects_correlated_and_unequal_sites():
    # a Bell state has identical (maximally mixed) marginals but is not
    # their product
    with pytest.raises(NumericalError, match="not a product of identical site states"):
        identical_site_state(_bell_state(), QuditSystem(2, 2))
    # a product of two different site states, compared with the square of
    # the first: |0.9 * 0.5 - 0.9 * 0.9| = 0.36
    unequal = DensityMatrix(np.kron(np.diag([0.9, 0.1]), np.diag([0.5, 0.5])))
    with pytest.raises(NumericalError, match=r"\(deviation 3.600e-01\)"):
        identical_site_state(unequal, QuditSystem(2, 2))
    # the oracle accepts the unequal product, which does factor
    assert len(factor_product_state(unequal, QuditSystem(2, 2))) == 2


def test_identical_site_state_names_a_wrong_state_dimension():
    # a 3-site product read as a 5-site chain is refused before any reshape,
    # directly and through the symmetric basis
    system, state = QuditSystem(2, 5), product_density(basis_pure_density(2), 3)
    want = r"state of dimension 8 is not a chain state \(d=2, d\*\*n=32\)"
    with pytest.raises(ValueError, match=want):
        identical_site_state(state, system)
    with pytest.raises(ValueError, match=want):
        symmetric_klocal_basis(2, system, state)


def test_identical_site_state_refused_before_the_product_check(monkeypatch):
    # at d=2, n=5 the check counts 48 bytes per entry of a 16-square
    # matrix, 12288 bytes, between 16 * 27**2 and 16 * 28**2; the system
    # was made at the default budget, and nothing of the check is built
    # before the refusal, in either caller
    def nothing_built(*args, **kwargs):
        raise AssertionError("product check built before the budget check")

    system = QuditSystem(2, 5)
    site = random_positive_density(2, task_rng(43), min_eigenvalue=0.05)
    state = product_density(site, 5)
    monkeypatch.setenv("FLAB_MAX_DIM", "27")
    with monkeypatch.context() as spy:
        spy.setattr(flab.operators, "product_density", nothing_built)
        with pytest.raises(DimensionBudgetError, match="product check at d=2, n=5 needs an estimated 12288 bytes"):
            identical_site_state(state, system)
        with pytest.raises(DimensionBudgetError, match="product check at d=2, n=5"):
            symmetric_klocal_basis(2, system, state)
    monkeypatch.setenv("FLAB_MAX_DIM", "28")
    assert_close(identical_site_state(state, system).matrix, site.matrix, tol=1e-14)


def test_site_product_and_embed():
    system = QuditSystem(2, 3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    want = np.kron(sx, np.kron(np.eye(2), sz))
    assert_close(site_product({0: sx, 2: sz}, system), want)
    assert_close(site_product({0: sx}, system), np.kron(sx, np.eye(4)))
    assert_close(tensor_many([sx, sz]), np.kron(sx, sz))


def test_permute_sites_matches_conjugation():
    system = QuditSystem(2, 3)
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    perm = (2, 0, 1)
    # the unitary sending site i's content to site perm[i]: basis state
    # (x_0, x_1, x_2) goes to y with y_{perm[i]} = x_i
    u = np.zeros((8, 8))
    for x in itertools.product(range(2), repeat=3):
        y = [0] * 3
        for i, p in enumerate(perm):
            y[p] = x[i]
        u[int("".join(map(str, y)), 2), int("".join(map(str, x)), 2)] = 1.0
    assert_close(permute_sites(mat, perm, system), u @ mat @ u.conj().T)


def test_permutation_covariance_of_embedding():
    # moving an embedded operator with a permutation lands it at the image site
    system = QuditSystem(2, 3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    perm = (1, 2, 0)
    moved = permute_sites(site_product({0: sx}, system), perm, system)
    assert_close(moved, site_product({perm[0]: sx}, system))


def test_symmetric_words_and_labels():
    words = symmetric_words(2, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]
    assert word_label(()) == "1"
    assert word_label((0, 1, 1)) == "f0*f1*f1"


@pytest.mark.parametrize("letters", [0, 1, 3, 8, 15])
def test_letter_multisets_against_brute_force(letters):
    for top in range(5):
        counts, below, start = letter_multisets(letters, top)
        words = [()]
        for degree in range(1, top + 1):
            words += itertools.combinations_with_replacement(range(letters), degree)
        assert counts.shape == below.shape == (len(words), letters)
        assert start.tolist() == [sum(len(w) < j for w in words) for j in range(top + 2)]
        for u, word in enumerate(words):
            assert counts[u].tolist() == [word.count(b) for b in range(letters)]
            for b in set(word):
                rest = list(word)
                rest.remove(b)
                assert words[below[u, b]] == tuple(rest), (letters, top, word, b)
            # a letter not in the word points at the first word one degree down
            absent = [below[u, b] for b in range(letters) if b not in word]
            assert not word or set(absent) <= {start[len(word) - 1]}
        assert not any(array.flags.writeable for array in (counts, below, start))


def test_letter_multisets_are_enumerated_in_operators_only():
    # the Sym^j bases, the sector keys, the word-value recurrence and the
    # sub-words of the image matrix all read `letter_multisets`
    assert not hasattr(focklimit, "_TupleBasis")
    readers = {"_kron_power", "_sector_blocks", "_sub_words", "_monomial_tables"}
    for path in sorted(Path(flab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        names |= {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
        if path.stem in ("focklimit", "geometry"):
            assert not names & {"combinations_with_replacement", "groupby", "unique"}, path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in readers:
                readers.remove(node.name)
                used = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                assert "letter_multisets" in used, node.name
                attributes = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
                # no colex rank of the sub-words, no loop over the monomials
                assert node.name != "_sub_words" or "comb" not in attributes
                assert node.name != "_monomial_tables" or not any(isinstance(sub, ast.For) for sub in ast.walk(node))
    assert not readers, readers


def test_fluctuation_operator_scaling_and_mean_check():
    # degree 1 is the fluctuation operator n^{-1/2} sum_i a^{(i)}
    system = QuditSystem(2, 2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    want = (np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx)) / np.sqrt(2)
    assert_close(symmetric_word_operator((0,), [sx], system), want)
    # the letters it is built from are centred in the site state, so every
    # fluctuation operator has zero mean in the product state, including at
    # a pure state where the raw diagonal letter would be biased
    site = basis_pure_density(2)
    letters = single_site_zero_mean_basis(site)
    for f in letters:
        assert abs(np.trace(site.matrix @ f)) <= 1e-14
    rho = product_density(site, 2).matrix
    for c in range(len(letters)):
        op = symmetric_word_operator((c,), letters, system)
        assert abs(np.trace(rho @ op)) <= 1e-14


def test_distinct_site_sum_against_bruteforce():
    # degree-2 word: sum over ordered pairs of distinct sites
    system = QuditSystem(2, 3)
    rng = np.random.default_rng(11)
    ops = []
    for _ in range(2):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops.append(z + z.conj().T)
    word = (0, 1)
    got = symmetric_word_operator(word, ops, system)
    brute = np.zeros((8, 8), dtype=complex)
    for i, j in itertools.permutations(range(3), 2):
        brute += site_product({i: ops[0], j: ops[1]}, system)
    brute /= 3.0  # n^{-j/2} with n = 3, j = 2
    assert_close(got, brute, tol=1e-12, what="distinct-site sum")


def test_distinct_site_sum_degree_three():
    system = QuditSystem(2, 3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = [sx, sy, sz]
    got = symmetric_word_operator((0, 1, 2), ops, system)
    brute = np.zeros((8, 8), dtype=complex)
    for i, j, k in itertools.permutations(range(3), 3):
        brute += site_product({i: sx, j: sy, k: sz}, system)
    brute /= 3.0 ** 1.5
    assert_close(got, brute, tol=1e-12)


@pytest.mark.parametrize("word", [(0, 0), (0, 0, 1), (1, 1, 1)])
def test_distinct_site_sum_repeated_letters_qutrit(word):
    # repeated letters: the case the multiset canonical form relies on
    system = QuditSystem(3, 4)
    rng = np.random.default_rng(23)
    ops = []
    for _ in range(2):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ops.append(z + z.conj().T)
    got = symmetric_word_operator(word, ops, system)
    brute = np.zeros((81, 81), dtype=complex)
    for sites in itertools.permutations(range(4), len(word)):
        brute += site_product({s: ops[a] for s, a in zip(sites, word)}, system)
    brute /= 4.0 ** (len(word) / 2.0)
    assert_close(got, brute, tol=1e-12, what="distinct-site sum")


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_entry_orbits_index_the_orbit_counts(d, n):
    # oracle: the site counts of each entry's joint (row, column) labels
    idx = np.arange(d**n)
    digits = np.stack([(idx // d ** (n - 1 - i)) % d for i in range(n)], axis=1)
    labels = (digits[:, None, :] * d + digits[None, :, :]).reshape(-1, n)
    counts = np.stack([np.bincount(row, minlength=d * d) for row in labels])
    orbits = orbit_counts(d, n, n)
    assert len(orbits) == math.comb(n + d * d - 1, n)
    assert np.array_equal(orbits[entry_orbits(d, n)], counts)


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z + z.conj().T


def _off_diagonal_sites(d: int, n: int) -> np.ndarray:
    """Number of sites with row label != column label, per dense entry."""
    off = np.arange(d * d) % (d + 1) != 0
    return orbit_counts(d, n, n)[:, off].sum(axis=1)[entry_orbits(d, n)]


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_words_vanish_on_entries_with_more_off_diagonal_sites_than_letters(d, n):
    # the identity the word-support orbits rest on: an off-diagonal site
    # label is zero in the identity, so it must carry a letter.  Oracle:
    # brute-force placements of random hermitian letters, in no eigenframe
    system, rng = QuditSystem(d, n), task_rng(42, d)
    letters = [_random_hermitian(d, rng) for _ in range(2)]
    off = _off_diagonal_sites(d, n)
    for word in [(0,), (0, 1), (1, 1)]:
        brute = np.zeros((system.dim, system.dim), dtype=complex)
        for sites in itertools.permutations(range(n), len(word)):
            brute += site_product({s: letters[a] for s, a in zip(sites, word)}, system)
        beyond = off.reshape(system.dim, system.dim) > len(word)
        assert beyond.any() and np.all(brute[beyond] == 0.0)
        assert np.max(np.abs(brute[~beyond])) > 0.1
        got = dense_from_orbits(symmetric_word_values([word], letters, n), d, n, len(word))[0]
        assert_close(got, brute / n ** (len(word) / 2), tol=1e-12, what=f"word {word}")


@pytest.mark.parametrize("d, n, top, want", [(3, 5, 2, 321), (2, 8, 2, 46), (3, 8, 3, 2025), (2, 24, 3, 230), (2, 3, 5, 20)])
def test_word_support_orbit_count(d, n, top, want):
    # m off-diagonal sites on d^2 - d labels, the other n - m on d diagonal ones
    formula = sum(
        math.comb(n - m + d - 1, d - 1) * math.comb(m + d * d - d - 1, m) for m in range(min(top, n) + 1)
    )
    counts = orbit_counts(d, n, top)
    assert len(counts) == formula == want
    off = np.arange(d * d) % (d + 1) != 0
    assert counts[:, off].sum(axis=1).max() == min(top, n)
    assert np.all(counts.sum(axis=1) == n)


@pytest.mark.parametrize("d, n, k", [(2, 5, 1), (2, 5, 2), (3, 4, 2)])
def test_word_support_values_scatter_to_the_full_orbit_values(d, n, k):
    # a degree-n word widens the family to every orbit; the low-degree
    # words' values there are the word-support values, and zero elsewhere
    rng = task_rng(43, d)
    letters = [_random_hermitian(d, rng) for _ in range(d * d - 1)]
    words = symmetric_words(len(letters), k)
    support = symmetric_word_values(words, letters, n)
    full = symmetric_word_values(words + [(0,) * n], letters, n)[: len(words)]
    assert support.shape == (len(words), len(orbit_counts(d, n, k)))
    assert full.shape == (len(words), math.comb(n + d * d - 1, n))
    scattered = dense_from_orbits(support, d, n, k)
    assert_close(scattered, dense_from_orbits(full, d, n, n), tol=1e-13, what="scattered values")


def test_word_values_hermiticity_check_names_the_word():
    # a hermitian word's value on an orbit is the conjugate of its value on
    # the transposed orbit; a non-hermitian letter breaks that first for
    # the degree-1 word that carries it
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    raising = np.array([[0, 1], [0, 0]], dtype=complex)
    _hermitian_word_values(symmetric_words(1, 2), [sx], 3)
    with pytest.raises(NumericalError, match="basis element f1 is not hermitian"):
        _hermitian_word_values(symmetric_words(2, 2), [sx, raising], 3)


def _greedy_gram_prune_loop(gram: np.ndarray, threshold: float) -> list[int]:
    """Reference: the pivot scan as a Python loop over the active indices."""
    scale = max(float(np.real(np.diag(gram)).max()), 1e-300)
    residual, kept, active = gram.copy(), [], list(range(len(gram)))
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


def test_greedy_gram_prune_matches_the_loop_scan():
    rng = task_rng(44)
    # unit vectors with a repeat and a sum: after the sum e1 + e2, the
    # residuals of 0 and 2 tie at 1 and those of 1 and 3 at 1/2, so the
    # lowest index wins both later picks
    unit = np.eye(3)
    families = [np.stack([unit[0], unit[1], unit[0], unit[2], unit[1] + unit[2]])]
    families += [rng.standard_normal((size, rank)) @ rng.standard_normal((rank, 7)) for size, rank in [(6, 3), (5, 5), (9, 2)]]
    for family in families:
        gram = family @ family.T
        got = _greedy_gram_prune(gram, 1e-10)
        assert got == _greedy_gram_prune_loop(gram, 1e-10)
        assert len(got) == np.linalg.matrix_rank(family)
    assert _greedy_gram_prune(families[0] @ families[0].T, 1e-10) == [0, 1, 4]


def _fix_column_phases_loop(vecs: np.ndarray) -> np.ndarray:
    """Reference: one column at a time, scaled by the scalar |pivot| / pivot."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        pivot = out[np.argmax(np.abs(out[:, j])), j]
        if abs(pivot) > 0:
            out[:, j] *= abs(pivot) / pivot
    return out


def test_fix_column_phases_matches_the_column_loop_bit_for_bit():
    rng = task_rng(46)
    for rows, cols in [(1, 1), (3, 3), (9, 4), (45, 45), (7, 120)]:
        vecs = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        # an all-zero column (with a negative zero) stays as it is
        vecs[:, 0] = 0.0
        vecs[-1, 0] = -0.0 - 0.0j
        if rows > 1:
            # tied moduli: the first of the equal entries is the pivot
            vecs[1, -1] = 1j * vecs[0, -1]
        got, want = _fix_column_phases(vecs), _fix_column_phases_loop(vecs)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    tie = np.array([[1.0, 3.0], [1.0j, -3.0], [-1.0, 0.5j]])
    assert np.array_equal(_fix_column_phases(tie), np.array([[1.0, 3.0], [1.0j, -3.0], [-1.0, 0.5j]]))


def test_word_length_capped_by_sites():
    system = QuditSystem(2, 2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        symmetric_word_operator((0, 0, 0), [sx], system)


def test_symmetric_basis_prunes_null_words(pure_triple, qubit_triple):
    pruned = symmetric_klocal_basis(2, qubit_triple, pure_triple, prune=True)
    full = symmetric_klocal_basis(2, qubit_triple, pure_triple, prune=False)
    assert full.shape == (10, 8, 8)
    # at the pure state the diagonal letter is null and one quadratic
    # word is real-linearly dependent on the rest: 1, f0, f1, f0*f0, f0*f1
    words = symmetric_words(3, 2)
    kept = [words.index(w) for w in [(), (0,), (1,), (0, 0), (0, 1)]]
    assert_close(pruned, full[kept], tol=0.0)


def test_symmetric_basis_keeps_everything_at_full_rank(qubit_triple):
    state = product_density(maximally_mixed_density(2), 3)
    pruned = symmetric_klocal_basis(2, qubit_triple, state, prune=True)
    assert len(pruned) == 10


def test_symmetric_basis_rejects_inhomogeneous_state(qubit_pair):
    site_a = DensityMatrix(np.diag([0.9, 0.1]))
    site_b = DensityMatrix(np.diag([0.5, 0.5]))
    state = DensityMatrix(np.kron(site_a.matrix, site_b.matrix))
    with pytest.raises(NumericalError):
        symmetric_klocal_basis(1, qubit_pair, state)
