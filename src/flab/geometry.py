"""State-dependent operator geometry and contraction spectra.

Two inner products on observables at a state rho drive everything here:

* the GNS product  <A, B> = tr(rho A^dagger B)  (real part where needed),
* the symmetrized product  tr(A^dagger Omega_rho(B))  built from the
  multiplication operator  Omega_rho(A) = (rho A + A rho) / 2.

A channel N acts on this geometry two ways.  Pulling back through the
Heisenberg adjoint gives the pairing matrices whitened into a finite
eigenvalue problem (`contraction_spectrum`).  Pushing the tangent vector
Omega_rho(A) forward through N and measuring it at N(rho) gives the
channel-deformed norm (`pushforward_norm`) whose decay in the locality
degree is probed by `klocal_decay_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import (
    DensityMatrix,
    QuditSystem,
    as_matrix,
    basis_pure_density,
    klocal_basis,
    product_density,
    sector_span,
)

NULL_THRESHOLD = 1e-10
HERMITIAN_BASIS_TOL = 1e-10


def omega_apply(state: DensityMatrix, x) -> np.ndarray:
    """Symmetrized multiplication (rho X + X rho) / 2."""
    rho = state.matrix
    mat = as_matrix(x)
    return 0.5 * (rho @ mat + mat @ rho)


def omega_inverse_apply(state: DensityMatrix, x, rel_tol: float = 1e-12) -> np.ndarray:
    """Solve Omega_rho(Y) = X in the eigenbasis of rho.

    Entrywise in that basis Y_ij = 2 X_ij / (lambda_i + lambda_j).  Pairs of
    near-zero eigenvalues make the problem singular; in that case the
    symmetrized product has null directions and the inverse is not defined.
    """
    vals, vecs = state.eigensystem()
    tilde = vecs.conj().T @ as_matrix(x) @ vecs
    denom = vals[:, None] + vals[None, :]
    cutoff = rel_tol * max(float(vals.max()), 1e-300)
    bad = denom < cutoff
    if np.any(bad & (np.abs(tilde) > rel_tol * max(1.0, float(np.abs(tilde).max())))):
        raise NumericalError(
            "state is singular on the requested direction; "
            "use the GNS-side formulation with a null-space quotient"
        )
    out = np.where(bad, 0.0, 2.0 * tilde / np.where(bad, 1.0, denom))
    return vecs @ out @ vecs.conj().T


def gns_inner(state: DensityMatrix, a, b) -> complex:
    """<A, B> = tr(rho A^dagger B)."""
    return complex(np.trace(state.matrix @ as_matrix(a).conj().T @ as_matrix(b)))


def bures_inner(state: DensityMatrix, a, b) -> float:
    """Real inner product tr(A^dagger Omega_rho(B)) = Re tr(rho A^dagger B) for hermitian A, B."""
    return float(np.trace(as_matrix(a).conj().T @ omega_apply(state, b)).real)


def bures_norm(state: DensityMatrix, a) -> float:
    val = bures_inner(state, a, a)
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


def pullback_norm(state: DensityMatrix, channel, a) -> float:
    """GNS norm at rho of the Heisenberg-evolved observable N^dagger(A)."""
    back = channel.adjoint_apply(as_matrix(a))
    return bures_norm(state, back)


def contraction_ratio(state: DensityMatrix, channel, a) -> float:
    """|N^dagger(A)|_rho / |A|_{N(rho)}, the observable-side contraction factor."""
    coarse = DensityMatrix(channel.apply(state.matrix), check=False)
    denom = bures_norm(coarse, a)
    if denom < 1e-300:
        raise NumericalError("observable is null at the coarse state; ratio undefined")
    return pullback_norm(state, channel, a) / denom


def whiten_psd(gram: np.ndarray, null_threshold: float = NULL_THRESHOLD):
    """Whitening map for a symmetric PSD Gram matrix.

    Returns (whitener, kept_eigenvalues) with whitener W = V L^{-1/2} over
    the eigenpairs above null_threshold relative to the largest eigenvalue,
    so W^T G W = identity on the retained subspace.  Cholesky is avoided on
    purpose: the Gram matrices here are routinely rank deficient and the
    eigenvalue cut doubles as the null-space quotient.
    """
    gram = np.asarray(gram, dtype=float)
    sym_dev = np.max(np.abs(gram - gram.T)) if gram.size else 0.0
    if sym_dev > 1e-10 * max(1.0, float(np.max(np.abs(gram))) if gram.size else 1.0):
        raise NumericalError(f"gram matrix not symmetric: deviation {sym_dev:.3e}")
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    top = max(float(vals.max(initial=0.0)), 0.0)
    if vals.size and vals.min() < -null_threshold * max(top, 1e-300):
        raise NumericalError(
            f"gram matrix has negative eigenvalue {vals.min():.3e}; not a valid pairing"
        )
    keep = vals > null_threshold * max(top, 1e-300)
    kept_vals = vals[keep]
    whitener = vecs[:, keep] / np.sqrt(kept_vals)
    return whitener, kept_vals


@dataclass
class GnsSpace:
    """Whitened GNS representation of an operator family at a state."""

    state: DensityMatrix
    matrices: list[np.ndarray]
    labels: list[str]
    gram_complex: np.ndarray
    gram_real: np.ndarray
    whitener: np.ndarray
    kept_eigenvalues: np.ndarray
    null_threshold: float = NULL_THRESHOLD

    @property
    def rank(self) -> int:
        return self.whitener.shape[1]

    def whitened_coords(self, coefficients) -> np.ndarray:
        """Coordinates of sum_a c_a E_a in the whitened orthonormal frame."""
        c = np.asarray(coefficients, dtype=float)
        return self.whitener.T @ (self.gram_real @ c)

    def vector(self, coefficients) -> np.ndarray:
        """Assemble the operator with the given basis coefficients."""
        out = np.zeros_like(self.matrices[0])
        for c, mat in zip(np.asarray(coefficients), self.matrices):
            out = out + c * mat
        return out

    def coefficient_norm(self, coefficients) -> float:
        c = np.asarray(coefficients, dtype=float)
        val = float(c @ self.gram_real @ c)
        return math.sqrt(max(val, 0.0))


def _basis_parts(basis):
    matrices, labels = [], []
    for idx, item in enumerate(basis):
        mat = as_matrix(item)
        matrices.append(mat)
        labels.append(getattr(item, "label", None) or f"b{idx}")
    return matrices, labels


def complex_gram(state: DensityMatrix, matrices) -> np.ndarray:
    """gram_{ab} = tr(rho A_a^dagger A_b), as one stacked matrix product."""
    rho = state.matrix
    plain = np.stack([m.ravel() for m in matrices])
    weighted = np.stack([(m @ rho).ravel() for m in matrices])
    return plain.conj() @ weighted.T


def gns_build(state: DensityMatrix, basis, null_threshold: float = NULL_THRESHOLD) -> GnsSpace:
    """Whitened GNS space of a hermitian operator family at a state.

    The real part of the Gram is whitened with an eigenvalue cut at
    null_threshold (relative), which quotients out null directions.  The
    family must be hermitian so the real Gram carries the full geometry.
    """
    matrices, labels = _basis_parts(basis)
    if not matrices:
        raise ValueError("empty basis")
    for mat, label in zip(matrices, labels):
        dev = np.max(np.abs(mat - mat.conj().T))
        if dev > HERMITIAN_BASIS_TOL * max(1.0, float(np.max(np.abs(mat)))):
            raise NumericalError(f"basis element {label} is not hermitian (deviation {dev:.3e})")
    gram_c = complex_gram(state, matrices)
    gram_r = np.real(gram_c)
    whitener, kept = whiten_psd(gram_r, null_threshold)
    return GnsSpace(
        state=state,
        matrices=matrices,
        labels=labels,
        gram_complex=gram_c,
        gram_real=gram_r,
        whitener=whitener,
        kept_eigenvalues=kept,
        null_threshold=null_threshold,
    )


def channel_pairing_matrix(channel, out_space: GnsSpace, in_space: GnsSpace) -> np.ndarray:
    """B[a, b] = Re tr(rho_out E_a^dagger N^dagger(F_b)).

    Rows run over the fine-side family at rho_out, columns over the
    coarse-side family whose Heisenberg preimages are being paired.
    """
    rho = out_space.state.matrix
    # tr(rho E^dagger X) = <vec(E), vec(X rho)> with the plain entrywise pairing
    rows = np.stack([m.conj().ravel() for m in out_space.matrices])
    cols = np.stack([(channel.adjoint_apply(m) @ rho).ravel() for m in in_space.matrices])
    return np.real(rows @ cols.T)


def channel_gns_matrix(channel, out_space: GnsSpace, in_space: GnsSpace) -> np.ndarray:
    """Matrix of the channel's GNS action in raw basis coefficients.

    Solves gram_out @ M = B in the least-squares sense; with rank-deficient
    families the whitened route in `contraction_spectrum` is better
    conditioned, but the raw-coefficient matrix is useful for inspection.
    """
    pairing = channel_pairing_matrix(channel, out_space, in_space)
    sol, *_ = np.linalg.lstsq(out_space.gram_real, pairing, rcond=None)
    return sol


def _fix_signs(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def whitened_contraction(w_fine: np.ndarray, w_coarse: np.ndarray, pairing: np.ndarray):
    """Eigendata of the squared contraction between two whitened families.

    The pairing B (fine rows, coarse columns) is transported into the
    whitened frames, S = W_f^T B W_c, and handed to `transported_contraction`.
    """
    return transported_contraction(w_fine, w_fine.T @ pairing @ w_coarse)


def transported_contraction(w_fine: np.ndarray, small: np.ndarray):
    """Eigendata of T = S S^T for a real transported block S.

    S has one row per whitened fine direction and any number of columns
    spanning the coarse side.  Returns the eigenvalues of T in descending
    order, clipped at 0, and the fine-side coefficients W_f V of its
    eigenvectors.
    """
    vals, vecs = np.linalg.eigh(small @ small.T)
    order = np.argsort(vals)[::-1]
    return np.clip(vals[order], 0.0, None), w_fine @ vecs[:, order]


@dataclass
class ContractionSpectrum:
    """Eigendata of the channel's squared contraction on a GNS family."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    out_space: GnsSpace
    in_space: GnsSpace

    def contraction_factors(self) -> np.ndarray:
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None))

    def eigen_operator(self, index: int) -> np.ndarray:
        return self.out_space.vector(self.coefficients[:, index])


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
    pairing = channel_pairing_matrix(channel, fine, coarse)
    vals, coeffs = whitened_contraction(fine.whitener, coarse.whitener, pairing)
    return ContractionSpectrum(
        eigenvalues=vals,
        coefficients=_fix_signs(coeffs),
        out_space=fine,
        in_space=coarse,
    )


def symmetric_sector_dense_spectrum(
    system: QuditSystem,
    state: DensityMatrix,
    y: float,
    k: int,
    null_threshold: float = NULL_THRESHOLD,
) -> ContractionSpectrum:
    """Dense reference spectrum on the symmetric k-local sector.

    The fine family is pruned to a numerically independent set at the fine
    state; the coarse side keeps the full unpruned word family.  Pruning
    both sides by the fine Gram would clip the adjoint's image: a word
    relation that holds at the fine state (a null direction, say at a pure
    state) generally fails at the coarse state, where the dropped word is
    independent again.
    """
    from .channels import homogeneous_coarse_graining
    from .operators import _greedy_gram_prune, symmetric_klocal_basis

    full = symmetric_klocal_basis(k, system, state, prune=False)
    keep = _greedy_gram_prune([op.matrix for op in full], state, null_threshold)
    basis = [full[i] for i in keep]
    channel = homogeneous_coarse_graining(system, y)
    return contraction_spectrum(channel, state, basis, out_basis=full, null_threshold=null_threshold)


def klocal_decay_check(
    n: int,
    d: int,
    y_values,
    k_max: int,
    samples: int = 50,
    seed: int = 7,
    state_1site: DensityMatrix | None = None,
) -> dict:
    """Decay of the channel-deformed norm on high-locality observables.

    For each y the homogeneous coarse graining (sitewise depolarizing
    strength y followed by permutation averaging) is applied to random
    hermitian combinations drawn from sectors supported on more than k
    sites.  Reported per k: the maximum contraction ratio |A|_N / |A| over samples
    at each y, the fitted log-log slope of that maximum in y, and the
    sector bound beta_{k+1}^{1/2}; the bound is asserted whenever its
    validity condition y(y-1) > d holds at every y.
    """
    from .channels import homogeneous_coarse_graining
    from .focklimit import beta_bound_value
    from .sampling import task_rng

    y_values = [float(y) for y in y_values]
    if any(y <= 1.0 for y in y_values):
        raise ValueError("decay check needs y > 1 so the coarse state is faithful")
    if k_max < 0 or k_max + 1 > n:
        raise ValueError(f"need k_max + 1 <= n, got k_max={k_max}, n={n}")
    system = QuditSystem(d, n)
    site = state_1site if state_1site is not None else basis_pure_density(d)
    state = product_density(site, n)
    sectors = klocal_basis(n, system, state)

    result = {"y_values": y_values, "k": {}}
    for k in range(k_max + 1):
        matrices, _ = sector_span(sectors, min_support=k + 1)
        stack = np.stack(matrices)
        max_contraction = []
        for yi, y in enumerate(y_values):
            channel = homogeneous_coarse_graining(system, y)
            rng = task_rng(seed, (k, yi))
            best = 0.0
            for _ in range(samples):
                coeff = rng.standard_normal(len(matrices))
                a = np.tensordot(coeff, stack, axes=1)
                fine = bures_norm(state, a)
                if fine < 1e-12:
                    continue
                ratio = pushforward_norm(state, channel, a) / fine
                best = max(best, ratio)
            max_contraction.append(best)
        logs_y = np.log(np.asarray(y_values))
        logs_c = np.log(np.asarray(max_contraction))
        slope = float(np.polyfit(logs_y, logs_c, 1)[0])
        bounds = [math.sqrt(beta_bound_value(d, y, k + 1)) for y in y_values]
        bound_valid = all(y * (y - 1.0) > d for y in y_values)
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
