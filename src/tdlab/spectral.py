"""Eigen/SVD machinery for transition matrices and resolvents.

Provides ordered eigendecompositions (basis functions of the transition
matrix), resolvent singular bases, Grassmann and vector-to-subspace
distances, and the expected-variation smoothness measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_IMAG_TOL = 1e-8


class NonRealSpectrum(ValueError):
    """Raised when an operation requires a real spectrum but got complex."""


def _fix_column_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is positive real."""
    pivots = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    size = np.abs(pivots)
    nonzero = size > 0
    phases = np.where(nonzero, np.conj(pivots) / np.where(nonzero, size, 1.0), 1.0)
    # C order like a copy: later BLAS calls round differently on Fortran-ordered input
    return np.multiply(U, phases, order="C")


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs ordered by descending real part (ties: descending imaginary).

    ``right_eigenvectors`` columns are unit 2-norm with the largest-magnitude
    entry rotated positive.  ``is_real`` is true when every eigenvalue's
    imaginary part is below 1e-8, in which case the arrays are real-valued.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    is_real: bool


def eigendecompose(P: np.ndarray) -> Spectrum:
    """Eigendecomposition of a square matrix, sorted by descending real part
    (ties broken by descending imaginary part)."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    eigvals, eigvecs = np.linalg.eig(P)
    perm = np.lexsort((-eigvals.imag, -eigvals.real))
    eigvals = eigvals[perm]
    eigvecs = eigvecs[:, perm]
    eigvecs = eigvecs / np.linalg.norm(eigvecs, axis=0, keepdims=True)
    eigvecs = _fix_column_phases(eigvecs)
    is_real = bool(np.max(np.abs(eigvals.imag)) <= _IMAG_TOL)
    if is_real:
        eigvals = eigvals.real
        eigvecs = eigvecs.real
        eigvecs = eigvecs / np.linalg.norm(eigvecs, axis=0, keepdims=True)
    residual = np.max(np.abs(P @ eigvecs - eigvecs * eigvals[None, :]))
    if residual > 1e-7:
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {residual:.2e}; solver failed"
        )
    return Spectrum(eigenvalues=eigvals, right_eigenvectors=eigvecs, is_real=is_real)


def real_invariant_basis(spectrum: Spectrum, k: int) -> np.ndarray:
    """Real ``(n, k)`` basis of the leading k-dimensional invariant subspace.

    Real eigenvalues contribute their eigenvector; a complex-conjugate pair
    contributes the real and imaginary parts of one member (its partner adds
    nothing new, and taking real parts of both would duplicate a column).
    When ``k`` lands mid-pair only the real part of that pair is kept so the
    result has exactly ``k`` independent columns.
    """
    vals, vecs = spectrum.eigenvalues, spectrum.right_eigenvectors
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    columns = []
    i = 0
    while len(columns) < k:
        lam, v = vals[i], vecs[:, i]
        if abs(np.imag(lam)) <= _IMAG_TOL:
            columns.append(np.real(v))
            i += 1
        else:
            columns.append(np.real(v))
            if len(columns) < k:
                columns.append(np.imag(v))
            i += 2
    return np.column_stack(columns)


def resolvent(P: np.ndarray, gamma: float) -> np.ndarray:
    """The matrix ``(I - gamma P)^{-1}``."""
    P = np.asarray(P, dtype=float)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    n = P.shape[0]
    return np.linalg.solve(np.eye(n) - gamma * P, np.eye(n))


@dataclass(frozen=True)
class RsbfBasis:
    """Top-K left singular vectors of the resolvent, descending singular values."""

    vectors: np.ndarray
    singular_values: np.ndarray


def rsbf(P: np.ndarray, gamma: float, K: int) -> RsbfBasis:
    """Resolvent singular basis: top-K left singular vectors of ``(I - gamma P)^{-1}``.

    At ``gamma = 0`` the resolvent is the identity and all singular values tie
    at 1; the tie-break then follows the canonical basis order returned by the
    SVD of the identity.
    """
    P = np.asarray(P, dtype=float)
    if not 1 <= K <= P.shape[0]:
        raise ValueError(f"K must lie in [1, {P.shape[0]}]")
    psi = resolvent(P, gamma)
    U, s, _ = np.linalg.svd(psi)
    vectors = _fix_column_phases(U[:, :K]).real
    return RsbfBasis(vectors=vectors, singular_values=s[:K])


@dataclass(frozen=True)
class Subspace:
    """A subspace carried as a matrix with orthonormal columns."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D matrix of column vectors")
        gram_err = np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])))
        if gram_err > 1e-10:
            raise ValueError(
                f"basis columns are not orthonormal (Gram error {gram_err:.2e})"
            )
        object.__setattr__(self, "basis", basis)


def _span_basis(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column spans of ``M``, and which have full rank.

    ``M`` is ``(n, K)`` or a stack ``(..., n, K)``; the mask has the stack's
    shape.  A span is rank deficient when some ``|R_ii|`` of its QR falls
    below 1e-12 times the largest ``|M_ij|`` (scale-relative, so
    exponentially small but full-rank spans pass) or ``M`` is zero.
    """
    Q, R = np.linalg.qr(M)
    scale = np.abs(M).max(axis=(-2, -1))
    pivot = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1)
    return Q, ~((scale == 0.0) | (pivot < 1e-12 * scale))


def subspace_from_span(M: np.ndarray) -> Subspace:
    """Orthonormalize the column span of ``M`` (must have full column rank).

    A rank-deficient ``M`` raises ``np.linalg.LinAlgError`` (a ``ValueError``):
    a numerical failure of the data, not a misuse."""
    M = np.asarray(M, dtype=float)
    Q, full = _span_basis(M[:, None] if M.ndim == 1 else M)
    if not full:
        raise np.linalg.LinAlgError("columns are rank deficient; span has lower dimension")
    return Subspace(basis=Q)


def _basis_of(S) -> np.ndarray:
    return S.basis if isinstance(S, Subspace) else np.asarray(S, dtype=float)


def grassmann_distance(A, B):
    """ell-2 norm of the principal angles between two equal-dimension subspaces.

    Angles are ``arccos`` of the singular values of ``A^T B`` (clamped into
    [0, 1] against roundoff); the result is symmetric and invariant to
    orthogonal re-basing of either argument.  Either basis may be a stack
    ``(..., n, K)``; the stacks broadcast, and the result is then an array
    of distances instead of a float.
    """
    A, B = _basis_of(A), _basis_of(B)
    if A.shape[-2:] != B.shape[-2:]:
        raise ValueError(f"subspace dimensions differ: {A.shape} vs {B.shape}")
    sigma = np.linalg.svd(np.swapaxes(A, -1, -2) @ B, compute_uv=False)
    angles = np.arccos(np.clip(sigma, 0.0, 1.0))[..., None]
    # the norm as one dot product per distance, so stacked and single calls round alike
    dist = np.sqrt(np.swapaxes(angles, -1, -2) @ angles)[..., 0, 0]
    return float(dist) if dist.ndim == 0 else dist


def vector_subspace_distance(v: np.ndarray, S) -> float:
    """Acute angle between a vector and a subspace: ``arccos(|proj| / |v|)``."""
    v = np.asarray(v, dtype=float)
    basis = _basis_of(S)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("v must be nonzero")
    ratio = np.linalg.norm(basis.T @ v) / norm
    return float(np.arccos(np.clip(ratio, 0.0, 1.0)))


def expected_variation(V: np.ndarray, P: np.ndarray) -> float:
    """Smoothness measure ``sum_x |V(x) - E[V(x') | x]|``.

    For a unit eigenvector ``v_i`` this equals ``|1 - lambda_i| * sum |v_i|``,
    so the eigenvalue of an eigenvector determines its smoothness.
    """
    V = np.asarray(V, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.shape != (V.shape[0], V.shape[0]):
        raise ValueError("P must be square with the same dimension as V")
    return float(np.sum(np.abs(V - P @ V)))


def eigenbasis_coefficients(V: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Coordinates ``alpha`` with ``V = U alpha`` in the right-eigenvector basis."""
    if not spectrum.is_real:
        raise NonRealSpectrum(
            "eigenbasis coordinates require a real spectrum"
        )
    V = np.asarray(V, dtype=float)
    U = spectrum.right_eigenvectors
    alpha = np.linalg.solve(U, V)
    recon = np.max(np.abs(U @ alpha - V))
    if recon > 1e-8:
        raise np.linalg.LinAlgError(
            f"eigenbasis reconstruction residual {recon:.2e} exceeds 1e-8"
        )
    return alpha
