import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdlab.mdp import build_chain_mdp, random_walk_matrix, transition_matrix, uniform_policy
from tdlab.spectral import (
    NonRealSpectrum,
    Spectrum,
    Subspace,
    eigenbasis_coefficients,
    eigendecompose,
    grassmann_distance,
    real_invariant_basis,
    resolvent,
    rsbf,
    subspace_from_span,
    vector_subspace_distance,
)


def neumann_resolvent_oracle(P, gamma, terms=4000):
    """(I - gamma P)^{-1} = sum_k (gamma P)^k, summed term by term."""
    n = P.shape[0]
    acc = np.zeros((n, n))
    term = np.eye(n)
    for _ in range(terms):
        acc += term
        term = gamma * P @ term
    return acc


def random_stochastic(rng, n):
    M = rng.uniform(0.1, 1.0, size=(n, n))
    return M / M.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# eigendecompose


def test_eigendecompose_reconstructs_matrix():
    rng = np.random.default_rng(0)
    P = random_walk_matrix(rng, 8)
    spec = eigendecompose(P)
    assert spec.is_real
    recon = spec.right_eigenvectors @ np.diag(spec.eigenvalues) @ np.linalg.inv(spec.right_eigenvectors)
    assert_allclose(recon, P, atol=1e-9)


def test_eigendecompose_ordering_and_top_eigenvalue():
    rng = np.random.default_rng(1)
    P = random_stochastic(rng, 6)
    spec = eigendecompose(P)
    real_parts = spec.eigenvalues.real
    assert np.all(np.diff(real_parts) <= 1e-12)
    # row-stochastic: top eigenvalue 1 with a constant eigenvector
    assert spec.eigenvalues[0].real == pytest.approx(1.0, abs=1e-9)
    v = spec.right_eigenvectors[:, 0]
    assert np.max(np.abs(v - v[0])) < 1e-8


def test_eigendecompose_is_deterministic():
    rng = np.random.default_rng(2)
    P = random_stochastic(rng, 5)
    a = eigendecompose(P)
    b = eigendecompose(P.copy())
    assert_allclose(a.right_eigenvectors, b.right_eigenvectors)


def test_eigendecompose_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))


def test_real_invariant_basis_spans_leading_block():
    # rotation block has eigenvalues 0.9 e^{+-i theta}; the real invariant
    # plane is spanned by the two coordinate axes of the block
    theta = 0.7
    block = 0.9 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    P = np.zeros((4, 4))
    P[:2, :2] = block
    P[2, 2] = 0.3
    P[3, 3] = 0.1
    spec = eigendecompose(P)
    B = real_invariant_basis(spec, 2)
    assert B.shape == (4, 2)
    assert np.linalg.matrix_rank(B, tol=1e-10) == 2
    target = np.eye(4)[:, :2]
    assert grassmann_distance(subspace_from_span(B), subspace_from_span(target)) < 1e-8


def test_real_invariant_basis_full_rank_on_chain_policies():
    mdp = build_chain_mdp(12)
    pol = np.zeros((12, 2))
    pol[:, 1] = 1.0
    P = transition_matrix(mdp, pol)
    spec = eigendecompose(P)
    for k in range(1, 7):
        B = real_invariant_basis(spec, k)
        assert B.shape == (12, k)
        assert np.linalg.matrix_rank(B, tol=1e-10) == k


# ---------------------------------------------------------------------------
# resolvent and its singular basis


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
def test_resolvent_matches_neumann_series(gamma):
    rng = np.random.default_rng(3)
    P = random_stochastic(rng, 7)
    assert_allclose(resolvent(P, gamma), neumann_resolvent_oracle(P, gamma), atol=1e-10)


def test_resolvent_rejects_bad_gamma():
    P = np.eye(3)
    with pytest.raises(ValueError):
        resolvent(P, 1.0)


def test_rsbf_matches_direct_svd():
    rng = np.random.default_rng(4)
    P = random_stochastic(rng, 9)
    basis = rsbf(P, 0.9, 3)
    U, s, _ = np.linalg.svd(resolvent(P, 0.9))
    assert_allclose(basis.singular_values, s[:3], atol=1e-10)
    # columns match up to sign
    for j in range(3):
        dot = abs(float(basis.vectors[:, j] @ U[:, j]))
        assert dot == pytest.approx(1.0, abs=1e-9)


def test_rsbf_bounds_k():
    with pytest.raises(ValueError):
        rsbf(np.eye(4), 0.5, 5)


# ---------------------------------------------------------------------------
# subspaces and distances


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_from_span_rejects_rank_deficient():
    M = np.ones((5, 2))
    with pytest.raises(ValueError):
        subspace_from_span(M)


def test_grassmann_known_angle():
    # plane spanned by e1 and a vector at 60 degrees to e2 inside span(e2,e3)
    A = np.eye(4)[:, :2]
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    B = np.column_stack([np.eye(4)[:, 0], [0.0, c, s, 0.0]])
    d = grassmann_distance(subspace_from_span(A), subspace_from_span(B))
    assert d == pytest.approx(np.pi / 3, abs=1e-10)


def test_grassmann_orthogonal_planes():
    A = np.eye(4)[:, :2]
    B = np.eye(4)[:, 2:]
    d = grassmann_distance(subspace_from_span(A), subspace_from_span(B))
    assert d == pytest.approx(np.linalg.norm([np.pi / 2, np.pi / 2]), abs=1e-10)


def test_grassmann_dimension_mismatch():
    A = subspace_from_span(np.eye(4)[:, :2])
    B = subspace_from_span(np.eye(4)[:, :3])
    with pytest.raises(ValueError):
        grassmann_distance(A, B)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_grassmann_properties_random_spans(seed):
    rng = np.random.default_rng(seed)
    A = subspace_from_span(rng.standard_normal((6, 2)))
    B = subspace_from_span(rng.standard_normal((6, 2)))
    d = grassmann_distance(A, B)
    assert 0.0 <= d <= np.pi  # at most sqrt(2) * pi/2 for 2 angles
    assert grassmann_distance(B, A) == pytest.approx(d, abs=1e-9)
    assert grassmann_distance(A, A) == pytest.approx(0.0, abs=1e-7)
    # invariant under re-basing by a random rotation
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = Subspace(A.basis @ Q)
    assert grassmann_distance(rotated, B) == pytest.approx(d, abs=1e-8)


def test_vector_subspace_distance_cases():
    S = subspace_from_span(np.eye(3)[:, :2])
    assert vector_subspace_distance(np.array([2.0, 0.0, 0.0]), S) == pytest.approx(0.0, abs=1e-12)
    assert vector_subspace_distance(np.array([0.0, 0.0, 3.0]), S) == pytest.approx(np.pi / 2)
    diag = np.array([1.0, 0.0, 1.0])
    assert vector_subspace_distance(diag, S) == pytest.approx(np.pi / 4, abs=1e-12)
    with pytest.raises(ValueError):
        vector_subspace_distance(np.zeros(3), S)


# ---------------------------------------------------------------------------
# eigen-coordinates


def test_eigenbasis_coefficients_roundtrip():
    rng = np.random.default_rng(6)
    P = random_walk_matrix(rng, 8)
    spec = eigendecompose(P)
    V = rng.standard_normal(8)
    alpha = eigenbasis_coefficients(V, spec)
    assert_allclose(spec.right_eigenvectors @ alpha, V, atol=1e-10)


def test_eigenbasis_coefficients_requires_real_spectrum():
    # a rotation has complex eigenvalues
    P = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = eigendecompose(P)
    assert not spec.is_real
    with pytest.raises(NonRealSpectrum):
        eigenbasis_coefficients(np.ones(2), spec)


def test_spectrum_is_plain_container():
    s = Spectrum(np.array([1.0]), np.array([[1.0]]), True)
    assert s.eigenvalues[0] == 1.0
