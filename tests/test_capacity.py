import numpy as np
import pytest

from tdlab.capacity import (
    LinearValueModel,
    Sgd,
    feature_rank,
    srank,
    update_matrix,
    update_rank,
)
from tdlab.kernel_td import KernelSpec, build_kernel, line_embedding
from tdlab.mdp import build_chain_mdp


def planted_rank_samples(rng, n, dim, r, scale=1.0):
    """Feature samples whose population second moment has exactly rank r."""
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((r, dim))
    return scale * (A @ B)


def test_feature_rank_recovers_planted_rank():
    rng = np.random.default_rng(0)
    for r in range(1, 9):
        phi = planted_rank_samples(rng, 5000, 12, r)
        assert feature_rank(phi, eps=0.01).rank == r


def test_feature_rank_is_not_scale_invariant():
    rng = np.random.default_rng(1)
    phi = planted_rank_samples(rng, 5000, 12, 6)
    assert feature_rank(phi, eps=0.01).rank == 6
    # shrinking the features pushes singular values below the absolute cutoff
    assert feature_rank(phi * 1e-4, eps=0.01).rank == 0


def test_srank_ignores_global_scale():
    rng = np.random.default_rng(2)
    phi = planted_rank_samples(rng, 400, 10, 4)
    base = srank(phi).rank
    assert srank(phi / 1000.0).rank == base
    assert srank(phi * 1000.0).rank == base
    assert base == 4


def test_srank_rejects_zero_matrix():
    with pytest.raises(ValueError):
        srank(np.zeros((5, 5)))


def test_rank_report_fields():
    rep = feature_rank(np.eye(3), eps=0.01)
    assert rep.rank == 3
    assert rep.raw_singular_values.shape == (3,)


def test_feature_rank_validates_inputs():
    with pytest.raises(ValueError):
        feature_rank(np.ones((4, 4)), eps=0.0)
    with pytest.raises(ValueError):
        feature_rank(np.ones(4))


def chain_transitions(mdp):
    """Deterministic right-stepping transitions, one per state."""
    n = mdp.rewards.shape[0]
    return [(s, mdp.rewards[s], min(s + 1, n - 1)) for s in range(n)]


def test_tabular_update_matrix_is_diagonal():
    """With one-hot features an update to one state cannot move any other."""
    mdp = build_chain_mdp(12)
    rng = np.random.default_rng(3)
    model = LinearValueModel(features=np.eye(12), weights=rng.standard_normal(12))
    U = update_matrix(model, chain_transitions(mdp), gamma=0.9)
    assert type(U) is np.ndarray and U.shape == (12, 12)
    off = U - np.diag(np.diag(U))
    assert np.max(np.abs(off)) < 1e-12


def test_update_rank_equals_batch_size_for_tabular_model():
    # unit rewards with zero weights make every TD error exactly 1, so all
    # diagonal entries match and none falls under the relative cutoff
    transitions = [(s, 1.0, min(s + 1, 19)) for s in range(20)]
    model = LinearValueModel(features=np.eye(20), weights=np.zeros(20))
    for batch in (3, 7, 15):
        U = update_matrix(model, transitions[:batch], gamma=0.9)
        assert update_rank(U).rank == batch


def test_single_feature_model_has_update_rank_one():
    mdp = build_chain_mdp(10)
    features = np.linspace(1.0, 2.0, 10)[:, None]
    model = LinearValueModel(features=features, weights=np.array([0.3]))
    U = update_matrix(model, chain_transitions(mdp), gamma=0.9)
    assert update_rank(U).rank == 1


def test_update_rank_grows_as_kernel_sharpens():
    """Wide RBF features couple every state; narrowing the bandwidth frees
    more independent update directions."""
    mdp = build_chain_mdp(30)
    transitions = chain_transitions(mdp)
    emb = line_embedding(30)
    weights = np.random.default_rng(5).standard_normal(30)
    ranks = []
    for ls in (10.0, 1.0, 0.1):
        phi = build_kernel(KernelSpec(lengthscale=ls, embedding=emb), np.arange(30))
        model = LinearValueModel(features=phi, weights=weights)
        U = update_matrix(model, transitions, gamma=0.9)
        ranks.append(update_rank(U).rank)
    assert ranks[0] < ranks[1] < ranks[2]


def test_update_matrix_grad_step_matches_hand_rollout():
    features = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    model = LinearValueModel(features=features, weights=np.array([1.0, -1.0]), optimizer=Sgd(lr=0.2))
    transitions = [(0, 1.0, 1), (2, 0.0, 0)]
    U = update_matrix(model, transitions, gamma=0.5)
    base = features @ model.weights
    for i, (x, r, x_next) in enumerate(transitions):
        delta = r + 0.5 * base[x_next] - base[x]
        moved = model.weights + 0.2 * delta * features[x]
        expected = np.abs(features[[0, 2]] @ moved - base[[0, 2]])
        np.testing.assert_allclose(U[i], expected, atol=1e-12)


def test_update_matrix_validates_transitions():
    model = LinearValueModel(features=np.eye(3), weights=np.zeros(3))
    with pytest.raises(ValueError):
        update_matrix(model, [], gamma=0.9)
    with pytest.raises(ValueError):
        update_matrix(model, [(5, 0.0, 0)], gamma=0.9)
    # a next state of -1 would read the last state's value, and 3 would raise IndexError
    for bad_next in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            update_matrix(model, [(0, 0.0, 1), (1, 0.0, bad_next)], gamma=0.9)


@pytest.mark.parametrize("optimizer", [Sgd])
def test_optimizers_refuse_a_nonpositive_learning_rate(optimizer):
    for lr in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="lr must be positive"):
            optimizer(lr=lr)


def test_linear_model_validates_shapes():
    with pytest.raises(ValueError):
        LinearValueModel(features=np.eye(3), weights=np.zeros(4))
