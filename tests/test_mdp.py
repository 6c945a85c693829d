
import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab.mdp import (
    PolicyIterationPath,
    TabularMdp,
    build_chain_mdp,
    build_circle_mdp,
    build_four_rooms,
    deterministic_policy,
    exact_value,
    four_rooms_coordinates,
    policy_iteration,
    random_mdp,
    random_walk_matrix,
    transition_matrix,
    uniform_policy,
)


def value_iteration_oracle(P, R, gamma, sweeps=20000):
    """Fixed-point iteration V <- R + gamma P V, independent of the solver."""
    V = np.zeros(len(R))
    for _ in range(sweeps):
        V = R + gamma * P @ V
    return V


def transition_matrix_oracle(mdp, policy):
    n, a = mdp.n_states, mdp.n_actions
    P = np.zeros((n, n))
    for s in range(n):
        for act in range(a):
            for sp in range(n):
                P[s, sp] += policy[s, act] * mdp.transitions[s, act, sp]
    return P


def test_exact_value_matches_value_iteration():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, 6, n_actions=2)
    P = transition_matrix(mdp, uniform_policy(mdp))
    V = exact_value(P, mdp.rewards, 0.9)
    assert_allclose(V, value_iteration_oracle(P, mdp.rewards, 0.9), atol=1e-10)
    # defining property: V solves the Bellman equation exactly
    assert_allclose(V, mdp.rewards + 0.9 * P @ V, atol=1e-12)


def test_transition_matrix_against_loop_oracle():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 5, n_actions=3)
    policy = rng.dirichlet(np.ones(3), size=5)
    assert_allclose(
        transition_matrix(mdp, policy), transition_matrix_oracle(mdp, policy), atol=1e-14
    )


def test_tabular_mdp_validates_row_sums():
    trans = np.full((2, 1, 2), 0.4)  # rows sum to 0.8
    with pytest.raises(ValueError):
        TabularMdp(trans, np.zeros(2))


def test_tabular_mdp_rejects_mismatched_rewards():
    trans = np.full((2, 1, 2), 0.5)
    with pytest.raises(ValueError):
        TabularMdp(trans, np.zeros(3))


def test_chain_mdp_structure():
    mdp = build_chain_mdp(5, slip_prob=0.1, left_reward=2.0, right_reward=1.0)
    assert mdp.n_states == 5
    assert mdp.n_actions == 2
    assert_allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
    # slip replaces the chosen action with a uniform one, so the intended
    # move keeps 1 - slip + slip/2 of the mass and the reverse gets slip/2
    assert mdp.transitions[2, 1, 3] == pytest.approx(0.95)
    assert mdp.transitions[2, 1, 1] == pytest.approx(0.05)
    assert mdp.rewards[0] == 2.0
    assert mdp.rewards[-1] == 1.0
    assert_allclose(mdp.rewards[1:-1], 0.0)


def test_chain_random_walk_is_irreducible():
    mdp = build_chain_mdp(8)
    P = transition_matrix(mdp, uniform_policy(mdp))
    reach = np.linalg.matrix_power(P + np.eye(8), 8)
    assert np.all(reach > 0)


def test_four_rooms_layout():
    coords = four_rooms_coordinates()
    assert len(coords) == 105
    assert len(set(coords)) == 105
    mdp = build_four_rooms()
    assert mdp.n_states == 105
    P = transition_matrix(mdp, uniform_policy(mdp))
    # the uniform random walk on the grid is reversible with symmetric kernel
    assert_allclose(P, P.T, atol=1e-12)
    reach = np.linalg.matrix_power(P + np.eye(105), 105)
    assert np.all(reach > 0), "four-rooms walk should be connected through the doorways"


def test_circle_mdp_is_deterministic_cycle():
    mdp, train_idx = build_circle_mdp(6, reward_state=2, n_train=4)
    assert_allclose(train_idx, np.arange(4))
    P = transition_matrix(mdp, uniform_policy(mdp))
    expected = np.roll(np.eye(6), 1, axis=1)
    assert_allclose(P, expected, atol=1e-12)
    assert mdp.rewards[2] == 1.0
    assert mdp.rewards.sum() == 1.0


def test_deterministic_policy_one_hot():
    pol = deterministic_policy([1, 0, 1], 2)
    assert_allclose(pol, [[0, 1], [1, 0], [0, 1]])


def test_random_mdp_is_stochastic():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, 4, n_actions=2)
    assert mdp.transitions.shape == (4, 2, 4)
    assert_allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
    assert np.all(mdp.transitions > 0)


def test_random_walk_matrix_symmetric_stochastic_real():
    rng = np.random.default_rng(3)
    for _ in range(5):
        P = random_walk_matrix(rng, 12)
        assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)
        eigs = np.linalg.eigvals(P)
        assert np.max(np.abs(eigs.imag)) < 1e-8
        reach = np.linalg.matrix_power(P + np.eye(12), 12)
        assert np.all(reach > 0)


def test_policy_iteration_monotone_improvement():
    mdp = build_chain_mdp(10)
    path = policy_iteration(mdp, 0.9)
    assert isinstance(path, PolicyIterationPath)
    assert len(path) >= 2
    for v_prev, v_next in zip(path.values, path.values[1:]):
        assert np.all(v_next >= v_prev - 1e-10)
    # last policy is greedy-stable: one more improvement step changes nothing
    P_last = transition_matrix(mdp, deterministic_policy(path.policies[-1], 2))
    V_last = exact_value(P_last, mdp.rewards, 0.9)
    q = np.einsum("sat,t->sa", mdp.transitions, mdp.rewards + 0.9 * V_last)
    assert_allclose(path.policies[-1], np.argmax(q, axis=1))


def test_policy_iteration_starts_from_all_zeros():
    mdp = build_chain_mdp(6)
    path = policy_iteration(mdp, 0.5)
    assert_allclose(path.policies[0], 0)
