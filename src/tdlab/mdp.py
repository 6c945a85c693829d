"""Tabular MDP construction and exact evaluation.

Environments are finite MDPs with a state-indexed reward vector and a
transition tensor ``P[s, a, s']``.  Rewards depend on state only; everything
downstream consumes the policy-averaged transition matrix ``P_pi`` and the
reward vector ``R``.

The four-rooms layout used by :func:`build_four_rooms` is fixed forever for
test stability: an 11x11 grid with walls along row 5 and column 5, opened in
a plus shape at the centre (cell (5, 5) and its four neighbours), which
leaves exactly 105 open cells and keeps the gridworld fully connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROW_SUM_TOL = 1e-12
_POLICY_ITERATION_ROUNDS = 100


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP: transition tensor ``P[s, a, s']`` and state rewards ``R[s]``."""

    transitions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        trans = _as_readonly(self.transitions)
        rew = _as_readonly(self.rewards)
        if trans.ndim != 3 or trans.shape[0] != trans.shape[2]:
            raise ValueError(
                f"transitions must have shape (n_states, n_actions, n_states), got {trans.shape}"
            )
        if rew.shape != (trans.shape[0],):
            raise ValueError(
                f"rewards must have shape ({trans.shape[0]},), got {rew.shape}"
            )
        if np.any(trans < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = trans.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("every transition row must sum to 1 within 1e-12")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "rewards", rew)

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]


def build_chain_mdp(
    n_states: int,
    slip_prob: float = 0.01,
    left_reward: float = 2.0,
    right_reward: float = 1.0,
) -> TabularMdp:
    """Stochastic chain with reflecting ends.

    Two actions (0 = left, 1 = right) move one state in the chosen direction;
    pushing into a wall keeps the agent in place.  With probability
    ``slip_prob`` a uniformly random action executes instead of the chosen
    one.  Reward ``left_reward`` sits at state 0 and ``right_reward`` at the
    last state.
    """
    if n_states < 2:
        raise ValueError("n_states must be at least 2 for a chain")
    if not 0.0 <= slip_prob <= 1.0:
        raise ValueError("slip_prob must lie in [0, 1]")

    def move(s: int, a: int) -> int:
        target = s - 1 if a == 0 else s + 1
        return min(max(target, 0), n_states - 1)

    n_actions = 2
    trans = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            trans[s, a, move(s, a)] += 1.0 - slip_prob
            for other in range(n_actions):
                trans[s, a, move(s, other)] += slip_prob / n_actions

    rewards = np.zeros(n_states)
    rewards[0] = left_reward
    rewards[-1] = right_reward
    return TabularMdp(trans, rewards)


_FOUR_ROOMS_SIZE = 11
_FOUR_ROOMS_WALL = 5
# Plus-shaped opening at the centre of the wall cross.
_FOUR_ROOMS_OPENINGS = frozenset(
    {(5, 5), (4, 5), (6, 5), (5, 4), (5, 6)}
)


def four_rooms_coordinates() -> list[tuple[int, int]]:
    """(row, col) of each open cell, in state-index order."""
    coords = []
    for r in range(_FOUR_ROOMS_SIZE):
        for c in range(_FOUR_ROOMS_SIZE):
            on_wall = r == _FOUR_ROOMS_WALL or c == _FOUR_ROOMS_WALL
            if on_wall and (r, c) not in _FOUR_ROOMS_OPENINGS:
                continue
            coords.append((r, c))
    return coords


def build_four_rooms() -> TabularMdp:
    """Four-rooms gridworld: 105 open cells, 4 move actions, zero reward.

    Moves that would enter a wall or leave the grid keep the agent in place,
    so the uniform-random-walk transition matrix is symmetric.
    """
    coords = four_rooms_coordinates()
    index = {rc: i for i, rc in enumerate(coords)}
    n = len(coords)
    deltas = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    trans = np.zeros((n, len(deltas), n))
    for (r, c), i in index.items():
        for a, (dr, dc) in enumerate(deltas):
            dest = index.get((r + dr, c + dc), i)
            trans[i, a, dest] = 1.0
    return TabularMdp(trans, np.zeros(n))


def build_circle_mdp(
    n_states: int, reward_state: int, n_train: int
) -> tuple[TabularMdp, np.ndarray]:
    """Deterministic cycle ``s -> s+1 mod n`` with a single unit reward.

    Returns the MDP and the train-state index set (the first ``n_train``
    states); the remaining states are held out from value updates.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    if not 0 <= reward_state < n_states:
        raise ValueError(f"reward_state {reward_state} outside [0, {n_states})")
    if not 1 <= n_train <= n_states:
        raise ValueError(f"n_train must lie in [1, {n_states}]")
    trans = np.zeros((n_states, 1, n_states))
    for s in range(n_states):
        trans[s, 0, (s + 1) % n_states] = 1.0
    rewards = np.zeros(n_states)
    rewards[reward_state] = 1.0
    return TabularMdp(trans, rewards), np.arange(n_train)


def uniform_policy(mdp: TabularMdp) -> np.ndarray:
    """Policy matrix assigning equal probability to every action."""
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


def transition_matrix(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Policy-averaged transition matrix ``P_pi[x, x'] = sum_a pi(a|x) P[x,a,x']``."""
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {policy.shape} does not match "
            f"({mdp.n_states}, {mdp.n_actions})"
        )
    p_pi = np.einsum("sa,sat->st", policy, mdp.transitions)
    row_err = np.max(np.abs(p_pi.sum(axis=1) - 1.0))
    if row_err > _ROW_SUM_TOL:
        raise ValueError("policy rows must sum to 1")
    return p_pi


def exact_value(P: np.ndarray, R: np.ndarray, gamma: float) -> np.ndarray:
    """Solve ``(I - gamma P) V = R`` directly."""
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if P.ndim != 2 or P.shape[0] != P.shape[1] or R.shape != (P.shape[0],):
        raise ValueError("P must be square and R must match its dimension")
    V = np.linalg.solve(np.eye(P.shape[0]) - gamma * P, R)
    residual = np.max(np.abs(V - (R + gamma * P @ V)))
    if residual > 1e-9:
        raise np.linalg.LinAlgError(
            f"Bellman residual {residual:.2e} exceeds 1e-9; P is likely invalid"
        )
    return V


@dataclass(frozen=True)
class PolicyIterationPath:
    """Sequence of (deterministic policy, exact value) pairs until convergence."""

    policies: list
    values: list


def deterministic_policy(actions, n_actions: int) -> np.ndarray:
    """Policy matrix putting all mass on the given action index per state."""
    actions = np.asarray(actions, dtype=int)
    if np.any(actions < 0) or np.any(actions >= n_actions):
        raise ValueError("action index out of range")
    pol = np.zeros((actions.shape[0], n_actions))
    pol[np.arange(actions.shape[0]), actions] = 1.0
    return pol


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int = 1) -> TabularMdp:
    """MDP with uniformly random transition rows and standard-normal rewards."""
    raw = rng.uniform(0.1, 1.0, size=(n_states, n_actions, n_states))
    trans = raw / raw.sum(axis=2, keepdims=True)
    return TabularMdp(trans, rng.standard_normal(n_states))


def random_walk_matrix(rng: np.random.Generator, n_states: int, edge_prob: float = 0.3) -> np.ndarray:
    """Uniform random walk on a random undirected graph (ring edges keep it connected).

    The walk matrix is similar to a symmetric matrix, so its spectrum is real.
    """
    if n_states < 2:
        raise ValueError("need at least two states")
    adjacency = (rng.uniform(size=(n_states, n_states)) < edge_prob).astype(float)
    adjacency = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(adjacency, 0.0)
    idx = np.arange(n_states)
    adjacency[idx, (idx + 1) % n_states] = 1.0
    adjacency[(idx + 1) % n_states, idx] = 1.0
    return adjacency / adjacency.sum(axis=1, keepdims=True)


def policy_iteration(mdp: TabularMdp, gamma: float) -> PolicyIterationPath:
    """Exact policy iteration from the all-zeros (lowest-index) policy.

    Alternates exact evaluation with greedy improvement; greedy ties break
    toward the lowest action index.  Stops when the greedy policy repeats or
    after 100 improvement rounds.
    """
    actions = np.zeros(mdp.n_states, dtype=int)
    policies, values = [], []
    for _ in range(_POLICY_ITERATION_ROUNDS):
        policy = deterministic_policy(actions, mdp.n_actions)
        P_pi = transition_matrix(mdp, policy)
        V = exact_value(P_pi, mdp.rewards, gamma)
        policies.append(actions.copy())
        values.append(V)
        # Rewards are state-only, so the greedy action maximizes E[V(next)].
        continuation = np.einsum("sat,t->sa", mdp.transitions, V)
        greedy = np.argmax(continuation, axis=1)
        if np.array_equal(greedy, actions):
            break
        actions = greedy
    return PolicyIterationPath(policies=policies, values=values)
