"""Effective-dimension estimators: feature ranks and update ranks.

Feature rank counts singular values of the sample-scaled feature matrix above
an absolute threshold; srank uses a threshold relative to the top singular
value and is therefore scale-invariant.  Update ranks measure how many
directions a single optimizer step can move a model's predictions in,
estimated from a batch of one-step TD updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RankReport:
    raw_singular_values: np.ndarray
    threshold: float
    rank: int
    normalized: bool


@dataclass(frozen=True)
class UpdateMatrix:
    """entries[i, j] = |change in value at state x_j after one step on transition i|."""

    entries: np.ndarray


def feature_rank(phi_samples, eps: float = 0.01) -> RankReport:
    """Count singular values of ``phi / sqrt(n)`` above the absolute threshold ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi_samples, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 1:
        raise ValueError("phi_samples must be a nonempty matrix")
    sigma = np.linalg.svd(phi / np.sqrt(phi.shape[0]), compute_uv=False)
    return RankReport(
        raw_singular_values=sigma,
        threshold=eps,
        rank=int(np.sum(sigma > eps)),
        normalized=False,
    )


def srank(phi, eps: float = 0.01) -> RankReport:
    """Count singular values with ``sigma / sigma_max`` above ``eps`` (scale-invariant)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi, dtype=float)
    sigma = np.linalg.svd(phi, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise ValueError("srank is undefined for a zero matrix")
    return RankReport(
        raw_singular_values=sigma,
        threshold=eps,
        rank=int(np.sum(sigma / sigma[0] > eps)),
        normalized=True,
    )


@dataclass(frozen=True)
class Sgd:
    """Plain SGD: one step moves parameters by ``lr * gradient``."""

    lr: float = 0.1

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")

    def init_state(self, dim: int):
        return None

    def step(self, grad: np.ndarray, state):
        return self.lr * grad, None


@dataclass(frozen=True)
class AdamLike:
    """Adam-style step with bias-corrected first/second moment estimates."""

    lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def init_state(self, dim: int):
        return (np.zeros(dim), np.zeros(dim), 0)

    def step(self, grad: np.ndarray, state):
        m, v, t = state
        t = t + 1
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps), (m, v, t)


@dataclass(frozen=True)
class LinearValueModel:
    """Fixed features with a learned linear head: ``V(x) = features[x] @ weights``."""

    features: np.ndarray
    weights: np.ndarray
    optimizer: object = field(default_factory=Sgd)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if features.ndim != 2 or weights.shape != (features.shape[1],):
            raise ValueError("weights must have one entry per feature column")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "weights", weights)

    def values(self) -> np.ndarray:
        return self.features @ self.weights


def update_matrix(
    model: LinearValueModel, transitions, gamma: float, reset_optimizer_state: bool = True
) -> UpdateMatrix:
    """One-step TD update interference matrix over a transition batch.

    For each transition ``(x, r, x')`` a single semi-gradient step
    ``w <- w + step(delta * features[x])`` with ``delta = r + gamma V(x') - V(x)``
    is taken from the *same* starting weights; entry ``(i, j)`` is the
    absolute change that step ``i`` causes in the value of transition ``j``'s
    start state.  By default the optimizer state is also reset between rows;
    with ``reset_optimizer_state=False`` it carries over sequentially.
    """
    transitions = list(transitions)
    if not transitions:
        raise ValueError("transitions must be nonempty")
    phi = model.features
    n_states = phi.shape[0]
    starts = np.array([t[0] for t in transitions], dtype=int)
    if np.any(starts < 0) or np.any(starts >= n_states):
        raise ValueError("transition state index out of range")
    base = model.values()
    entries = np.empty((len(transitions), len(transitions)))
    state = model.optimizer.init_state(phi.shape[1])
    for i, (x, r, x_next) in enumerate(transitions):
        delta = r + gamma * base[x_next] - base[x]
        grad = delta * phi[x]
        move, new_state = model.optimizer.step(grad, state)
        if not reset_optimizer_state:
            state = new_state
        entries[i] = np.abs(phi[starts] @ move)
    return UpdateMatrix(entries=entries)


def update_rank(U, eps_fraction: float = 0.1) -> RankReport:
    """Count singular values above ``eps_fraction`` times the largest one."""
    entries = U.entries if isinstance(U, UpdateMatrix) else np.asarray(U, dtype=float)
    if eps_fraction <= 0:
        raise ValueError("eps_fraction must be positive")
    sigma = np.linalg.svd(entries, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise ValueError("update_rank is undefined for a zero matrix")
    return RankReport(
        raw_singular_values=sigma,
        threshold=eps_fraction,
        rank=int(np.sum(sigma > eps_fraction * sigma[0])),
        normalized=True,
    )
