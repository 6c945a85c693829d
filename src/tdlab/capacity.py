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
    rank: int


def feature_rank(phi_samples, eps: float = 0.01) -> RankReport:
    """Count singular values of ``phi / sqrt(n)`` above the absolute threshold ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi_samples, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 1:
        raise ValueError("phi_samples must be a nonempty matrix")
    sigma = np.linalg.svd(phi / np.sqrt(phi.shape[0]), compute_uv=False)
    return RankReport(raw_singular_values=sigma, rank=int(np.sum(sigma > eps)))


def srank(phi, eps: float = 0.01) -> RankReport:
    """Count singular values with ``sigma / sigma_max`` above ``eps`` (scale-invariant)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi, dtype=float)
    sigma = np.linalg.svd(phi, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise ValueError("srank is undefined for a zero matrix")
    return RankReport(raw_singular_values=sigma, rank=int(np.sum(sigma / sigma[0] > eps)))


@dataclass(frozen=True)
class Sgd:
    """Plain SGD: one step moves parameters by ``lr * gradient``."""

    lr: float = 0.1

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")

    def step(self, grads: np.ndarray) -> np.ndarray:
        return self.lr * grads


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


def update_matrix(model: LinearValueModel, transitions, gamma: float) -> np.ndarray:
    """One-step TD update interference matrix over a transition batch.

    For each transition ``(x, r, x')`` a single semi-gradient step
    ``w <- w + step(delta * features[x])`` with ``delta = r + gamma V(x') - V(x)``
    is taken from the *same* starting weights and a fresh optimizer state,
    so the optimizer steps every row's gradient at once.  Returns the
    ``(n, n)`` array, ``n`` the number of transitions, whose entry ``(i, j)``
    is the absolute change that step ``i`` causes in the value of transition
    ``j``'s start state.  Raises ``ValueError`` on a start or next state
    outside ``[0, n_states)``.
    """
    transitions = list(transitions)
    if not transitions:
        raise ValueError("transitions must be nonempty")
    phi = model.features
    starts = np.array([t[0] for t in transitions], dtype=int)
    nexts = np.array([t[2] for t in transitions], dtype=int)
    if min(starts.min(), nexts.min()) < 0 or max(starts.max(), nexts.max()) >= phi.shape[0]:
        raise ValueError("transition state index out of range")
    base, phi_starts = model.values(), phi[starts]
    deltas = np.array([t[1] for t in transitions], dtype=float) + gamma * base[nexts] - base[starts]
    return np.abs(model.optimizer.step(deltas[:, None] * phi_starts) @ phi_starts.T)


def update_rank(U) -> RankReport:
    """:func:`srank` of an update matrix (the array :func:`update_matrix`
    returns): its singular values above 0.1 times the largest."""
    return srank(U, 0.1)
