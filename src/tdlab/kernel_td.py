"""Kernel semi-gradient TD with held-out states, and eigen-kernel regression.

The TD flow updates a value estimate over *all* states while Bellman errors
are measured only on a training subset: every state moves by ``K_all @ delta``,
where ``K_all`` is the kernel between all states and the train states and
``delta`` holds the train states' TD errors.  Its train rows are the train
Gram block and its held-out rows the cross section, so generalization is
entirely mediated by the kernel's cross section.  Bootstrap targets use the
full value vector, held-out entries included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import FlowConfig, FlowTrajectory, _propagate
from .mdp import exact_value
from .spectral import NonRealSpectrum, eigendecompose

_JITTER = 1e-10  # ridge added to the training Gram of smooth_kernel_generalization
KERNEL_TD_METHODS = ("rk4", "euler")  # the FlowConfig methods kernel_td_flow steps by
SMOOTH_TARGETS = ("value", "projected-top", "projected-bottom", "nstep")  # smooth_kernel_generalization's


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel over an explicit embedding: row i of the ``(n_states, dims)``
    matrix ``embedding`` holds state i's coordinates."""

    lengthscale: float
    embedding: np.ndarray

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ValueError("lengthscale must be positive")
        emb = np.asarray(self.embedding, dtype=float)
        if emb.ndim != 2:
            raise ValueError("embedding must be an (n_states, dims) matrix of coordinates")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embedding must be finite")
        object.__setattr__(self, "embedding", emb)

    @property
    def n_states(self) -> int:
        return self.embedding.shape[0]


def line_embedding(n_states: int) -> np.ndarray:
    """Embed integer states as 1-D real coordinates 0, 1, ..., n-1."""
    return np.arange(n_states, dtype=float)[:, None]


def circle_embedding(n_states: int, radius: float = 800.0) -> np.ndarray:
    """Embed states uniformly on a circle in the plane.

    The default radius places adjacent states roughly 100 apart, which keeps
    the lengthscale sweep {0.01, 1, 100} on the interesting side of the
    stability boundary: only the largest lengthscale couples neighbours.
    """
    angles = 2.0 * np.pi * np.arange(n_states) / n_states
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _indices(idx, n: int, name: str, indexed: str) -> np.ndarray:
    """``idx`` as an int array, refused unless every entry lies in ``[0, n)``;
    the refusal names what ``idx`` indexes."""
    idx = np.asarray(idx, dtype=int)
    if idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise ValueError(f"{name} must index {indexed} in [0, {n})")
    return idx


def build_kernel(spec: KernelSpec, states) -> np.ndarray:
    """Gram matrix ``K[i, j] = exp(-||e_i - e_j||^2 / (2 l^2))`` over the given
    states, each an index in ``[0, spec.n_states)``."""
    states = _indices(states, spec.n_states, "states", "states")
    if states.size == 0:
        raise ValueError("states must be nonempty")
    E = spec.embedding[states]
    sq = np.sum((E[:, None, :] - E[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * spec.lengthscale**2))


def split_kernel(spec: KernelSpec, train_idx) -> np.ndarray:
    """The ``(n, m)`` kernel between every state and the ``m`` train states."""
    train_idx = _indices(train_idx, spec.n_states, "train_idx", "states")
    return build_kernel(spec, np.arange(spec.n_states))[:, train_idx]


def kernel_td_flow(V0, K_all, P, R, train_idx, cfg: FlowConfig) -> FlowTrajectory:
    """Kernel TD dynamics ``dV/dt = K_all @ (R + gamma P V - V)[train]``.

    ``K_all`` is the kernel between every state and the train states, as
    :func:`split_kernel` builds it; its train rows must be symmetric positive
    semidefinite, and ``train_idx`` indexes states in ``[0, n)``.  ``gamma``
    is ``cfg.gamma``.  ``method="rk4"`` integrates the continuous flow;
    ``method="euler"`` takes discrete semi-gradient steps of size ``dt`` (the
    regime in which large lengthscales destabilize bootstrapping at high
    discounts).  Both run on the linear-flow engine of
    :mod:`tdlab.flows`, which raises :class:`~tdlab.flows.DivergenceDetected`,
    with the partial trajectory attached, at the first step whose sup norm
    crosses 1e8.  ``meta`` holds ``train_residual_sup``, each snapshot's largest
    absolute TD error over the train states, and the integrator counts
    ``steps`` and ``stepwise_strides``; a diverged partial trajectory carries
    only the counts.
    """
    V0 = np.asarray(V0, dtype=float)
    K_all = np.asarray(K_all, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    n = P.shape[0]
    train_idx = _indices(train_idx, n, "train_idx", "states")
    m = train_idx.size
    if m == 0:
        raise ValueError("train_idx must be nonempty")
    if V0.shape != (n,) or R.shape != (n,):
        raise ValueError("V0, P, R dimensions do not agree")
    if K_all.shape != (n, m):
        raise ValueError(f"K_all must have shape {(n, m)}, one column per train state")
    if cfg.method not in KERNEL_TD_METHODS:
        raise ValueError(f"kernel_td_flow supports {' and '.join(KERNEL_TD_METHODS)} methods only")
    K_train = K_all[train_idx]
    if np.max(np.abs(K_train - K_train.T)) > 1e-9:
        raise ValueError("the train block of K_all must be symmetric")
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (K_train + K_train.T))))
    if min_eig < -1e-9:
        raise ValueError(f"the train block of K_all is not PSD (min eigenvalue {min_eig:.2e})")
    gamma = cfg.gamma
    # linear in V: dV/dt = K_all (gamma P - I)[train] V + K_all R[train]
    A = K_all @ (gamma * P - np.eye(n))[train_idx]
    traj = _propagate((A, K_all @ R[train_idx]), V0, cfg)
    V = traj.states
    residual = np.max(np.abs((R + gamma * V @ P.T - V)[:, train_idx]), axis=1)
    return FlowTrajectory(traj.times, V, {"train_residual_sup": residual, **traj.meta})


def _orthogonal_projection(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return basis @ coef


def smooth_kernel_generalization(
    P,
    R,
    gamma: float,
    S,
    fractions,
    targets,
    nstep_n: int | None = None,
) -> np.ndarray:
    """Held-out MSEs of eigen-kernel regression ``K_S(x, y) = sum_{i in S} v_i(x) v_i(y)``.

    ``S`` indexes eigenvectors in decreasing-real-part order (0 = smoothest),
    each in ``[0, n)``.
    For each train fraction the training subset is the first
    ``floor(n * fraction)`` states; with a fraction of 1 the MSE is evaluated
    on all states instead of the (empty) held-out set.
    Targets: the exact value function ("value"), its orthogonal projection
    onto span(S) ("projected-top") or onto the complementary eigenvectors
    ("projected-bottom"), or the n-step return target
    ``sum_{j<n} (gamma P)^j R`` ("nstep", with ``nstep_n``).

    ``fractions`` and ``targets`` are sequences, and all of them share one
    spectrum, one exact value and one Gram matrix.  Returns the
    ``(len(targets), len(fractions))`` array of MSEs; each entry equals the
    one-element call for its (target, fraction).

    Requires a real spectrum; raises :class:`NonRealSpectrum` otherwise.
    """
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    n = P.shape[0]
    targets = tuple(targets)
    for name in targets:
        if name not in SMOOTH_TARGETS:
            raise ValueError(f"unknown target {name!r}")
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or not np.all((fractions > 0.0) & (fractions <= 1.0)):
        raise ValueError("fractions must be a sequence of values in (0, 1]")
    S = _indices(S, n, "S", "eigenvectors")
    spectrum = eigendecompose(P)
    if not spectrum.is_real:
        raise NonRealSpectrum("smooth_kernel_generalization requires a real spectrum")
    V = spectrum.right_eigenvectors
    basis = V[:, S]

    Vpi = exact_value(P, R, gamma)
    ys = []
    for name in targets:
        if name == "value":
            y = Vpi
        elif name == "projected-top":
            y = _orthogonal_projection(Vpi, basis)
        elif name == "projected-bottom":
            complement = np.ones(n, dtype=bool)
            complement[S] = False
            y = _orthogonal_projection(Vpi, V[:, complement])
        else:  # "nstep"
            if nstep_n is None or nstep_n < 1:
                raise ValueError("target 'nstep' requires a positive nstep_n")
            y = np.zeros(n)
            term = R.copy()
            for _ in range(nstep_n):
                y += term
                term = gamma * (P @ term)
        ys.append(y)

    K = basis @ basis.T
    mses = np.empty((len(targets), fractions.size))
    for j, fraction in enumerate(fractions):
        n_train = int(np.floor(n * fraction))
        if n_train < 1:
            raise ValueError("train_fraction keeps no training states")
        # train is the first n_train states and test the rest (all of them at
        # fraction 1), so both are contiguous blocks of K and y
        test = slice(n_train, None) if n_train < n else slice(None)
        K_train = K[:n_train, :n_train] + _JITTER * np.eye(n_train)
        K_cross = K[test, :n_train]
        # one single-right-hand-side solve per target: a stacked solve moves
        # the MSEs by rounding, since K_train has rank |S| under a tiny ridge
        for i, y in enumerate(ys):
            pred = K_cross @ np.linalg.solve(K_train, y[:n_train])
            mses[i, j] = np.mean((pred - y[test]) ** 2)
    return mses
