"""Bayesian linear regression evidence and its training-speed estimators.

Everything is conjugate-Gaussian: posteriors and the prequential log marginal
likelihood are exact, and the three Monte-Carlo estimators (posterior-sample
log likelihood, k-sample average likelihood, and Gaussian moment-matched) are
lower bounds validated against them.  The exact numbers, Algorithm 1's
exact mode included, read one Cholesky factor ``C C^T = s0^2 Phi Phi^T + sN^2
I`` (Rasmussen & Williams 2006, Alg. 2.1): in presentation order, point i's
predictive variance is ``s_i = C_ii^2`` and its innovation (target less
predictive mean) ``e_i = C_ii (C^-1 y)_i``.  The sampled estimators read one
prequential chain from one stacked normal-equations solve and one stacked ``eigh``.

Each sampled pass gives point i its own PCG64 stream, the stream of
``default_rng(child_i)`` for child i of the pass's ``SeedSequence``: pass p of
L and L_k is ``SeedSequence(seed).spawn(n_seeds)[p]``, L_S pass s is
``SeedSequence(seed + 1 + s).spawn(1)[0]`` and stacking model j is
``SeedSequence(seed).spawn(len(models))[j]``.  A vectorized copy of
``SeedSequence``'s hash computes the seed words of a call's points at once,
bit-identical to ``spawn``, so every seed, derived ones included, must lie in
[0, 2^128).  Known overlap, kept because mending it moves pinned outputs: L_S
pass s at seed t reads the streams of L pass 0 at seed t + 1 + s, so with
``bms-select``'s seed ``base + j`` per model, model j's L_S pass s shares its
point streams with model j + 1 + s's L pass 0.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_COV_TOL = 1e-10
SAMPLER_METHODS = ("gd", "exact")  # sample_then_optimize's and algorithm1_sumloss's
TASK_KINDS = ("feature_dimension", "prior_variance", "rff_frequency")  # model_selection_task's


@dataclass(frozen=True)
class BlrModel:
    """Gaussian-prior linear regression model on transformed inputs.

    ``feature_map`` is one of: None (use inputs as-is), an int d (use the
    first d input coordinates), or a callable mapping an input matrix to a
    feature matrix.
    """

    feature_map: object = None
    prior_variance: float = 1.0
    noise_variance: float = 1.0

    def __post_init__(self):
        if not (0 < self.prior_variance < np.inf and 0 < self.noise_variance < np.inf):
            raise ValueError("variances must be finite and positive")

    def features(self, inputs) -> np.ndarray:
        X = np.atleast_2d(np.asarray(inputs, dtype=float))
        if self.feature_map is None:
            return X
        if isinstance(self.feature_map, (int, np.integer)):
            d = int(self.feature_map)
            if not 1 <= d <= X.shape[1]:
                raise ValueError(f"coordinate subset {d} out of range for {X.shape[1]} inputs")
            return X[:, :d]
        return np.atleast_2d(np.asarray(self.feature_map(X), dtype=float))


def make_rff_feature_map(
    frequency: float, n_features: int = 20, seed: int = 0
) -> Callable[[np.ndarray], np.ndarray]:
    """Random cosine features ``sqrt(2/D) cos(X w + b)`` with seeded draws.

    Frequencies scale the standard-normal projection, so larger ``frequency``
    means faster-varying features (equivalently a shorter lengthscale).
    """
    if frequency <= 0 or n_features < 1:
        raise ValueError("frequency must be positive and n_features >= 1")
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    base = rng.standard_normal((8, n_features))  # supports input dims up to 8

    def fmap(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        p = X.shape[1]
        if p > base.shape[0]:
            raise ValueError("rff map supports at most 8 input dimensions")
        omega = frequency * base[:p]
        return np.sqrt(2.0 / n_features) * np.cos(X @ omega + offsets)

    return fmap


@dataclass(frozen=True)
class GaussianPosterior:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        if np.max(np.abs(cov - cov.T)) > _COV_TOL:
            raise ValueError("covariance must be symmetric")
        _sample_factors(cov)  # refuses a covariance that is not positive semidefinite
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample_factor(self) -> np.ndarray:
        """Matrix L with L L^T = covariance (eigenvalue clamped at zero)."""
        return _sample_factors(self.covariance)


def _sample_factors(cov: np.ndarray) -> np.ndarray:
    """Sample factor of one covariance or of each in a stack; refuses a non-PSD one."""
    w, U = np.linalg.eigh(cov)
    if w.size and float(np.min(w)) < -_COV_TOL:
        raise ValueError("covariance must be positive semidefinite")
    return U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


@dataclass(frozen=True)
class OrderedDataset:
    """Inputs and targets, rows in presentation order (the order prequential scores walk)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        n = inputs.shape[0]
        if targets.shape != (n,):
            raise ValueError("targets must have one entry per input row")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("data must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def features_and_targets(self, model: BlrModel) -> tuple[np.ndarray, np.ndarray]:
        """``model``'s features of the inputs, and the targets."""
        return model.features(self.inputs), self.targets


def _posteriors(model: BlrModel, phi, y, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Means (k, d) and covariances (k, d, d) after k prefix sizes: the only normal-equations solve."""
    d, k, nv = phi.shape[1], len(sizes), model.noise_variance
    precisions = np.reshape([np.eye(d) / model.prior_variance + (phi[:m].T @ phi[:m]) / nv for m in sizes], (k, d, d))
    covs = np.linalg.solve(precisions, np.eye(d))
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    return (covs @ np.reshape([phi[:m].T @ y[:m] for m in sizes], (k, d, 1)))[:, :, 0] / nv, covs


def blr_posterior(model: BlrModel, data: OrderedDataset, upto: int | None = None) -> GaussianPosterior:
    """Conjugate posterior after the first ``upto`` points in presentation order (the estimators' oracle)."""
    m = data.n if upto is None else int(upto)
    if not 0 <= m <= data.n:
        raise ValueError("upto must lie in [0, n]")
    means, covs = _posteriors(model, *data.features_and_targets(model), [m])
    return GaussianPosterior(mean=means[0], covariance=covs[0])


def _gaussian_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(2.0 * np.pi * var))


def _innovations(model: BlrModel, phi, r) -> tuple[np.ndarray, np.ndarray]:
    """Innovations ``e = diag(C) C^-1 r`` of targets r (n,) or rows r (seeds, n), and ``s = diag(C)^2``."""
    C = np.linalg.cholesky(model.prior_variance * (phi @ phi.T) + model.noise_variance * np.eye(phi.shape[0]))
    return np.diag(C) * np.linalg.solve(C, r.T).T, np.diag(C) ** 2


def _exact_evidence(model: BlrModel, data: OrderedDataset) -> tuple[float, float]:
    """Exact log ML and KL gap, both read off one factor's innovations."""
    e, s = _innovations(model, *data.features_and_targets(model))
    x = s / model.noise_variance - 1.0
    return float(np.sum(_gaussian_logpdf(e, 0.0, s))), float(0.5 * np.sum(x - np.log1p(x) + e**2 * x / s))


def exact_log_ml(model: BlrModel, data: OrderedDataset) -> float:
    """Prequential log marginal likelihood: sum of one-step predictive log densities.

    Equals the joint Gaussian evidence ``log N(y; 0, s0^2 Phi Phi^T + sN^2 I)``
    for any presentation order.
    """
    return _exact_evidence(model, data)[0]


def gaussian_kl(p: GaussianPosterior, q: GaussianPosterior) -> float:
    """KL(p || q) between Gaussians in nats."""
    d = p.dim
    diff = q.mean - p.mean
    solved = np.linalg.solve(q.covariance, np.column_stack([p.covariance, diff]))
    trace_term = float(np.trace(solved[:, :d]))
    quad = float(diff @ solved[:, d])
    _, logdet_q = np.linalg.slogdet(q.covariance)
    _, logdet_p = np.linalg.slogdet(p.covariance)
    return 0.5 * (trace_term + quad - d + logdet_q - logdet_p)


def kl_gap(model: BlrModel, data: OrderedDataset) -> float:
    """Sum of KL divergences between successive prequential posteriors.

    This is exactly the bias ``exact_log_ml - E[posterior-sample estimate]``.
    Point i is a rank-one precision update: ``(x_i - log1p(x_i) + e_i^2 x_i / s_i) / 2``, ``x_i = s_i / sN^2 - 1``.
    """
    return _exact_evidence(model, data)[1]


class EstimateResult(NamedTuple):
    value: float
    stderr: float
    per_seed: np.ndarray


def _estimate(per_seed: np.ndarray) -> EstimateResult:
    """Mean over seeds with its standard error (0 for a single seed)."""
    n_seeds = per_seed.size
    stderr = float(np.std(per_seed, ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0
    return EstimateResult(value=float(np.mean(per_seed)), stderr=stderr, per_seed=per_seed)


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, randutils 2015): pool of 4 uint32 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _spawn_states(entropies, keys, n: int) -> np.ndarray:
    """PCG64 seed words (passes, n, 4) of every child of every pass, in one vectorized hash.

    Entry ``[p, i]`` equals ``SeedSequence(entropies[p], spawn_key=(keys[p],))
    .spawn(n)[i].generate_state(4, np.uint64)``.  For entropy in [0, 2^128)
    numpy hashes the same 6 words for every child: the entropy as 4
    little-endian uint32 words, then the key words keys[p] and i (below 2^32).
    The hash constants evolve as masked Python ints; only uint32 arrays are
    multiplied, since numpy scalars warn on wraparound.
    """
    entropies = [operator.index(e) for e in entropies]
    if not all(0 <= e < 1 << 128 for e in entropies):
        raise ValueError("seeds must lie in [0, 2**128)")
    columns = [[e >> 32 * j & _MASK32 for e in entropies] for j in range(4)] + [keys]
    shape = (len(entropies), n)
    words = [np.broadcast_to(np.asarray(c, dtype=np.uint32)[:, None], shape) for c in columns]
    words.append(np.broadcast_to(np.arange(n, dtype=np.uint32), shape))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ value >> 16)
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 precomputed seed words; numpy refuses a duck-typed one."""
    from numpy.random.bit_generator import ISeedSequence  # here, so `import tdlab.experiments` loads no numpy.random

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 seed words

    return SeedWords


class _Chain(NamedTuple):
    """The prequential predictions of one (model, data) pair, in presentation order.

    Point i's sampled prediction ``phi_i^T (mu_i + F_i z)`` is ``m_i + z^T w_i``,
    with ``mu_i``, ``F_i`` the posterior mean and sample factor given the
    points before i: one mean and one d-vector per point.
    """

    y: np.ndarray  # (n,) targets
    m: np.ndarray  # (n,) predictive means phi_i^T mu_i
    w: np.ndarray  # (n, d, 1) projected factors F_i^T phi_i
    noise_variance: float

    def draws(self, states: np.ndarray, k: int) -> np.ndarray:
        """(n, k) sampled predictions: row i from the posterior given the points before i, PCG64-seeded by states[i]."""
        n, d = self.w.shape[:2]
        Z = np.empty((n, k, d))
        seed_words = _seed_words_type()
        for z, words in zip(Z, states):
            np.random.Generator(np.random.PCG64(seed_words(words))).standard_normal(out=z)
        return self.m[:, None] + (Z @ self.w)[:, :, 0]

    def lk_per_seed(self, ks: tuple, n_seeds: int, seed: int) -> np.ndarray:
        """Summed L_k point scores, shape (len(ks), n_seeds), on nested draws of max(ks)."""
        if min(ks) < 1 or n_seeds < 1:
            raise ValueError("k and n_seeds must be positive")
        k_max = max(ks)
        states = _spawn_states([seed] * n_seeds, range(n_seeds), len(self.y))
        logliks = np.array([
            _gaussian_logpdf(self.y[:, None], self.draws(pass_states, k_max), self.noise_variance)
            for pass_states in states
        ])
        # Running log-sum-exp over the draws: entry k-1 is log sum_{j<k} exp(loglik_j).
        # It needs no shift; one shared max shift would underflow, since on the
        # feature_dimension task (d = 30) 64 draws at one point span up to ~3e4 nats.
        prefix = np.logaddexp.accumulate(logliks, axis=2)
        ks = np.asarray(ks)
        return np.ascontiguousarray((prefix[:, :, ks - 1] - np.log(ks)).sum(axis=1).T)

    def ls_per_seed(self, k: int, seeds) -> np.ndarray:
        """Moment-matched scores from k draws per point, one per seed in ``seeds``."""
        if k < 2:
            raise ValueError("estimate_LS needs k >= 2 samples for a variance")
        totals = []
        for pass_states in _spawn_states(seeds, [0] * len(seeds), len(self.y)):
            f = self.draws(pass_states, k)
            var = np.var(f, axis=1, ddof=1) + self.noise_variance  # BlrModel checks sN^2 > 0
            totals.append(np.sum(_gaussian_logpdf(self.y, np.mean(f, axis=1), var)))
        return np.array(totals, dtype=float)


def _prequential_chain(model: BlrModel, data: OrderedDataset) -> _Chain:
    phi, y = data.features_and_targets(model)
    means, covs = _posteriors(model, phi, y, range(data.n))
    m = np.einsum("id,id->i", means, phi)
    w = np.swapaxes(_sample_factors(covs), 1, 2) @ phi[:, :, None]
    return _Chain(y, m, w, model.noise_variance)


def estimate_Lk(model: BlrModel, data: OrderedDataset, ks, n_seeds: int = 1, seed: int = 0) -> list[EstimateResult]:
    """k-sample average-likelihood lower-bound estimators of the log ML, one per k in ``ks``.

    For each point, draws k parameters from the posterior given the preceding
    points and scores ``log mean_j N(y_i; phi_i theta_j, sN^2)``.  ``ks`` is a
    sequence of ints, and the list holds one estimate per entry, in order.
    All k reuse nested draws (the first samples of the largest k), which
    couples the estimates across k.  The k = 1 entry is the posterior-sample
    estimator: one parameter draw per point.
    """
    per_seed = _prequential_chain(model, data).lk_per_seed(tuple(ks), n_seeds, seed)
    return [_estimate(row) for row in per_seed]


def estimate_LS(model: BlrModel, data: OrderedDataset, k: int, seed: int = 0) -> float:
    """Gaussian moment-matched estimator from k posterior-predictive samples.

    Scores each point under ``N(y_i; mean-hat, var-hat + sN^2)`` with the
    unbiased sample variance (divisor k-1).  Stays finite as the noise
    variance shrinks, unlike the average-likelihood estimators.
    """
    return float(_prequential_chain(model, data).ls_per_seed(k, [seed])[0])


@np.errstate(over="ignore", invalid="ignore")
def _gd_minimize(phi, y_tilde, lam, theta_init, theta0, lr, steps):
    """Gradient descent on ||y - Phi t||^2 + lam ||t - t0||^2.

    Raises :class:`FloatingPointError` at the first step whose loss is not
    finite or has risen for 100 consecutive steps.
    """
    theta = theta_init.copy()
    prev_loss = np.inf
    rising = 0
    for step in range(steps):
        resid = phi @ theta - y_tilde
        loss = float(resid @ resid + lam * np.sum((theta - theta0) ** 2))
        rising = rising + 1 if loss > prev_loss else 0
        if rising >= 100 or not np.isfinite(loss):
            raise FloatingPointError(f"gradient descent diverged at step {step}: loss {loss:.3e}")
        prev_loss = loss
        theta = theta - lr * (2.0 * phi.T @ resid + 2.0 * lam * (theta - theta0))
    return theta


def _prior_draw(model: BlrModel, y: np.ndarray, d: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """One seed's prior draw ``theta0``, then noised targets ``y~`` (a prefix of m reads y~[:m])."""
    rng = np.random.default_rng(seed)
    theta0 = np.sqrt(model.prior_variance) * rng.standard_normal(d)
    return theta0, y + np.sqrt(model.noise_variance) * rng.standard_normal(y.size)


def sample_then_optimize(
    model: BlrModel, data: OrderedDataset, seed: int, lr: float = 1e-3, steps: int = 5000,
    upto: int | None = None, method: str = "gd",
) -> np.ndarray:
    """Posterior sampling by regularized least squares from a prior draw.

    Draws ``theta0`` from the prior and a noised copy of the targets, then
    minimizes ``||y~ - Phi theta||^2 + (sN^2/s0^2) ||theta - theta0||^2``
    (gradient descent, or the closed-form solution with ``method="exact"``).
    The exact minimizer is distributed as the posterior given the prefix.
    """
    if lr <= 0 or steps < 0:
        raise ValueError("lr must be positive and steps nonnegative")
    if method not in SAMPLER_METHODS:
        raise ValueError(f"unknown method {method!r}")
    m = data.n if upto is None else int(upto)
    if not 0 <= m <= data.n:
        raise ValueError(f"upto must lie in [0, {data.n}], got {m}")
    phi, y = data.features_and_targets(model)
    theta0, y_tilde = _prior_draw(model, y, phi.shape[1], seed)
    phi, y_tilde = phi[:m], y_tilde[:m]
    if method == "exact":  # the posterior mean under prior mean theta0 and targets y~
        return theta0 + _posteriors(model, phi, y_tilde - phi @ theta0, [m])[0][0]
    return _gd_minimize(phi, y_tilde, model.noise_variance / model.prior_variance, theta0, theta0, lr, steps)


def algorithm1_sumloss(
    model: BlrModel, data: OrderedDataset, seeds, lr: float = 1e-3, steps_per_point: int = 5000,
    method: str = "gd",
) -> np.ndarray:
    """Prequential sum-of-losses estimates of the log ML from iterated optimization.

    Walks the data in presentation order, scoring the current parameters on
    each point (true targets) before re-optimizing on the noised prefix, warm
    started.  Each score is ``-sumLoss - (n/2) log(2 pi sN^2)``, directly
    comparable to :func:`estimate_Lk`'s k = 1 entry.  ``seeds`` is a
    sequence of ints, and the array holds one score per seed, in order.
    Exact mode predicts ``y~ - e(y~ - Phi theta0)`` with innovations e; gd
    mode fits only the prefixes that are scored (1..n-1 points), so a
    divergence that would occur only when fitting the whole dataset does not
    raise.  A gd fit that diverges raises :class:`FloatingPointError`.
    """
    if lr <= 0 or steps_per_point < 0:
        raise ValueError("lr must be positive and steps nonnegative")
    if method not in SAMPLER_METHODS:
        raise ValueError(f"unknown method {method!r}")
    phi, y = data.features_and_targets(model)
    n, d = phi.shape
    nv, lam = model.noise_variance, model.noise_variance / model.prior_variance
    draws = [_prior_draw(model, y, d, int(s)) for s in seeds]
    theta0s = np.reshape([theta0 for theta0, _ in draws], (len(draws), d))  # one row per seed
    y_tildes = np.reshape([y_tilde for _, y_tilde in draws], (len(draws), n))
    if method == "exact":
        preds = y_tildes - _innovations(model, phi, y_tildes - theta0s @ phi.T)[0]
    else:
        preds = np.empty_like(y_tildes)
        for pred, theta0, y_tilde in zip(preds, theta0s, y_tildes):
            thetas = [theta0]  # thetas[i] is fitted to the i points before point i
            for i in range(1, n):
                thetas.append(_gd_minimize(phi[:i], y_tilde[:i], lam, thetas[-1], theta0, lr, steps_per_point))
            pred[:] = np.sum(phi * np.reshape(thetas[:n], (n, d)), axis=1)
    return -np.sum((preds - y) ** 2, axis=1) / (2.0 * nv) - 0.5 * n * np.log(2.0 * np.pi * nv)


def model_selection_task(kind: str, seed: int = 0) -> tuple[list[BlrModel], OrderedDataset]:
    """Synthetic model-comparison tasks with a known best model.

    feature_dimension: 30 points whose first 15 coordinates are the target
    plus unit noise and last 15 are pure noise; models use the first d
    coordinates, d = 5..30.  The model noise variance is 0.01: with unit
    noise the evidence differences between dimensions are so small that the
    per-parameter Occam cost always favours the smallest model, while at 0.01
    the evidence reliably peaks at the 15 informative features.
    prior_variance: fixed linear data, models sweep the prior scale.
    rff_frequency: binary targets from a thresholded sinusoid, models sweep
    the random-Fourier frequency.
    """
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "feature_dimension":
        n, k_informative, p = 30, 15, 30
        y = rng.uniform(0.0, 1.0, size=n)
        noise = rng.standard_normal((n, p))
        X = noise.copy()
        X[:, :k_informative] += y[:, None]
        models = [
            BlrModel(feature_map=d, prior_variance=1.0, noise_variance=0.01)
            for d in range(5, p + 1)
        ]
        return models, OrderedDataset(inputs=X, targets=y)
    if kind == "prior_variance":
        n, p = 30, 5
        X = rng.standard_normal((n, p))
        w_true = rng.standard_normal(p)
        y = X @ w_true + rng.standard_normal(n)
        scales = np.geomspace(1e-2, 1e2, 9)
        models = [BlrModel(feature_map=None, prior_variance=float(s), noise_variance=1.0) for s in scales]
        return models, OrderedDataset(inputs=X, targets=y)
    n = 30  # rff_frequency
    x = rng.uniform(-3.0, 3.0, size=(n, 1))
    y = (np.sin(2.0 * x[:, 0]) > 0).astype(float)
    freqs = np.geomspace(0.1, 10.0, 7)
    models = [
        BlrModel(
            feature_map=make_rff_feature_map(float(f), n_features=20, seed=seed + 1),
            prior_variance=1.0,
            noise_variance=1.0,
        )
        for f in freqs
    ]
    return models, OrderedDataset(inputs=x, targets=y)


def ensemble_weight_ranking(models, data: OrderedDataset, seed: int = 0) -> np.ndarray:
    """Least-squares stacking weights over prequential sampled predictions.

    Builds the matrix of one-draw posterior predictions (model j's sampled
    prediction for point i given the preceding points) and regresses the
    targets on it with a 1e-10 ridge; higher weight indicates the model whose
    prequential predictions carry the most evidence.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    states = _spawn_states([seed] * len(models), range(len(models)), data.n)
    preds = np.column_stack([_prequential_chain(m, data).draws(s, 1)[:, 0] for m, s in zip(models, states)])
    _, y = data.features_and_targets(models[0])
    gram = preds.T @ preds + 1e-10 * np.eye(len(models))
    return np.linalg.solve(gram, preds.T @ y)


@dataclass(frozen=True)
class EvidenceReport:
    exact_log_ml: float
    L_hat: EstimateResult
    Lk_hat: dict
    LS_hat: EstimateResult
    kl_gap: float


def evidence_report(
    model: BlrModel,
    data: OrderedDataset,
    k_values=(1, 4, 16, 64),
    n_seeds: int = 20,
    ls_samples: int = 16,
    seed: int = 0,
) -> EvidenceReport:
    """Exact evidence next to every estimator, with Monte-Carlo error bars.

    ``Lk_hat`` maps each of ``k_values``, in order, to its L_k estimate.
    """
    k_values = tuple(k_values)
    chain = _prequential_chain(model, data)
    lk = [_estimate(row) for row in chain.lk_per_seed((1,) + k_values, n_seeds, seed)]
    ls_vals = chain.ls_per_seed(ls_samples, [seed + 1 + s for s in range(n_seeds)])
    log_ml, gap = _exact_evidence(model, data)
    return EvidenceReport(
        exact_log_ml=log_ml,
        L_hat=lk[0],
        Lk_hat=dict(zip(k_values, lk[1:])),
        LS_hat=_estimate(ls_vals),
        kl_gap=gap,
    )
