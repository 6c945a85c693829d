"""Bayesian linear regression evidence and its training-speed estimators.

Everything is conjugate-Gaussian: posteriors and the prequential log marginal
likelihood are exact, and the three Monte-Carlo estimators (posterior-sample
log likelihood, k-sample average likelihood, and Gaussian moment-matched) are
lower bounds validated against them.  The sample-then-optimize sampler mirrors
the gradient-descent procedure of the marginal-likelihood-from-training-loss
connection; its converged iterates are exact posterior samples, so the exact
modes of it and of Algorithm 1 read each minimizer off a posterior covariance
(:func:`blr_posterior` is the only solve of the normal equations).  The
other estimators read one prequential chain (the posteriors after 0..n points
and their sample factors), built once per (model, data) and shared by
``evidence_report``; each sampled pass comes from its one draw routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .flows import DivergenceDetected

_COV_TOL = 1e-10


class DegenerateSample(RuntimeError):
    """A sample-based variance estimate collapsed (k < 2 or nonpositive variance)."""


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
        if self.prior_variance <= 0 or self.noise_variance <= 0:
            raise ValueError("variances must be positive")

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
        if float(np.min(np.linalg.eigvalsh(cov))) < -_COV_TOL:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample_factor(self) -> np.ndarray:
        """Matrix L with L L^T = covariance (eigenvalue clamped at zero)."""
        w, U = np.linalg.eigh(self.covariance)
        return U * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class OrderedDataset:
    """Inputs/targets plus the presentation order used by prequential scores."""

    inputs: np.ndarray
    targets: np.ndarray
    order: np.ndarray | None = None

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        n = inputs.shape[0]
        if targets.shape != (n,):
            raise ValueError("targets must have one entry per input row")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("data must be finite")
        order = np.arange(n) if self.order is None else np.asarray(self.order, dtype=int)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def reordered(self, model: BlrModel) -> tuple[np.ndarray, np.ndarray]:
        """(features, targets) arranged in presentation order."""
        phi = model.features(self.inputs)
        return phi[self.order], self.targets[self.order]


def blr_posterior(model: BlrModel, data: OrderedDataset, upto: int | None = None) -> GaussianPosterior:
    """Conjugate posterior after the first ``upto`` points in presentation order."""
    phi, y = data.reordered(model)
    m = data.n if upto is None else int(upto)
    if not 0 <= m <= data.n:
        raise ValueError("upto must lie in [0, n]")
    phi, y = phi[:m], y[:m]
    d = phi.shape[1]
    precision = np.eye(d) / model.prior_variance + (phi.T @ phi) / model.noise_variance
    cov = np.linalg.solve(precision, np.eye(d))
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (phi.T @ y) / model.noise_variance
    return GaussianPosterior(mean=mean, covariance=cov)


def _gaussian_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(2.0 * np.pi * var))


def exact_log_ml(model: BlrModel, data: OrderedDataset) -> float:
    """Prequential log marginal likelihood: sum of one-step predictive log densities.

    Equals the joint Gaussian evidence ``log N(y; 0, s0^2 Phi Phi^T + sN^2 I)``
    for any presentation order.
    """
    return _prequential_chain(model, data).log_ml()


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
    """
    return _prequential_chain(model, data).kl_gap()


class EstimateResult(NamedTuple):
    value: float
    stderr: float
    per_seed: np.ndarray


def _estimate(per_seed: np.ndarray) -> EstimateResult:
    """Mean over seeds with its standard error (0 for a single seed)."""
    n_seeds = per_seed.size
    stderr = float(np.std(per_seed, ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0
    return EstimateResult(value=float(np.mean(per_seed)), stderr=stderr, per_seed=per_seed)


class _Chain(NamedTuple):
    """The prequential posteriors of one (model, data) pair, in presentation order."""

    phi: np.ndarray  # (n, d) features
    y: np.ndarray  # (n,) targets
    posts: list  # n + 1 posteriors, after 0..n points
    factors: list  # sample factors of posts[0..n-1]
    noise_variance: float

    def log_ml(self) -> float:
        total = 0.0
        for phi_i, y_i, post in zip(self.phi, self.y, self.posts):
            mean = float(phi_i @ post.mean)
            var = float(phi_i @ post.covariance @ phi_i) + self.noise_variance
            total += _gaussian_logpdf(y_i, mean, var)
        return float(total)

    def kl_gap(self) -> float:
        return float(sum(gaussian_kl(p, q) for p, q in zip(self.posts, self.posts[1:])))

    def draws(self, pass_seed: np.random.SeedSequence, k: int) -> np.ndarray:
        """(n, k) sampled predictions: row i from the posterior given the points before i, seeded by child i."""
        rows = []
        for phi_i, post, L, point_seed in zip(self.phi, self.posts, self.factors, pass_seed.spawn(len(self.y))):
            Z = np.random.default_rng(point_seed).standard_normal((k, L.shape[0]))
            rows.append((post.mean + Z @ L.T) @ phi_i)
        return np.reshape(rows, (len(self.y), k))

    def lk_per_seed(self, ks: tuple, n_seeds: int, seed: int) -> np.ndarray:
        """Summed L_k point scores, shape (len(ks), n_seeds), on nested draws of max(ks)."""
        if min(ks) < 1 or n_seeds < 1:
            raise ValueError("k and n_seeds must be positive")
        k_max = max(ks)
        logliks = np.array([
            _gaussian_logpdf(self.y[:, None], self.draws(pass_seed, k_max), self.noise_variance)
            for pass_seed in np.random.SeedSequence(seed).spawn(n_seeds)
        ])
        # Running log-sum-exp over the draws: entry k-1 is log sum_{j<k} exp(loglik_j).
        # It needs no shift; one shared max shift would underflow, since on the
        # feature_dimension task (d = 30) 64 draws at one point span up to ~3e4 nats.
        prefix = np.logaddexp.accumulate(logliks, axis=2)
        ks = np.asarray(ks)
        return np.ascontiguousarray((prefix[:, :, ks - 1] - np.log(ks)).sum(axis=1).T)

    def ls_total(self, k: int, seed: int) -> float:
        """One seed's moment-matched score from k draws per point."""
        if k < 2:
            raise DegenerateSample("estimate_LS needs k >= 2 samples for a variance")
        f = self.draws(np.random.SeedSequence(seed).spawn(1)[0], k)
        var = np.var(f, axis=1, ddof=1) + self.noise_variance
        if np.any(var <= 0):
            raise DegenerateSample("nonpositive predictive variance estimate")
        return float(np.sum(_gaussian_logpdf(self.y, np.mean(f, axis=1), var)))


def _prequential_chain(model: BlrModel, data: OrderedDataset) -> _Chain:
    phi, y = data.reordered(model)
    posts = [blr_posterior(model, data, upto=i) for i in range(data.n + 1)]
    return _Chain(phi, y, posts, [p.sample_factor() for p in posts[:-1]], model.noise_variance)


def estimate_Lk(model: BlrModel, data: OrderedDataset, k, n_seeds: int = 1, seed: int = 0):
    """k-sample average-likelihood lower-bound estimator of the log ML.

    For each point, draws k parameters from the posterior given the preceding
    points and scores ``log mean_j N(y_i; phi_i theta_j, sN^2)``.  ``k`` may be
    an int or a sequence of ints; a sequence reuses nested draws (the first
    samples of the largest k), which couples the estimates across k and makes
    ``estimate_Lk(..., 1, ...)`` coincide exactly with :func:`estimate_L`.
    """
    ks = (k,) if np.isscalar(k) else tuple(k)
    per_seed = _prequential_chain(model, data).lk_per_seed(ks, n_seeds, seed)
    results = [_estimate(row) for row in per_seed]
    return results[0] if np.isscalar(k) else results


def estimate_L(model: BlrModel, data: OrderedDataset, n_seeds: int = 1, seed: int = 0) -> EstimateResult:
    """Posterior-sample estimator: one parameter draw per point (k = 1 case)."""
    return estimate_Lk(model, data, 1, n_seeds=n_seeds, seed=seed)


def estimate_LS(model: BlrModel, data: OrderedDataset, k: int, seed: int = 0) -> float:
    """Gaussian moment-matched estimator from k posterior-predictive samples.

    Scores each point under ``N(y_i; mean-hat, var-hat + sN^2)`` with the
    unbiased sample variance (divisor k-1).  Stays finite as the noise
    variance shrinks, unlike the average-likelihood estimators.
    """
    return _prequential_chain(model, data).ls_total(k, seed)


def _gd_minimize(phi, y_tilde, lam, theta_init, theta0, lr, steps):
    """Gradient descent on ||y - Phi t||^2 + lam ||t - t0||^2; flags divergence."""
    theta = theta_init.copy()
    prev_loss = np.inf
    rising = 0
    for step in range(steps):
        resid = phi @ theta - y_tilde
        loss = float(resid @ resid + lam * np.sum((theta - theta0) ** 2))
        if loss > prev_loss:
            rising += 1
            if rising >= 100:
                raise DivergenceDetected(float(step), loss)
        else:
            rising = 0
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
    if method not in ("gd", "exact"):
        raise ValueError(f"unknown method {method!r}")
    m = data.n if upto is None else int(upto)
    if not 0 <= m <= data.n:
        raise ValueError(f"upto must lie in [0, {data.n}], got {m}")
    phi, y = data.reordered(model)
    theta0, y_tilde = _prior_draw(model, y, phi.shape[1], seed)
    phi, y_tilde = phi[:m], y_tilde[:m]
    if method == "exact":
        cov = blr_posterior(model, data, upto=m).covariance
        return cov @ (phi.T @ y_tilde / model.noise_variance + theta0 / model.prior_variance)
    return _gd_minimize(phi, y_tilde, model.noise_variance / model.prior_variance, theta0, theta0, lr, steps)


def algorithm1_sumloss(
    model: BlrModel, data: OrderedDataset, seed, lr: float = 1e-3, steps_per_point: int = 5000,
    method: str = "gd",
) -> float | np.ndarray:
    """Prequential sum-of-losses estimate of the log ML from iterated optimization.

    Walks the data in presentation order, scoring the current parameters on
    each point (true targets) before re-optimizing on the noised prefix, warm
    started.  Returns ``-sumLoss - (n/2) log(2 pi sN^2)``, directly comparable
    to :func:`estimate_L`.  ``seed`` may be an int or a sequence of ints; a
    sequence returns an array of one score per seed, in order, sharing the
    posterior covariances ``Sigma_1..Sigma_{n-1}`` in exact mode.  Only the
    prefixes that are scored are fitted (1..n-1 points), so a gd divergence
    that would occur only when fitting the whole dataset does not raise.
    """
    if method not in ("gd", "exact"):
        raise ValueError(f"unknown method {method!r}")
    phi, y = data.reordered(model)
    n, d = phi.shape
    nv, lam = model.noise_variance, model.noise_variance / model.prior_variance
    if method == "exact":  # covs[i] = Sigma_{i+1}, the posterior covariance after points 0..i
        covs = np.reshape([blr_posterior(model, data, upto=m).covariance for m in range(1, n)], (-1, d, d))
    scores = []
    for s in np.atleast_1d(seed):
        theta0, y_tilde = _prior_draw(model, y, d, int(s))
        thetas = [theta0]  # thetas[i] is fitted to the i points before point i
        if method == "exact":  # Sigma_{i+1} (sum_{j<=i} phi_j y~_j + lam theta0) / sN^2
            rhs = (np.cumsum(phi * y_tilde[:, None], axis=0)[:-1] + lam * theta0) / nv
            thetas += list(np.einsum("ijk,ik->ij", covs, rhs))
        else:
            for i in range(1, n):
                thetas.append(_gd_minimize(phi[:i], y_tilde[:i], lam, thetas[-1], theta0, lr, steps_per_point))
        preds = np.sum(phi * np.reshape(thetas[:n], (n, d)), axis=1)
        scores.append(-np.sum((preds - y) ** 2) / (2.0 * nv) - 0.5 * n * np.log(2.0 * np.pi * nv))
    return float(scores[0]) if np.isscalar(seed) else np.array(scores)


def sotl(loss_sequence) -> float:
    """Sum of training losses."""
    return float(np.sum(np.asarray(loss_sequence, dtype=float)))


def sotl_decomposition(initial_losses, interference_terms) -> float:
    """Initial empirical risk plus accumulated interference.

    For one epoch of minibatch-1 SGD on a linear model this equals
    :func:`sotl` of the pre-update per-point losses exactly: the loss of point
    i at step i telescopes into its loss at the initial parameters plus the
    changes caused by the i-1 earlier steps.
    """
    return float(np.sum(np.asarray(initial_losses, dtype=float)) + np.sum(np.asarray(interference_terms, dtype=float)))


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
    if kind == "rff_frequency":
        n = 30
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
    raise ValueError(f"unknown task kind {kind!r}")


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
    model_seeds = np.random.SeedSequence(seed).spawn(len(models))
    preds = np.column_stack([_prequential_chain(m, data).draws(s, 1)[:, 0] for m, s in zip(models, model_seeds)])
    _, y = data.reordered(models[0])
    gram = preds.T @ preds + 1e-10 * np.eye(len(models))
    return np.linalg.solve(gram, preds.T @ y)


@dataclass(frozen=True)
class EvidenceReport:
    exact_log_ml: float
    L_hat: EstimateResult
    Lk_hat: dict
    LS_hat: EstimateResult
    kl_gap: float
    n_seeds: int
    k_values: tuple

    def lower_bounds_hold(self, slack_sigmas: float = 3.0) -> bool:
        bounds = [self.L_hat] + list(self.Lk_hat.values()) + [self.LS_hat]
        return all(
            est.value <= self.exact_log_ml + slack_sigmas * max(est.stderr, 1e-12)
            for est in bounds
        )


def evidence_report(
    model: BlrModel,
    data: OrderedDataset,
    k_values=(1, 4, 16, 64),
    n_seeds: int = 20,
    ls_samples: int = 16,
    seed: int = 0,
) -> EvidenceReport:
    """Exact evidence next to every estimator, with Monte-Carlo error bars."""
    k_values = tuple(k_values)
    chain = _prequential_chain(model, data)
    lk = [_estimate(row) for row in chain.lk_per_seed((1,) + k_values, n_seeds, seed)]
    ls_vals = np.array([chain.ls_total(ls_samples, seed + 1 + s) for s in range(n_seeds)])
    return EvidenceReport(
        exact_log_ml=chain.log_ml(),
        L_hat=lk[0],
        Lk_hat=dict(zip(k_values, lk[1:])),
        LS_hat=_estimate(ls_vals),
        kl_gap=chain.kl_gap(),
        n_seeds=n_seeds,
        k_values=k_values,
    )
