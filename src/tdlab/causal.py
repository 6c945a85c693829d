"""Invariant causal prediction and the linear ancestor-closure abstraction.

Multi-environment datasets carry per-step inputs, next-step values, and
rewards.  A regression's residuals are judged invariant when neither their
means nor their variances differ detectably across environments; subsets that
pass are causal candidates, and the closure loop walks from the reward through
its ancestors.  Every subset's design is a column subset of one pooled design
``D = [1, X]``, so each dataset is factored once, ``D = QR``: a subset's fit
is the projection onto the span of its columns of the small ``R``, and one
QR serves all 2^p subsets of every target the closure expands.  Mean-centred
Levene is by definition the one-way F-test of the absolute deviations from
each environment's mean, so one group-sum ANOVA (:func:`_one_way_f`) serves
both tests: per-environment sums from one ``np.add.reduceat``, the deviations
it writes in place for the two-pass within-group SS (and, made absolute, for
Levene), and the exact constant-row test only where that SS is rounding
noise; p-values come from the F distribution's tail in numpy
(:func:`_f_upper_tail`).  The synthetic three-variable family reproduces the
classic trap where a non-causal variable mirrors a causal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

_MAX_VARIABLES = 12
_SCAN_BLOCK = 64
# the F tail's continued fraction converges within ~72 steps; reaching this many raises
_CF_STEPS = 1000
_REWARD = "reward"


class Environment(NamedTuple):
    inputs: np.ndarray       # (n_e, p) states x_t
    next_inputs: np.ndarray  # (n_e, p) states x_{t+1}
    rewards: np.ndarray      # (n_e,)


@dataclass(frozen=True)
class EnvDataset:
    environments: tuple

    def __post_init__(self):
        envs = []
        p = None
        for env in self.environments:
            env = Environment(*(np.asarray(a, dtype=float) for a in env))
            n_e, p_e = env.inputs.shape
            if p is None:
                p = p_e
            if env.inputs.shape != (n_e, p) or env.next_inputs.shape != (n_e, p):
                raise ValueError("environments must share the same variable count")
            if env.rewards.shape != (n_e,):
                raise ValueError("rewards must have one entry per step")
            if n_e < p + 2:
                raise ValueError(f"environment too small: {n_e} rows for {p} variables")
            if not all(np.all(np.isfinite(a)) for a in env):
                raise ValueError("environment data must be finite")
            envs.append(env)
        if not envs:
            raise ValueError("dataset must contain at least one environment")
        object.__setattr__(self, "environments", tuple(envs))

    @property
    def n_envs(self) -> int:
        return len(self.environments)

    @property
    def n_vars(self) -> int:
        return self.environments[0].inputs.shape[1]


@dataclass(frozen=True)
class CausalReport:
    selected: frozenset
    per_subset_pvalues: dict
    non_identified: bool


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of A&S 26.5.8, ``I_x(a, b) x^-a (1-x)^-b a B(a, b)``.

    Modified Lentz evaluation (Numerical Recipes, 2nd ed., section 6.4) of the
    fraction's even part, for ``x < (a + 1) / (a + b + 2)``, where it converges
    fast.  Each entry stops at the first step whose factor is within 4 eps of
    one, which took at most 72 steps for degrees of freedom up to 3000.
    """
    c, d = np.ones_like(x), 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    h, out, todo = d.copy(), np.empty_like(x), np.ones(x.shape, dtype=bool)
    for m in range(1, _CF_STEPS + 1):
        for coef in (
            m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / (1.0 + coef * x * d)
            c = 1.0 + coef * x / c
            h *= c * d
        done = todo & (np.abs(c * d - 1.0) <= 4 * np.finfo(float).eps)
        out[done] = h[done]
        todo &= ~done
        if not todo.any():
            return out
    raise FloatingPointError(f"the F-tail continued fraction did not converge in {_CF_STEPS} steps")


def _f_upper_tail(d1: int, d2: int, f: np.ndarray) -> np.ndarray:
    """``P(F > f)`` for F(d1, d2) with integer degrees of freedom, entrywise.

    With ``x = d2 / (d2 + d1 f)`` the tail is ``I_x(d2/2, d1/2)`` (A&S
    26.6.2).  Even ``d1``: the finite sum A&S 26.6.4,
    ``x^(d2/2) sum_{j < d1/2} (d2/2)_j / j! (1 - x)^j``, with
    ``x^(d2/2) = exp(-(d2/2) log1p(d1 f / d2))``; every term is positive, so
    it is accurate far into the tail.  Odd ``d1``: the finite sums A&S
    26.6.5-26.6.8 give the tail only as a difference that cancels where it is
    small, so it is the continued fraction, on the side of the mean where it
    converges fast (``1 - I_{1-x}(d1/2, d2/2)`` on the other).  ``f = inf``
    gives 0 and NaN gives NaN; ``f`` must not be negative.
    """
    a, b = d2 / 2, d1 / 2
    log1p_r = np.log1p(d1 / d2 * f)  # -log x
    if d1 % 2 == 0:
        tail = np.exp(-a * log1p_r)
        if d1 > 2:
            y, poly = -np.expm1(-log1p_r), 1.0
            for j in range(d1 // 2 - 1, 0, -1):  # Horner
                poly = 1.0 + (a + j - 1) / j * y * poly
            tail = tail * poly
        return tail
    with np.errstate(divide="ignore"):
        x, y = np.exp(-log1p_r), -np.expm1(-log1p_r)
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        front = np.exp(-a * log1p_r + b * np.log(y) - log_beta)  # x^a (1-x)^b / B(a, b)
    tail = np.full_like(x, np.nan)
    lower = x < (a + 1) / (a + b + 2)
    upper = x >= (a + 1) / (a + b + 2)  # NaN is on neither side
    tail[lower] = front[lower] / a * _beta_continued_fraction(a, b, x[lower])
    tail[upper] = 1.0 - front[upper] / b * _beta_continued_fraction(b, a, y[upper])
    return tail


def _one_way_f(values: np.ndarray, out: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """One-way ANOVA F of every row, grouping its entries from each of ``starts``.

    Writes each entry less its group's mean into ``out``.  The group sums
    come from one ``np.add.reduceat``; the between-group SS from the
    centred sums, the raw sums less size x grand mean; the within-group SS
    two-pass, from ``out``.  F is inf where every group is constant and NaN
    where the whole row is.  Both are tested exactly, on the rows whose
    within-group SS is within rounding of zero: at most ``(n eps)^2`` times
    the row's raw sum of squares (within SS plus sum^2 / size per group).
    A mean of equal values is off by at most ~``n eps`` of them, so that
    catches every constant group, and its scale, unlike the total SS, is not
    itself rounding noise on a constant row.
    """
    n, k = values.shape[1], len(starts)
    sizes = np.diff(starts, append=n)
    sums = np.add.reduceat(values, starts, axis=1)
    for a, size, total in zip(starts, sizes, sums.T):
        np.subtract(values[:, a:a + size], (total / size)[:, None], out=out[:, a:a + size])
    ss_within = np.einsum("ij,ij->i", out, out)
    ss_between = np.sum((sums - sizes * (sums.sum(axis=1, keepdims=True) / n)) ** 2 / sizes, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ss_between / (k - 1)) / (ss_within / (n - k))
    sum_sq = ss_within + np.sum(sums**2 / sizes, axis=1)
    near_constant = np.flatnonzero(ss_within <= (n * np.finfo(float).eps) ** 2 * sum_sq)
    if near_constant.size:
        same = np.diff(values[near_constant], axis=1) == 0
        row_constant = same.all(axis=1)
        same[:, starts[1:] - 1] = True  # a step from one group into the next never breaks a group
        f[near_constant[same.all(axis=1)]] = np.inf
        f[near_constant[row_constant]] = np.nan
    return f


def _invariance_pvalues(residuals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bonferroni-combined p-value of the two invariance F-tests of every row.

    The residuals by environment (equal means) and their absolute deviations
    from the environment means (mean-centred Levene: equal variances), in two
    passes of :func:`_one_way_f` that reuse the two arrays in place, so
    ``residuals`` is overwritten.  A constant row, which neither test can
    judge, maps to 1.0.
    """
    n, k = residuals.shape[1], len(starts)
    deviations = np.empty_like(residuals)
    f_means = _one_way_f(residuals, deviations, starts)
    f_variances = _one_way_f(np.abs(deviations, out=deviations), residuals, starts)
    p_min = np.fmin(_f_upper_tail(k - 1, n - k, f_means), _f_upper_tail(k - 1, n - k, f_variances))
    return np.where(np.isnan(f_means), 1.0, np.minimum(1.0, 2.0 * p_min))


class _SubsetFits(NamedTuple):
    """Least-squares fits of every candidate subset, read off one QR factor.

    ``q`` is the orthonormal factor of the pooled design ``D = [1, X]``
    (its candidate columns only); ``projectors[j]`` projects onto the span of
    ``R``'s columns for ``subsets[j]`` (with the intercept), so the fitted
    values of a target ``y`` are ``q @ projectors[j] @ q.T @ y``.
    """

    q: np.ndarray            # (n, c + 1)
    subsets: list            # every subset of the candidates, by size
    projectors: np.ndarray   # (2^c, c + 1, c + 1)
    full_rank: np.ndarray    # (2^c,) bool, lstsq's rank rule
    starts: np.ndarray       # each environment's first row in the pooled rows


def _subset_fits(candidates, data: EnvDataset) -> _SubsetFits:
    """Factor the pooled design once and derive every subset's projector.

    With ``D = QR``, the design of subset S is ``Q R_S`` (``R_S``: the
    intercept and S's columns of ``R``), so S's fit needs only the small
    ``R_S``.  One stacked SVD per subset size gives each ``R_S``'s singular
    values, which are the design's; those above lstsq's ``rcond=None`` cut,
    ``eps * max(n, |S| + 1) * sigma_max``, span the fit and set the rank.
    """
    X = np.vstack([env.inputs for env in data.environments])
    n, c = X.shape[0], len(candidates)
    q, r = np.linalg.qr(np.column_stack([np.ones(n), X[:, list(candidates)]]))
    # the intercept's column is exactly sign(r00)/sqrt(n); writing it so keeps
    # the residuals of a target constant in an environment exactly constant there
    q[:, 0] = np.copysign(1.0 / np.sqrt(n), r[0, 0])
    subsets, projectors, full_rank = [], [], []
    for size in range(c + 1):
        positions = list(combinations(range(c), size))
        columns = np.array([(0,) + tuple(1 + a for a in s) for s in positions])
        u, sv, _ = np.linalg.svd(r[:, columns].swapaxes(0, 1), full_matrices=False)
        kept = sv > np.finfo(float).eps * max(n, size + 1) * sv[:, :1]
        u = u * kept[:, None, :]
        subsets += [tuple(candidates[a] for a in s) for s in positions]
        projectors.append(u @ u.transpose(0, 2, 1))
        full_rank.append(kept.all(axis=1))
    starts = np.cumsum([0] + [env.inputs.shape[0] for env in data.environments[:-1]])
    return _SubsetFits(q, subsets, np.concatenate(projectors), np.concatenate(full_rank), starts)


def _scan_subsets(target_by_env, fits: _SubsetFits) -> dict:
    """P-value for every subset in ``fits``; rank-deficient fits map to None.

    Each subset's pooled residuals are one matrix row, computed in place
    over the fitted values, and :func:`_invariance_pvalues` judges up to
    ``_SCAN_BLOCK`` rows at once (bounding memory at 12 variables): both
    F-tests read group sums, so a block takes a few passes over two arrays.
    """
    y = np.concatenate([np.asarray(t, dtype=float) for t in target_by_env])
    b = fits.q.T @ y
    table = {}
    for start in range(0, len(fits.subsets), _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        residuals = (fits.projectors[block] @ b) @ fits.q.T
        pvalues = _invariance_pvalues(np.subtract(y, residuals, out=residuals), fits.starts)
        table.update(
            (s, float(pv) if ok else None)
            for s, pv, ok in zip(fits.subsets[block], pvalues, fits.full_rank[block])
        )
    return table


def _accepted_parents(table: dict, alpha: float) -> tuple[frozenset, bool]:
    """Intersection of the accepted subsets, and whether it is itself accepted (False if none is)."""
    accepted = [frozenset(s) for s, p in table.items() if p is not None and p > alpha]
    parents = frozenset.intersection(*accepted) if accepted else frozenset()
    return parents, parents in accepted


def _check_scan(n_candidates: int, data: EnvDataset, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_candidates > _MAX_VARIABLES:
        raise ValueError(f"subset enumeration capped at {_MAX_VARIABLES} variables")
    if data.n_envs < 2:
        raise ValueError("need at least two environments")


def linear_misa(data: EnvDataset, alpha: float = 0.05) -> CausalReport:
    """Ancestor closure of the reward under invariant causal prediction.

    Starts from the reward, finds its invariant parents at the conservative
    per-call level ``alpha / p``, then recurses into each newly selected
    variable's next-step dynamics; every variable is expanded at most once.
    The report carries every subset's p-value and flags the non-identified
    case, where the subsets the reward scan accepts disagree: their
    intersection is not itself accepted (the i.i.d.-environment signature, a
    shadow variable standing in for a true parent) or nothing is accepted.
    """
    p = data.n_vars
    _check_scan(p, data, alpha)
    per_call_alpha = alpha / p
    fits = _subset_fits(tuple(range(p)), data)
    table_all = {}
    selected: set = set()
    stack = [_REWARD]
    expanded: set = set()
    non_identified = False
    while stack:
        node = stack.pop()
        if node in expanded:
            continue
        expanded.add(node)
        if node == _REWARD:
            target = [env.rewards for env in data.environments]
        else:
            target = [env.next_inputs[:, node] for env in data.environments]
        table = _scan_subsets(target, fits)
        for subset, pv in table.items():
            table_all[(node, subset)] = pv
        parents, identified = _accepted_parents(table, per_call_alpha)
        if node == _REWARD:
            non_identified = not identified
        for v in parents:
            selected.add(v)
            if v not in expanded:
                stack.append(v)
    return CausalReport(
        selected=frozenset(selected),
        per_subset_pvalues=table_all,
        non_identified=non_identified,
    )


def _simulate_three_var(
    rng: np.random.Generator,
    n_steps: int,
    noise_scales,
    clamp: tuple | None = None,
) -> Environment:
    """Trajectory of the three-variable system, optionally with a hard clamp.

    Dynamics: x1' = x1 + e1, x2' = x2 + e2, x3' = x2 + e3 (x3 shadows x2);
    reward = x1 + x2 + N(0, 0.01).  ``clamp=(var, value)`` pins a variable to
    a constant at every step, modelling a hard intervention.
    """
    x0 = rng.standard_normal(3)
    draws = rng.standard_normal((n_steps, 4))  # per step: e1, e2, e3, reward noise
    steps = np.asarray(noise_scales, dtype=float) * draws[:, :3]
    if clamp is not None:
        var, value = clamp
        x0[var] = value
        steps[:, var] = 0.0  # a pinned random walk takes no steps
    walks = np.cumsum(np.vstack([x0[:2], steps[:, :2]]), axis=0)
    states = np.column_stack([walks, np.append(x0[2], walks[:-1, 1] + steps[:, 2])])
    if clamp is not None:
        states[:, var] = value  # the shadow copies x2, so it is pinned afterwards
    inputs, nexts = states[:-1], states[1:].copy()  # overlapping views would alias x_{t+1}
    rewards = inputs[:, 0] + inputs[:, 1] + 0.1 * draws[:, 3]
    return Environment(inputs=inputs, next_inputs=nexts, rewards=rewards)


def build_synthetic_family(
    n_envs: int = 3,
    n_steps: int = 1000,
    seed: int = 0,
    intervention_scales=(3.0, 3.0, 3.0),
) -> EnvDataset:
    """Training environments with soft interventions on one variable each.

    Environment e inflates the noise scale of variable ``e mod 3`` by the
    corresponding entry of ``intervention_scales`` (scale 1 everywhere makes
    the environments i.i.d. and the family non-identifiable).
    """
    if n_envs < 2:
        raise ValueError("need at least two environments")
    envs = []
    for e in range(n_envs):
        scales = np.ones(3)
        scales[e % 3] = intervention_scales[e % len(intervention_scales)]
        rng = np.random.default_rng([seed, e])
        envs.append(_simulate_three_var(rng, n_steps, scales))
    return EnvDataset(environments=tuple(envs))


def fit_reward_weights(data: EnvDataset, subset=None) -> np.ndarray:
    """Pooled least-squares reward predictor, as a full-length weight vector.

    Returns ``(1 + p)`` weights (intercept first); coefficients of variables
    outside ``subset`` are structurally zero.  Raises ``ValueError`` on a
    variable index outside ``[0, p)`` or a repeated one.
    """
    p = data.n_vars
    subset = tuple(range(p)) if subset is None else tuple(sorted(int(v) for v in subset))
    if any(not 0 <= v < p for v in subset) or len(set(subset)) < len(subset):
        raise ValueError(f"subset must hold distinct variable indices in [0, {p}), got {subset}")
    X = np.vstack([env.inputs for env in data.environments])
    y = np.concatenate([env.rewards for env in data.environments])
    design = np.column_stack([np.ones(len(y))] + [X[:, v] for v in subset])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    weights = np.zeros(1 + p)
    weights[0] = coef[0]
    for a, v in enumerate(subset):
        weights[1 + v] = coef[1 + a]
    return weights


class RobustnessCurve(NamedTuple):
    values: np.ndarray
    full_mse: np.ndarray
    misa_mse: np.ndarray


def intervention_robustness(
    weights_full: np.ndarray,
    weights_misa: np.ndarray,
    test_intervention_values,
    seed: int = 0,
    n_steps: int = 1000,
) -> RobustnessCurve:
    """Reward-prediction error of two predictors under hard test interventions.

    For each value v, simulates a fresh environment with the shadow x3
    clamped to v (common random numbers across v, so a predictor that
    ignores x3 traces an exactly flat curve) and reports each predictor's
    mean squared reward error.
    """
    values = np.asarray(list(test_intervention_values), dtype=float)
    weights_full = np.asarray(weights_full, dtype=float)
    weights_misa = np.asarray(weights_misa, dtype=float)
    full_mse = np.empty(len(values))
    misa_mse = np.empty(len(values))
    for a, v in enumerate(values):
        rng = np.random.default_rng([seed, 10_000])
        env = _simulate_three_var(rng, n_steps, np.ones(3), clamp=(2, float(v)))
        design = np.column_stack([np.ones(n_steps), env.inputs])
        full_mse[a] = float(np.mean((design @ weights_full - env.rewards) ** 2))
        misa_mse[a] = float(np.mean((design @ weights_misa - env.rewards) ** 2))
    return RobustnessCurve(values=values, full_mse=full_mse, misa_mse=misa_mse)
