import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import logsumexp

from tdlab import evidence
from tdlab.evidence import (
    SAMPLER_METHODS,
    BlrModel,
    GaussianPosterior,
    OrderedDataset,
    algorithm1_sumloss,
    blr_posterior,
    ensemble_weight_ranking,
    estimate_Lk,
    estimate_LS,
    evidence_report,
    exact_log_ml,
    gaussian_kl,
    kl_gap,
    make_rff_feature_map,
    model_selection_task,
    sample_then_optimize,
)


def joint_evidence_oracle(model, data):
    """log N(y; 0, s0^2 Phi Phi^T + sN^2 I) — the evidence in one Gaussian."""
    phi, y = data.features_and_targets(model)
    cov = model.prior_variance * phi @ phi.T + model.noise_variance * np.eye(data.n)
    return stats.multivariate_normal(mean=np.zeros(data.n), cov=cov).logpdf(y)


def random_task(seed, n=12, d=4, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = X @ w + np.sqrt(noise) * rng.standard_normal(n)
    model = BlrModel(feature_map=None, prior_variance=1.3, noise_variance=noise)
    return model, OrderedDataset(inputs=X, targets=y)


def test_prequential_evidence_equals_joint_gaussian():
    for seed in range(8):
        model, data = random_task(seed)
        assert exact_log_ml(model, data) == pytest.approx(
            joint_evidence_oracle(model, data), abs=1e-8
        )


def test_evidence_is_order_invariant():
    model, data = random_task(0)
    rng = np.random.default_rng(99)
    order = rng.permutation(data.n)
    shuffled = OrderedDataset(inputs=data.inputs[order], targets=data.targets[order])
    assert exact_log_ml(model, shuffled) == pytest.approx(exact_log_ml(model, data), abs=1e-8)


def test_posterior_matches_ridge_normal_equations():
    model, data = random_task(1, n=20, d=5)
    post = blr_posterior(model, data)
    phi, y = data.features_and_targets(model)
    A = np.eye(5) / model.prior_variance + phi.T @ phi / model.noise_variance
    cov = np.linalg.inv(A)
    assert_allclose(post.covariance, cov, atol=1e-10)
    assert_allclose(post.mean, cov @ phi.T @ y / model.noise_variance, atol=1e-10)


def test_scalar_posterior_conjugacy():
    # unit prior, unit noise, single observation at phi=1: mean y/2, var 1/2
    model = BlrModel(feature_map=None, prior_variance=1.0, noise_variance=1.0)
    data = OrderedDataset(inputs=np.array([[1.0]]), targets=np.array([0.8]))
    post = blr_posterior(model, data)
    assert post.mean[0] == pytest.approx(0.4)
    assert post.covariance[0, 0] == pytest.approx(0.5)


def test_posterior_prefix_zero_is_prior():
    model, data = random_task(2)
    post = blr_posterior(model, data, upto=0)
    assert_allclose(post.mean, 0.0, atol=1e-14)
    assert_allclose(post.covariance, model.prior_variance * np.eye(post.dim), atol=1e-14)


def test_gaussian_kl_known_values():
    p = GaussianPosterior(mean=np.zeros(2), covariance=np.eye(2))
    assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-12)
    q = GaussianPosterior(mean=np.array([1.0, 0.0]), covariance=np.eye(2))
    assert gaussian_kl(p, q) == pytest.approx(0.5)
    r = GaussianPosterior(mean=np.zeros(2), covariance=4.0 * np.eye(2))
    # 0.5 * (tr + quad - d + logdet ratio) = 0.5 * (2/4 - 2 + 2 log 4)
    assert gaussian_kl(p, r) == pytest.approx(0.5 * (0.5 - 2.0 + 2.0 * np.log(4.0)))


def test_posterior_sample_estimator_bias_is_kl_gap():
    """E[L-hat] = exact - sum of successive-posterior KLs; check to 3 sigma."""
    model, data = random_task(3, n=10, d=3)
    est = estimate_Lk(model, data, (1,), n_seeds=400, seed=0)[0]
    gap = kl_gap(model, data)
    assert abs(est.value - (exact_log_ml(model, data) - gap)) < 3.0 * est.stderr


def test_nested_k_draws_are_coupled():
    model, data = random_task(4)
    seq = estimate_Lk(model, data, (1, 4, 16), n_seeds=3, seed=7)
    single = estimate_Lk(model, data, (1,), n_seeds=3, seed=7)[0]
    # same underlying draws; only last-ulp BLAS shape effects may differ
    assert seq[0].value == pytest.approx(single.value, rel=1e-12)
    assert_allclose(seq[0].per_seed, single.per_seed, rtol=1e-12)


def test_more_samples_tighten_the_bound():
    model, data = random_task(5)
    exact = exact_log_ml(model, data)
    ests = estimate_Lk(model, data, (1, 4, 16, 64), n_seeds=40, seed=1)
    values = [e.value for e in ests]
    # every estimate stays below the evidence (3-sigma slack)...
    for e in ests:
        assert e.value <= exact + 3.0 * e.stderr
    # ...and the gap shrinks monotonically in k on coupled draws
    assert values == sorted(values)


def test_moment_matched_estimator_edge_cases():
    model, data = random_task(6)
    with pytest.raises(ValueError, match="k >= 2"):
        estimate_LS(model, data, 1)
    tiny = BlrModel(feature_map=None, prior_variance=1.0, noise_variance=1e-12)
    assert np.isfinite(estimate_LS(tiny, data, 8, seed=0))


def test_sample_then_optimize_gd_reaches_exact_solution():
    model, data = random_task(7, n=10, d=3)
    exact = sample_then_optimize(model, data, seed=11, method="exact")
    gd = sample_then_optimize(model, data, seed=11, lr=1e-3, steps=20000, method="gd")
    assert np.max(np.abs(gd - exact)) < 1e-6


def test_sample_then_optimize_samples_the_posterior():
    model, data = random_task(8, n=15, d=3)
    post = blr_posterior(model, data)
    draws = np.array(
        [sample_then_optimize(model, data, seed=s, method="exact") for s in range(2000)]
    )
    scale = np.sqrt(np.max(np.diag(post.covariance)))
    assert np.max(np.abs(np.mean(draws, axis=0) - post.mean)) < 0.05 * max(scale, 1.0)
    emp_cov = np.cov(draws.T)
    assert np.max(np.abs(emp_cov - post.covariance)) < 0.05 * np.max(np.abs(post.covariance)) + 0.02


def test_sample_then_optimize_empty_prefix_returns_prior_draw():
    model, data = random_task(9)
    theta = sample_then_optimize(model, data, seed=3, upto=0, method="exact")
    rng = np.random.default_rng(3)
    expected = np.sqrt(model.prior_variance) * rng.standard_normal(data.inputs.shape[1])
    assert_allclose(theta, expected, atol=1e-12)


def test_sumloss_estimator_agrees_with_posterior_sampling():
    """The iterated-optimization score and the direct posterior-sample score
    estimate the same quantity; their means should agree within noise."""
    model, data = random_task(10, n=10, d=3)
    n_seeds = 150
    alg1 = algorithm1_sumloss(model, data, seeds=range(n_seeds), method="exact")
    direct = estimate_Lk(model, data, (1,), n_seeds=n_seeds, seed=123)[0]
    pooled = np.sqrt(np.var(alg1, ddof=1) / n_seeds + direct.stderr**2)
    assert abs(np.mean(alg1) - direct.value) < 3.0 * pooled


def test_sumloss_empty_dataset_scores_zero():
    model = BlrModel(feature_map=None)
    data = OrderedDataset(inputs=np.zeros((0, 2)), targets=np.zeros(0))
    assert np.array_equal(algorithm1_sumloss(model, data, seeds=[0], method="exact"), [0.0])
    assert np.array_equal(algorithm1_sumloss(model, data, seeds=[0, 1], method="exact"), [0.0, 0.0])


@pytest.mark.parametrize("n", [0, 1])
def test_every_entry_point_on_zero_and_one_points(n):
    """No points score 0 everywhere; one point matches the per-point loops and the joint Gaussian."""
    rng = np.random.default_rng(4)
    model = BlrModel(feature_map=None, prior_variance=1.3, noise_variance=0.5)
    data = OrderedDataset(inputs=rng.standard_normal((n, 3)), targets=rng.standard_normal(n))
    ks, n_seeds, seed, ls_samples = (1, 4), 3, 1, 4
    rep = evidence_report(model, data, k_values=ks, n_seeds=n_seeds, ls_samples=ls_samples, seed=seed)
    lk = estimate_Lk(model, data, ks, n_seeds=n_seeds, seed=seed)
    scores = {
        "exact_log_ml": exact_log_ml(model, data),
        "kl_gap": kl_gap(model, data),
        "L": estimate_Lk(model, data, (1,), n_seeds=n_seeds, seed=seed)[0].per_seed,
        "Lk": [est.per_seed for est in lk],
        "LS": [estimate_LS(model, data, ls_samples, seed=seed + 1 + s) for s in range(n_seeds)],
        "report_exact": [rep.exact_log_ml, rep.kl_gap],
        "report_sampled": [rep.L_hat.per_seed] + [rep.Lk_hat[k].per_seed for k in ks] + [rep.LS_hat.per_seed],
        "alg1": algorithm1_sumloss(model, data, seeds=[0, 7], method="exact"),
    }
    weights = ensemble_weight_ranking([model], data, seed=seed)
    if n == 0:
        for name, value in scores.items():
            assert np.array_equal(value, np.zeros_like(value)), name
        assert np.array_equal(weights, [0.0])
        return
    log_ml, gap, lk_ref, ls_ref = per_point_reference(model, data, ks, n_seeds, seed, ls_samples)
    close = dict(rtol=1e-12, atol=0)
    assert_allclose(scores["exact_log_ml"], joint_evidence_oracle(model, data), **close)
    assert_allclose(scores["exact_log_ml"], log_ml, **close)
    assert_allclose(scores["kl_gap"], gap, **close)
    assert_allclose(scores["L"], lk_ref[0], **close)
    assert_allclose(scores["Lk"], lk_ref, **close)
    assert_allclose(scores["LS"], ls_ref, **close)
    assert_allclose(scores["report_exact"], [log_ml, gap], **close)
    assert_allclose(scores["report_sampled"], [lk_ref[0], *lk_ref, ls_ref], **close)
    assert_allclose(scores["alg1"], [algorithm1_reference(model, data, s) for s in (0, 7)], **close)
    assert_allclose(weights, reference_stacking_weights([model], data, seed), **close)


def ridge_minimizer_reference(model, data, seed, upto):
    """Sample-then-optimize by the ridge normal equations on the first ``upto`` points."""
    phi, y = data.features_and_targets(model)
    phi, y = phi[:upto], y[:upto]
    d = phi.shape[1]
    rng = np.random.default_rng(seed)
    theta0 = np.sqrt(model.prior_variance) * rng.standard_normal(d)
    y_tilde = y + np.sqrt(model.noise_variance) * rng.standard_normal(upto)
    lam = model.noise_variance / model.prior_variance
    return np.linalg.solve(phi.T @ phi + lam * np.eye(d), phi.T @ y_tilde + lam * theta0)


def algorithm1_reference(model, data, seed):
    """Algorithm 1 in exact mode, solving the normal equations afresh after every point."""
    phi, y = data.features_and_targets(model)
    d = phi.shape[1]
    rng = np.random.default_rng(seed)
    theta0 = np.sqrt(model.prior_variance) * rng.standard_normal(d)
    y_tilde = y + np.sqrt(model.noise_variance) * rng.standard_normal(data.n)
    lam = model.noise_variance / model.prior_variance
    theta, sum_loss = theta0, 0.0
    for i in range(data.n):
        sum_loss += (float(phi[i] @ theta) - y[i]) ** 2 / (2.0 * model.noise_variance)
        A, b = phi[: i + 1], y_tilde[: i + 1]
        theta = np.linalg.solve(A.T @ A + lam * np.eye(d), A.T @ b + lam * theta0)
    return -sum_loss - 0.5 * data.n * np.log(2.0 * np.pi * model.noise_variance)


def test_exact_minimizers_read_off_the_posterior_match_the_normal_equations():
    """Algorithm 1 and sample-then-optimize in exact mode equal per-prefix ridge solves."""
    fd_models, fd_data = model_selection_task("feature_dimension", seed=0)
    rff_models, rff_data = model_selection_task("rff_frequency", seed=0)
    cases = [(m, fd_data) for m in fd_models if m.feature_map in (5, 30)] + [(rff_models[3], rff_data)]
    seeds = [0, 7, 7919]
    for model, data in cases:
        expected = [algorithm1_reference(model, data, s) for s in seeds]
        single = [algorithm1_sumloss(model, data, seeds=[s], method="exact") for s in seeds]
        assert all(v.shape == (1,) for v in single)
        assert_allclose(np.concatenate(single), expected, rtol=1e-10, atol=0)
        batched = algorithm1_sumloss(model, data, seeds=seeds, method="exact")
        assert isinstance(batched, np.ndarray) and batched.shape == (len(seeds),)
        assert_allclose(batched, expected, rtol=1e-10, atol=0)
        for upto in (0, 1, 7, 15, 30):
            theta = sample_then_optimize(model, data, seed=seeds[1], upto=upto, method="exact")
            ref = ridge_minimizer_reference(model, data, seeds[1], upto)
            assert np.max(np.abs(theta - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_sumloss_gd_converges_to_exact_mode():
    rng = np.random.default_rng(0)
    data = OrderedDataset(inputs=rng.standard_normal((6, 2)), targets=rng.standard_normal(6))
    (exact,) = algorithm1_sumloss(BlrModel(), data, seeds=[0], method="exact")
    (gd,) = algorithm1_sumloss(BlrModel(), data, seeds=[0], method="gd")
    assert abs(gd - exact) < 1e-4


def test_sumloss_gd_fits_only_the_scored_prefixes(monkeypatch):
    """Per seed, gd Algorithm 1 fits the prefixes of 1..n-1 points; a fit to all n would score nothing."""
    fitted, gd_minimize = [], evidence._gd_minimize

    def counting_gd_minimize(phi, *args):
        fitted.append(len(phi))
        return gd_minimize(phi, *args)

    monkeypatch.setattr(evidence, "_gd_minimize", counting_gd_minimize)
    rng = np.random.default_rng(0)
    data = OrderedDataset(inputs=rng.standard_normal((6, 2)), targets=rng.standard_normal(6))
    assert np.all(np.isfinite(algorithm1_sumloss(BlrModel(), data, seeds=[0, 1], method="gd", steps_per_point=10)))
    assert fitted == [1, 2, 3, 4, 5] * 2
    fitted.clear()
    one = OrderedDataset(inputs=data.inputs[:1], targets=data.targets[:1])
    assert np.all(np.isfinite(algorithm1_sumloss(BlrModel(), one, seeds=[0], method="gd"))) and fitted == []
    empty = OrderedDataset(inputs=np.zeros((0, 2)), targets=np.zeros(0))
    assert np.array_equal(algorithm1_sumloss(BlrModel(), empty, seeds=[0], method="gd"), [0.0]) and fitted == []


def test_gd_refuses_a_non_finite_loss():
    """At lr = 1 the loss overflows; both gd entry points raise instead of returning NaN."""
    models, data = model_selection_task("prior_variance")
    with pytest.raises(FloatingPointError, match=r"diverged at step \d+: loss (inf|nan)"):
        algorithm1_sumloss(models[0], data, seeds=[0], method="gd", lr=1.0, steps_per_point=500)
    with pytest.raises(FloatingPointError, match=r"diverged at step \d+: loss (inf|nan)"):
        sample_then_optimize(models[0], data, seed=0, lr=1.0, steps=500, method="gd")


def test_gd_divergence_names_the_step_and_the_loss():
    models, data = model_selection_task("prior_variance")
    with pytest.raises(FloatingPointError, match=r"diverged at step 100: loss \d\.\d{3}e\+\d+$"):
        algorithm1_sumloss(models[0], data, seeds=[0], method="gd", lr=0.05, steps_per_point=500)


@pytest.mark.parametrize("method", SAMPLER_METHODS)
@pytest.mark.parametrize("bad", [{"steps_per_point": -5}, {"lr": -1e-3}, {"lr": 0.0}])
def test_sumloss_refuses_a_nonpositive_lr_and_negative_steps(method, bad):
    """The same rule and wording as :func:`sample_then_optimize`, in both modes."""
    model, data = random_task(9, n=6)
    with pytest.raises(ValueError, match="lr must be positive and steps nonnegative"):
        algorithm1_sumloss(model, data, seeds=[0], method=method, **bad)


@pytest.mark.parametrize("method", ["gd", "exact"])
@pytest.mark.parametrize("upto", [-1, 11])
def test_sample_then_optimize_refuses_upto_outside_the_data(method, upto):
    model, data = random_task(9, n=10)
    with pytest.raises(ValueError, match=r"upto must lie in \[0, 10\]"):
        sample_then_optimize(model, data, seed=0, upto=upto, method=method)


def test_sotl_decomposition_identity_for_sgd_epoch():
    """Bookkeeping identity: the sum of training losses (SOTL) equals the
    initial losses plus all pairwise interference increments, exactly, for one
    epoch of single-sample SGD on a linear model.  The loss of point i at step
    i telescopes into its loss at the initial parameters plus the changes
    caused by the i-1 earlier steps."""
    rng = np.random.default_rng(12)
    n, d, lr = 20, 4, 0.05
    phi = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    theta = rng.standard_normal(d)

    def loss(i, th):
        return 0.5 * (phi[i] @ th - y[i]) ** 2

    initial = [loss(i, theta) for i in range(n)]
    visited_losses = []
    interference = []
    current = theta.copy()
    for i in range(n):
        visited_losses.append(loss(i, current))
        grad = (phi[i] @ current - y[i]) * phi[i]
        new = current - lr * grad
        # record how this step moves every *later* point's loss
        for j in range(i + 1, n):
            interference.append(loss(j, new) - loss(j, current))
        current = new
    assert np.sum(initial) + np.sum(interference) == pytest.approx(np.sum(visited_losses), abs=1e-8)


def test_model_selection_task_shapes():
    models, data = model_selection_task("feature_dimension", seed=0)
    assert len(models) == 26
    assert [m.feature_map for m in models] == list(range(5, 31))
    assert data.n == 30 and data.inputs.shape == (30, 30)

    models, _ = model_selection_task("prior_variance", seed=0)
    assert len(models) == 9
    models, _ = model_selection_task("rff_frequency", seed=0)
    assert len(models) == 7
    with pytest.raises(ValueError):
        model_selection_task("nonsense")


def test_informative_features_carry_the_evidence():
    models, data = model_selection_task("feature_dimension", seed=0)
    evidences = [exact_log_ml(m, data) for m in models]
    assert models[int(np.argmax(evidences))].feature_map == 15


# Draw-independent oracles: checks on the sampled estimators that hold under
# any seed scheme, since they compare with expectations known in closed form.


def expected_L(model, data):
    """E[L-hat] with no draws (Lyle et al., 2020): point i's prediction
    ``phi_i^T theta``, theta from the posterior given the points before i, has
    mean ``y_i - e_i`` and variance ``v_i = s_i - sN^2``, so its expected log
    likelihood is ``log N(e_i; 0, sN^2) - v_i / (2 sN^2)``."""
    e, s = evidence._innovations(model, *data.features_and_targets(model))
    nv = model.noise_variance
    return float(np.sum(stats.norm.logpdf(e, scale=np.sqrt(nv)) - (s - nv) / (2.0 * nv)))


def test_expected_L_is_the_exact_evidence_less_the_kl_gap():
    models, data = model_selection_task("feature_dimension", seed=0)
    for model in models:
        assert expected_L(model, data) == pytest.approx(exact_log_ml(model, data) - kl_gap(model, data), rel=1e-12)
    # the innovations and predictive variances are those of the prefix posteriors
    for model in (models[0], models[10], models[-1]):
        phi, y = data.features_and_targets(model)
        e, s = evidence._innovations(model, phi, y)
        for i in range(data.n):
            post = blr_posterior(model, data, upto=i)
            assert e[i] == pytest.approx(y[i] - phi[i] @ post.mean, rel=1e-9, abs=1e-12)
            assert s[i] - model.noise_variance == pytest.approx(phi[i] @ post.covariance @ phi[i], rel=1e-9, abs=1e-12)


def test_posterior_sample_estimator_matches_its_expectation_on_every_model():
    models, data = model_selection_task("feature_dimension", seed=0)
    for model in models:
        est = estimate_Lk(model, data, (1,), n_seeds=64, seed=3)[0]
        assert abs(est.value - expected_L(model, data)) <= 4.0 * est.stderr, model.feature_map


def test_k_sample_estimators_rise_with_k_and_stay_below_the_evidence():
    """The k-sample bound is monotone in k in expectation (Burda, Grosse &
    Salakhutdinov, 2016), so the sampled means rise within their errors."""
    models, data = model_selection_task("feature_dimension", seed=0)
    for model in (models[0], models[10], models[-1]):
        exact = exact_log_ml(model, data)
        ests = estimate_Lk(model, data, (1, 4, 16, 64), n_seeds=16, seed=5)
        for lo, hi in zip(ests, ests[1:]):
            assert hi.value >= lo.value - (lo.stderr + hi.stderr), model.feature_map
        for est in ests:
            assert est.value <= exact + 3.0 * est.stderr, model.feature_map


def test_moment_matched_estimator_approaches_the_evidence_at_large_k():
    """With 1024 draws per point the moment-matched predictive is the exact
    Gaussian one up to sampling error: the mean over 8 passes sits within
    4 standard errors of the exact evidence."""
    models, data = model_selection_task("feature_dimension", seed=0)
    for model in (models[0], models[10], models[-1]):
        scores = np.array([estimate_LS(model, data, 1024, seed=20 + s) for s in range(8)])
        stderr = np.std(scores, ddof=1) / np.sqrt(scores.size)
        assert abs(np.mean(scores) - exact_log_ml(model, data)) <= 4.0 * stderr, model.feature_map


def test_posterior_sample_expectation_picks_the_smallest_model():
    """``test_09e``'s known failure by closed form, with no draws: the KL gap
    grows with the dimension so fast that ``E[L]`` peaks at d = 5, while the
    evidence itself peaks at the 15 informative features
    (:func:`test_informative_features_carry_the_evidence`)."""
    models, data = model_selection_task("feature_dimension", seed=0)
    assert models[int(np.argmax([expected_L(m, data) for m in models]))].feature_map == 5


def test_stacking_weights_prefer_the_predictive_model():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((40, 2))
    y = X @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(40)
    data = OrderedDataset(inputs=X, targets=y)
    good = BlrModel(feature_map=None, prior_variance=1.0, noise_variance=0.1)
    blind = BlrModel(feature_map=lambda Z: np.ones((Z.shape[0], 1)), prior_variance=1.0, noise_variance=0.1)
    w = ensemble_weight_ranking([good, blind], data, seed=0)
    assert w.shape == (2,)
    assert w[0] > w[1]


def test_rff_feature_map_is_deterministic():
    fmap = make_rff_feature_map(2.0, n_features=12, seed=5)
    X = np.random.default_rng(0).standard_normal((6, 3))
    assert_allclose(fmap(X), make_rff_feature_map(2.0, n_features=12, seed=5)(X))
    assert fmap(X).shape == (6, 12)
    with pytest.raises(ValueError):
        fmap(np.zeros((2, 9)))
    with pytest.raises(ValueError):
        make_rff_feature_map(-1.0)


def test_evidence_report_bundles_consistent_numbers():
    model, data = random_task(14, n=8, d=3)
    rep = evidence_report(model, data, k_values=(1, 4), n_seeds=10, ls_samples=8, seed=2)
    assert rep.exact_log_ml == pytest.approx(joint_evidence_oracle(model, data), abs=1e-8)
    assert set(rep.Lk_hat) == {1, 4}
    assert rep.L_hat.value == rep.Lk_hat[1].value
    # every estimate lies at most 3 standard errors above the exact log ML
    for est in [rep.L_hat, *rep.Lk_hat.values(), rep.LS_hat]:
        assert est.value <= rep.exact_log_ml + 3.0 * max(est.stderr, 1e-12)
    assert rep.kl_gap == pytest.approx(kl_gap(model, data))
    assert_allclose(rep.LS_hat.per_seed, [estimate_LS(model, data, 8, seed=2 + 1 + s) for s in range(10)])
    # without k = 1 among the k values, L_hat is still the one-draw estimator
    rep = evidence_report(model, data, k_values=(4, 16), n_seeds=10, ls_samples=8, seed=2)
    single = estimate_Lk(model, data, (1,), n_seeds=10, seed=2)[0]
    assert rep.L_hat.value == pytest.approx(single.value, rel=1e-12)
    assert_allclose(rep.L_hat.per_seed, single.per_seed, rtol=1e-12)


def gaussian_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(2.0 * np.pi * var))


def per_point_reference(model, data, ks, n_seeds, seed, ls_samples):
    """Every estimator as a loop that re-solves the posterior at each point.

    Same seeds and draws as the library; a per-k scipy logsumexp instead of a
    running log-sum-exp.
    """
    phi, y = data.features_and_targets(model)
    nv = model.noise_variance

    def draw(i, point_seed, k):
        post = blr_posterior(model, data, upto=i)
        Z = np.random.default_rng(point_seed).standard_normal((k, post.dim))
        return (post.mean + Z @ post.sample_factor().T) @ phi[i]

    log_ml = gap = 0.0
    for i in range(data.n):
        before, after = blr_posterior(model, data, upto=i), blr_posterior(model, data, upto=i + 1)
        var = float(phi[i] @ before.covariance @ phi[i]) + nv
        log_ml += gaussian_logpdf(y[i], float(phi[i] @ before.mean), var)
        gap += gaussian_kl(before, after)
    lk = np.zeros((len(ks), n_seeds))
    for s, pass_seed in enumerate(np.random.SeedSequence(seed).spawn(n_seeds)):
        for i, point_seed in enumerate(pass_seed.spawn(data.n)):
            logliks = gaussian_logpdf(y[i], draw(i, point_seed, max(ks)), nv)
            for a, k in enumerate(ks):
                lk[a, s] += logsumexp(logliks[:k]) - np.log(k)
    ls = np.zeros(n_seeds)
    for s in range(n_seeds):
        point_seeds = np.random.SeedSequence(seed + 1 + s).spawn(1)[0].spawn(data.n)
        for i, point_seed in enumerate(point_seeds):
            f = draw(i, point_seed, ls_samples)
            ls[s] += gaussian_logpdf(y[i], float(np.mean(f)), float(np.var(f, ddof=1)) + nv)
    return log_ml, gap, lk, ls


def reference_stacking_weights(models, data, seed):
    preds = np.zeros((data.n, len(models)))
    for j, model_seed in enumerate(np.random.SeedSequence(seed).spawn(len(models))):
        phi, y = data.features_and_targets(models[j])
        for i, point_seed in enumerate(model_seed.spawn(data.n)):
            post = blr_posterior(models[j], data, upto=i)
            theta = post.mean + post.sample_factor() @ np.random.default_rng(point_seed).standard_normal(post.dim)
            preds[i, j] = float(phi[i] @ theta)
    return np.linalg.solve(preds.T @ preds + 1e-10 * np.eye(len(models)), preds.T @ y)


def test_shared_chain_reproduces_per_point_loops():
    """Reading every estimator off one posterior chain changes no draw and no value.

    d = 30 has 30 points, so each prefix posterior repeats eigenvalue 1; its
    sample factor depends on the exact covariance, which the chain keeps.  The
    rff_frequency model covers a callable feature map.
    """
    fd_models, fd_data = model_selection_task("feature_dimension", seed=0)
    rff_models, rff_data = model_selection_task("rff_frequency", seed=0)
    chosen = [([m for m in fd_models if m.feature_map in (5, 30)], fd_data), ([rff_models[3]], rff_data)]
    ks, n_seeds, seed, ls_samples = (1, 4, 16, 64), 2, 3, 16
    close = dict(rtol=1e-12, atol=0)
    for model, data in [(m, data) for models, data in chosen for m in models]:
        log_ml, gap, lk, ls = per_point_reference(model, data, ks, n_seeds, seed, ls_samples)
        assert_allclose(exact_log_ml(model, data), log_ml, **close)
        assert_allclose(kl_gap(model, data), gap, **close)
        for a, est in enumerate(estimate_Lk(model, data, ks, n_seeds=n_seeds, seed=seed)):
            assert_allclose(est.per_seed, lk[a], **close)
        ls_values = [estimate_LS(model, data, ls_samples, seed=seed + 1 + s) for s in range(n_seeds)]
        assert_allclose(ls_values, ls, **close)

        rep = evidence_report(model, data, k_values=ks, n_seeds=n_seeds, ls_samples=ls_samples, seed=seed)
        assert_allclose(rep.exact_log_ml, log_ml, **close)
        assert_allclose(rep.kl_gap, gap, **close)
        assert tuple(rep.Lk_hat) == ks
        for a, est in enumerate([rep.L_hat] + [rep.Lk_hat[k] for k in ks]):
            per_seed = lk[max(a - 1, 0)]
            assert_allclose(est.per_seed, per_seed, **close)
            assert_allclose(est.value, np.mean(per_seed), **close)
            assert_allclose(est.stderr, np.std(per_seed, ddof=1) / np.sqrt(n_seeds), **close)
        assert_allclose(rep.LS_hat.per_seed, ls, **close)
        assert_allclose(rep.LS_hat.value, np.mean(ls), **close)
        assert_allclose(rep.LS_hat.stderr, np.std(ls, ddof=1) / np.sqrt(n_seeds), **close)
    for models, data in chosen:
        assert_allclose(
            ensemble_weight_ranking(models, data, seed=seed),
            reference_stacking_weights(models, data, seed),
            **close,
        )


_PASSES = st.lists(st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**32 - 1)), min_size=1, max_size=3)


@settings(max_examples=60)
@given(_PASSES, st.sampled_from([0, 1, 30]))
@example([(0, 0), (2**32 - 1, 1), (2**32, 7), (2**128 - 1, 2**32 - 1)], 30)
def test_spawn_states_are_numpys_spawned_seed_words(passes, n):
    """One vectorized hash gives every child's PCG64 seed words exactly, and
    the ``ISeedSequence`` adapter draws ``default_rng(child)``'s normals."""
    states = evidence._spawn_states([e for e, _ in passes], [key for _, key in passes], n)
    assert states.shape == (len(passes), n, 4) and states.dtype == np.uint64
    seed_words = evidence._seed_words_type()
    for (entropy, key), pass_states in zip(passes, states):
        for child, words in zip(np.random.SeedSequence(entropy, spawn_key=(key,)).spawn(n), pass_states):
            assert np.array_equal(words, child.generate_state(4, np.uint64))
            adapted = np.random.Generator(np.random.PCG64(seed_words(words)))
            assert np.array_equal(adapted.standard_normal(3), np.random.default_rng(child).standard_normal(3))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_sampled_estimators_refuse_a_seed_outside_128_bits(seed):
    model, data = random_task(9, n=4)
    calls = [
        lambda: estimate_Lk(model, data, (1, 4), seed=seed),
        lambda: estimate_LS(model, data, 4, seed=seed),
        lambda: evidence_report(model, data, n_seeds=2, seed=seed),
        lambda: ensemble_weight_ranking([model], data, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*128\)"):
            call()


@pytest.mark.parametrize("eigenvalue, refused", [(-1e-9, True), (-1e-11, False)])
def test_chain_refuses_a_posterior_that_is_not_psd(monkeypatch, eigenvalue, refused):
    """The chain's stacked eigendecomposition keeps the container's PSD rule and tolerance."""
    model, data = random_task(3, n=5, d=3)
    posteriors = evidence._posteriors

    def with_bad_last_covariance(*args):
        means, covs = posteriors(*args)
        covs[-1] = np.diag([1.0, eigenvalue, 1.0])
        return means, covs

    monkeypatch.setattr(evidence, "_posteriors", with_bad_last_covariance)
    if refused:
        with pytest.raises(ValueError, match="positive semidefinite"):
            estimate_Lk(model, data, (1,))[0]
    else:
        assert np.isfinite(estimate_Lk(model, data, (1,))[0].value)


def test_posterior_container_validation():
    with pytest.raises(ValueError):
        GaussianPosterior(mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        GaussianPosterior(mean=np.zeros(3), covariance=np.eye(2))


@pytest.mark.parametrize("field", ["prior_variance", "noise_variance"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_model_refuses_variances_that_are_not_finite_and_positive(field, value):
    """A NaN variance would otherwise pass ``<= 0`` and turn the exact evidence into NaN."""
    with pytest.raises(ValueError, match="positive"):
        BlrModel(**{field: value})


def test_dataset_validation():
    with pytest.raises(ValueError):
        OrderedDataset(inputs=np.ones((3, 2)), targets=np.ones(4))
    with pytest.raises(ValueError):
        OrderedDataset(inputs=np.array([[np.inf, 0.0]]), targets=np.ones(1))
