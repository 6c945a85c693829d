"""End-to-end acceptance checks, one test per numbered claim.

Each test prints a one-line summary (visible with ``pytest -rA`` or on
failure) and enforces the stated tolerance and time budget.  Two checks are
known to fail and are kept failing on purpose rather than being quietly
relaxed; the README discusses both:

* ``test_02_error_subspace_aligns_with_top_ebfs_by_t200`` — the 30-chain's
  spectral gap makes the 1e-3 alignment target unreachable by t = 200; the
  companion test shows the identical statistic converging at gap-matched
  horizons.
* ``test_09e_selection_argmax_all_estimators`` — the single-sample
  posterior estimator's per-dimension sampling penalty (hundreds of nats)
  dwarfs the evidence differences (a few nats), so its argmax sits at the
  smallest model no matter how the task is calibrated; the companion covers
  the three estimators that do recover the planted model.
"""

import functools
import time

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from tdlab.capacity import LinearValueModel, feature_rank, update_matrix, update_rank
from tdlab.causal import build_synthetic_family, fit_reward_weights, intervention_robustness, linear_misa
from tdlab.evidence import (
    BlrModel,
    OrderedDataset,
    algorithm1_sumloss,
    estimate_Lk,
    estimate_LS,
    exact_log_ml,
    kl_gap,
    model_selection_task,
)
from tdlab.experiments import run_experiment
from tdlab.flows import (
    DivergenceDetected,
    FlowConfig,
    coupled_feature_flow,
    eigen_bound,
    limiting_ensemble_flow,
    mc_value_flow,
    nstep_value_flow,
    second_order_check,
    td_error_norm,
    td_lambda_value_flow,
    td_value_flow,
)
from tdlab.kernel_td import KernelSpec, build_kernel, circle_embedding, kernel_td_flow, line_embedding, split_kernel
from tdlab.mdp import (
    build_chain_mdp,
    build_circle_mdp,
    exact_value,
    random_mdp,
    random_walk_matrix,
    transition_matrix,
    uniform_policy,
)
from tdlab.spectral import (
    eigenbasis_coefficients,
    eigendecompose,
    grassmann_distance,
    real_invariant_basis,
    resolvent,
    rsbf,
    subspace_from_span,
    vector_subspace_distance,
)


def elapsed_under(started, budget, label):
    took = time.monotonic() - started
    print(f"[acceptance] {label}: {took:.1f}s (budget {budget:.0f}s)")
    assert took < budget, f"{label} exceeded its {budget}s budget ({took:.1f}s)"
    return took


def symmetric_walk(n):
    """Lazy reflecting tridiagonal walk: symmetric with simple spectrum."""
    P = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            P[i, i - 1] = 0.25
        if i < n - 1:
            P[i, i + 1] = 0.25
        P[i, i] = 1.0 - P[i].sum()
    return P


def chain_walk(n):
    mdp = build_chain_mdp(n)
    return mdp, transition_matrix(mdp, uniform_policy(mdp))


# -- 1 -----------------------------------------------------------------------


def test_01_closed_forms_match_rk4():
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 5)
        P = transition_matrix(mdp, uniform_policy(mdp))
        V0 = rng.standard_normal(5)
        for gamma in (0.5, 0.9, 0.99):
            for flow in (
                td_value_flow,
                mc_value_flow,
                lambda v, p, r, c: nstep_value_flow(v, p, r, 3, c),
                lambda v, p, r, c: td_lambda_value_flow(v, p, r, 0.7, c),
            ):
                closed = flow(V0, P, mdp.rewards,
                              FlowConfig(gamma=gamma, t_end=1.0, dt=0.25, method="closed_form"))
                numeric = flow(V0, P, mdp.rewards,
                               FlowConfig(gamma=gamma, t_end=1.0, dt=1e-3, method="rk4"))
                worst = max(worst, float(np.max(np.abs(closed.final - numeric.final))))
    print(f"[acceptance] 01 closed-vs-rk4 sup diff {worst:.2e}")
    assert worst <= 1e-6
    elapsed_under(started, 10.0, "01")


# -- 2 -----------------------------------------------------------------------


def error_subspace_distance(E, ebf):
    if E.shape[1] == 1:
        return vector_subspace_distance(E[:, 0], ebf)
    return grassmann_distance(subspace_from_span(E), ebf)


def test_02_error_subspace_aligns_with_top_ebfs_by_t200():
    """KNOWN FAILURE: the gap 0.9*(lambda_1 - lambda_2) ~ 5e-3 bounds the
    alignment rate, so the K=1 distance is still ~0.35 at t=200.  Kept at the
    stated horizon on purpose; the companion below uses gap-matched horizons."""
    started = time.monotonic()
    mdp, P = chain_walk(30)
    spectrum = eigendecompose(P)
    cfg = FlowConfig(gamma=0.9, t_end=200.0, dt=50.0, method="closed_form")
    counts = {}
    for K in (1, 4):
        ebf = subspace_from_span(real_invariant_basis(spectrum, K))
        good = 0
        for init in range(20):
            V0 = np.random.default_rng([K, init]).standard_normal((30, K))
            traj = td_value_flow(V0, P, mdp.rewards, cfg)
            E = traj.final - traj.meta["fixed_point"][:, None]
            good += error_subspace_distance(E, ebf) < 1e-3
        counts[K] = good
    print(f"[acceptance] 02 inits aligned by t=200: K=1 {counts[1]}/20, K=4 {counts[4]}/20")
    elapsed_under(started, 30.0, "02")
    assert counts[1] >= 19 and counts[4] >= 19


def test_02_companion_alignment_at_gap_matched_horizons():
    """Same statistic as above with horizons set by the spectral gaps
    (t=2500 for K=1, t=400 for K=4) and a zero-reward chain so the error flow
    can be propagated without catastrophic cancellation."""
    started = time.monotonic()
    _, P = chain_walk(30)
    spectrum = eigendecompose(P)
    A = np.eye(30) - 0.9 * P
    for K, horizon in ((1, 2500.0), (4, 400.0)):
        ebf = subspace_from_span(real_invariant_basis(spectrum, K))
        M_t = expm(-horizon * A)
        good = 0
        for init in range(20):
            E0 = np.random.default_rng([K, init]).standard_normal((30, K))
            good += error_subspace_distance(M_t @ E0, ebf) < 1e-3
        assert good >= 19, f"K={K}: only {good}/20 aligned by t={horizon}"
    elapsed_under(started, 30.0, "02-companion")


# -- 3 -----------------------------------------------------------------------


def test_03_wider_ensembles_track_the_limiting_flow():
    started = time.monotonic()
    rng = np.random.default_rng(33)
    mdp = random_mdp(rng, 5)
    P = transition_matrix(mdp, uniform_policy(mdp))
    gamma, K, t_end = 0.9, 3, 5.0
    phi0 = rng.standard_normal((5, K))
    target = limiting_ensemble_flow(phi0, P, np.zeros(5), gamma, t=t_end)
    means = []
    for M in (5, 20, 100, 400):
        errs = []
        for seed in range(20):
            w0 = np.random.default_rng([M, seed]).standard_normal((K, M))
            cfg = FlowConfig(gamma=gamma, alpha=1.0 / M, beta=0.0,
                             t_end=t_end, dt=0.01, method="rk4")
            traj = coupled_feature_flow(phi0, w0, P, np.zeros(5), cfg)
            errs.append(float(np.linalg.norm(traj.final - target)))
        means.append(float(np.mean(errs)))
    print(f"[acceptance] 03 ensemble errors over M: {[f'{m:.3f}' for m in means]}")
    assert all(a > b for a, b in zip(means, means[1:]))
    elapsed_under(started, 60.0, "03")


# -- 4 -----------------------------------------------------------------------


def test_04_cumulant_covariance_matches_resolvent_formula():
    started = time.monotonic()
    rng = np.random.default_rng(44)
    mdp = random_mdp(rng, 10)
    P = transition_matrix(mdp, uniform_policy(mdp))
    gamma = 0.9
    A = rng.standard_normal((10, 10))
    Sigma = A @ A.T
    psi = resolvent(P, gamma)
    target = psi @ Sigma @ psi.T
    root = np.linalg.cholesky(Sigma)
    draws = psi @ (root @ rng.standard_normal((10, 5000)))
    empirical = draws @ draws.T / 5000
    rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
    print(f"[acceptance] 04 covariance relative error {rel:.3f}")
    assert rel < 0.05
    elapsed_under(started, 60.0, "04")


# -- 5 -----------------------------------------------------------------------


def test_05_rsbf_beats_random_subspaces_on_reward_risk():
    started = time.monotonic()
    _, P = chain_walk(20)
    gamma, K = 0.9, 4
    psi = resolvent(P, gamma)
    rng = np.random.default_rng(55)
    samples = psi @ rng.standard_normal((20, 10_000))

    def residual_risk(basis):
        resid = samples - basis @ (basis.T @ samples)
        return float(np.mean(np.sum(resid**2, axis=0)))

    rsbf_risk = residual_risk(rsbf(P, gamma, K).vectors)
    random_risks = np.array([
        residual_risk(subspace_from_span(rng.standard_normal((20, K))).basis)
        for _ in range(1000)
    ])
    print(f"[acceptance] 05 rsbf risk {rsbf_risk:.4f} vs best random {random_risks.min():.4f}")
    assert rsbf_risk <= random_risks.min()
    elapsed_under(started, 60.0, "05")


# -- 6 -----------------------------------------------------------------------


def test_06_eigencoordinate_decay_and_td_error_bound():
    started = time.monotonic()
    # exponential decay of each eigencoordinate of the value error
    rng = np.random.default_rng(66)
    P = random_walk_matrix(rng, 12)
    spectrum = eigendecompose(P)
    R = rng.standard_normal(12)
    gamma = 0.9
    Vpi = exact_value(P, R, gamma)
    V0 = Vpi + rng.standard_normal(12)
    alpha0 = eigenbasis_coefficients(V0 - Vpi, spectrum)
    cfg = FlowConfig(gamma=gamma, t_end=4.0, dt=0.5, method="closed_form")
    traj = td_value_flow(V0, P, R, cfg)
    for t, V_t in zip(traj.times, traj.states):
        coeffs = eigenbasis_coefficients(V_t - Vpi, spectrum)
        expected = alpha0 * np.exp(-t * (1.0 - gamma * spectrum.eigenvalues.real))
        np.testing.assert_allclose(coeffs, expected, rtol=1e-6, atol=1e-12)

    # TD-error bound with equality in the orthogonal-eigenvector case
    P_sym = symmetric_walk(10)
    spec_sym = eigendecompose(P_sym)
    R_sym = rng.standard_normal(10)
    Vpi_sym = exact_value(P_sym, R_sym, gamma)
    worst_violation, worst_equality = -np.inf, 0.0
    for _ in range(1000):
        V = Vpi_sym + rng.standard_normal(10)
        lhs = td_error_norm(V, P_sym, R_sym, gamma)
        rhs = eigen_bound(V, spec_sym, Vpi_sym, gamma)
        worst_violation = max(worst_violation, lhs - rhs)
        worst_equality = max(worst_equality, abs(lhs - rhs))
    print(f"[acceptance] 06 bound slack {worst_violation:.2e}, equality gap {worst_equality:.2e}")
    assert worst_violation <= 1e-9
    assert worst_equality <= 1e-9
    elapsed_under(started, 20.0, "06")


# -- 7 -----------------------------------------------------------------------


def test_07_kernel_td_stability_regimes_on_the_circle():
    started = time.monotonic()
    mdp, train_idx = build_circle_mdp(50, reward_state=24, n_train=40)
    P = transition_matrix(mdp, uniform_policy(mdp))
    embedding = circle_embedding(50, radius=800.0)

    spec = KernelSpec(lengthscale=100.0, embedding=embedding)
    with pytest.raises(DivergenceDetected):
        kernel_td_flow(np.zeros(50), split_kernel(spec, train_idx), P, mdp.rewards, train_idx,
                       FlowConfig(gamma=0.99, t_end=100.0, dt=1.0, method="euler"))

    spec = KernelSpec(lengthscale=0.01, embedding=embedding)
    traj = kernel_td_flow(np.zeros(50), split_kernel(spec, train_idx), P, mdp.rewards, train_idx,
                          FlowConfig(gamma=0.5, t_end=100.0, dt=1.0, method="euler"))
    residual = traj.meta["train_residual_sup"][-1]
    held_out = np.setdiff1d(np.arange(50), train_idx)
    test_sup = float(np.max(np.abs(traj.final[held_out])))
    print(f"[acceptance] 07 train residual {residual:.2e}, held-out sup {test_sup:.2e}")
    assert residual < 1e-3
    assert test_sup < 1e-3
    elapsed_under(started, 20.0, "07")


# -- 8 -----------------------------------------------------------------------


def test_08_richardson_ratios_for_step_size_correction():
    started = time.monotonic()
    rng = np.random.default_rng(88)
    mdp = random_mdp(rng, 5)
    P = transition_matrix(mdp, uniform_policy(mdp))
    V0 = rng.standard_normal(5)
    t_total = 2.0
    errors = []
    for alpha in (0.1, 0.05, 0.025):
        cfg = FlowConfig(gamma=0.9, t_end=t_total, dt=alpha, method="euler")
        discrete, first, corrected = second_order_check(V0, P, mdp.rewards, cfg)
        errors.append((np.linalg.norm(discrete - first), np.linalg.norm(discrete - corrected)))
    for (e1c, e2c), (e1f, e2f) in zip(errors, errors[1:]):
        r1, r2 = e1c / e1f, e2c / e2f
        print(f"[acceptance] 08 ratios first {r1:.2f}, corrected {r2:.2f}")
        assert abs(r1 - 2.0) <= 0.5
        assert abs(r2 - 4.0) <= 1.0
    elapsed_under(started, 10.0, "08")


# -- 9 -----------------------------------------------------------------------


def test_09a_prequential_evidence_equals_joint_gaussian():
    started = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 25)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        model = BlrModel(feature_map=None,
                         prior_variance=float(rng.uniform(0.3, 3.0)),
                         noise_variance=float(rng.uniform(0.2, 2.0)))
        data = OrderedDataset(inputs=X, targets=y)
        cov = model.prior_variance * X @ X.T + model.noise_variance * np.eye(n)
        joint = stats.multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
        worst = max(worst, abs(exact_log_ml(model, data) - joint))
    print(f"[acceptance] 09a max |prequential - joint| {worst:.2e}")
    assert worst <= 1e-8
    elapsed_under(started, 180.0, "09a")


def nine_task():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((20, 5))
    y = X @ rng.standard_normal(5) + 0.5 * rng.standard_normal(20)
    model = BlrModel(feature_map=None, prior_variance=1.0, noise_variance=0.25)
    return model, OrderedDataset(inputs=X, targets=y)


def test_09b_posterior_sample_bias_equals_kl_sum():
    started = time.monotonic()
    model, data = nine_task()
    est = estimate_Lk(model, data, (1,), n_seeds=200, seed=9)[0]
    predicted = exact_log_ml(model, data) - kl_gap(model, data)
    diff = abs(est.value - predicted)
    print(f"[acceptance] 09b |bias - KL sum| {diff:.3f} vs 3 sigma {3 * est.stderr:.3f}")
    assert diff <= 3.0 * est.stderr
    elapsed_under(started, 180.0, "09b")


def test_09c_bound_gap_strictly_shrinks_with_k():
    started = time.monotonic()
    model, data = nine_task()
    exact = exact_log_ml(model, data)
    ests = estimate_Lk(model, data, (1, 4, 16, 64), n_seeds=100, seed=0)
    gaps = [exact - e.value for e in ests]
    print(f"[acceptance] 09c gaps over k: {[f'{g:.3f}' for g in gaps]}")
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed_under(started, 180.0, "09c")


def test_09d_iterated_optimization_agrees_with_posterior_sampling():
    started = time.monotonic()
    model, data = nine_task()
    alg1 = algorithm1_sumloss(model, data, seeds=range(100), method="exact")
    direct = estimate_Lk(model, data, (1,), n_seeds=100, seed=321)[0]
    pooled = np.sqrt(np.var(alg1, ddof=1) / len(alg1) + direct.stderr**2)
    diff = abs(float(np.mean(alg1)) - direct.value)
    print(f"[acceptance] 09d |alg1 - sampling| {diff:.3f} vs 3 pooled sigma {3 * pooled:.3f}")
    assert diff <= 3.0 * pooled
    elapsed_under(started, 180.0, "09d")


@functools.lru_cache(maxsize=None)
def selection_scores(n_seeds=16):
    """Scores of every feature_dimension model, computed once for both 09e tests."""
    models, data = model_selection_task("feature_dimension", seed=0)
    exact = np.array([exact_log_ml(m, data) for m in models])
    l1 = np.empty(len(models))
    l64 = np.empty(len(models))
    ls = np.empty(len(models))
    for j, m in enumerate(models):
        ests = estimate_Lk(m, data, (1, 64), n_seeds=n_seeds, seed=11)
        l1[j], l64[j] = ests[0].value, ests[1].value
        ls[j] = np.mean([estimate_LS(m, data, 16, seed=500 + s) for s in range(n_seeds)])
    dims = np.array([m.feature_map for m in models])
    return dims, exact, l1, l64, ls


def test_09e_selection_argmax_all_estimators():
    """KNOWN FAILURE: the k=1 posterior-sample score pays a per-dimension
    sampling penalty of hundreds of nats (the KL sum), so its argmax sits at
    the smallest model; the other three scores recover the planted dimension."""
    started = time.monotonic()
    dims, exact, l1, l64, ls = selection_scores()
    picks = {
        "exact": dims[int(np.argmax(exact))],
        "L": dims[int(np.argmax(l1))],
        "Lk64": dims[int(np.argmax(l64))],
        "LS16": dims[int(np.argmax(ls))],
    }
    print(f"[acceptance] 09e argmax dims: {picks}")
    elapsed_under(started, 180.0, "09e")
    assert all(pick == 15 for pick in picks.values()), picks


def test_09e_companion_calibrated_estimators_recover_the_dimension():
    """The exact evidence and the two many-sample estimators all peak at the
    planted 15 informative features."""
    started = time.monotonic()
    dims, exact, _, l64, ls = selection_scores()
    assert dims[int(np.argmax(exact))] == 15
    assert dims[int(np.argmax(l64))] == 15
    assert dims[int(np.argmax(ls))] == 15
    elapsed_under(started, 180.0, "09e-companion")


# -- 10 ----------------------------------------------------------------------


def test_10_rank_estimators():
    started = time.monotonic()
    rng = np.random.default_rng(10)
    for r in range(1, 9):
        phi = rng.standard_normal((5000, r)) @ rng.standard_normal((r, 12))
        assert feature_rank(phi, eps=0.01).rank == r

    transitions = [(s, 1.0, min(s + 1, 19)) for s in range(20)]
    model = LinearValueModel(features=np.eye(20), weights=np.zeros(20))
    for batch in (5, 12, 20):
        U = update_matrix(model, transitions[:batch], gamma=0.9)
        off = U - np.diag(np.diag(U))
        assert np.max(np.abs(off)) == 0.0
        assert update_rank(U).rank == batch

    mdp = build_chain_mdp(30)
    chain_transitions = [(s, mdp.rewards[s], min(s + 1, 29)) for s in range(30)]
    weights = np.random.default_rng(5).standard_normal(30)
    ranks = []
    for ell in (10.0, 1.0, 0.1):
        phi = build_kernel(KernelSpec(lengthscale=ell, embedding=line_embedding(30)), np.arange(30))
        U = update_matrix(LinearValueModel(features=phi, weights=weights),
                          chain_transitions, gamma=0.9)
        ranks.append(update_rank(U).rank)
    print(f"[acceptance] 10 rbf update ranks over lengthscales: {ranks}")
    assert ranks[0] < ranks[1] < ranks[2]
    elapsed_under(started, 60.0, "10")


# -- 11 ----------------------------------------------------------------------


def test_11_linear_misa_selection_and_robustness():
    started = time.monotonic()
    hits = 0
    for seed in range(100):
        report = linear_misa(build_synthetic_family(n_envs=3, n_steps=1000, seed=seed), alpha=0.05)
        hits += report.selected == frozenset({0, 1})
    print(f"[acceptance] 11 selected {{x1,x2}} in {hits}/100 seeds")
    assert hits >= 90

    data = build_synthetic_family(n_envs=3, n_steps=1000, seed=0)
    curve = intervention_robustness(
        fit_reward_weights(data), fit_reward_weights(data, subset={0, 1}), range(11), seed=0
    )
    misa_slope = float(np.max(np.abs(np.diff(curve.misa_mse))))
    print(f"[acceptance] 11 misa slope {misa_slope:.2e}, full error {curve.full_mse[0]:.3f} -> {curve.full_mse[-1]:.3f}")
    assert misa_slope < 1e-6
    assert np.all(np.diff(curve.full_mse) >= 0.0)
    assert curve.full_mse[-1] > curve.full_mse[0]
    elapsed_under(started, 120.0, "11")


# -- 12 ----------------------------------------------------------------------


def test_12_every_experiment_reruns_byte_identical(tmp_path):
    started = time.monotonic()
    overrides = {
        "four-rooms-features": {"t_end": 10.0, "m_heads": "1,20"},
        "bms-select": {"n_estimator_seeds": 4},
        "misa-robustness": {"n_seeds": 10, "n_steps": 500},
    }
    from tdlab.experiments import EXPERIMENT_ORDER

    for name in EXPERIMENT_ORDER:
        paths = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}-{tag}"
            run_experiment(name, overrides.get(name, {}), out, seed=5, reps=1)
            paths.append(out)
        first_files = sorted(p.name for p in paths[0].glob("*.csv"))
        second_files = sorted(p.name for p in paths[1].glob("*.csv"))
        assert first_files == second_files and first_files, name
        for fname in first_files:
            a = (paths[0] / fname).read_bytes()
            b = (paths[1] / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between reruns"
    print("[acceptance] 12 all experiments rerun byte-identical")
    elapsed_under(started, 120.0, "12")
