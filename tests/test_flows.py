import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from tdlab import flows
from tdlab.flows import (
    DivergenceDetected,
    FlowConfig,
    FlowTrajectory,
    coupled_feature_flow,
    eigen_bound,
    grassmann_convergence_metric,
    limiting_cumulant_covariance,
    limiting_ensemble_flow,
    mc_value_flow,
    multi_task_limit_flow,
    nstep_value_flow,
    random_cumulant_flow,
    second_order_check,
    td_error_norm,
    td_lambda_value_flow,
    td_value_flow,
)
from tdlab.kernel_td import KernelSpec, circle_embedding, kernel_td_flow, split_kernel
from tdlab.mdp import (
    build_chain_mdp,
    build_circle_mdp,
    build_four_rooms,
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
    resolvent,
    subspace_from_span,
)


def euler_oracle(f, X0, t_end, dt):
    """Plain forward-Euler reference integrator, written independently."""
    X = np.array(X0, dtype=float)
    n = int(round(t_end / dt))
    for _ in range(n):
        X = X + dt * f(X)
    return X


def small_problem(seed=0, n=5, gamma=0.9):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n)
    P = transition_matrix(mdp, uniform_policy(mdp))
    return P, mdp.rewards, rng.standard_normal(n), gamma


# ---------------------------------------------------------------------------
# value flows against independent integrators


def test_td_closed_form_matches_euler_oracle():
    P, R, V0, gamma = small_problem(0)
    cfg = FlowConfig(gamma=gamma, t_end=3.0, dt=0.01, method="closed_form")
    traj = td_value_flow(V0, P, R, cfg)
    oracle = euler_oracle(lambda V: R + gamma * P @ V - V, V0, 3.0, 1e-5)
    assert_allclose(traj.final, oracle, atol=1e-4)


def test_td_closed_form_matches_rk4():
    P, R, V0, gamma = small_problem(1)
    closed = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=5.0, dt=0.01))
    rk4 = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=5.0, dt=1e-3, method="rk4"))
    assert np.max(np.abs(closed.final - rk4.final)) < 1e-8


def test_td_flow_reaches_fixed_point():
    P, R, V0, gamma = small_problem(2)
    traj = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=200.0, dt=0.1))
    assert_allclose(traj.final, exact_value(P, R, gamma), atol=1e-8)
    assert_allclose(traj.meta["fixed_point"], exact_value(P, R, gamma), atol=1e-12)


def test_mc_flow_matches_scalar_exponential():
    """The all-policies-MC generator contracts every coordinate at unit rate."""
    P, R, V0, gamma = small_problem(3)
    Vpi = exact_value(P, R, gamma)
    cfg = FlowConfig(gamma=gamma, t_end=4.0, dt=0.5)
    traj = mc_value_flow(V0, P, R, cfg)
    for t, state in zip(traj.times, traj.states):
        assert_allclose(state, np.exp(-t) * (V0 - Vpi) + Vpi, atol=1e-12)


def test_mc_error_direction_is_constant():
    P, R, V0, gamma = small_problem(4)
    Vpi = exact_value(P, R, gamma)
    traj = mc_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=2.0, dt=0.25))
    d0 = (traj.states[0] - Vpi) / np.linalg.norm(traj.states[0] - Vpi)
    for state in traj.states[1:]:
        d = (state - Vpi) / np.linalg.norm(state - Vpi)
        assert np.max(np.abs(d - d0)) < 1e-10


def test_nstep_flow_one_step_is_td():
    P, R, V0, gamma = small_problem(5)
    cfg = FlowConfig(gamma=gamma, t_end=2.0, dt=0.1)
    a = nstep_value_flow(V0, P, R, 1, cfg)
    b = td_value_flow(V0, P, R, cfg)
    assert_allclose(a.final, b.final, atol=1e-12)


def test_nstep_flow_matches_matrix_exponential_oracle():
    P, R, V0, gamma = small_problem(6)
    n = 3
    G = np.linalg.matrix_power(gamma * P, n) - np.eye(len(R))
    # fixed point of the n-step generator is still V^pi
    Vpi = exact_value(P, R, gamma)
    traj = nstep_value_flow(V0, P, R, n, FlowConfig(gamma=gamma, t_end=3.0, dt=0.1))
    assert_allclose(traj.final, expm(3.0 * G) @ (V0 - Vpi) + Vpi, atol=1e-9)


def test_td_lambda_matches_series_oracle():
    P, R, V0, gamma = small_problem(7)
    lam = 0.7
    n = len(R)
    G = -np.eye(n)
    term = np.eye(n)
    # (1 - lam) sum_{k>=1} lam^{k-1} (gamma P)^k - I, summed far past float precision
    for k in range(1, 400):
        term = term @ (gamma * P)
        G += (1.0 - lam) * lam ** (k - 1) * term
    Vpi = exact_value(P, R, gamma)
    traj = td_lambda_value_flow(V0, P, R, lam, FlowConfig(gamma=gamma, t_end=2.5, dt=0.1))
    assert_allclose(traj.final, expm(2.5 * G) @ (V0 - Vpi) + Vpi, atol=1e-9)


def test_td_lambda_is_exact_where_the_series_converges_slowly():
    """At gamma = lambda = 0.9999 the series needs ~10^5 terms; the closed form needs none."""
    P, R, V0, gamma = small_problem(7, gamma=0.9999)
    lam, n = 0.9999, len(R)
    G = (1.0 - lam) * gamma * P @ np.linalg.inv(np.eye(n) - lam * gamma * P) - np.eye(n)
    Vpi = exact_value(P, R, gamma)
    traj = td_lambda_value_flow(V0, P, R, lam, FlowConfig(gamma=gamma, t_end=2.5, dt=0.1))
    assert_allclose(traj.final, expm(2.5 * G) @ (V0 - Vpi) + Vpi, atol=1e-9)


def test_td_lambda_zero_is_td():
    P, R, V0, gamma = small_problem(8)
    cfg = FlowConfig(gamma=gamma, t_end=2.0, dt=0.1)
    a = td_lambda_value_flow(V0, P, R, 0.0, cfg)
    b = td_value_flow(V0, P, R, cfg)
    assert_allclose(a.final, b.final, atol=1e-12)


def test_matrix_initial_condition_equals_stacked_vectors():
    P, R, _, gamma = small_problem(9)
    rng = np.random.default_rng(9)
    V0 = rng.standard_normal((len(R), 3))
    cfg = FlowConfig(gamma=gamma, t_end=2.0, dt=0.1)
    traj = td_value_flow(V0, P, R, cfg)
    for j in range(3):
        single = td_value_flow(V0[:, j], P, R, cfg)
        assert_allclose(traj.states[:, :, j], single.states, atol=1e-10)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(gamma=1.0)
    with pytest.raises(ValueError):
        FlowConfig(gamma=0.9, dt=-0.1)
    with pytest.raises(ValueError):
        FlowConfig(gamma=0.9, method="leapfrog")
    with pytest.raises(ValueError, match="overflows"):  # t_end / dt = inf, closed form too
        FlowConfig(gamma=0.9, t_end=1.0, dt=5e-324)


@pytest.mark.parametrize("field", ["dt", "t_end"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_flow_config_rejects_non_finite_times(field, value):
    with pytest.raises(ValueError, match=field):
        FlowConfig(gamma=0.9, **{field: value})


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [-1.0, -5.0, np.nan, np.inf])
def test_flow_config_refuses_a_negative_or_non_finite_rate(field, value):
    """A negative rate would integrate a flow that unlearns; zero stays allowed,
    since ``beta = 0`` is the frozen-weight flow."""
    with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite"):
        FlowConfig(gamma=0.9, **{field: value})
    assert getattr(FlowConfig(gamma=0.9, **{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_flow_config_rejects_step_budget_up_front(method):
    """A too-fine integrator grid fails when the config is built, before any step runs."""
    with pytest.raises(ValueError, match="integrator steps"):
        FlowConfig(gamma=0.9, t_end=8.0, dt=1e-9, method=method)
    FlowConfig(gamma=0.9, t_end=10.0, dt=1e-6, method=method)  # exactly at the budget
    # the closed form records at most ~1024 snapshots whatever dt is
    for dt in (1e-9, 1e-300):
        cfg = FlowConfig(gamma=0.9, t_end=8.0, dt=dt)
        traj = td_value_flow(np.zeros(2), np.eye(2), np.ones(2), cfg)
        assert len(traj.times) <= 1026


def four_rooms_walk():
    mdp = build_four_rooms()
    return transition_matrix(mdp, uniform_policy(mdp))


def lazy_absorbing_chain(n=12):
    """Stays put with probability 0.5 + 1e-3 i, else steps right; clustered real spectrum."""
    P = np.zeros((n, n))
    for i in range(n - 1):
        P[i, i] = 0.5 + 1e-3 * i
        P[i, i + 1] = 1.0 - P[i, i]
    P[-1, -1] = 1.0
    return P


def shift_absorbing_chain(n=6):
    """Deterministic shift right into an absorbing state; defective eigenvalue 0."""
    P = np.zeros((n, n))
    P[np.arange(n - 1), np.arange(1, n)] = 1.0
    P[-1, -1] = 1.0
    return P


@pytest.mark.parametrize(
    "chain, gamma",
    [(four_rooms_walk, 0.99), (lazy_absorbing_chain, 0.9), (shift_absorbing_chain, 0.9)],
    ids=["four-rooms", "lazy-absorbing", "shift-absorbing"],
)
def test_closed_form_matches_expm_on_ill_conditioned_eigenbases(chain, gamma):
    """Every recorded snapshot equals ``expm(t G)(V0 - V_pi) + V_pi``.

    Each chain's eigenvector matrix is ill-conditioned or singular, which is
    where an eigenbasis evaluation of the matrix exponential breaks down.
    """
    P = chain()
    n = P.shape[0]
    rng = np.random.default_rng(26)
    R, V0 = rng.standard_normal(n), rng.standard_normal(n)
    traj = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=1.0, dt=0.01))
    Vpi = exact_value(P, R, gamma)
    G = gamma * P - np.eye(n)
    expected = np.array([expm(t * G) @ (V0 - Vpi) + Vpi for t in traj.times])
    assert np.max(np.abs(traj.states - expected)) <= 1e-12 * np.max(np.abs(expected))


def assert_expm_matches_scipy(A):
    """Norm-wise agreement: exponentials of long-horizon generators have entries
    near 1e-300 that the two routes round differently, so entrywise relative
    error says nothing there."""
    want = expm(A)
    assert np.max(np.abs(flows.expm(A) - want)) <= 1e-13 * np.max(np.abs(want))


_CLOSED_FORM_RUNS = {
    "td": lambda P, R, V0, cfg: td_value_flow(V0, P, R, cfg),
    "mc": lambda P, R, V0, cfg: mc_value_flow(V0, P, R, cfg),
    "nstep": lambda P, R, V0, cfg: nstep_value_flow(V0, P, R, 3, cfg),
    "td_lambda": lambda P, R, V0, cfg: td_lambda_value_flow(V0, P, R, 0.7, cfg),
    "limiting": lambda P, R, V0, cfg: limiting_ensemble_flow(
        np.outer(V0, [1.0, -2.0]), P, R, cfg.gamma, t=cfg.t_end
    ),
    "second_order": lambda P, R, V0, cfg: second_order_check(
        V0, P, R, FlowConfig(gamma=cfg.gamma, t_end=5.0, dt=0.1, method="euler")
    ),
}


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("run", list(_CLOSED_FORM_RUNS.values()), ids=list(_CLOSED_FORM_RUNS))
def test_expm_matches_scipy_on_every_generator_the_flows_build(monkeypatch, run, gamma):
    """Every matrix a closed-form flow exponentiates (each generator times each
    step length) against ``scipy.linalg.expm``."""
    P, R, V0, _ = small_problem(27, gamma=gamma)
    seen = []
    numpy_expm = flows.expm
    monkeypatch.setattr(flows, "expm", lambda A: seen.append(A) or numpy_expm(A))
    run(P, R, V0, FlowConfig(gamma=gamma, t_end=12.0, dt=0.3))
    monkeypatch.undo()
    assert seen
    for A in seen:
        assert_expm_matches_scipy(A)


def test_expm_matches_scipy_on_the_30_state_chain_to_t200():
    mdp = build_chain_mdp(30)
    G = 0.9 * transition_matrix(mdp, uniform_policy(mdp)) - np.eye(30)
    for t in np.linspace(0.0, 200.0, 41):
        assert_expm_matches_scipy(t * G)


@pytest.mark.parametrize("t_end, gaps, n_expm", [(8.0, {1}, 1), (10.25, {2, 1}, 2)], ids=["one-gap", "short-last-gap"])
def test_closed_form_flow_takes_one_expm_per_step_gap(monkeypatch, t_end, gaps, n_expm):
    """At dt = 0.01, t_end = 8 records 801 snapshots one step apart and takes one
    exponential; t_end = 10.25 records every second step and then the last, so
    its shorter last gap takes a second.  Differences of the float times would
    round to several keys for one gap."""
    P, R, V0, gamma = small_problem(28, n=2)
    cfg = FlowConfig(gamma=gamma, t_end=t_end, dt=0.01)
    assert set(np.diff(flows._recorded_steps(cfg)).tolist()) == gaps
    seen = []
    numpy_expm = flows.expm
    monkeypatch.setattr(flows, "expm", lambda A: seen.append(A) or numpy_expm(A))
    traj = td_value_flow(V0, P, R, cfg)
    assert len(seen) == n_expm
    Vpi = exact_value(P, R, gamma)
    assert_allclose(traj.final, expm(t_end * (gamma * P - np.eye(2))) @ (V0 - Vpi) + Vpi, rtol=1e-12)


def test_expm_of_zero_is_the_identity_and_non_finite_input_is_refused():
    assert np.array_equal(flows.expm(np.zeros((4, 4))), np.eye(4))
    for bad in (np.nan, np.inf, -np.inf):
        A = np.zeros((3, 3))
        A[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            flows.expm(A)


def test_rk4_value_flow_divergence_detected():
    """An RK4 step far outside the stability region raises instead of returning overflow."""
    P = np.array([[0.2, 0.8], [0.8, 0.2]])
    R = np.array([1.0, 0.0])
    cfg = FlowConfig(gamma=0.9, t_end=500.0, dt=5.0, method="rk4")
    with pytest.raises(DivergenceDetected) as info:
        td_value_flow(np.zeros(2), P, R, cfg)
    exc = info.value
    assert 0 < exc.time < 500.0
    assert exc.trajectory.times[-1] == exc.time
    assert np.max(np.abs(exc.trajectory.states[-1])) == exc.sup_norm


def test_trajectory_snapshots_are_thinned():
    P, R, V0, gamma = small_problem(10)
    traj = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=10.0, dt=1e-3))
    assert len(traj.times) <= 1026
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    assert np.all(np.diff(traj.times) > 0)


# ---------------------------------------------------------------------------
# coupled feature flows


def test_coupled_flow_beta_zero_keeps_weights():
    P, R, _, gamma = small_problem(11)
    rng = np.random.default_rng(11)
    phi0 = rng.standard_normal((5, 2))
    w0 = rng.standard_normal((2, 3))
    cfg = FlowConfig(gamma=gamma, alpha=0.5, beta=0.0, t_end=1.0, dt=0.01, method="rk4")
    traj = coupled_feature_flow(phi0, w0, P, R, cfg)
    assert_allclose(traj.meta["weights"][-1], w0, atol=0)


def test_coupled_flow_matches_euler_oracle():
    P, R, _, gamma = small_problem(12)
    rng = np.random.default_rng(12)
    phi0 = rng.standard_normal((5, 2))
    w0 = rng.standard_normal((2, 3))
    alpha, beta = 0.3, 0.2
    cfg = FlowConfig(gamma=gamma, alpha=alpha, beta=beta, t_end=1.0, dt=1e-3, method="rk4")
    traj = coupled_feature_flow(phi0, w0, P, R, cfg)

    B = gamma * P - np.eye(5)
    T = np.tile(R[:, None], (1, 3))
    phi, W = phi0.copy(), w0.copy()
    h = 1e-5
    for _ in range(int(round(1.0 / h))):
        delta = T + B @ (phi @ W)
        phi, W = phi + h * alpha * (delta @ W.T), W + h * beta * (phi.T @ delta)
    assert np.max(np.abs(traj.final - phi)) < 1e-5
    assert np.max(np.abs(traj.meta["weights"][-1] - W)) < 1e-5


def test_coupled_flow_divergence_detected():
    P, R, _, _ = small_problem(13, n=8, gamma=0.99)
    rng = np.random.default_rng(13)
    phi0 = 3.0 * rng.standard_normal((8, 3))
    w0 = 3.0 * rng.standard_normal((3, 4))
    cfg = FlowConfig(gamma=0.99, alpha=10.0, beta=10.0, t_end=20.0, dt=0.01, method="rk4")
    with pytest.raises(DivergenceDetected) as info:
        coupled_feature_flow(phi0, w0, P, R, cfg)
    exc = info.value
    assert exc.time > 0
    assert not exc.sup_norm <= 1e8
    # the partial trajectory, up to and including the crossing step, is attached
    partial = exc.trajectory
    assert partial is not None
    assert partial.times[-1] == exc.time
    assert partial.states.shape[1:] == (8, 3)
    assert partial.meta["weights"].shape == (len(partial.times), 3, 4)
    assert_allclose(partial.states[0], phi0, atol=0)


def test_random_cumulant_flow_reaches_resolvent_solution():
    """With frozen weights the features settle where every TD error vanishes."""
    P, R, _, gamma = small_problem(14)
    rng = np.random.default_rng(14)
    K = 3
    phi0 = rng.standard_normal((5, K))
    w0 = np.eye(K)  # identity readout so the contraction rate is set by P alone
    C = rng.standard_normal((5, K))
    cfg = FlowConfig(gamma=gamma, alpha=1.0, beta=0.0, t_end=250.0, dt=0.01, method="rk4")
    traj = random_cumulant_flow(phi0, w0, C, P, cfg)
    B = gamma * P - np.eye(5)
    residual = C + B @ (traj.final @ w0)
    assert np.max(np.abs(residual)) < 1e-6
    assert_allclose(traj.final @ w0, resolvent(P, gamma) @ C, atol=1e-6)


@pytest.mark.parametrize("method", ["closed_form", "euler"])
def test_coupled_flows_refuse_methods_they_do_not_run(method):
    P, R, _, gamma = small_problem(27)
    phi0, w0 = np.ones((5, 2)), np.ones((2, 3))
    cfg = FlowConfig(gamma=gamma, t_end=1.0, dt=0.01, method=method)
    with pytest.raises(ValueError, match="rk4"):
        coupled_feature_flow(phi0, w0, P, R, cfg)
    with pytest.raises(ValueError, match="rk4"):
        random_cumulant_flow(phi0, w0, np.ones((5, 3)), P, cfg)


# ---------------------------------------------------------------------------
# linear flows against the per-step loop


def step_loop(f, x0, cfg):
    """The per-step RK4/Euler loop that linear flows ran before, checked after every step.

    Returns the state after every step and the step whose sup norm crossed
    1e8 (``None`` if none did).
    """
    x = np.array(x0, dtype=float)
    states, h = [x], cfg.dt
    for k in range(1, int(round(cfg.t_end / cfg.dt)) + 1):
        if cfg.method == "euler":
            x = x + h * f(x)
        else:
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
        if not np.max(np.abs(x)) <= 1e8:
            return np.array(states), k
    return np.array(states), None


def assert_matches_step_loop(traj, states, dt):
    """Every snapshot within 1e-12 of the loop trajectory's max |x|, on the loop's grid."""
    steps = np.rint(np.asarray(traj.times) / dt).astype(int)
    assert np.max(np.abs(traj.states - states[steps])) <= 1e-12 * np.max(np.abs(states))
    assert traj.meta["steps"] == steps[-1]


@pytest.mark.parametrize("columns", [None, 3], ids=["vector", "matrix"])
def test_td_value_flow_matches_step_loop(columns):
    # 2,500 steps: stride 3, stacked blocks, and a last gap of one step
    P, R, V0, gamma = small_problem(28)
    if columns:
        V0 = np.random.default_rng(28).standard_normal((5, columns))
    Rb = R if columns is None else R[:, None]
    cfg = FlowConfig(gamma=gamma, t_end=2.5, dt=1e-3, method="rk4")
    traj = td_value_flow(V0, P, R, cfg)
    states, crossed = step_loop(lambda V: Rb + gamma * P @ V - V, V0, cfg)
    assert crossed is None
    assert_matches_step_loop(traj, states, cfg.dt)
    assert traj.meta["stepwise_strides"] == 0


@pytest.mark.parametrize("M", [2, 7], ids=["M<K", "M>K"])
def test_coupled_flow_matches_step_loop(M):
    """Frozen weights with W W^T rank deficient (M < K) and full rank (M > K)."""
    P, R, _, gamma = small_problem(29, n=6)
    rng = np.random.default_rng(29)
    K = 4
    phi0, w0 = rng.standard_normal((6, K)), rng.standard_normal((K, M))
    cfg = FlowConfig(gamma=gamma, alpha=0.5, beta=0.0, t_end=2.0, dt=1e-3, method="rk4")
    traj = coupled_feature_flow(phi0, w0, P, R, cfg)
    B, T = gamma * P - np.eye(6), np.tile(R[:, None], (1, M))
    states, _ = step_loop(lambda phi: cfg.alpha * (T + B @ phi @ w0) @ w0.T, phi0, cfg)
    assert_matches_step_loop(traj, states, cfg.dt)
    assert traj.meta["weights"].shape == (len(traj.times), K, M)
    assert np.array_equal(traj.meta["weights"][-1], w0)
    assert not traj.meta["weights"].flags.writeable


def coupled_vector_field(P, R, gamma, alpha, beta, K, M):
    """``f`` of the coupled flow on the concatenated state ``(Phi.ravel(), W.ravel())``."""
    n = len(R)
    B, T = gamma * P - np.eye(n), np.tile(R[:, None], (1, M))

    def f(x):
        phi, W = x[: n * K].reshape(n, K), x[n * K :].reshape(K, M)
        delta = T + B @ phi @ W
        return np.concatenate([(alpha * delta @ W.T).ravel(), (beta * phi.T @ delta).ravel()])

    return f


def concatenated(traj):
    """The trajectory with states ``(Phi, W)`` flattened side by side, as the loop holds them."""
    T = len(traj.times)
    states = np.concatenate(
        [traj.states.reshape(T, -1), traj.meta["weights"].reshape(T, -1)], axis=1
    )
    return FlowTrajectory(times=traj.times, states=states, meta=traj.meta)


def test_coupled_flow_with_learned_weights_matches_step_loop():
    """``beta != 0`` is nonlinear: every stride is stepped, and each step is the loop's RK4 step."""
    P, R, _, gamma = small_problem(32)
    rng = np.random.default_rng(32)
    phi0, w0 = rng.standard_normal((5, 2)), rng.standard_normal((2, 3))
    # 2,500 steps: stride 3 and a last gap of one step
    cfg = FlowConfig(gamma=gamma, alpha=0.3, beta=0.2, t_end=2.5, dt=1e-3, method="rk4")
    traj = coupled_feature_flow(phi0, w0, P, R, cfg)
    f = coupled_vector_field(P, R, gamma, cfg.alpha, cfg.beta, 2, 3)
    states, crossed = step_loop(f, np.concatenate([phi0.ravel(), w0.ravel()]), cfg)
    assert crossed is None
    assert_matches_step_loop(concatenated(traj), states, cfg.dt)
    assert traj.meta["steps"] == 2500
    assert traj.meta["stepwise_strides"] == len(traj.times) - 1


def test_coupled_flow_divergence_matches_step_loop():
    """A diverging ``beta != 0`` flow stops where the loop crosses 1e8, with the loop's states.

    The config is :func:`test_coupled_flow_divergence_detected`'s; it crosses at the first step.
    """
    P, R, _, _ = small_problem(13, n=8, gamma=0.99)
    rng = np.random.default_rng(13)
    phi0 = 3.0 * rng.standard_normal((8, 3))
    w0 = 3.0 * rng.standard_normal((3, 4))
    cfg = FlowConfig(gamma=0.99, alpha=10.0, beta=10.0, t_end=20.0, dt=0.01, method="rk4")
    with pytest.raises(DivergenceDetected) as info:
        coupled_feature_flow(phi0, w0, P, R, cfg)
    f = coupled_vector_field(P, R, cfg.gamma, cfg.alpha, cfg.beta, 3, 4)
    states, crossed = step_loop(f, np.concatenate([phi0.ravel(), w0.ravel()]), cfg)
    partial = info.value.trajectory
    assert crossed is not None and partial.meta["steps"] == crossed
    assert partial.times[-1] == info.value.time == crossed * cfg.dt
    assert info.value.sup_norm == pytest.approx(np.max(np.abs(states[crossed])), rel=1e-12)
    assert_matches_step_loop(concatenated(partial), states, cfg.dt)


def spy_on_routes(monkeypatch, n):
    """Wrap the eigenbasis route and the affine route in call counters, and
    count the ``eigh`` calls on an ``n x n`` matrix: the eigenbasis of
    ``gamma P - I`` (the frozen weights' ``W W^T`` is smaller)."""
    calls = {"_eigenbasis_strides": 0, "_affine_strides": 0, "eigh": 0}
    for name in ("_eigenbasis_strides", "_affine_strides"):
        real = getattr(flows, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(flows, name, spy)
    real_eigh = np.linalg.eigh

    def eigh(a):
        calls["eigh"] += a.shape == (n, n)
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


@pytest.mark.parametrize(
    "chain, M, t_end",
    [(four_rooms_walk, 1, 100.0), (four_rooms_walk, 20, 100.0), (four_rooms_walk, 200, 100.0),
     (lambda: symmetric_walk(7), 3, 2.5)],
    ids=["four-rooms-M1", "four-rooms-M20", "four-rooms-M200", "symmetric-chain"],
)
def test_symmetric_frozen_flow_in_the_eigenbasis_matches_the_stride_engine(monkeypatch, chain, M, t_end):
    """A symmetric ``P`` with frozen weights steps in ``gamma P - I``'s
    eigenbasis, without the stride engine, and every snapshot agrees with the
    stride engine's to 1e-12 of max |Phi|.  With ``M = 1`` and ``K = 10``
    nine of ``W W^T``'s eigenvalues are rounding noise either side of 0; the
    zero row of ``w0`` makes one exactly 0, where ``q = 0``."""
    P = chain()
    n, K = P.shape[0], min(10, P.shape[0] - 2)
    rng = np.random.default_rng(34)
    phi0, w0, R = rng.standard_normal((n, K)), rng.standard_normal((K, M)), rng.standard_normal(n)
    w0[0] = 0.0
    cfg = FlowConfig(gamma=0.99, alpha=1.0 / M, t_end=t_end, dt=0.01, method="rk4")
    calls = spy_on_routes(monkeypatch, n)
    traj = coupled_feature_flow(phi0, w0, P, R, cfg)
    assert calls == {"_eigenbasis_strides": 1, "_affine_strides": 0, "eigh": 1}
    monkeypatch.setattr(
        flows, "_eigenbasis_strides", lambda B, scales, c, x0, *args: flows._affine_strides(scales[:, None, None] * B, c, *args)
    )
    want = coupled_feature_flow(phi0, w0, P, R, cfg)
    assert calls["_affine_strides"] == 1
    assert np.array_equal(traj.times, want.times)
    assert np.max(np.abs(traj.states - want.states)) <= 1e-12 * np.max(np.abs(want.states))
    assert np.array_equal(traj.states[0], want.states[0])
    assert traj.meta["steps"] == want.meta["steps"] == int(round(t_end / cfg.dt))
    assert traj.meta["stepwise_strides"] == 0
    assert np.array_equal(traj.meta["weights"], want.meta["weights"])


_SYMMETRIC_DIVERGENCES = {
    # the fastest mode steps outside RK4's stability region (R(-3.3) = 2.07)
    "growing-mode": (35.0, 1.0, 20.0, 28),
    # every mode decays, but the features start above 1e8
    "starts-above-threshold": (1.0, 1e8, 100.0, 1),
}


def symmetric_divergence_config(kind):
    """A symmetric chain with frozen weights whose norm bound fails and which
    crosses 1e8; returns its inputs and the step of the crossing."""
    alpha, scale, t_end, crossing = _SYMMETRIC_DIVERGENCES[kind]
    rng = np.random.default_rng(33)
    P, R = symmetric_walk(6), np.arange(6.0) - 2
    cfg = FlowConfig(gamma=0.9, alpha=alpha, t_end=t_end, dt=0.1, method="rk4")
    return P, R, scale * rng.standard_normal((6, 2)), np.eye(2), cfg, crossing


def test_frozen_flows_outside_the_eigenbasis_route_use_the_stride_engine(monkeypatch):
    """A non-symmetric ``P`` never computes the eigenbasis, and a symmetric
    flow whose norm bound fails, or whose weights exceed 1e8, takes the
    affine route."""
    rng = np.random.default_rng(35)
    P, R = random_walk_matrix(rng, 8), rng.standard_normal(8)
    assert not np.array_equal(P, P.T)
    cfg = FlowConfig(gamma=0.9, alpha=0.5, t_end=1.0, dt=0.01, method="rk4")
    with monkeypatch.context() as patch:
        calls = spy_on_routes(patch, 8)
        coupled_feature_flow(rng.standard_normal((8, 3)), rng.standard_normal((3, 4)), P, R, cfg)
        random_cumulant_flow(rng.standard_normal((8, 3)), np.eye(3), rng.standard_normal((8, 3)), P, cfg)
    assert calls == {"_eigenbasis_strides": 2, "_affine_strides": 2, "eigh": 0}
    P, R, phi0, w0, cfg, _ = symmetric_divergence_config("growing-mode")
    calls = spy_on_routes(monkeypatch, 6)
    with pytest.raises(DivergenceDetected):
        coupled_feature_flow(phi0, w0, P, R, cfg)
    assert calls == {"_eigenbasis_strides": 1, "_affine_strides": 1, "eigh": 1}
    slow = FlowConfig(gamma=0.9, alpha=1e-20, t_end=1.0, dt=0.1, method="rk4")
    with pytest.raises(DivergenceDetected) as info:
        coupled_feature_flow(phi0, 2e8 * w0, P, R, slow)
    assert info.value.trajectory.meta["steps"] == 1 and info.value.sup_norm == 2e8
    assert calls == {"_eigenbasis_strides": 2, "_affine_strides": 2, "eigh": 1}


@pytest.mark.parametrize("kind", _SYMMETRIC_DIVERGENCES)
def test_symmetric_frozen_flow_divergence_matches_step_loop(kind):
    """A bound-failing symmetric flow raises where the loop crosses 1e8, with the loop's states."""
    P, R, phi0, w0, cfg, crossing = symmetric_divergence_config(kind)
    with pytest.raises(DivergenceDetected) as info:
        coupled_feature_flow(phi0, w0, P, R, cfg)
    B, T = cfg.gamma * P - np.eye(6), np.tile(R[:, None], (1, 2))
    states, crossed = step_loop(lambda phi: cfg.alpha * (T + B @ phi @ w0) @ w0.T, phi0, cfg)
    partial = info.value.trajectory
    assert crossed == partial.meta["steps"] == crossing
    assert partial.times[-1] == info.value.time == crossed * cfg.dt
    assert info.value.sup_norm == pytest.approx(np.max(np.abs(states[crossed])), rel=1e-12)
    assert_matches_step_loop(partial, states, cfg.dt)


def test_random_cumulant_flow_matches_step_loop():
    P, _, _, gamma = small_problem(30, n=8)
    rng = np.random.default_rng(30)
    phi0, w0, C = rng.standard_normal((8, 5)), rng.standard_normal((5, 5)), rng.standard_normal((8, 5))
    cfg = FlowConfig(gamma=gamma, alpha=0.2, beta=0.0, t_end=6.0, dt=0.01, method="rk4")
    traj = random_cumulant_flow(phi0, w0, C, P, cfg)
    B = gamma * P - np.eye(8)
    states, _ = step_loop(lambda phi: cfg.alpha * (C + B @ phi @ w0) @ w0.T, phi0, cfg)
    assert_matches_step_loop(traj, states, cfg.dt)


def test_second_order_check_matches_step_loop():
    P, R, V0, gamma = small_problem(31)
    alpha, n_steps = 0.05, 40
    cfg = FlowConfig(gamma=gamma, t_end=n_steps * alpha, dt=alpha, method="euler")
    discrete, _, _ = second_order_check(V0, P, R, cfg)
    states, _ = step_loop(lambda V: R + gamma * P @ V - V, V0, cfg)
    assert len(states) == n_steps + 1
    assert np.max(np.abs(discrete - states[-1])) <= 1e-12 * np.max(np.abs(states))


def test_second_order_check_refuses_a_non_euler_config():
    P, R, V0, gamma = small_problem(31)
    for method in ("closed_form", "rk4"):
        with pytest.raises(ValueError, match="Euler"):
            second_order_check(V0, P, R, FlowConfig(gamma=gamma, t_end=1.0, dt=0.1, method=method))


def test_recorded_steps_equal_the_unique_grid():
    """The snapshot grid is ``arange`` plus the last step when missing: the same
    array as dropping the duplicate of ``append(arange, n)`` with ``unique``."""
    for t_end in (0.0, 0.004, 0.01, 1.0, 10.0, 10.24, 10.25, 20.48, 100.0, 1234.5, 1e4):
        for dt in (0.0025, 0.01, 0.3, 1.0, 7.0):
            n_steps = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
            stride = max(1, int(np.ceil(n_steps / 1024)))
            expected = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
            got = flows._recorded_steps(FlowConfig(gamma=0.9, t_end=t_end, dt=dt))
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected, err_msg=f"t_end={t_end}, dt={dt}")


def test_closed_form_flow_leaves_numpy_ma_unloaded(tmp_path):
    """The first closed-form flow of a process, the first ``kernel-circle``
    run and the first ``projected-bottom`` smooth-kernel target import no
    ``numpy.ma``, which ``np.unique`` (and ``np.setdiff1d`` through it) would
    load on its first call.  Each runs in a fresh interpreter."""
    chain = "np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])"
    for call in (
        "from tdlab.flows import FlowConfig, td_value_flow; "
        "td_value_flow(np.zeros(2), np.full((2, 2), 0.5), np.ones(2), FlowConfig(gamma=0.9, t_end=3.0))",
        f"from tdlab.experiments import run_experiment; run_experiment('kernel-circle', {{}}, {str(tmp_path)!r}, 0)",
        "from tdlab.kernel_td import smooth_kernel_generalization; "
        f"smooth_kernel_generalization({chain}, np.arange(3.0), 0.9, [0], [0.5], ['projected-bottom'])",
    ):
        code = f"import sys; import numpy as np; {call}; print('numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"], call


def test_transient_growth_falls_back_to_steps_and_still_matches():
    """A non-normal generator whose norm bound crosses 1e8 while the flow stays below it.

    ``P`` is nilpotent, so ``gamma P - I`` is a Jordan block: the bound
    ``||M^i|| ||V||`` peaks near 3.6e8 and the second column grows
    transiently to 3.6e6, but no state crosses 1e8.  The stretches that
    fail the bound are stepped one at a time, and the result is the same.
    """
    P = np.array([[0.0, 1e4], [0.0, 0.0]])
    gamma, R = 0.99, np.zeros(2)
    V0 = np.array([[1e5, 0.0], [0.0, 1e3]])
    cfg = FlowConfig(gamma=gamma, t_end=5.0, dt=0.01, method="rk4")
    traj = td_value_flow(V0, P, R, cfg)
    states, crossed = step_loop(lambda V: gamma * P @ V - V, V0, cfg)
    assert crossed is None
    assert np.max(np.abs(states[:, 0, 1])) > 3e6
    assert traj.meta["stepwise_strides"] > 0
    assert_matches_step_loop(traj, states, cfg.dt)


_COUNTS = {"steps", "stepwise_strides"}


def _meta_runs():
    """(case, call, meta keys) for every flow, completed or (a case ending in
    "diverged") cut short by divergence."""
    P, R, V0, gamma = small_problem(41)
    rng = np.random.default_rng(41)
    phi0, w0, cumulants = rng.standard_normal((5, 3)), rng.standard_normal((3, 2)), rng.standard_normal((5, 2))
    closed, rk4 = (FlowConfig(gamma=gamma, t_end=1.0, dt=0.1, method=m) for m in ("closed_form", "rk4"))
    learned = FlowConfig(gamma=gamma, beta=0.5, t_end=1.0, dt=0.1, method="rk4")
    value_flows = {
        "td": td_value_flow,
        "mc": mc_value_flow,
        "nstep": lambda V0, P, R, cfg: nstep_value_flow(V0, P, R, 3, cfg),
        "td_lambda": lambda V0, P, R, cfg: td_lambda_value_flow(V0, P, R, 0.5, cfg),
    }
    for name, flow in value_flows.items():
        yield f"{name}-closed_form", lambda flow=flow: flow(V0, P, R, closed), {"fixed_point"}
        yield f"{name}-rk4", lambda flow=flow: flow(V0, P, R, rk4), {"fixed_point"} | _COUNTS
    yield "coupled-frozen", lambda: coupled_feature_flow(phi0, w0, P, R, rk4), {"weights"} | _COUNTS
    yield "coupled-learned", lambda: coupled_feature_flow(phi0, w0, P, R, learned), {"weights"} | _COUNTS
    yield "random_cumulant", lambda: random_cumulant_flow(phi0, w0, cumulants, P, rk4), {"weights"} | _COUNTS
    mdp, train_idx = build_circle_mdp(50, reward_state=24, n_train=40)
    P50 = transition_matrix(mdp, uniform_policy(mdp))
    # the longest lengthscale at the high discount diverges, as in test_kernel_td
    for name, ell, gamma_k, keys in (
        ("kernel_td", 1.0, 0.5, {"train_residual_sup"} | _COUNTS), ("kernel_td-diverged", 100.0, 0.99, _COUNTS)
    ):
        K_all = split_kernel(KernelSpec(lengthscale=ell, embedding=circle_embedding(50)), train_idx)
        cfg = FlowConfig(gamma=gamma_k, t_end=100.0, dt=1.0, method="euler")
        yield name, (
            lambda K_all=K_all, cfg=cfg: kernel_td_flow(np.zeros(50), K_all, P50, mdp.rewards, train_idx, cfg)
        ), keys
    # the divergence configs of test_rk4_value_flow_divergence_detected and
    # test_coupled_flow_divergence_detected
    P2, R2 = np.array([[0.2, 0.8], [0.8, 0.2]]), np.array([1.0, 0.0])
    blowup = FlowConfig(gamma=0.9, t_end=500.0, dt=5.0, method="rk4")
    yield "td-rk4-diverged", lambda: td_value_flow(np.zeros(2), P2, R2, blowup), _COUNTS
    P8, R8, _, _ = small_problem(13, n=8, gamma=0.99)
    rng = np.random.default_rng(13)
    phi8, w8 = 3.0 * rng.standard_normal((8, 3)), 3.0 * rng.standard_normal((3, 4))
    hot = FlowConfig(gamma=0.99, alpha=10.0, beta=10.0, t_end=20.0, dt=0.01, method="rk4")
    yield "coupled-diverged", lambda: coupled_feature_flow(phi8, w8, P8, R8, hot), {"weights"} | _COUNTS


@pytest.mark.parametrize("name, run, keys", [pytest.param(*case, id=case[0]) for case in _meta_runs()])
def test_flow_meta_holds_only_what_the_run_computed(name, run, keys):
    """Each flow's ``meta`` keys are exactly the documented set (see
    :class:`~tdlab.flows.FlowTrajectory`): no echo of a setting or an input,
    and on a diverged partial trajectory no flag that the exception already
    states."""
    try:
        traj = run()
    except DivergenceDetected as exc:
        assert name.endswith("diverged")
        traj = exc.trajectory
    else:
        assert not name.endswith("diverged")
    assert set(traj.meta) == keys


# ---------------------------------------------------------------------------
# limiting ensembles and covariance


def test_limiting_ensemble_flow_matches_expm():
    P, R, _, gamma = small_problem(15)
    rng = np.random.default_rng(15)
    phi0 = rng.standard_normal((5, 4))
    A = np.eye(5) - gamma * P
    got = limiting_ensemble_flow(phi0, P, R, gamma, t=2.5)
    assert_allclose(got, expm(-2.5 * A) @ phi0, atol=1e-12)


def test_limiting_ensemble_flow_with_noise_offset():
    P, R, _, gamma = small_problem(16)
    rng = np.random.default_rng(16)
    phi0 = rng.standard_normal((5, 4))
    eps = rng.standard_normal(4)
    A = np.eye(5) - gamma * P
    offset = np.outer(resolvent(P, gamma) @ R, eps)
    got = limiting_ensemble_flow(phi0, P, R, gamma, t=1.5, noise=eps)
    assert_allclose(got, expm(-1.5 * A) @ (phi0 - offset) + offset, atol=1e-12)


def test_wide_ensembles_approach_the_limit():
    P, R, _, gamma = small_problem(17)
    rng = np.random.default_rng(17)
    K, t = 3, 5.0
    phi0 = rng.standard_normal((5, K))
    target = limiting_ensemble_flow(phi0, P, np.zeros(5), gamma, t=t)
    errs = []
    for M in (5, 400):
        err = 0.0
        for rep in range(10):
            w0 = np.random.default_rng(1000 * M + rep).standard_normal((K, M))
            cfg = FlowConfig(gamma=gamma, alpha=1.0 / M, beta=0.0, t_end=t, dt=0.01, method="rk4")
            traj = coupled_feature_flow(phi0, w0, P, np.zeros(5), cfg)
            err += np.linalg.norm(traj.final - target)
        errs.append(err / 10)
    assert errs[1] < errs[0] / 3


def test_limiting_flows_refuse_a_non_finite_time():
    P, R, _, gamma = small_problem(15)
    phi0 = np.random.default_rng(15).standard_normal((5, 4))
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            limiting_ensemble_flow(phi0, P, R, gamma, t=t)
        with pytest.raises(ValueError, match="t must be finite"):
            multi_task_limit_flow(phi0, [(gamma, P)], t)


def test_limiting_cumulant_covariance_formula():
    P, _, _, gamma = small_problem(18)
    rng = np.random.default_rng(18)
    A = rng.standard_normal((5, 5))
    Sigma = A @ A.T
    psi = resolvent(P, gamma)
    assert_allclose(limiting_cumulant_covariance(P, gamma, Sigma), psi @ Sigma @ psi.T, atol=1e-10)


def test_limiting_cumulant_covariance_rejects_asymmetric():
    P, _, _, gamma = small_problem(19)
    bad = np.eye(5)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        limiting_cumulant_covariance(P, gamma, bad)


def test_multi_task_limit_reductions():
    rng = np.random.default_rng(20)
    Ps = [random_walk_matrix(rng, 6) for _ in range(3)]
    phi0 = rng.standard_normal((6, 2))
    # several copies of one task collapse to the single-task flow
    same = multi_task_limit_flow(phi0, [(0.9, Ps[0])] * 3, 2.0)
    single = limiting_ensemble_flow(phi0, Ps[0], np.zeros(6), 0.9, t=2.0)
    assert_allclose(same, single, atol=1e-10)
    # policies under one discount average the transition kernel
    policies = multi_task_limit_flow(phi0, [(0.9, P) for P in Ps], 2.0)
    Pbar = sum(Ps) / 3
    assert_allclose(policies, expm(-2.0 * (np.eye(6) - 0.9 * Pbar)) @ phi0, atol=1e-10)
    # discounts under one policy average the rate
    d = multi_task_limit_flow(phi0, [(0.5, Ps[0]), (0.9, Ps[0])], 2.0)
    assert_allclose(d, expm(-2.0 * (np.eye(6) - 0.7 * Ps[0])) @ phi0, atol=1e-10)
    # tasks that differ in both average the products gamma_i P_i
    mixed = multi_task_limit_flow(phi0, [(0.5, Ps[1]), (0.9, Ps[2])], 2.0)
    gamma_P = (0.5 * Ps[1] + 0.9 * Ps[2]) / 2
    assert_allclose(mixed, expm(-2.0 * (np.eye(6) - gamma_P)) @ phi0, atol=1e-10)
    for tasks in ([], [(1.0, Ps[0])], [(0.9, Ps[0]), (-0.1, Ps[1])]):
        with pytest.raises(ValueError):
            multi_task_limit_flow(phi0, tasks, 2.0)


# ---------------------------------------------------------------------------
# diagnostics


def test_grassmann_metric_tracks_flow_convergence():
    mdp = build_chain_mdp(12)
    P = transition_matrix(mdp, uniform_policy(mdp))
    spec = eigendecompose(P)
    rng = np.random.default_rng(21)
    V0 = rng.standard_normal((12, 2))
    traj = td_value_flow(V0, P, np.zeros(12), FlowConfig(gamma=0.9, t_end=150.0, dt=0.05))
    target = subspace_from_span(spec.right_eigenvectors[:, :2])
    metric = grassmann_convergence_metric(traj, target)
    assert metric.shape == traj.times.shape
    assert metric[-1] < 1e-6
    assert metric[-1] < metric[0]


def test_grassmann_metric_nan_for_collapsed_snapshot():
    times = np.array([0.0, 1.0])
    states = np.stack([np.zeros((4, 2)), np.eye(4)[:, :2]])
    traj = FlowTrajectory(times=times, states=states)
    metric = grassmann_convergence_metric(traj, subspace_from_span(np.eye(4)[:, :2]))
    assert np.isnan(metric[0])
    assert metric[1] == pytest.approx(0.0, abs=1e-10)


def test_grassmann_metric_equals_per_snapshot_distances():
    """The blocked QR and SVD give each snapshot its own single-snapshot distance,
    bit for bit on both sides of every block edge, and NaN where the span collapses."""
    block = flows._BLOCK_STEPS
    # one block, then three: deficient snapshots end the first block, start the second, and end the stack
    for n_snaps, zero, repeated in [(6, [2], [4]), (2 * block + 22, [block], [block - 1, 2 * block + 21])]:
        rng = np.random.default_rng(33)
        states = rng.standard_normal((n_snaps, 7, 3))
        states[zero] = 0.0
        states[repeated, :, 2] = states[repeated, :, 0]  # rank 2
        traj = FlowTrajectory(times=np.arange(float(n_snaps)), states=states)
        target = subspace_from_span(rng.standard_normal((7, 3)))
        metric = grassmann_convergence_metric(traj, target)
        full = np.setdiff1d(np.arange(n_snaps), zero + repeated)
        assert metric.shape == (n_snaps,)
        assert np.isnan(metric[zero + repeated]).all()
        expected = [grassmann_distance(subspace_from_span(states[i]), target) for i in full]
        assert np.array_equal(metric[full], expected)
    with pytest.raises(ValueError, match="columns"):
        grassmann_convergence_metric(traj, subspace_from_span(np.eye(7)[:, :2]))
    vectors = FlowTrajectory(times=np.arange(float(n_snaps)), states=states[:, :, 0])
    with pytest.raises(ValueError, match=r"\(n, 1\) matrices"):
        grassmann_convergence_metric(vectors, subspace_from_span(rng.standard_normal((7, 1))))


def test_grassmann_metric_temporaries_stay_a_few_blocks_in_size():
    """On a four-rooms-sized stack (1001 snapshots of 105 x 10), the metric's
    temporaries peak under a quarter of the stack: no copy of it, nor its QR
    factor, is ever made whole."""
    rng = np.random.default_rng(36)
    traj = FlowTrajectory(times=np.arange(1001.0), states=rng.standard_normal((1001, 105, 10)))
    target = subspace_from_span(rng.standard_normal((105, 10)))
    tracemalloc.start()
    try:
        grassmann_convergence_metric(traj, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.states.nbytes / 4


def test_second_order_ratio_improves():
    P, R, V0, gamma = small_problem(22)
    err1, err2 = [], []
    for alpha in (0.1, 0.05):
        cfg = FlowConfig(gamma=gamma, t_end=2.0, dt=alpha, method="euler")
        discrete, first, corrected = second_order_check(V0, P, R, cfg)
        err1.append(np.linalg.norm(discrete - first))
        err2.append(np.linalg.norm(discrete - corrected))
    assert err1[0] / err1[1] == pytest.approx(2.0, abs=0.5)
    assert err2[0] / err2[1] == pytest.approx(4.0, abs=1.0)


def test_td_error_norm_oracle():
    P, R, V, gamma = small_problem(23)
    expected = np.sqrt(np.sum((V - R - gamma * P @ V) ** 2))
    assert td_error_norm(V, P, R, gamma) == pytest.approx(expected, rel=1e-12)


def symmetric_walk(n):
    """Lazy reflecting chain: symmetric, stochastic, with simple spectrum.

    Tridiagonal symmetric matrices have distinct eigenvalues, so the
    eigenvectors form an orthogonal set without any eigh-style grouping.
    """
    P = np.zeros((n, n))
    for i in range(n - 1):
        P[i, i + 1] = P[i + 1, i] = 0.25
    P += np.diag(1.0 - P.sum(axis=1))
    return P


def test_eigen_bound_equality_for_symmetric_kernel():
    rng = np.random.default_rng(24)
    P = symmetric_walk(10)
    assert_allclose(P, P.T, atol=1e-12)
    spec = eigendecompose(P)
    R = rng.standard_normal(10)
    gamma = 0.9
    Vpi = exact_value(P, R, gamma)
    for _ in range(25):
        V = rng.standard_normal(10)
        assert td_error_norm(V, P, R, gamma) == pytest.approx(
            eigen_bound(V, spec, Vpi, gamma), abs=1e-9
        )


def test_eigencoordinate_decay_rates():
    """Each eigencoordinate of the TD error contracts at rate 1 - gamma lambda_i."""
    rng = np.random.default_rng(25)
    P = random_walk_matrix(rng, 8)
    spec = eigendecompose(P)
    R = rng.standard_normal(8)
    gamma = 0.9
    Vpi = exact_value(P, R, gamma)
    V0 = rng.standard_normal(8)
    alpha0 = eigenbasis_coefficients(V0 - Vpi, spec)
    traj = td_value_flow(V0, P, R, FlowConfig(gamma=gamma, t_end=3.0, dt=0.5))
    for t, state in zip(traj.times, traj.states):
        alpha_t = eigenbasis_coefficients(state - Vpi, spec)
        expected = alpha0 * np.exp(-t * (1.0 - gamma * spec.eigenvalues))
        assert_allclose(alpha_t, expected, rtol=1e-6, atol=1e-9)
