import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import kernel_td
from tdlab.experiments import run_experiment
from tdlab.flows import DivergenceDetected, FlowConfig
from tdlab.kernel_td import (
    KernelSpec,
    build_kernel,
    circle_embedding,
    kernel_td_flow,
    line_embedding,
    smooth_kernel_generalization,
    split_kernel,
)
from tdlab.mdp import build_circle_mdp, random_walk_matrix, transition_matrix, uniform_policy
from tdlab.spectral import NonRealSpectrum, eigendecompose
from test_flows import assert_matches_step_loop, step_loop


def rbf_oracle(points, lengthscale):
    n = len(points)
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2 = np.sum((points[i] - points[j]) ** 2)
            K[i, j] = np.exp(-d2 / (2.0 * lengthscale**2))
    return K


def circle_problem():
    mdp, train_idx = build_circle_mdp(50, reward_state=24, n_train=40)
    P = transition_matrix(mdp, uniform_policy(mdp))
    return mdp, P, train_idx


def test_build_kernel_matches_direct_formula():
    emb = circle_embedding(12)
    spec = KernelSpec(lengthscale=3.0, embedding=emb)
    states = np.arange(12)
    assert_allclose(build_kernel(spec, states), rbf_oracle(emb, 3.0), atol=1e-12)


def test_build_kernel_subset_of_states():
    emb = line_embedding(10)
    spec = KernelSpec(lengthscale=2.0, embedding=emb)
    sub = np.array([1, 4, 7])
    K = build_kernel(spec, sub)
    assert K.shape == (3, 3)
    assert_allclose(np.diag(K), 1.0, atol=1e-12)
    assert K[0, 1] == pytest.approx(np.exp(-9.0 / 8.0))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(lengthscale=0.0, embedding=line_embedding(4))
    with pytest.raises(ValueError, match=r"\(n_states, dims\) matrix"):
        KernelSpec(lengthscale=1.0, embedding=np.arange(4.0))


def test_state_indices_out_of_range_are_refused():
    """Negative indices would wrap to the last states, and ``n`` would raise IndexError."""
    spec = KernelSpec(lengthscale=1.0, embedding=line_embedding(6))
    mdp, P, train_idx = circle_problem()
    K_all = split_kernel(KernelSpec(lengthscale=1.0, embedding=circle_embedding(50)), train_idx)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match=r"states in \[0, 6\)"):
            build_kernel(spec, [0, bad])
        with pytest.raises(ValueError, match=r"train_idx must index states in \[0, 6\)"):
            split_kernel(spec, [bad])
    cfg = FlowConfig(gamma=0.5, t_end=1.0, dt=1.0, method="euler")
    for bad in (-1, 50):
        idx = np.append(train_idx[:-1], bad)
        with pytest.raises(ValueError, match=r"train_idx must index states in \[0, 50\)"):
            kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, idx, cfg)


def test_circle_embedding_geometry():
    emb = circle_embedding(50, radius=800.0)
    assert emb.shape == (50, 2)
    assert_allclose(np.linalg.norm(emb, axis=1), 800.0, atol=1e-9)
    gaps = np.linalg.norm(emb - np.roll(emb, 1, axis=0), axis=1)
    assert_allclose(gaps, gaps[0], atol=1e-9)
    # adjacent states sit ~100 apart so the sweep lengthscales straddle them
    assert 90 < gaps[0] < 110


def test_split_kernel_blocks_match_full_matrix():
    emb = line_embedding(8)
    spec = KernelSpec(lengthscale=1.5, embedding=emb)
    train = np.array([0, 1, 2, 5])
    K_all = split_kernel(spec, train)
    full = build_kernel(spec, np.arange(8))
    assert K_all.shape == (8, 4)
    assert np.array_equal(K_all, full[:, train])


def three_state_problem():
    mdp, train_idx = build_circle_mdp(3, reward_state=0, n_train=2)
    return mdp, transition_matrix(mdp, uniform_policy(mdp)), train_idx


def test_kernel_flow_rejects_indefinite_train_block():
    mdp, P, train_idx = three_state_problem()
    K_all = np.array([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]])
    cfg = FlowConfig(gamma=0.5, t_end=1.0, dt=1.0, method="euler")
    with pytest.raises(ValueError, match="PSD"):
        kernel_td_flow(np.zeros(3), K_all, P, mdp.rewards, train_idx, cfg)


def test_kernel_flow_rejects_asymmetric_train_block_and_wrong_shape():
    mdp, P, train_idx = three_state_problem()
    cfg = FlowConfig(gamma=0.5, t_end=1.0, dt=1.0, method="euler")
    asymmetric = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        kernel_td_flow(np.zeros(3), asymmetric, P, mdp.rewards, train_idx, cfg)
    for K_all in (np.eye(2), np.eye(3), np.ones((3, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            kernel_td_flow(np.zeros(3), K_all, P, mdp.rewards, train_idx, cfg)


def test_kernel_flow_near_identity_kernel_is_plain_td():
    """A vanishing lengthscale makes the Gram matrix the identity, so the
    training rows follow ordinary tabular TD while held-out rows stay put."""
    mdp, P, train_idx = circle_problem()
    spec = KernelSpec(lengthscale=1e-3, embedding=circle_embedding(50))
    K_all = split_kernel(spec, train_idx)
    cfg = FlowConfig(gamma=0.9, t_end=30.0, dt=1.0, method="euler")
    traj = kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, train_idx, cfg)

    V = np.zeros(50)
    for _ in range(30):
        delta = mdp.rewards + 0.9 * P @ V - V
        upd = np.zeros(50)
        upd[train_idx] = delta[train_idx]
        V = V + upd
    assert np.max(np.abs(traj.final - V)) < 1e-8


def test_kernel_flow_euler_rk4_agree_at_small_steps():
    mdp, P, train_idx = circle_problem()
    spec = KernelSpec(lengthscale=1.0, embedding=circle_embedding(50))
    K_all = split_kernel(spec, train_idx)
    v0 = np.zeros(50)
    a = kernel_td_flow(v0, K_all, P, mdp.rewards, train_idx,
                       FlowConfig(gamma=0.5, t_end=5.0, dt=1e-3, method="euler"))
    b = kernel_td_flow(v0, K_all, P, mdp.rewards, train_idx,
                       FlowConfig(gamma=0.5, t_end=5.0, dt=1e-3, method="rk4"))
    assert np.max(np.abs(a.final - b.final)) < 1e-4


def test_kernel_flow_rejects_closed_form():
    mdp, P, train_idx = circle_problem()
    spec = KernelSpec(lengthscale=1.0, embedding=circle_embedding(50))
    K_all = split_kernel(spec, train_idx)
    with pytest.raises(ValueError):
        kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, train_idx,
                       FlowConfig(gamma=0.5, t_end=5.0, dt=1.0, method="closed_form"))


def test_kernel_flow_long_lengthscale_high_gamma_diverges():
    mdp, P, train_idx = circle_problem()
    spec = KernelSpec(lengthscale=100.0, embedding=circle_embedding(50))
    K_all = split_kernel(spec, train_idx)
    cfg = FlowConfig(gamma=0.99, t_end=100.0, dt=1.0, method="euler")
    with pytest.raises(DivergenceDetected) as info:
        kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, train_idx, cfg)
    exc = info.value
    assert exc.sup_norm > 1e8
    # the partial trajectory is attached for post-mortem plots
    assert exc.trajectory is not None
    assert exc.trajectory.times[-1] == pytest.approx(exc.time)
    assert np.max(np.abs(exc.trajectory.states[-1])) == pytest.approx(exc.sup_norm)


def kernel_td_f(mdp, P, K_all, train_idx, gamma):
    """The kernel-TD vector field, written out as the step loop evaluated it:
    train rows by the train block, held-out rows by the cross section."""
    test_idx = np.setdiff1d(np.arange(P.shape[0]), train_idx)
    K_train, K_cross = K_all[train_idx], K_all[test_idx]

    def f(V):
        delta = (mdp.rewards + gamma * (P @ V) - V)[train_idx]
        out = np.empty_like(V)
        out[train_idx], out[test_idx] = K_train @ delta, K_cross @ delta
        return out

    return f


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_kernel_flow_matches_step_loop(method):
    mdp, P, train_idx = circle_problem()
    K_all = split_kernel(KernelSpec(lengthscale=100.0, embedding=circle_embedding(50)), train_idx)
    cfg = FlowConfig(gamma=0.5, t_end=5.0, dt=1e-3, method=method)
    v0 = np.random.default_rng(5).standard_normal(50)
    traj = kernel_td_flow(v0, K_all, P, mdp.rewards, train_idx, cfg)
    states, crossed = step_loop(kernel_td_f(mdp, P, K_all, train_idx, 0.5), v0, cfg)
    assert crossed is None
    assert_matches_step_loop(traj, states, cfg.dt)


def test_kernel_flow_divergence_matches_step_loop():
    """Thinned grid (3,000 Euler steps, stride 3): the crossing step 76 is not a
    recorded step, and is still the one reported, with the same partial trajectory."""
    mdp, P, train_idx = circle_problem()
    K_all = split_kernel(KernelSpec(lengthscale=100.0, embedding=circle_embedding(50)), train_idx)
    cfg = FlowConfig(gamma=0.99, t_end=3000.0, dt=1.0, method="euler")
    with pytest.raises(DivergenceDetected) as info:
        kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, train_idx, cfg)
    states, crossed = step_loop(kernel_td_f(mdp, P, K_all, train_idx, 0.99), np.zeros(50), cfg)
    exc, partial = info.value, info.value.trajectory
    assert crossed is not None and crossed % 3 != 0
    assert exc.time == crossed * cfg.dt
    recorded = list(range(0, crossed, 3)) + [crossed]
    assert len(partial.times) == len(recorded)
    assert np.max(np.abs(partial.states - states[recorded])) <= 1e-12 * np.max(np.abs(states))
    assert partial.meta["steps"] == crossed
    assert partial.meta["stepwise_strides"] > 0


def test_kernel_flow_short_lengthscale_low_gamma_converges():
    mdp, P, train_idx = circle_problem()
    spec = KernelSpec(lengthscale=0.01, embedding=circle_embedding(50))
    K_all = split_kernel(spec, train_idx)
    cfg = FlowConfig(gamma=0.5, t_end=100.0, dt=1.0, method="euler")
    traj = kernel_td_flow(np.zeros(50), K_all, P, mdp.rewards, train_idx, cfg)
    assert traj.meta["train_residual_sup"][-1] < 1e-3
    held_out = np.setdiff1d(np.arange(50), train_idx)
    assert np.max(np.abs(traj.final[held_out])) < 1e-3


# ---------------------------------------------------------------------------
# eigen-kernel generalization


def real_walk(seed, n=30):
    return random_walk_matrix(np.random.default_rng(seed), n)


def test_smooth_kernel_interpolates_in_span_targets():
    P = real_walk(0)
    R = np.random.default_rng(1).standard_normal(30)
    mse = smooth_kernel_generalization(P, R, 0.9, np.arange(10), (1.0,), ("projected-top",))
    assert mse.shape == (1, 1) and mse[0, 0] < 1e-10


def test_smooth_kernel_value_target_improves_with_data():
    gamma, S = 0.9, np.arange(15)
    lo, hi = [], []
    for seed in range(30):
        P = real_walk(seed)
        R = np.random.default_rng(10_000 + seed).standard_normal(30)
        (mse_lo, mse_hi), = smooth_kernel_generalization(P, R, gamma, S, (0.3, 0.9), ("value",))
        lo.append(mse_lo)
        hi.append(mse_hi)
    assert np.mean(hi) < np.mean(lo)


def test_smooth_kernel_rough_targets_transfer_worse():
    """Energy on the low (rough) eigenvectors does not generalize through a
    kernel built from the smooth ones."""
    gamma, S = 0.9, np.arange(15)
    smooth, rough = [], []
    for seed in range(30):
        P = real_walk(seed)
        R = np.random.default_rng(20_000 + seed).standard_normal(30)
        (top,), (bottom,) = smooth_kernel_generalization(P, R, gamma, S, (0.5,), ("projected-top", "projected-bottom"))
        smooth.append(top)
        rough.append(bottom)
    assert np.mean(rough) > np.mean(smooth)


def test_smooth_kernel_nstep_needs_horizon():
    P = real_walk(3)
    with pytest.raises(ValueError):
        smooth_kernel_generalization(P, np.ones(30), 0.9, np.arange(5), (0.5,), ("nstep",))
    mse = smooth_kernel_generalization(P, np.ones(30), 0.9, np.arange(5), (0.5,), ("nstep",), nstep_n=4)
    assert np.all(np.isfinite(mse))


def test_smooth_kernel_rejects_rotation_spectrum():
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # 3-cycle
    with pytest.raises(NonRealSpectrum):
        smooth_kernel_generalization(P, np.ones(3), 0.9, np.array([0]), (0.5,), ("value",))


@pytest.mark.parametrize("bad", [-1, 30])
def test_smooth_kernel_refuses_eigenvector_indices_out_of_range(bad):
    """``-1`` would wrap to the last eigenvector, and ``n`` would raise IndexError."""
    with pytest.raises(ValueError, match=r"S must index eigenvectors in \[0, 30\)"):
        smooth_kernel_generalization(real_walk(3), np.ones(30), 0.9, [0, bad], (0.5,), ("value",))


def test_smooth_kernel_validates_fraction():
    P = real_walk(4)
    for fractions in ((0.0,), (0.5, 0.0), (0.5, 1.5), (0.5, np.nan), 0.5):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            smooth_kernel_generalization(P, np.ones(30), 0.9, np.arange(5), fractions, ("value",))


@pytest.mark.parametrize("target", ["value", "projected-top", "projected-bottom", "nstep"])
def test_smooth_kernel_fraction_sequence_matches_scalar_calls(target):
    """A batch of fractions equals its one-element calls."""
    P = real_walk(5)
    R = np.random.default_rng(5).standard_normal(30)
    fractions = (0.2, 0.5, 0.9, 1.0)
    args = (P, R, 0.9, np.arange(12))
    mses = smooth_kernel_generalization(*args, fractions, (target,), nstep_n=3)
    single = [smooth_kernel_generalization(*args, (f,), (target,), nstep_n=3)[0, 0] for f in fractions]
    assert mses.shape == (1, len(fractions))
    assert np.array_equal(mses[0], single)


_TARGETS = ("value", "projected-top", "projected-bottom", "nstep")


@pytest.mark.parametrize("fractions", [(0.5,), (0.2, 0.5, 0.9, 1.0)], ids=["scalar", "sequence"])
def test_smooth_kernel_target_sequence_matches_scalar_calls(fractions):
    """A (targets, fractions) batch equals its one-element calls."""
    P = real_walk(6)
    R = np.random.default_rng(6).standard_normal(30)
    args = (P, R, 0.9, np.arange(12))
    table = smooth_kernel_generalization(*args, fractions, _TARGETS, nstep_n=3)
    single = [[smooth_kernel_generalization(*args, (f,), (t,), nstep_n=3)[0, 0] for f in fractions] for t in _TARGETS]
    assert table.shape == (len(_TARGETS), len(fractions))
    assert np.array_equal(table, single)


def test_smooth_kernel_rejects_an_unknown_target_in_a_sequence():
    P = real_walk(7)
    with pytest.raises(ValueError, match="unknown target 'bogus'"):
        smooth_kernel_generalization(P, np.ones(30), 0.9, np.arange(5), (0.5,), ("value", "bogus"))


def test_smooth_kernel_experiment_decomposes_each_mdp_once(tmp_path, monkeypatch):
    calls = []

    def counting_eigendecompose(P):
        calls.append(P)
        return eigendecompose(P)

    monkeypatch.setattr(kernel_td, "eigendecompose", counting_eigendecompose)
    run_experiment("smooth-kernel-generalization", {"n_mdps": 3}, tmp_path, seed=0)
    assert len(calls) == 3
