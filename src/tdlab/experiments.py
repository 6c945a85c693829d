"""Deterministic experiment harness: named experiments, CSV artifacts, manifest.

Every experiment is a pure function of (config, RNG); the RNG for repetition
``r`` of experiment ``e`` under master seed ``s`` is ``default_rng([s, e, r])``,
so adding repetitions never perturbs earlier ones.  CSV cells use 17
significant digits, '.' decimals, and '\\n' line endings; files are written to
a temp name and atomically renamed, and identical (config, seed) pairs
reproduce byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .capacity import LinearValueModel, feature_rank, srank, update_matrix, update_rank
from .causal import build_synthetic_family, fit_reward_weights, intervention_robustness, linear_misa
from .evidence import SAMPLER_METHODS, TASK_KINDS, _estimate, algorithm1_sumloss, ensemble_weight_ranking
from .evidence import evidence_report, model_selection_task
from .flows import (
    DivergenceDetected,
    FlowConfig,
    coupled_feature_flow,
    grassmann_convergence_metric,
    limiting_cumulant_covariance,
    mc_value_flow,
    random_cumulant_flow,
    second_order_check,
    td_value_flow,
)
from .kernel_td import KERNEL_TD_METHODS, SMOOTH_TARGETS, KernelSpec, build_kernel, circle_embedding, kernel_td_flow
from .kernel_td import line_embedding, smooth_kernel_generalization, split_kernel
from .mdp import (
    TabularMdp,
    build_chain_mdp,
    build_circle_mdp,
    build_four_rooms,
    deterministic_policy,
    policy_iteration,
    random_mdp,
    random_walk_matrix,
    transition_matrix,
    uniform_policy,
)
from .spectral import (
    NonRealSpectrum,
    eigendecompose,
    real_invariant_basis,
    resolvent,
    rsbf,
    subspace_from_span,
    vector_subspace_distance,
)


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


# A sound config's numbers failing, in its setup or its run: never a ConfigError.
NUMERICAL_ERRORS = (
    DivergenceDetected,
    NonRealSpectrum,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _format_column(column):
    """A column's ``%`` conversion and the cells it converts: ``%.17g`` for a
    column of floats, ``%s`` for one of ints or one of strings, and ``%s`` of
    ``_format_cell``'s text for bools and mixed columns, so a column that
    holds text holds only text."""
    kinds = set(map(type, column))
    if kinds <= {float, np.float64}:
        return "%.17g", column
    if kinds <= {int, np.int64} or kinds == {str}:
        return "%s", column
    return "%s", [_format_cell(cell) for cell in column]


def _write_atomically(path: Path, chunks) -> None:
    """Write ``chunks`` of text to a temp name beside ``path``, then rename it into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def write_csv(path: Path, header, rows) -> None:
    """Write a CSV atomically with deterministic float formatting.

    Every row must have one cell per header column.  Cells are written
    unquoted, so a column whose name or text cells hold a comma, a double
    quote or a line break is refused before anything is written."""
    rows = list(rows)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: every row must have {len(header)} cells")
    formatted = [_format_column(column) for column in zip(*rows)]
    for i, name in enumerate(header):
        cells = formatted[i][1] if rows else ()
        text = name + ("".join(cells) if cells and isinstance(cells[0], str) else "")
        if any(mark in text for mark in ',"\n\r'):
            raise ValueError(f"{path.name}: column {name!r} holds a comma, a double quote or a line break")
    row_spec = ",".join(spec for spec, _ in formatted) + "\n"
    lines = [",".join(header) + "\n"]
    # one % per row: a whole file's text in one string, with its cell tuple,
    # raised perfbench's peak RSS by up to 0.9 MB
    lines.extend(map(row_spec.__mod__, zip(*(column for _, column in formatted))))
    _write_atomically(path, lines)


class ArtifactWriter:
    """Collects per-repetition CSV artifacts under a common prefix."""

    def __init__(self, out_dir: Path, prefix: str):
        self.out_dir = Path(out_dir)
        self.prefix = prefix
        self.files: list[str] = []

    def csv(self, name: str, header, rows) -> Path:
        path = self.out_dir / f"{self.prefix}{name}.csv"
        write_csv(path, header, rows)
        self.files.append(path.name)
        return path


# ---------------------------------------------------------------------------
# experiment setups and runners: a setup builds every input that takes no random
# draw, so ``validate`` refuses what the library's constructors refuse; every
# repetition's runner reads (never mutates) the one setup ``run_experiment`` builds


def _two_state_setup(cfg):
    """The flow config, the fixed 2-state MDP and its transition matrix."""
    flow_cfg = FlowConfig(gamma=cfg["gamma"], t_end=cfg["t_end"], dt=cfg["dt"], method="closed_form")
    mdp = TabularMdp(np.array([[[0.2, 0.8]], [[0.8, 0.2]]]), np.array([1.0, 0.0]))
    return flow_cfg, mdp, transition_matrix(mdp, uniform_policy(mdp))


def _run_two_state(cfg, inputs, rng, art):
    """TD vs MC value trajectories on a fixed 2-state MDP."""
    flow_cfg, mdp, P = inputs
    v0 = rng.uniform(-2.0, 2.0, size=(2, cfg["n_inits"]))
    rows = []
    for flow_name, flow in (("td", td_value_flow), ("mc", mc_value_flow)):
        traj = flow(v0, P, mdp.rewards, flow_cfg)
        for i in range(cfg["n_inits"]):
            for t_idx, t in enumerate(traj.times):
                rows.append((flow_name, i, t, traj.states[t_idx, 0, i], traj.states[t_idx, 1, i]))
    art.csv("trajectories", ("flow", "init", "t", "v_state0", "v_state1"), rows)
    return {"fixed_point": traj.meta["fixed_point"].tolist()}


def _chain_transfer_setup(cfg):
    """The chain's state count, the values along its policy-iteration path,
    and the raw EBF and RSBF bases of each policy's transition matrix."""
    mdp = build_chain_mdp(cfg["n_states"], cfg["slip"], cfg["left_reward"], cfg["right_reward"])
    gamma, K = cfg["gamma"], cfg["k"]
    path = policy_iteration(mdp, gamma)
    transition_mats = [
        transition_matrix(mdp, deterministic_policy(a, mdp.n_actions)) for a in path.policies
    ]
    raw_features = {
        "ebf": [real_invariant_basis(eigendecompose(P_j), K) for P_j in transition_mats],
        "rsbf": [rsbf(P_j, gamma, K).vectors for P_j in transition_mats],
    }
    return mdp.n_states, path.values, raw_features


def _run_chain_transfer(cfg, inputs, rng, art):
    """Grassmann transfer heatmaps of EBF/RSBF/random features across a policy path."""
    n, values, raw_features = inputs
    n_pol = len(values)
    raw_features = {**raw_features, "random": [rng.standard_normal((n, cfg["k"])) for _ in values]}
    header = ("feature_policy",) + tuple(f"d_value_{jp}" for jp in range(n_pol))
    for family, mats in raw_features.items():
        plain_rows, appended_rows = [], []
        # rank-deficient spans (slip = 0 can make them so) are numerical failures, hence here
        for j, M in enumerate(mats):
            basis = subspace_from_span(M)
            basis_app = subspace_from_span(np.column_stack([M, values[j]]))
            plain_rows.append((j,) + tuple(vector_subspace_distance(values[jp], basis) for jp in range(n_pol)))
            appended_rows.append((j,) + tuple(vector_subspace_distance(values[jp], basis_app) for jp in range(n_pol)))
        art.csv(f"transfer_{family}", header, plain_rows)
        art.csv(f"transfer_{family}_appended", header, appended_rows)


def _four_rooms_setup(cfg):
    """One flow config per ``m_heads`` entry M (feature rate ``alpha / M``),
    the four-rooms walk, its transition matrix and the orthonormal span of its
    top ``k_features`` EBFs (for K in [69, 105] they span fewer than K
    dimensions: a numerical failure, so ``validate`` exits 3 as ``run`` does)."""
    shared = dict(gamma=cfg["gamma"], beta=cfg["beta"], t_end=cfg["t_end"], dt=cfg["dt"], method="rk4")
    flow_cfgs = [FlowConfig(alpha=cfg["alpha"] / M, **shared) for M in cfg["m_heads"]]
    mdp = build_four_rooms()
    P = transition_matrix(mdp, uniform_policy(mdp))
    spectrum = eigendecompose(P)
    try:
        ebfs = real_invariant_basis(spectrum, cfg["k_features"])
    except ValueError as exc:
        raise ConfigError(f"four-rooms-features.k_features: {exc}") from exc
    return flow_cfgs, mdp, P, subspace_from_span(ebfs)


def _run_four_rooms(cfg, inputs, rng, art):
    """Coupled feature flows on the four-rooms walk, tracked against the top EBFs.

    Every head's ``phi0`` and ``w0`` are drawn first, in ``m_heads`` order, so
    the flows are independent and ``_fork_map`` splits them over forked
    workers.  A flow measures each block of snapshots as the engine makes it
    and returns only its snapshot times and distances, so no process holds a
    snapshot stack; the rows are built once every flow is done."""
    flow_cfgs, mdp, P, target = inputs
    K = cfg["k_features"]
    starts = [
        (rng.standard_normal((mdp.n_states, K)), cfg["weight_scale"] * rng.standard_normal((K, M)))
        for M in cfg["m_heads"]
    ]

    def convergence(h):
        traj = coupled_feature_flow(*starts[h], P, mdp.rewards, flow_cfgs[h], target=target)
        return traj.times, traj.states

    rows = [
        (M, t, d)
        for M, (times, metric) in zip(cfg["m_heads"], _fork_map(convergence, len(flow_cfgs)))
        for t, d in zip(times, metric)
    ]
    art.csv("feature_convergence", ("m_heads", "t", "grassmann_distance"), rows)


def _random_cumulants_setup(cfg) -> FlowConfig:
    """The flow config, with feature rate ``1 / m_heads``.  The heads' cumulants
    span at most ``n_states`` dimensions, so more heads than states is refused."""
    if cfg["m_heads"] > cfg["n_states"]:
        raise ConfigError(
            f"random-cumulants.m_heads: {cfg['m_heads']} heads exceed n_states = {cfg['n_states']}"
        )
    return FlowConfig(gamma=cfg["gamma"], alpha=1.0 / cfg["m_heads"], t_end=cfg["t_end"], dt=cfg["dt"], method="rk4")


# rows of pooled cumulant draws per Gram update: random-cumulants' working set is
# O(n_states**2 + _POOL_CHUNK * n_states), whatever n_seeds * m_heads is
_POOL_CHUNK = 1024


def _pooled_covariances(rng, psi, checkpoints):
    """Yield ``(c, psi (C[:c]^T C[:c] / c) psi^T)`` for each ascending checkpoint c,
    where C is one ``(checkpoints[-1], n)`` standard-normal draw from ``rng``.

    C is drawn in consecutive chunks of at most ``_POOL_CHUNK`` rows that end on
    each checkpoint, the same numbers as the one draw, leaving ``rng`` where it
    would; only their running Gram is kept.  Each covariance is symmetrized, so
    its ``(i, j)`` and ``(j, i)`` cells are equal."""
    n = psi.shape[0]
    gram, drawn = np.zeros((n, n)), 0
    for c in checkpoints:
        while drawn < c:
            draw = rng.standard_normal((min(_POOL_CHUNK, c - drawn), n))
            gram += draw.T @ draw
            drawn += len(draw)
        cov = psi @ (gram / c) @ psi.T
        yield c, (cov + cov.T) / 2


def _run_random_cumulants(cfg, flow_cfg, rng, art):
    """Random-cumulant feature covariance against the resolvent formula."""
    n, gamma, M = cfg["n_states"], cfg["gamma"], cfg["m_heads"]
    mdp = random_mdp(rng, n)
    P = transition_matrix(mdp, uniform_policy(mdp))
    psi = resolvent(P, gamma)
    sigma = np.eye(n)
    theo = limiting_cumulant_covariance(P, gamma, sigma)

    # the pooled rows C (n_seeds * m_heads of them) give limiting feature columns C psi^T
    total = cfg["n_seeds"] * M
    checkpoints = sorted({min(c, total) for c in (100, 500, 1000, total)})
    err_rows = []
    for c, emp in _pooled_covariances(rng, psi, checkpoints):
        err_rows.append((c, float(np.linalg.norm(emp - theo) / np.linalg.norm(theo))))
    art.csv("covariance_error", ("n_pooled_columns", "rel_frobenius_error"), err_rows)
    # emp is the last checkpoint's: the whole pool's
    art.csv(
        "covariance",
        ("i", "j", "empirical", "theoretical"),
        [(i, j, emp[i, j], theo[i, j]) for i in range(n) for j in range(n)],
    )

    K = M
    phi0 = rng.standard_normal((n, K))
    w0 = rng.standard_normal((K, M))
    cumulants = rng.standard_normal((n, M))
    traj = random_cumulant_flow(phi0, w0, cumulants, P, flow_cfg)
    metric = grassmann_convergence_metric(traj, subspace_from_span(psi @ cumulants))
    art.csv(
        "flow_alignment",
        ("t", "grassmann_distance_to_resolvent_span"),
        list(zip(traj.times, metric)),
    )


def _kernel_circle_setup(cfg):
    """The circle MDP, its transition matrix and train states, one flow config
    per ``gammas`` entry and one kernel block per ``lengthscales`` entry.
    Refuses entries that share a ``:g`` name, since they would share a
    trajectory file."""
    for key in ("gammas", "lengthscales"):
        if len({f"{v:g}" for v in cfg[key]}) < len(cfg[key]):
            raise ConfigError(f"kernel-circle.{key}: {cfg[key]} repeats a name in the trajectory files")
    mdp, train_idx = build_circle_mdp(cfg["n_states"], cfg["reward_state"], cfg["n_train"])
    P = transition_matrix(mdp, uniform_policy(mdp))
    flow_cfgs = [FlowConfig(gamma=g, t_end=cfg["t_end"], dt=cfg["dt"], method=cfg["method"]) for g in cfg["gammas"]]
    embedding = circle_embedding(cfg["n_states"], cfg["radius"])
    kernels = [split_kernel(KernelSpec(lengthscale=ell, embedding=embedding), train_idx) for ell in cfg["lengthscales"]]
    return mdp, P, train_idx, flow_cfgs, kernels


def _run_kernel_circle(cfg, inputs, rng, art):
    """Stability/generalization sweep of kernel TD on the circle MDP."""
    mdp, P, train_idx, flow_cfgs, kernels = inputs
    held_out = np.ones(cfg["n_states"], dtype=bool)
    held_out[train_idx] = False
    sweep_rows = []
    value_header = ("t", "diverged") + tuple(f"v_{s}" for s in range(cfg["n_states"]))
    for gamma, flow_cfg in zip(cfg["gammas"], flow_cfgs):
        for ell, K_all in zip(cfg["lengthscales"], kernels):
            name = f"trajectory_gamma{gamma:g}_ell{ell:g}"
            diverged = False
            try:
                traj = kernel_td_flow(np.zeros(cfg["n_states"]), K_all, P, mdp.rewards, train_idx, flow_cfg)
            except DivergenceDetected as exc:
                traj, diverged = exc.trajectory, True
                sweep_rows.append((gamma, ell, "diverged", exc.time, exc.sup_norm, "", ""))
            else:
                resid = float(traj.meta["train_residual_sup"][-1])
                test_sup = float(np.max(np.abs(traj.final[held_out]))) if held_out.any() else 0.0
                sweep_rows.append((gamma, ell, "converged", "", "", resid, test_sup))
            last = len(traj.times) - 1
            rows = [
                (t, int(diverged and i == last)) + tuple(state)
                for i, (t, state) in enumerate(zip(traj.times, traj.states))
            ]
            art.csv(name, value_header, rows)
    art.csv(
        "sweep",
        (
            "gamma",
            "lengthscale",
            "outcome",
            "divergence_time",
            "divergence_sup_norm",
            "final_train_residual",
            "final_test_sup",
        ),
        sweep_rows,
    )


def _smooth_kernel_setup(cfg) -> np.ndarray:
    """The eigenvector index set ``S``; refuses more eigenvectors than states
    and a train fraction that keeps no state."""
    name, n = "smooth-kernel-generalization", cfg["n_states"]
    if cfg["smooth_k"] > n:
        raise ConfigError(f"{name}.smooth_k: {cfg['smooth_k']} eigenvectors exceed n_states = {n}")
    if math.floor(n * min(cfg["fractions"])) < 1:
        raise ConfigError(f"{name}.fractions: {min(cfg['fractions'])} of {n} states keeps no training state")
    return np.arange(cfg["smooth_k"])


def _run_smooth_kernel(cfg, S, rng, art):
    """Eigen-kernel generalization across train fractions, targets, and MDP draws."""
    n, gamma = cfg["n_states"], cfg["gamma"]
    # one (target, fraction) table of MSEs per problem, from one spectrum each
    mse_tables = []
    for _ in range(cfg["n_mdps"]):
        P = random_walk_matrix(rng, n, cfg["edge_prob"])
        R = rng.standard_normal(n)
        mse_tables.append(
            smooth_kernel_generalization(P, R, gamma, S, cfg["fractions"], cfg["targets"], nstep_n=cfg["nstep_n"])
        )
    rows = []
    for target, mse_table in zip(cfg["targets"], np.swapaxes(mse_tables, 0, 1)):
        for frac, mses in zip(cfg["fractions"], mse_table.T):
            mse = _estimate(mses)
            rows.append((target, frac, mse.value, mse.stderr))
    art.csv("generalization", ("target", "train_fraction", "mean_mse", "stderr_mse"), rows)


def _fork_map(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]``, split over one forked worker per usable CPU.

    Returns ``[fn(i) for i in range(n)]``, or raises what one of those
    calls raises.  With W = min(n, usable CPUs), this process computes items
    0, W, 2W, … and forked child w computes items w, w + W, …, pickles its
    whole share, sends it back over a one-way pipe and exits 0; so ``fn``
    may be a closure and only its results are pickled.  Each item must
    depend on its index alone, so a child that exits any other way (its
    share raised, its results could not be pickled, or it was killed) has
    its share computed here instead, and an error comes from this process's
    own call, as a one-CPU run raises it.  On any failure here the children
    still working are killed; every child is reaped before the call returns.
    W < 2, or a platform other than Linux, runs the list serially in this
    process.

    Processes, not threads: the items are Python code that holds the GIL.
    ``os.fork``, not ``multiprocessing``: importing that package costs
    ~0.8 MB of RSS, and a spawned worker would import numpy afresh (~0.15 s)
    and could not receive a closure.
    """
    workers = min(n, len(os.sched_getaffinity(0))) if sys.platform == "linux" else 1
    if workers < 2:
        return [fn(i) for i in range(n)]
    children = []  # (w, pid, read end) of each forked child not yet reaped
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child: send its whole share and exit 0; any failure exits 1
                code = 1
                try:
                    os.close(read_end)
                    payload = pickle.dumps([fn(i) for i in range(w, n, workers)])
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)  # so the child's exit reads as EOF here
            children.append((w, pid, read_end))
        results = [None] * n
        results[::workers] = [fn(i) for i in range(0, n, workers)]
        while children:
            w, pid, read_end = children[0]
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(read_end)
            del children[0]
            # the child writes its whole share before exiting 0; on any other exit, recompute it here
            results[w::workers] = pickle.loads(payload) if code == 0 else [fn(i) for i in range(w, n, workers)]
        return results
    finally:
        for _, pid, read_end in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def _run_bms_select(cfg, _, rng, art):
    """Evidence estimators vs exact log ML across a model-selection sweep."""
    base = int(rng.integers(2**31))
    models, data = model_selection_task(cfg["kind"], cfg["task_seed"])
    k_values = cfg["k_values"]
    n_seeds = cfg["n_estimator_seeds"]

    header = (
        ("model", "exact_log_ml", "L_hat", "L_stderr")
        + tuple(f"Lk_{k}" for k in k_values)
        + ("LS_hat", "LS_stderr", "kl_gap", "alg1_mean", "alg1_stderr")
    )

    def row(j):
        model = models[j]
        rep = evidence_report(
            model, data, k_values=k_values, n_seeds=n_seeds,
            ls_samples=cfg["ls_samples"], seed=base + j,
        )
        alg1 = _estimate(algorithm1_sumloss(
            model, data, seeds=base + 7919 * (j + 1) + np.arange(n_seeds), method=cfg["alg1_method"]
        ))
        return rep.stacking_draw(base + 104729, j), (
            (j, rep.exact_log_ml, rep.L_hat.value, rep.L_hat.stderr)
            + tuple(rep.Lk_hat[k].value for k in k_values)
            + (rep.LS_hat.value, rep.LS_hat.stderr, rep.kl_gap, alg1.value, alg1.stderr)
        )

    draws, rows = zip(*_fork_map(row, len(models)))
    art.csv("evidence", header, rows)

    weights = ensemble_weight_ranking(np.column_stack(draws), data.targets)
    art.csv("stacking_weights", ("model", "weight"), list(enumerate(weights)))

    selection_rows = [
        (name, int(np.argmax([row[header.index(column)] for row in rows])))
        for name, column in (
            ("exact", "exact_log_ml"), ("L", "L_hat"), ("Lk_max", f"Lk_{max(k_values)}"),
            ("LS", "LS_hat"), ("alg1", "alg1_mean"),
        )
    ]
    selection_rows.append(("stacking_weight", int(np.argmax(weights))))
    art.csv("selection", ("estimator", "argmax_model"), selection_rows)


def _run_misa(cfg, _, rng, art):
    """Selection-rate sweep of linear MISA plus the intervention-robustness curve."""
    base = int(rng.integers(2**31))
    scales = (cfg["intervention_scale"],) * 3

    def dataset(s):
        return build_synthetic_family(cfg["n_envs"], cfg["n_steps"], seed=base + s, intervention_scales=scales)

    chosen = _fork_map(lambda s: linear_misa(dataset(s), alpha=cfg["alpha"]).selected, cfg["n_seeds"])
    selection_rows = [
        (s, " ".join(str(v) for v in sorted(subset)), subset == frozenset({0, 1}))
        for s, subset in enumerate(chosen)
    ]
    n_correct = sum(correct for _, _, correct in selection_rows)
    art.csv("selection", ("seed_index", "selected", "correct"), selection_rows)
    art.csv(
        "selection_summary",
        ("n_seeds", "n_correct", "rate"),
        [(cfg["n_seeds"], n_correct, n_correct / cfg["n_seeds"])],
    )

    first_data = dataset(0)  # the map returns only each seed's selection
    curve = intervention_robustness(
        fit_reward_weights(first_data),
        fit_reward_weights(first_data, subset=chosen[0]),
        cfg["do_values"],
        seed=base,
        n_steps=cfg["n_steps"],
    )
    art.csv(
        "robustness",
        ("do_value", "full_mse", "misa_mse"),
        list(zip(curve.values, curve.full_mse, curve.misa_mse)),
    )


def _capacity_setup(cfg):
    """The chain's one-step transitions and one RBF feature matrix per
    ``lengthscales`` entry."""
    n = cfg["n_states"]
    mdp = build_chain_mdp(n)
    transitions = [(s, float(mdp.rewards[s]), min(s + 1, n - 1)) for s in range(n)]
    rbf_features = [
        build_kernel(KernelSpec(lengthscale=ell, embedding=line_embedding(n)), np.arange(n))
        for ell in cfg["lengthscales"]
    ]
    return transitions, rbf_features


def _run_capacity(cfg, inputs, rng, art):
    """Rank-estimator battery: constructed ranks, tabular updates, RBF lengthscales."""
    transitions, rbf_features = inputs
    n, gamma, lr = cfg["n_states"], cfg["gamma"], cfg["sgd_lr"]
    d = cfg["d_features"]
    rank_rows = []
    for r in cfg["constructed_ranks"]:
        A = rng.standard_normal((cfg["n_samples"], r))
        B = rng.standard_normal((r, d))
        rank_rows.append((r, feature_rank(A @ B, cfg["eps"]).rank))
    art.csv("feature_ranks", ("true_rank", "estimated_rank"), rank_rows)

    scale_phi = rng.standard_normal((200, 5)) @ rng.standard_normal((5, d))
    art.csv(
        "srank_invariance",
        ("scale", "feature_rank", "srank"),
        [
            (s, feature_rank(s * scale_phi, cfg["eps"]).rank, srank(s * scale_phi, cfg["eps"]).rank)
            for s in (1.0, 1000.0)
        ],
    )

    weights = rng.standard_normal(n)
    tab_model = LinearValueModel(np.eye(n), weights)
    U_tab = update_matrix(tab_model, transitions, gamma, lr)
    off_diag = float(np.max(np.abs(U_tab - np.diag(np.diag(U_tab)))))
    art.csv(
        "tabular_update",
        ("n_transitions", "update_rank", "max_offdiagonal"),
        [(n, update_rank(U_tab).rank, off_diag)],
    )

    rbf_rows = []
    rbf_weights = rng.standard_normal(n)
    for ell, phi in zip(cfg["lengthscales"], rbf_features):
        model = LinearValueModel(phi, rbf_weights)
        U = update_matrix(model, transitions, gamma, lr)
        rbf_rows.append((ell, update_rank(U).rank))
    art.csv("rbf_update_ranks", ("lengthscale", "update_rank"), rbf_rows)


def _second_order_setup(cfg) -> list[FlowConfig]:
    """The Euler FlowConfig of each ``alphas`` entry over ``t_total`` (rounded
    to whole steps), built before any draw, so that it refuses gamma, the
    step budget and an overflowing ``t_total / alpha`` first."""
    configs = [
        FlowConfig(gamma=cfg["gamma"], t_end=cfg["t_total"], dt=alpha, method="euler") for alpha in cfg["alphas"]
    ]
    for flow_cfg in configs:
        if round(flow_cfg.t_end / flow_cfg.dt) < 1:
            raise ConfigError(f"second-order.alphas: {flow_cfg.dt} rounds t_total = {flow_cfg.t_end} to no steps")
    return configs


def _run_second_order(cfg, flow_cfgs, rng, art):
    """Richardson table for the discrete-TD step-size correction."""
    mdp = random_mdp(rng, cfg["n_states"])
    P = transition_matrix(mdp, uniform_policy(mdp))
    V0 = cfg["v_scale"] * rng.standard_normal(cfg["n_states"])
    table_rows = []
    errors = []
    for flow_cfg in flow_cfgs:
        discrete, first, corrected = second_order_check(V0, P, mdp.rewards, flow_cfg)
        alpha = flow_cfg.dt
        e1 = float(np.linalg.norm(discrete - first))
        e2 = float(np.linalg.norm(discrete - corrected))
        errors.append((alpha, e1, e2))
        table_rows.append((alpha, int(round(flow_cfg.t_end / alpha)), e1, e2))
    art.csv("richardson", ("alpha", "n_steps", "err_first_order", "err_corrected"), table_rows)

    ratio_rows = [(a0, a1, e10 / e11, e20 / e21) for (a0, e10, e20), (a1, e11, e21) in zip(errors, errors[1:])]
    art.csv("ratios", ("alpha_coarse", "alpha_fine", "ratio_first_order", "ratio_corrected"), ratio_rows)


# ---------------------------------------------------------------------------
# registry and runner


class Range(NamedTuple):
    """Allowed values of a numeric config key: from ``lo`` to ``hi``, each end
    included unless its ``*_open`` flag is set."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def admits(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {self.lo:g}"
        return f"in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}{')' if self.hi_open else ']'}"


# An integer key (or list item) is a count unless its definition declares a range.
_COUNT = Range(1)
# An integer key that is not a count: an index that its builder checks.
_ANY_INTEGER = Range(-math.inf)


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    index: int
    description: str
    defaults: dict
    runner: object  # (config, setup's inputs, rng, ArtifactWriter) -> derived dict, or None
    # key -> Range, checked item by item for lists; an integer key without one is a count
    ranges: dict = field(default_factory=dict)
    # key -> the names a string key (or each item) may take, as the library that reads it exports them
    names: dict = field(default_factory=dict)
    # config -> the inputs that need no random draw, or None without one; refuses what its
    # builders refuse, with a ConfigError or with a ValueError whose message opens with the
    # refused field (FlowConfig's, KernelSpec's, ...)
    setup: object = None

    def bounds(self, key: str) -> Range | None:
        """The range ``key`` declares; an integer key without one is a count."""
        if key in self.ranges:
            return self.ranges[key]
        default = self.defaults[key]
        item = default[0] if isinstance(default, tuple) else default
        return _COUNT if type(item) is int else None


_DEFS = [
    ExperimentDef(
        "two-state", 0,
        "TD vs MC value-flow trajectories on a 2-state MDP",
        {"gamma": 0.9, "t_end": 8.0, "dt": 0.01, "n_inits": 5},
        _run_two_state,
        setup=_two_state_setup,
    ),
    ExperimentDef(
        "chain-transfer", 1,
        "Grassmann transfer heatmaps of EBF/RSBF/random features along a policy-iteration path",
        {
            "n_states": 30, "slip": 0.01, "left_reward": 2.0, "right_reward": 1.0,
            "gamma": 0.9, "k": 4,
        },
        _run_chain_transfer,
        setup=_chain_transfer_setup,
    ),
    ExperimentDef(
        "four-rooms-features", 2,
        "Coupled feature flows on the four-rooms walk vs the top eigenvector subspace",
        {
            "gamma": 0.99, "k_features": 10, "m_heads": (1, 20, 200), "t_end": 100.0,
            "dt": 0.01, "alpha": 1.0, "beta": 0.0, "weight_scale": 1.0,
        },
        _run_four_rooms,
        setup=_four_rooms_setup,
    ),
    ExperimentDef(
        "random-cumulants", 3,
        "Random-cumulant feature covariance against the resolvent formula",
        {
            "n_states": 10, "gamma": 0.9, "m_heads": 5, "n_seeds": 5000,
            "t_end": 6.0, "dt": 0.01,
        },
        _run_random_cumulants,
        setup=_random_cumulants_setup,
    ),
    ExperimentDef(
        "kernel-circle", 4,
        "Kernel TD stability/generalization sweep on the circle MDP",
        {
            "n_states": 50, "reward_state": 24, "n_train": 40, "radius": 800.0,
            "gammas": (0.5, 0.99), "lengthscales": (0.01, 1.0, 100.0), "t_end": 100.0,
            "dt": 1.0, "method": "euler",
        },
        _run_kernel_circle,
        ranges={"reward_state": _ANY_INTEGER},  # an index; build_circle_mdp checks it
        names={"method": KERNEL_TD_METHODS},
        setup=_kernel_circle_setup,
    ),
    ExperimentDef(
        "smooth-kernel-generalization", 5,
        "Eigen-kernel regression MSE across train fractions and target smoothness",
        {
            "n_states": 40, "edge_prob": 0.3, "smooth_k": 20, "gamma": 0.9,
            "n_mdps": 50, "fractions": (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            "targets": ("value", "projected-top", "projected-bottom", "nstep"), "nstep_n": 5,
        },
        _run_smooth_kernel,
        # n_states sizes each random walk; smooth_kernel_generalization checks gamma
        # and the fractions only after the walk is drawn
        ranges={
            "n_states": Range(2), "gamma": Range(0.0, 1.0, hi_open=True),
            "fractions": Range(0.0, 1.0, lo_open=True),
        },
        names={"targets": SMOOTH_TARGETS},
        setup=_smooth_kernel_setup,
    ),
    ExperimentDef(
        "bms-select", 6,
        "Exact evidence vs all estimators on a model-selection task",
        {
            "kind": "feature_dimension", "task_seed": 0, "n_estimator_seeds": 20,
            "k_values": (1, 4, 16, 64), "ls_samples": 16, "alg1_method": "exact",
        },
        _run_bms_select,
        # the LS estimator refuses fewer than 2 draws per point (for a variance)
        # only after the task is drawn
        ranges={"task_seed": Range(0), "ls_samples": Range(2)},
        names={"kind": TASK_KINDS, "alg1_method": SAMPLER_METHODS},
    ),
    ExperimentDef(
        "misa-robustness", 7,
        "Linear MISA selection rate and hard-intervention robustness curves",
        {
            "n_envs": 3, "n_steps": 1000, "alpha": 0.05, "n_seeds": 100,
            "do_values": tuple(float(v) for v in range(11)), "intervention_scale": 3.0,
        },
        _run_misa,
        # random-data sizes: ICP compares >= 2 environments, each needing p + 2 = 5 rows
        # for 3 variables, and environment e draws from [seed, e] while the robustness
        # curve draws from [seed, 10_000]; linear_misa checks alpha only after the data are drawn
        ranges={
            "n_envs": Range(2, 10_000), "n_steps": Range(5), "alpha": Range(0.0, 1.0, lo_open=True, hi_open=True),
        },
    ),
    ExperimentDef(
        "capacity-ranks", 8,
        "Feature/update rank estimators: constructed ranks and lengthscale sweep",
        {
            "n_states": 30, "gamma": 0.9, "lengthscales": (10.0, 1.0, 0.1), "sgd_lr": 0.1,
            "constructed_ranks": tuple(range(1, 9)), "n_samples": 5000,
            "d_features": 12, "eps": 0.01,
        },
        _run_capacity,
        # each rank sizes a random factor (rank 0 runs); feature_rank checks eps only
        # on the drawn features, and update_matrix checks sgd_lr only in the run
        ranges={
            "constructed_ranks": Range(0), "eps": Range(0.0, lo_open=True), "sgd_lr": Range(0.0, lo_open=True),
        },
        setup=_capacity_setup,
    ),
    ExperimentDef(
        "second-order", 9,
        "Richardson ratios for the step-size-corrected TD flow",
        {"n_states": 5, "gamma": 0.9, "alphas": (0.1, 0.05, 0.025), "t_total": 2.0, "v_scale": 1.0},
        _run_second_order,
        # the setup divides t_total by each alpha, so a zero or negative one is
        # refused before that
        ranges={"alphas": Range(0.0, lo_open=True)},
        setup=_second_order_setup,
    ),
]

EXPERIMENTS = {d.name: d for d in _DEFS}
EXPERIMENT_ORDER = tuple(d.name for d in _DEFS)


def _parse(name: str, key: str, default, raw):
    if isinstance(raw, type(default)) and not isinstance(raw, str):
        return raw
    text = str(raw).strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: cannot parse {raw!r} as {type(default).__name__}") from exc


def _coerce(name: str, key: str, default, raw, bounds: Range | None = None, names=None):
    if isinstance(default, tuple):
        # comma-separated text or a sequence; every item is typed like the default's
        items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
        items = [x for x in items if not (isinstance(x, str) and not x.strip())]
        if not items:
            raise ConfigError(f"{name}.{key}: {raw!r} is an empty list")
        values = tuple(_coerce(name, key, default[0], x, bounds, names) for x in items)
        if len(set(values)) < len(values):
            raise ConfigError(f"{name}.{key}: {raw!r} repeats an item")
        return values
    value = _parse(name, key, default, raw)
    if isinstance(default, float) and not math.isfinite(value):
        raise ConfigError(f"{name}.{key}: {raw!r} is not a finite number")
    if bounds is not None and not bounds.admits(value):
        raise ConfigError(f"{name}.{key}: {raw!r} is not {bounds}")
    if names is not None and value not in names:
        raise ConfigError(f"{name}.{key}: {value!r} is not one of {', '.join(names)}")
    return value


def _resolve(name: str, overrides: dict | None) -> tuple[dict, object]:
    """The merged config and its setup's inputs (see :func:`resolve_config`)."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choices: {', '.join(EXPERIMENT_ORDER)}")
    exp = EXPERIMENTS[name]
    config = dict(exp.defaults)
    for key, raw in (overrides or {}).items():
        if key not in exp.defaults:
            raise ConfigError(f"unknown config key {key!r} for experiment {name!r}")
        config[key] = _coerce(name, key, exp.defaults[key], raw, exp.bounds(key), exp.names.get(key))
    try:
        return config, None if exp.setup is None else exp.setup(config)
    except (ConfigError, *NUMERICAL_ERRORS):
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def resolve_config(name: str, overrides: dict | None = None) -> dict:
    """Merge overrides into an experiment's defaults, rejecting unknown keys,
    values outside a key's declared range (a count, >= 1, for an integer key
    that declares none), names outside a string key's set, and whatever the
    experiment's setup refuses while building its inputs (a ``ValueError``
    from a builder, such as ``FlowConfig``'s, becomes a ``ConfigError``
    prefixed with the experiment's name).  A numerical failure while building
    them, one of ``NUMERICAL_ERRORS``, propagates as itself."""
    return _resolve(name, overrides)[0]


def run_experiment(
    name: str,
    overrides: dict | None,
    out_dir,
    seed: int,
    reps: int = 1,
) -> Path:
    """Run an experiment and write artifacts plus ``manifest.json``; returns the manifest path.

    The setup runs once; every repetition's runner reads its inputs."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    config, inputs = _resolve(name, overrides)
    exp = EXPERIMENTS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    outputs: list[str] = []
    derived: dict = {}
    for rep in range(reps):
        rng = np.random.default_rng([seed, exp.index, rep])
        art = ArtifactWriter(out_dir, f"rep{rep:03d}_")
        info = exp.runner(config, inputs, rng, art)
        outputs.extend(art.files)
        derived[f"rep{rep:03d}"] = info or {}
    manifest = {
        "experiment": name,
        "experiment_index": exp.index,
        "seed": seed,
        "reps": reps,
        "config": {k: config[k] for k in sorted(config)},
        "tool_version": __version__,
        "outputs": outputs,
        "derived": derived,
        "duration_seconds": time.monotonic() - started,
    }
    manifest_path = out_dir / "manifest.json"
    _write_atomically(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True, default=str), "\n"])
    return manifest_path
