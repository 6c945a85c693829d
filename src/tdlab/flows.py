"""Learning-dynamics flows for value vectors and feature matrices.

Value flows (TD, Monte Carlo, n-step, TD(lambda)) are linear ODEs with the
true value function as the global fixed point; they are available in closed
form and as fixed-step RK4 integrations.  Feature flows (coupled
semi-gradient systems over a feature matrix and ensemble head weights,
including the random-cumulant variant) integrate with RK4.  Every exact
evaluation ``exp(t G)(x0 - x*) + x*`` goes through :func:`_closed_form_grid`,
whose matrix exponential is :func:`expm` (Higham's scaling and squaring,
in numpy).  Every fixed-step run goes through one engine, :func:`_propagate`,
which walks the step grid, hands each block of recorded snapshots to a
measure as it makes them (by default the snapshots are kept; the coupled
flow given a target keeps one Grassmann distance per snapshot instead),
reports divergence instead of overflowing and builds the trajectory, partial
or complete.  It takes one of three routes, all taking the same steps as a
step loop: the frozen-weight coupled flow with a symmetric ``P`` steps in the
eigenbasis of ``gamma P - I`` (:func:`_eigenbasis_strides`), where every mode
is a scalar recurrence and each block of snapshots one broadcast, whenever a
norm bound shows that no step can cross the divergence threshold; the other
linear flows (every flow but the coupled one with ``beta != 0``) step by
composed affine maps (:func:`_affine_strides`): one RK4 or Euler step of
``x' = A x + c`` is exactly ``x <- M x + m``, so each recorded snapshot is
one product with the map's power for its step gap, composed once per
distinct gap, taken whenever ``sup |x|`` is within that gap's divergence
limit; and the nonlinear flow takes every RK4 step.

Trajectories are recorded on a thinned grid of at most ~1024 snapshots;
closed-form evaluation is exact at every recorded time regardless of ``dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import exact_value
from .spectral import _basis_of, _span_basis, eigenbasis_coefficients, grassmann_distance, resolvent

_DIVERGENCE_SUP = 1e8
_MAX_SNAPSHOTS = 1024
_MAX_STEPS = 10**7
# snapshots are made in the eigenbasis and measured this many at a time, so no
# temporary grows with the trajectory
_BLOCK_STEPS = 64
# Higham (2005), Table 2.3 and eq. (2.5): theta_13, and the [13/13] Pade
# coefficients divided by the first, so that expm of the zero matrix is exactly I
_THETA13 = 5.371920351148152
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
    10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
]) / 64764752532480000


class DivergenceDetected(RuntimeError):
    """A flow's sup norm crossed the divergence threshold.

    Carries the first-crossing time and norm; integrated flows attach the
    trajectory recorded up to and including the crossing as ``trajectory``.
    It is raised in the process that ran the flow and is not built to be
    pickled: its ``__init__`` takes the time and norm, not the message.
    """

    def __init__(self, time: float, sup_norm: float):
        self.time = time
        self.sup_norm = sup_norm
        self.trajectory = None
        super().__init__(
            f"flow diverged at t={time:.6g} (sup norm {sup_norm:.3e} > {_DIVERGENCE_SUP:.0e})"
        )


@dataclass(frozen=True)
class FlowConfig:
    """Shared flow parameters.

    ``alpha``/``beta`` are the feature/weight learning rates of the coupled
    flows, each nonnegative and finite; the value flows ignore them.
    ``method`` selects closed-form evaluation, RK4 integration, or (for the
    kernel flow) discrete gradient steps ("euler", step size ``dt``).  ``dt``, ``t_end`` and
    ``t_end / dt`` must be finite, and RK4/Euler runs may take at most
    ``_MAX_STEPS`` steps, so an over-fine grid fails here rather than partway
    through a run.
    """

    gamma: float
    alpha: float = 1.0
    beta: float = 0.0
    t_end: float = 10.0
    dt: float = 0.01
    method: str = "closed_form"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        for name in ("alpha", "beta"):  # beta = 0 is the frozen-weight flow
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be nonnegative and finite")
        if self.method not in ("closed_form", "rk4", "euler"):
            raise ValueError(f"method must be closed_form, rk4 or euler, not {self.method!r}")
        n_steps = self.t_end / self.dt
        if not n_steps < np.inf:
            raise ValueError("t_end / dt overflows: the step grid has no finite length")
        if self.method != "closed_form" and n_steps > _MAX_STEPS + 0.5:
            raise ValueError(f"t_end / dt asks for more than {_MAX_STEPS} integrator steps")


@dataclass(frozen=True)
class FlowTrajectory:
    """Time grid plus state snapshots.

    ``meta`` holds only what the run computed: the value flows'
    ``fixed_point``, the coupled flows' per-snapshot ``weights`` (not when
    ``states`` are distances to a target) and kernel TD's per-snapshot
    ``train_residual_sup``, and for every RK4 or Euler run the integrator
    counts ``steps`` and ``stepwise_strides``.  The partial trajectory a
    :class:`DivergenceDetected` carries holds the counts, and a coupled
    flow's its ``weights`` too.
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _recorded_steps(cfg: FlowConfig) -> np.ndarray:
    """Step indices of the recorded snapshots: 0, every stride-th step, and the last."""
    n_steps = max(int(round(cfg.t_end / cfg.dt)), 1) if cfg.t_end > 0 else 0
    stride = max(1, int(np.ceil(n_steps / _MAX_SNAPSHOTS)))
    steps = np.arange(0, n_steps + 1, stride)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited" (SIAM J. Matrix Anal. Appl., 2005), Algorithm 2.3 at degree 13
    only: ``A`` is scaled by ``2^-s`` until its exact 1-norm is at most
    theta_13, the approximant ``(V - U)^{-1}(V + U)`` is solved, and the
    result squared ``s`` times.  The matrices here are small, so the exact
    norm costs less than an estimate.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("expm needs a finite matrix")
    norm = np.abs(A).sum(axis=0).max(initial=0.0)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0**s
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    eye = np.eye(A.shape[0])
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _closed_form_grid(
    generator: np.ndarray, offset: np.ndarray, X0: np.ndarray, steps, dt: float
) -> np.ndarray:
    """Snapshots of ``exp(t G)(X0 - offset) + offset`` at the times ``dt * steps``.

    ``steps`` are increasing integers from 0.  Steps the exact semigroup
    ``expm(G * gap * dt)`` between consecutive recorded steps, computing one
    ``expm`` per distinct step gap.  No eigenbasis is involved, so
    ill-conditioned eigenvectors cannot spoil it.
    """
    snaps = np.empty((len(steps),) + X0.shape)
    current = X0 - offset
    snaps[0] = current + offset
    propagators = {}
    for k, gap in enumerate(np.diff(steps).tolist(), 1):
        if gap not in propagators:
            propagators[gap] = expm(generator * (gap * dt))
        current = propagators[gap] @ current
        snaps[k] = current + offset
    return snaps


def _step_map(A: np.ndarray, c: np.ndarray, h: float, method: str):
    """One RK4 or Euler step of ``x' = A x + c`` as the affine map ``x <- M x + m``.

    RK4: ``M = R(hA)`` and ``m = h S(hA) c`` with ``R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24`` and ``S(z) = 1 + z/2 + z^2/6 + z^3/24`` (the stability
    function and ``(R(z) - 1)/z``); Euler: ``M = I + hA`` and ``m = h c``.
    ``A`` may be a stack ``(J, n, n)`` of systems.
    """
    Z = h * A
    eye = np.eye(A.shape[-1])
    if method == "euler":
        return eye + Z, h * c
    Z2 = Z @ Z
    Z3 = Z2 @ Z
    M = eye + Z + Z2 / 2 + Z3 / 6 + (Z2 @ Z2) / 24
    S = eye + Z / 2 + Z2 / 6 + Z3 / 24
    return M, h * (S @ c)


def _propagate(
    flow, x0, cfg: FlowConfig, record=lambda x: x, floor: float = 0.0, build=FlowTrajectory, measure=lambda x: x
):
    """Fixed-step integration of ``flow`` from ``x0``: the one stepping engine.

    ``flow`` is a pair ``(A, c)`` for the linear flow ``dx/dt = A x + c``,
    stepped by RK4 or Euler (``cfg.method``); a triple ``(B, scales, c)``
    for the RK4 stack ``x_j' = scales_j B x_j + c_j``; or a callable ``f``
    for the nonlinear flow ``dx/dt = f(x)``, stepped by RK4 with ``h =
    cfg.dt``.  ``A`` is ``(n, n)`` acting on ``x0`` of shape ``(n,)`` or
    ``(n, K)``, or a stack ``(J, n, n)`` of independent systems acting on
    ``x0`` of shape ``(J, n, 1)``, as ``c`` and ``x0`` are for a triple.
    ``record`` maps states (stacked too) to the recorded snapshots; the
    divergence check reads the larger of their sup norm and ``floor``.
    ``measure`` maps each stack of recorded snapshots, as it is made (x0's,
    each block a route computes together, each stepped one, the diverging
    one), to what is kept for them, one entry per snapshot; by default the
    snapshots themselves.

    Each flow takes one of three routes, which all take the same steps as a
    step loop: the eigenbasis of ``B`` (:func:`_eigenbasis_strides`, which
    falls back to the next), composed affine maps
    (:func:`_affine_strides`), or every step of a nonlinear flow.  A route's
    ``whole(x, j)`` returns the snapshots from ``j`` on that it computes
    together (up to ``_BLOCK_STEPS`` in the eigenbasis, one on the affine
    maps), so their count is its length, or ``None`` where the gap up to
    snapshot ``j`` must be stepped one step at a time and checked after each
    step, so divergence is raised at the step where it happens, with the
    trajectory recorded up to it attached.  Returns
    ``build(times, snapshots, work)`` (a :class:`FlowTrajectory` by
    default), where ``work`` counts the ``steps`` taken and the
    ``stepwise_strides`` and ``snapshots`` is what ``measure`` kept; the
    partial trajectory is built the same way.
    """
    grid = _recorded_steps(cfg)
    times, steps = cfg.dt * grid, grid.tolist()
    first = measure(record(x0)[None])
    snaps = np.empty((len(steps),) + first.shape[1:])
    snaps[:1] = first
    if len(steps) == 1:
        return build(times, snaps, {"steps": 0, "stepwise_strides": 0})
    # overflow in a route's norm bound just fails it, and inside a step the divergence check fires
    with np.errstate(over="ignore", invalid="ignore"):
        if callable(flow):
            step, whole = (lambda x: _rk4(flow, x, cfg.dt)), (lambda x, j: None)
        elif len(flow) == 2:
            step, whole = _affine_strides(*flow, grid, cfg, floor)
        else:
            step, whole = _eigenbasis_strides(*flow, x0, grid, cfg, floor)
        x, j, stepwise = x0, 1, 0
        while j < len(steps):
            X = whole(x, j)
            if X is not None:
                snaps[j : j + len(X)] = measure(record(X))
                x, j = X[-1], j + len(X)
                continue
            stepwise += 1
            for k in range(steps[j - 1] + 1, steps[j] + 1):
                x = step(x)
                rec = record(x)
                now = max(float(np.max(np.abs(rec))), floor)
                if not now <= _DIVERGENCE_SUP:
                    exc = DivergenceDetected(k * cfg.dt, now)
                    snaps[j : j + 1] = measure(rec[None])
                    work = {"steps": k, "stepwise_strides": stepwise}
                    exc.trajectory = build(np.append(times[:j], exc.time), snaps[: j + 1], work)
                    raise exc
                if k == steps[j]:
                    snaps[j : j + 1] = measure(rec[None])
                    j += 1
    return build(times, snaps, {"steps": steps[-1], "stepwise_strides": stepwise})


def _rk4(f, x, h: float):
    """One classical RK4 step of ``dx/dt = f(x)`` from ``x`` with step ``h``."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _affine_strides(A, c, steps: np.ndarray, cfg: FlowConfig, floor: float):
    """The composed-affine-map route of ``x' = A x + c`` on the recorded step grid.

    ``i`` steps are ``x <- M^i x + m_i`` (:func:`_step_map`), so, as in
    :func:`_closed_form_grid`, the map of each distinct step gap is composed
    once and each recorded snapshot costs one product.  Returns one step, and
    ``whole(x, j)``: snapshot ``j`` (a stack of one) from the state ``x`` at
    snapshot ``j - 1``, or ``None`` if the norm bound fails and that gap must
    be stepped.  The bound is ``||M^i|| ||x|| + ||m_i|| <= 1e8`` at every step
    ``i`` inside the gap (infinity norms, each summed over a stack; a bound on
    ``record``'s sup norm when that multiplies by entries of modulus at most
    one), so the loop that composes the maps also keeps, per gap, the limit
    ``min_i (1e8 - ||m_i||) / ||M^i||`` on ``||x||``, and ``whole`` makes one
    comparison.  The limit is ``-inf`` when ``floor`` exceeds 1e8.  On a
    stack ``||x||`` is the largest system's sup norm, which bounds each
    one's, so the bound stays sound and is at most ``J`` times looser.
    """
    gaps = np.diff(steps).tolist()
    M, m = _step_map(A, c, cfg.dt, cfg.method)
    J = M.shape[0] if M.ndim == 3 else 1
    # each distinct gap keeps its map and the largest sup |x| whose bound holds at every step inside it
    maps, limit = dict.fromkeys(gaps), np.inf if floor <= _DIVERGENCE_SUP else -np.inf
    power, offset = np.eye(M.shape[-1]), np.zeros_like(m)  # M^0 and m_0
    for i in range(1, max(gaps) + 1):
        power, offset = M @ power, M @ offset + m
        norm = np.abs(power).sum(axis=-1).max(axis=-1).sum()
        room = _DIVERGENCE_SUP - np.abs(offset).reshape(J, -1).max(axis=1).sum()
        # a zero power norm bounds every x or none; a non-finite one (or NaN room) none
        limit = np.minimum(limit, room / norm if 0 < norm < np.inf else np.inf if norm == 0 <= room else -np.inf)
        if i in maps:
            maps[i] = power, offset, limit

    def whole(x, j):
        power, offset, limit = maps[gaps[j - 1]]
        return (power @ x + offset)[None] if np.abs(x).max() <= limit else None

    return (lambda x: M @ x + m), whole


def _eigenbasis_strides(B, scales, c, x0, steps: np.ndarray, cfg: FlowConfig, floor: float):
    """The route of the RK4 stack ``x_j' = scales_j B x_j + c_j`` from ``x0``:
    in the eigenbasis of ``B`` when that is safe, else :func:`_affine_strides`
    on the stacked generator ``scales_j B``, built only then.

    With a symmetric ``B = U diag(mu) U^T`` from one ``eigh``, mode ``k`` of
    system ``j`` is the scalar recurrence ``x <- r x + h S(z) d`` with ``z =
    h scales_j mu_k``, ``r = R(z) = 1 + q`` and ``q = z S(z)``:
    :func:`_step_map`'s R and S, so these are the same RK4 steps.  Step ``s``
    is ``r^s x0 + h S d (r^s - 1)/q``, through ``log1p`` and ``expm1``, with
    ``s`` for the quotient where ``q = 0``.  No fixed point is divided out:
    rank-deficient weights put ``z`` a hair either side of 0.  R is positive
    on the real line, so every mode moves monotonically and its size at the
    last step bounds every step before.  The eigenbasis is taken only if
    ``B`` is exactly symmetric and that bound, mapped back through ``U`` and
    summed over the stack as in :func:`_affine_strides`, and ``floor`` stay
    within 1e8; its ``whole`` returns ``_BLOCK_STEPS`` snapshots at a time.
    """
    if np.array_equal(B, B.T) and floor <= _DIVERGENCE_SUP:
        mu, U = np.linalg.eigh(B)
        z = cfg.dt * scales[:, None] * mu
        S = 1 + z / 2 + z**2 / 6 + z**3 / 24
        q, x, d = z * S, x0[..., 0] @ U, cfg.dt * S * (c[..., 0] @ U)
        log_r = np.log1p(q)

        def powers(s):  # r^s and (r^s - 1) / q, in two arrays of the block's shape
            growth = s * log_r
            total = np.expm1(growth)
            np.divide(total, q, out=total, where=q != 0)
            np.copyto(total, s, where=q == 0)
            return np.exp(growth, out=growth), total

        power, total = powers(steps[-1])
        sizes = np.abs(x) * np.maximum(power, 1) + np.abs(d) * total
        if np.abs(U).sum(axis=1).max() * np.sum(np.max(sizes, axis=1)) <= _DIVERGENCE_SUP:

            def whole(_, j):
                power, total = powers(steps[j : j + _BLOCK_STEPS, None, None])
                power *= x
                total *= d
                power += total
                return (power @ U.T)[..., None]

            return None, whole
    return _affine_strides(scales[:, None, None] * B, c, steps, cfg, floor)


def _linear_value_flow(
    V0: np.ndarray,
    P: np.ndarray,
    R: np.ndarray,
    cfg: FlowConfig,
    generator: np.ndarray,
) -> FlowTrajectory:
    V0 = np.asarray(V0, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n) or R.shape != (n,) or V0.shape[0] != n:
        raise ValueError("V0, P, R dimensions do not agree")
    if cfg.method not in ("closed_form", "rk4"):
        raise ValueError("value flows support closed_form and rk4 only")
    Vpi = exact_value(P, R, cfg.gamma)
    offset = Vpi if V0.ndim == 1 else Vpi[:, None]

    if cfg.method == "closed_form":
        steps = _recorded_steps(cfg)
        traj = FlowTrajectory(cfg.dt * steps, _closed_form_grid(generator, offset, V0, steps, cfg.dt))
    else:
        traj = _propagate((generator, -generator @ offset), V0, cfg)
    return FlowTrajectory(traj.times, traj.states, {"fixed_point": Vpi, **traj.meta})


def td_value_flow(V0, P, R, cfg: FlowConfig) -> FlowTrajectory:
    """TD(0) expected dynamics ``dV/dt = R + gamma P V - V``.

    ``V0`` may be a vector or an ``(n, K)`` matrix of K simultaneous flows.
    """
    P = np.asarray(P, dtype=float)
    generator = cfg.gamma * P - np.eye(P.shape[0])
    return _linear_value_flow(V0, P, R, cfg, generator)


def mc_value_flow(V0, P, R, cfg: FlowConfig) -> FlowTrajectory:
    """Monte-Carlo expected dynamics ``dV/dt = V_pi - V`` (linear interpolation)."""
    P = np.asarray(P, dtype=float)
    generator = -np.eye(P.shape[0])
    return _linear_value_flow(V0, P, R, cfg, generator)


def nstep_value_flow(V0, P, R, n: int, cfg: FlowConfig) -> FlowTrajectory:
    """n-step return dynamics with generator ``(gamma P)^n - I``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    P = np.asarray(P, dtype=float)
    generator = np.linalg.matrix_power(cfg.gamma * P, n) - np.eye(P.shape[0])
    return _linear_value_flow(V0, P, R, cfg, generator)


def td_lambda_value_flow(V0, P, R, lam: float, cfg: FlowConfig) -> FlowTrajectory:
    """TD(lambda) dynamics with generator ``(1-lambda) sum_k lambda^{k-1} (gamma P)^k - I``.

    The operator series is summed in closed form,
    ``(1-lambda)(I - lambda gamma P)^{-1} gamma P - I``, so it is exact for
    every ``lambda`` in [0, 1), however slowly the series converges.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    P = np.asarray(P, dtype=float)
    eye = np.eye(P.shape[0])
    gp = cfg.gamma * P
    generator = (1.0 - lam) * np.linalg.solve(eye - lam * gp, gp) - eye
    return _linear_value_flow(V0, P, R, cfg, generator)


def _coupled_flow(
    phi0: np.ndarray,
    w0: np.ndarray,
    targets: np.ndarray,
    P: np.ndarray,
    cfg: FlowConfig,
    target=None,
) -> FlowTrajectory:
    """Shared engine: ``dPhi = alpha (T + (gamma P - I) Phi W) W^T``, ``dW = beta Phi^T (...)``.

    With ``beta = 0`` the flow splits into one linear system per eigenvector
    of ``W W^T``, the stack ``psi_j' = alpha lam_j B psi_j + c_j`` that
    :func:`_propagate` steps in the eigenbasis of ``B = gamma P - I`` or by
    composed affine maps (:func:`_eigenbasis_strides` chooses); with ``beta
    != 0`` it steps the nonlinear flow.  One builder makes the complete and
    the partial trajectory.  With a ``target`` subspace, :func:`_propagate`
    measures each block of snapshots as it is made (:func:`_grassmann_distances`
    of the features) and keeps only the distances, with the counts as ``meta``.
    """
    phi0 = np.asarray(phi0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    targets = np.asarray(targets, dtype=float)
    P = np.asarray(P, dtype=float)
    n, K = phi0.shape
    M = w0.shape[1]
    if w0.shape[0] != K:
        raise ValueError(f"w0 must have shape ({K}, M), got {w0.shape}")
    if targets.shape != (n, M):
        raise ValueError(f"targets must have shape ({n}, {M}), got {targets.shape}")
    if P.shape != (n, n):
        raise ValueError("P dimension does not match phi0")
    if cfg.method != "rk4":
        raise ValueError("coupled flows support the rk4 method only")
    B = cfg.gamma * P - np.eye(n)

    if cfg.beta == 0.0:
        # Frozen weights: with W W^T = Q diag(lam) Q^T, column j of Psi = Phi Q
        # follows the linear flow psi' = alpha lam_j B psi + c_j, C = alpha T W^T Q.
        lam, Q = np.linalg.eigh(w0 @ w0.T)
        C = cfg.alpha * (targets @ w0.T) @ Q
        flow, x0 = (B, cfg.alpha * lam, C.T[:, :, None]), (phi0 @ Q).T[:, :, None]
        floor = float(np.max(np.abs(w0), initial=0.0))

        def record(psi):
            return np.swapaxes(psi[..., 0], -1, -2) @ Q.T

        def unpack(states):
            return states, np.broadcast_to(w0, (len(states), K, M))

    else:
        split = n * K

        def flow(x):
            phi, W = x[:split].reshape(n, K), x[split:].reshape(K, M)
            delta = targets + B @ (phi @ W)
            return np.concatenate(
                [(cfg.alpha * (delta @ W.T)).ravel(), (cfg.beta * (phi.T @ delta)).ravel()]
            )

        x0, floor, record = np.concatenate([phi0.ravel(), w0.ravel()]), 0.0, (lambda x: x)

        def unpack(states):
            return states[:, :split].reshape(-1, n, K), states[:, split:].reshape(-1, K, M)

    def trajectory(times, states, work):
        phi, weights = unpack(states)
        return FlowTrajectory(times=times, states=phi, meta=dict(work, weights=weights))

    if target is None:
        return _propagate(flow, x0, cfg, record, floor, trajectory)
    basis = _basis_of(target)

    def measure(snaps):
        return _grassmann_distances(unpack(snaps)[0], basis)

    return _propagate(flow, x0, cfg, record, floor, measure=measure)


def coupled_feature_flow(phi0, w0, P, R, cfg: FlowConfig, target=None) -> FlowTrajectory:
    """Semi-gradient feature/weight flow summed over ensemble heads.

    Every head regresses the same reward: the per-head TD error is
    ``R + (gamma P - I) Phi w_m``.  RK4 only.  With ``beta = 0`` the weights
    stay at their initialization (``meta["weights"]`` is a read-only view of
    ``w0``) and the flow is linear in ``Phi``, so the one stepping engine
    runs it as scalar recurrences in the eigenbasis of ``gamma P - I`` when
    ``P`` is symmetric and no step can cross 1e8 (``meta["steps"]`` the last
    step, ``meta["stepwise_strides"]`` 0), and on composed affine maps
    otherwise; with ``beta != 0`` it is nonlinear and every RK4 step (``h =
    dt``) is taken one at a time, so ``meta["stepwise_strides"]`` counts
    every stride.
    Raises :class:`DivergenceDetected`, with the partial trajectory attached,
    when the sup norm of ``Phi`` and the weights crosses 1e8.

    With a ``target`` subspace of ``Phi``'s shape, each block of snapshots is
    measured as it is made and dropped: ``states`` holds, per snapshot, the
    Grassmann distance of ``Phi``'s span to ``target`` (NaN where the span is
    rank deficient), each the value :func:`grassmann_convergence_metric`
    gives on the whole trajectory, and ``meta`` only the counts.  No
    ``(snapshots, n, K)`` stack is held, and divergence is detected at the
    same step.
    """
    R = np.asarray(R, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    targets = np.tile(R[:, None], (1, w0.shape[1]))
    return _coupled_flow(phi0, w0, targets, P, cfg, target)


def random_cumulant_flow(phi0, w0, cumulants, P, cfg: FlowConfig) -> FlowTrajectory:
    """Coupled flow where head ``m`` regresses its own cumulant column."""
    cumulants = np.asarray(cumulants, dtype=float)
    return _coupled_flow(phi0, w0, cumulants, P, cfg)


def limiting_ensemble_flow(phi0, P, gamma: float, t: float) -> np.ndarray:
    """Infinite-ensemble feature trajectory at time ``t``: the scaled-learning-rate limit.

    That is ``exp(-t(I - gamma P)) Phi0``.  ``t`` must be finite.
    """
    phi0 = np.asarray(phi0, dtype=float)
    P = np.asarray(P, dtype=float)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    n = phi0.shape[0]
    if P.shape != (n, n):
        raise ValueError("P dimension does not match phi0")
    return _closed_form_grid(gamma * P - np.eye(n), 0.0, phi0, [0, 1], t)[-1]


def limiting_cumulant_covariance(P, gamma: float, Sigma) -> np.ndarray:
    """Covariance ``Psi Sigma Psi^T`` of the limiting random-cumulant features."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ValueError("Sigma must be square")
    if np.max(np.abs(Sigma - Sigma.T)) > 1e-12:
        raise ValueError("Sigma must be symmetric")
    psi = resolvent(np.asarray(P, dtype=float), gamma)
    cov = psi @ Sigma @ psi.T
    cov = 0.5 * (cov + cov.T)
    min_eig = float(np.min(np.linalg.eigvalsh(cov)))
    if min_eig < -1e-9:
        raise np.linalg.LinAlgError(f"covariance not PSD (min eigenvalue {min_eig:.2e})")
    return cov


def _grassmann_distances(snapshots: np.ndarray, target_basis: np.ndarray) -> np.ndarray:
    """Grassmann distance of each ``(n, K)`` snapshot's span in a stack to the
    target basis, NaN where the span is rank deficient.  A stacked QR and a
    stacked SVD factor matrix by matrix, so every distance is the one a
    single-snapshot call gives, wherever the stack's edges fall."""
    bases, full = _span_basis(snapshots)
    # a rank-deficient snapshot still has an orthonormal Q; its distance is discarded
    return np.where(full, grassmann_distance(bases, target_basis), np.nan)


def grassmann_convergence_metric(traj: FlowTrajectory, target) -> np.ndarray:
    """Per-snapshot Grassmann distance of the snapshot span to a target.

    Snapshots must be ``(n, K)`` matrices.  Rank-deficient snapshots yield a
    NaN entry instead of an error.  Snapshots are measured
    (:func:`_grassmann_distances`) ``_BLOCK_STEPS`` at a time, so the
    temporaries stay a block's size.  A flow that only needs the distances
    asks :func:`coupled_feature_flow` for them with ``target``, which
    measures each block as it is made and holds no snapshot stack.
    """
    target_basis = _basis_of(target)
    K = target_basis.shape[1]
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 3 or states.shape[-1] != K:
        raise ValueError(f"snapshots must be (n, {K}) matrices, with the target's columns, not {states.shape[1:]}")
    metric = np.empty(len(states))
    for i in range(0, len(states), _BLOCK_STEPS):
        metric[i : i + _BLOCK_STEPS] = _grassmann_distances(states[i : i + _BLOCK_STEPS], target_basis)
    return metric


def second_order_check(V0, P, R, cfg: FlowConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete TD iterates vs first-order and second-order flow endpoints.

    ``cfg`` is an Euler config: its grid's last step ``n`` counts the
    discrete updates ``V <- V + alpha f(V)`` with ``f(V) = R + gamma P V - V``
    and ``alpha = cfg.dt`` (Euler steps of size exactly ``alpha``).  Then
    evaluates at ``t = n * alpha`` the first-order flow ``dV = f`` and the
    step-size-corrected flow ``dV = f + (alpha/2)(I - gamma P) f`` (the
    modified equation whose truncation error is O(alpha^2)).  Returns the
    three endpoints.
    """
    if cfg.method != "euler":
        raise ValueError(f"second_order_check takes Euler steps, not method {cfg.method!r}")
    V0 = np.asarray(V0, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    A = np.eye(P.shape[0]) - cfg.gamma * P
    Vpi = exact_value(P, R, cfg.gamma)
    traj = _propagate((-A, R), V0, cfg)
    t = traj.times[-1]
    first = _closed_form_grid(-A, Vpi, V0, [0, 1], t)[-1]
    corrected = _closed_form_grid(-(A + 0.5 * cfg.dt * (A @ A)), Vpi, V0, [0, 1], t)[-1]
    return traj.final, first, corrected


def td_error_norm(V, P, R, gamma: float) -> float:
    """2-norm of the Bellman error ``V - (R + gamma P V)``."""
    V = np.asarray(V, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    return float(np.linalg.norm(V - (R + gamma * P @ V)))


def eigen_bound(V, spectrum, Vpi, gamma: float) -> float:
    """Eigencoordinate upper bound on the TD error norm.

    ``sqrt(sum_i (alpha_i^pi - alpha_i)^2 (1 - gamma lambda_i)^2)`` where the
    alphas are eigenbasis coordinates; equals :func:`td_error_norm` when the
    transition matrix is symmetric (orthogonal eigenvectors).
    """
    alpha_v = eigenbasis_coefficients(np.asarray(V, dtype=float), spectrum)
    alpha_pi = eigenbasis_coefficients(np.asarray(Vpi, dtype=float), spectrum)
    weights = (1.0 - gamma * spectrum.eigenvalues) ** 2
    return float(np.sqrt(np.sum((alpha_pi - alpha_v) ** 2 * weights)))
