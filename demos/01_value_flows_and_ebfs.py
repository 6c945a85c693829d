"""Value-error dynamics on a chain: rate gaps, not rates, set the story.

Runs the TD flow on a 30-state random-walk chain and watches the value error
V_t - V^pi collapse onto the leading eigenfunction of the transition matrix.
With gamma = 0.9 every error mode dies fast (half-life under 7 time units),
but alignment is governed by the tiny *differences* between mode rates, so
the error direction takes ~2500 time units to settle even though its norm
hits the float64 cancellation floor of V_t - V^pi by t ~ 300.  The long-
horizon rows therefore propagate the reward-free error flow directly.
"""

import numpy as np

from tdlab.flows import FlowConfig, expm, td_value_flow
from tdlab.mdp import build_chain_mdp, transition_matrix, uniform_policy
from tdlab.spectral import (
    eigendecompose,
    real_invariant_basis,
    subspace_from_span,
    vector_subspace_distance,
)


def main():
    n, gamma = 30, 0.9
    mdp = build_chain_mdp(n)
    P = transition_matrix(mdp, uniform_policy(mdp))
    spectrum = eigendecompose(P)

    lam = spectrum.eigenvalues.real
    print("mode half-lives of the TD error, t_half = ln 2 / (1 - gamma*lambda):")
    for i in range(3):
        print(f"  mode {i}: lambda = {lam[i]:+.5f}, t_half = {np.log(2) / (1 - gamma * lam[i]):5.2f}")
    gap = gamma * (lam[0] - lam[1])
    print(f"alignment half-life ln 2 / (gamma*(lambda_1 - lambda_2)) = {np.log(2) / gap:.0f}\n")

    ebf1 = subspace_from_span(real_invariant_basis(spectrum, 1))
    rng = np.random.default_rng(0)
    V0 = rng.standard_normal(n)
    A = np.eye(n) - gamma * P

    print("distance of the error direction to the top eigenfunction:")
    print(f"{'t':>6}  {'error norm':>12}  {'distance':>10}")
    for t_end in (50.0, 100.0, 200.0):
        cfg = FlowConfig(gamma=gamma, t_end=t_end, dt=t_end, method="closed_form")
        traj = td_value_flow(V0, P, mdp.rewards, cfg)
        err = traj.final - traj.meta["fixed_point"]
        print(f"{t_end:6.0f}  {np.linalg.norm(err):12.3e}  "
              f"{vector_subspace_distance(err, ebf1):10.2e}")
    # beyond t ~ 300 the subtraction V_t - V^pi is pure rounding noise, so
    # push the error itself through expm(-tA) instead
    for t_end in (500.0, 1000.0, 2500.0):
        err = expm(-t_end * A) @ V0
        print(f"{t_end:6.0f}  {np.linalg.norm(err):12.3e}  "
              f"{vector_subspace_distance(err, ebf1):10.2e}  (direct error flow)")
    print("\nalignment to 1e-3 arrives around t = 2500, ~18 alignment half-lives.")


if __name__ == "__main__":
    main()
