"""Kernel TD on a ring of states: a stability map in (gamma, lengthscale).

Discrete semi-gradient kernel TD is only conditionally stable.  Wide kernels
couple distant states and, at high discounts, push the update operator's
spectrum outside the stable region; narrow kernels behave like tabular TD on
the training states and generalize nothing.  The sweep prints which corner of
the grid diverges and what the held-out states learn in each regime.
"""

import numpy as np

from tdlab.flows import DivergenceDetected, FlowConfig
from tdlab.kernel_td import KernelSpec, circle_embedding, kernel_td_flow, split_kernel
from tdlab.mdp import build_circle_mdp, transition_matrix, uniform_policy


def main():
    n = 50
    mdp, train_idx = build_circle_mdp(n, reward_state=24, n_train=40)
    P = transition_matrix(mdp, uniform_policy(mdp))
    held_out = np.setdiff1d(np.arange(n), train_idx)
    embedding = circle_embedding(n, radius=800.0)

    lengthscales = (0.01, 1.0, 100.0)
    kernels = [split_kernel(KernelSpec(lengthscale=ell, embedding=embedding), train_idx)
               for ell in lengthscales]

    print(f"{'gamma':>6} {'lengthscale':>12}  outcome")
    for gamma in (0.5, 0.9, 0.99):
        cfg = FlowConfig(gamma=gamma, t_end=100.0, dt=1.0, method="euler")
        for ell, K_all in zip(lengthscales, kernels):
            try:
                traj = kernel_td_flow(np.zeros(n), K_all, P, mdp.rewards, train_idx, cfg)
            except DivergenceDetected as exc:
                print(f"{gamma:6.2f} {ell:12.2f}  diverged at t = {exc.time:.0f} "
                      f"(sup {exc.sup_norm:.1e})")
                continue
            resid = traj.metrics["train_residual_sup"][-1]
            test_sup = float(np.max(np.abs(traj.final[held_out])))
            print(f"{gamma:6.2f} {ell:12.2f}  trained (residual {resid:.1e}, "
                  f"held-out sup {test_sup:.1e})")
    print("\nonly the wide kernel at high discount blows up; the narrow kernel")
    print("fits the training states exactly and leaves the held-out ring at zero.")


if __name__ == "__main__":
    main()
