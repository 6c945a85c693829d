"""What the benchmark runs: workloads, pinned experiment configs, pinned environment.

Each experiment's config is written out in full here, equal to the library
defaults when the benchmark was defined, so that a later change of a
default cannot silently change the workload.  A later change that removes
or renames a key makes the call fail loudly instead.

Importing this module imports nothing numerical, so ``pin_environment`` can
run before numpy loads its BLAS.
"""

from __future__ import annotations

import os

# Reference outputs exist for workload seeds 0 .. N_REFERENCE_SEEDS-1; the
# command-line seed is reduced modulo this count.
N_REFERENCE_SEEDS = 10

WORKLOADS = {
    # One long RK4 trajectory per head count on four-rooms (n = 105): the
    # frozen-weight coupled feature flow.  Evidence and causal code do no work.
    "feature-flow": ("four-rooms-features",),
    # Evidence estimators over the prequential posterior chain, then the ICP
    # subset scan of linear MISA.  Flows and spectral code do no work.
    "estimators": ("bms-select", "misa-robustness"),
    # The other seven experiments: flows, spectral and kernel code as
    # thousands of small calls, where per-call overhead dominates.
    "small-problems": (
        "two-state",
        "chain-transfer",
        "random-cumulants",
        "kernel-circle",
        "smooth-kernel-generalization",
        "capacity-ranks",
        "second-order",
    ),
}

CONFIGS = {
    "two-state": {"gamma": 0.9, "t_end": 8.0, "dt": 0.01, "n_inits": 5},
    "chain-transfer": {
        "n_states": 30, "slip": 0.01, "left_reward": 2.0, "right_reward": 1.0,
        "gamma": 0.9, "k": 4,
    },
    "four-rooms-features": {
        "gamma": 0.99, "k_features": 10, "m_heads": "1,20,200", "t_end": 100.0,
        "dt": 0.01, "alpha": 1.0, "beta": 0.0, "weight_scale": 1.0,
    },
    "random-cumulants": {
        "n_states": 10, "gamma": 0.9, "m_heads": 5, "n_seeds": 5000,
        "t_end": 6.0, "dt": 0.01,
    },
    "kernel-circle": {
        "n_states": 50, "reward_state": 24, "n_train": 40, "radius": 800.0,
        "gammas": "0.5,0.99", "lengthscales": "0.01,1,100", "t_end": 100.0,
        "dt": 1.0, "method": "euler",
    },
    "smooth-kernel-generalization": {
        "n_states": 40, "edge_prob": 0.3, "smooth_k": 20, "gamma": 0.9,
        "n_mdps": 50, "fractions": "0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        "targets": "value,projected-top,projected-bottom,nstep", "nstep_n": 5,
    },
    "bms-select": {
        "kind": "feature_dimension", "task_seed": 0, "n_estimator_seeds": 20,
        "k_values": "1,4,16,64", "ls_samples": 16, "alg1_method": "exact",
    },
    "misa-robustness": {
        "n_envs": 3, "n_steps": 1000, "alpha": 0.05, "n_seeds": 100,
        "do_values": "0,1,2,3,4,5,6,7,8,9,10", "intervention_scale": 3.0,
    },
    "capacity-ranks": {
        "n_states": 30, "gamma": 0.9, "lengthscales": "10,1,0.1", "sgd_lr": 0.1,
        "constructed_ranks": "1,2,3,4,5,6,7,8", "n_samples": 5000,
        "d_features": 12, "eps": 0.01,
    },
    "second-order": {
        "n_states": 5, "gamma": 0.9, "alphas": "0.1,0.05,0.025", "t_total": 2.0, "v_scale": 1.0,
    },
}

# One BLAS thread (profiles show 1 or 2 threads make no difference here) and
# one OpenBLAS kernel family.  The family matters for correctness: bms-select's
# posterior draws (eigh factors of covariances with repeated eigenvalues) and
# four-rooms' top-10 eigenvector subspace come out different under the AVX-512
# ("SkylakeX") and AVX2 ("Haswell") kernels, so reference outputs are stored
# per family.  It also matters for speed: four-rooms runs ~1.6x slower on the
# AVX2 kernels of an AVX-512 host, so each host runs the widest family it has.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
KERNEL_FAMILIES = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
}


def blas_kernel() -> str:
    """The widest OpenBLAS kernel family with stored references that this CPU runs."""
    with open("/proc/cpuinfo") as fh:
        flags = next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    for family, needs in KERNEL_FAMILIES.items():
        if needs <= flags:
            return family
    raise RuntimeError("CPU runs none of the OpenBLAS kernel families with stored references")


def pin_environment(kernel: str) -> None:
    """Apply ``PINNED_ENV`` and the kernel family; must run before numpy is imported."""
    os.environ.update(PINNED_ENV, OPENBLAS_CORETYPE=kernel)


def workload_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed % N_REFERENCE_SEEDS
