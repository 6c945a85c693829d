"""tdlab: a desk-scale numerical laboratory for RL learning-dynamics theory.

Tabular MDPs, closed-form and integrated value/feature flows, spectral bases
and subspace metrics, kernel TD with held-out states, capacity (rank)
estimators, Bayesian-linear-regression evidence estimators, invariant causal
prediction, and a deterministic experiment CLI.
"""

from .mdp import (
    TabularMdp,
    PolicyIterationPath,
    build_chain_mdp,
    build_circle_mdp,
    build_four_rooms,
    deterministic_policy,
    exact_value,
    four_rooms_coordinates,
    policy_iteration,
    random_mdp,
    random_walk_matrix,
    transition_matrix,
    uniform_policy,
)
from .spectral import (
    NonRealSpectrum,
    RsbfBasis,
    Spectrum,
    Subspace,
    eigenbasis_coefficients,
    eigendecompose,
    expected_variation,
    grassmann_distance,
    real_invariant_basis,
    resolvent,
    rsbf,
    subspace_from_span,
    vector_subspace_distance,
)
from .flows import (
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
from .kernel_td import (
    KernelSpec,
    build_kernel,
    circle_embedding,
    kernel_td_flow,
    line_embedding,
    smooth_kernel_generalization,
    split_kernel,
)
from .capacity import (
    AdamLike,
    LinearValueModel,
    RankReport,
    Sgd,
    UpdateMatrix,
    feature_rank,
    srank,
    update_matrix,
    update_rank,
)
from .evidence import (
    BlrModel,
    DegenerateSample,
    EstimateResult,
    EvidenceReport,
    GaussianPosterior,
    OrderedDataset,
    algorithm1_sumloss,
    blr_posterior,
    ensemble_weight_ranking,
    estimate_L,
    estimate_Lk,
    estimate_LS,
    evidence_report,
    exact_log_ml,
    gaussian_kl,
    kl_gap,
    make_rff_feature_map,
    model_selection_task,
    sample_then_optimize,
    sotl,
    sotl_decomposition,
)
from .causal import (
    CausalReport,
    EnvDataset,
    Environment,
    InsufficientEnvironments,
    RobustnessCurve,
    build_synthetic_family,
    fit_reward_weights,
    icp_parents,
    intervention_robustness,
    linear_misa,
)

__version__ = "0.1.0"
