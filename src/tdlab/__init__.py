"""tdlab: a desk-scale numerical laboratory for RL learning-dynamics theory.

Tabular MDPs, closed-form and integrated value/feature flows, spectral bases
and subspace metrics, kernel TD with held-out states, capacity (rank)
estimators, Bayesian-linear-regression evidence estimators, invariant causal
prediction, and a deterministic experiment CLI.

Each name is imported from the module that defines it, e.g.
``from tdlab.flows import FlowConfig, td_value_flow``; the package itself
holds only ``__version__``.
"""

__version__ = "0.1.0"
