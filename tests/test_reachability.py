"""Every function in ``src/tdlab`` is reached by the ten experiments, the CLI
or the demos, or it is listed below with the test or config key that
reaches it.

The suite's one whole-program pass (``conftest.whole_program_pass``: in a
fresh interpreter where ``import scipy`` fails and one CPU is usable, ``tdlab
list``, ``tdlab validate`` of every default, ``tdlab run`` of each
experiment at its defaults and the four demos) records each tdlab code
object it sees called.  A code object is keyed by
``(co_filename, co_firstlineno)``, which for a decorated function is its
first decorator's line.  Every ``def`` that ``ast`` finds in the package
(methods, properties and nested closures too) and that the pass never
called must be in ``UNREACHED``; a listed name the pass does reach is
stale.  So a new function that nothing reaches fails this test, and so does
a deletion that leaves an entry behind.
"""

import ast
import re
from pathlib import Path

import tdlab

SRC = Path(tdlab.__file__).parent

# qualname (module-prefixed; nested closures as ``outer.<locals>.inner``) -> what reaches it
UNREACHED = {
    # acceptance checks of thesis claims
    "flows.nstep_value_flow": "test_acceptance::test_01_closed_forms_match_rk4",
    "flows.td_lambda_value_flow": "test_acceptance::test_01_closed_forms_match_rk4",
    "flows.limiting_ensemble_flow": "test_acceptance::test_03_wider_ensembles_track_the_limiting_flow",
    "flows.td_error_norm": "test_acceptance::test_06_eigencoordinate_decay_and_td_error_bound",
    "flows.eigen_bound": "test_acceptance::test_06_eigencoordinate_decay_and_td_error_bound",
    "spectral.eigenbasis_coefficients": "test_acceptance::test_06_eigencoordinate_decay_and_td_error_bound",
    # test oracles: the prequential chain's posteriors, solved the direct way
    "evidence.blr_posterior": "test_evidence::test_posterior_matches_ridge_normal_equations",
    "evidence.gaussian_kl": "test_evidence::test_gaussian_kl_known_values",
    "evidence.GaussianPosterior.__post_init__": "test_evidence: the posteriors blr_posterior returns",
    "evidence.GaussianPosterior.dim": "test_evidence: the posteriors blr_posterior returns",
    "evidence.GaussianPosterior.sample_factor": "test_evidence: per-point draws from blr_posterior",
    # config keys away from their defaults
    "flows._coupled_flow.<locals>.flow": "four-rooms-features beta != 0 (test_flows::test_coupled_flow_with_learned_weights_matches_step_loop)",
    "flows._coupled_flow.<locals>.unpack#2": "four-rooms-features beta != 0 (test_flows::test_coupled_flow_with_learned_weights_matches_step_loop)",
    "flows._rk4": "four-rooms-features beta != 0 (test_flows::test_coupled_flow_with_learned_weights_matches_step_loop)",
    "causal._beta_continued_fraction": "misa-robustness with even n_envs: an odd numerator dof (test_causal::test_f_upper_tail_matches_scipy_fdtrc)",
    "evidence._gd_minimize": "bms-select alg1_method = gd (test_evidence::test_sumloss_gd_converges_to_exact_mode)",
    "evidence.make_rff_feature_map": "bms-select kind = rff_frequency (test_fork_map, test_evidence)",
    "evidence.make_rff_feature_map.<locals>.fmap": "bms-select kind = rff_frequency (test_fork_map, test_evidence)",
    # refusals and failures
    "experiments.Range.__str__": "a config value out of its range (test_cli::test_out_of_range_value_is_config_error)",
    "cli._numerical_failure": "exit 3 (test_cli::test_numerical_failure_exits_three_and_names_the_error)",
}


def defined_functions() -> dict:
    """``(path, first line) -> qualname`` of every ``def`` under ``src/tdlab``.

    A qualname that two defs share (one per branch of an ``if``) gets
    ``#2``, ``#3``, … on its later defs, in source order."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                repeats = sum(other.partition("#")[0] == name for other in found.values())
                found[(path, first)] = f"{name}#{repeats + 1}" if repeats else name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return found


def test_every_function_is_reached_or_listed(whole_program_pass):
    seen = whole_program_pass["seen"]
    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in seen)
    assert unreached == sorted(UNREACHED), {
        "unreached and not listed": sorted(set(unreached) - set(UNREACHED)),
        "listed but reached (or gone)": sorted(set(UNREACHED) - set(unreached)),
    }


def test_every_cited_test_exists():
    """Each ``module::test_name`` a reason above quotes is a function defined in
    ``tests/module.py``, read with ``ast`` (nothing is imported), so a deleted or
    renamed test cannot leave a reason that cites it."""
    tests = Path(__file__).parent
    cited = {match for reason in UNREACHED.values() for match in re.findall(r"(\w+)::(\w+)", reason)}
    assert cited
    missing = [
        f"{module}::{name}" for module, name in sorted(cited)
        if name not in {
            node.name for node in ast.walk(ast.parse((tests / f"{module}.py").read_text()))
            if isinstance(node, ast.FunctionDef)
        }
    ]
    assert not missing, missing
