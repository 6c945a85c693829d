"""Every function in ``src/tdlab`` is reached by the ten experiments, the CLI
or the demos, or it is listed below with the test or config key that
reaches it.

One fresh interpreter, in which ``import scipy`` fails and one CPU is
usable (so ``_fork_map`` runs every item in this process), runs ``tdlab
list``, ``tdlab validate`` on a config that sets every key of every
experiment to its default, ``tdlab run`` of each experiment at its defaults
and then the four demos, under a ``sys.setprofile`` tracer that records
each tdlab code object it sees called.  A code object is keyed by
``(co_filename, co_firstlineno)``, which for a decorated function is its
first decorator's line.  Every ``def`` that ``ast`` finds in the package
(methods, properties and nested closures too) and that the pass never
called must be in ``UNREACHED``; a listed name the pass does reach is
stale.  So a new function that nothing reaches fails this test, and so does
a deletion that leaves an entry behind.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tdlab

SRC = Path(tdlab.__file__).parent
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

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
    "evidence.sample_then_optimize": "bms-select alg1_method = gd (test_evidence::test_sample_then_optimize_gd_reaches_exact_solution)",
    "evidence.make_rff_feature_map": "bms-select kind = rff_frequency (test_fork_map, test_evidence)",
    "evidence.make_rff_feature_map.<locals>.fmap": "bms-select kind = rff_frequency (test_fork_map, test_evidence)",
    # refusals and failures
    "experiments.Range.__str__": "a config value out of its range (test_cli::test_out_of_range_value_is_config_error)",
    "cli._numerical_failure": "exit 3 (test_cli::test_numerical_failure_exits_three_and_names_the_error)",
    "flows.DivergenceDetected.__reduce__": "a forked head's divergence (test_fork_map::test_a_forked_heads_divergence_is_raised_as_itself)",
}

TRACED_PASS = """
import contextlib, io, os, runpy, sys, tempfile
from pathlib import Path

sys.modules["scipy"] = None  # the experiments, the CLI and the demos need numpy only
os.sched_getaffinity = lambda pid: {0}  # one usable CPU: _fork_map runs serially, here
src, out_path, demos = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = set()


def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
from tdlab.cli import main
from tdlab.experiments import EXPERIMENT_ORDER, EXPERIMENTS


def ini_value(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    config = Path(tmp, "defaults.ini")  # every key of every experiment, at its default
    config.write_text("".join(
        f"[{name}]\\n" + "".join(f"{key} = {ini_value(v)}\\n" for key, v in EXPERIMENTS[name].defaults.items())
        for name in EXPERIMENT_ORDER
    ))
    codes = [main(["list"]), main(["validate", "--config", str(config)])]
    codes += [main(["run", name, "--out", str(Path(tmp, name))]) for name in EXPERIMENT_ORDER]
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
assert codes == [0] * len(codes), codes
Path(out_path).write_text(repr(sorted(seen)))
"""


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


def test_every_function_is_reached_or_listed(tmp_path):
    out = tmp_path / "seen.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(SRC), str(out), *map(str, DEMOS)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = set(ast.literal_eval(out.read_text()))
    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in seen)
    assert unreached == sorted(UNREACHED), {
        "unreached and not listed": sorted(set(unreached) - set(UNREACHED)),
        "listed but reached (or gone)": sorted(set(UNREACHED) - set(unreached)),
    }
