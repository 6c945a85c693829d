import json
import subprocess
import sys

import numpy as np
import pytest

from tdlab.cli import main
from tdlab.experiments import EXPERIMENT_ORDER, EXPERIMENTS, ConfigError, resolve_config, write_csv


def run_cli(args):
    return main(list(args))


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_list_prints_every_experiment(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_ORDER:
        assert name in out
    assert len(out.strip().splitlines()) == len(EXPERIMENT_ORDER)


def test_run_writes_manifest_and_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert run_cli(["run", "two-state", "--out", str(out), "--seed", "3"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(out / "manifest.json")
    manifest = read_manifest(out)
    assert manifest["experiment"] == "two-state"
    assert manifest["seed"] == 3
    assert manifest["reps"] == 1
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert manifest["config"]["n_inits"] == 5


def test_config_overrides_are_applied(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[two-state]\nn_inits = 2\nt_end = 1.0\n")
    out = tmp_path / "out"
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["n_inits"] == 2
    assert manifest["config"]["t_end"] == 1.0


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[two-state]\nn_knits = 2\n")
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_section_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[not-an-experiment]\nx = 1\n")
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "not-an-experiment" in err


def test_unparseable_value_is_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[two-state]\nn_inits = soup\n")
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, value", [("dt", "inf"), ("gamma", "nan")])
def test_non_finite_float_is_config_error(tmp_path, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[two-state]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match="finite"):
        resolve_config("two-state", {key: float(value)})


_OUT_OF_RANGE = [
    ("misa-robustness", "alpha", "5"), ("misa-robustness", "alpha", "0"),
    ("misa-robustness", "n_seeds", "0"), ("misa-robustness", "n_envs", "1"),
    ("misa-robustness", "n_steps", "3"), ("bms-select", "n_estimator_seeds", "0"),
    ("bms-select", "k_values", "0"), ("bms-select", "k_values", "4,0"),
    ("bms-select", "ls_samples", "1"), ("four-rooms-features", "k_features", "0"),
    ("four-rooms-features", "k_features", "500"), ("capacity-ranks", "eps", "0"),
    ("capacity-ranks", "eps", "-1"), ("second-order", "alphas", "0"),
    ("second-order", "alphas", "0.1,-0.1"),
    ("smooth-kernel-generalization", "fractions", "0.0,0.5"),
    ("smooth-kernel-generalization", "fractions", "0.5,2.0"),
    ("smooth-kernel-generalization", "gamma", "1.0"), ("smooth-kernel-generalization", "gamma", "1.5"),
    ("smooth-kernel-generalization", "nstep_n", "0"), ("smooth-kernel-generalization", "n_states", "1"),
    ("smooth-kernel-generalization", "n_mdps", "0"), ("two-state", "gamma", "1"),
    ("two-state", "gamma", "-0.5"), ("two-state", "t_end", "-1"), ("two-state", "dt", "0"),
]


@pytest.mark.parametrize(
    "section, key, value", _OUT_OF_RANGE, ids=[f"{key}-{value}" for _, key, value in _OUT_OF_RANGE]
)
def test_out_of_range_value_is_config_error(tmp_path, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        resolve_config(section, {key: value})


_INCONSISTENT = [
    ("smooth-kernel-generalization", "n_states = 10\nsmooth_k = 20", "smooth_k"),
    ("smooth-kernel-generalization", "n_states = 2\nsmooth_k = 2", "fractions"),
    ("second-order", "alphas = 0.5\nt_total = 0.2", "alphas"),
]


@pytest.mark.parametrize(
    "section, body, key", _INCONSISTENT, ids=["smooth_k-above-n_states", "no-train-state", "no-steps"]
)
def test_inconsistent_keys_are_config_errors(tmp_path, section, body, key):
    """Values each in range that together fail at run time: more eigenvectors
    than states, a train fraction that keeps no state, a step longer than
    the horizon."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{body}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    overrides = dict(line.split(" = ") for line in body.splitlines())
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        resolve_config(section, overrides)


_REFUSED_BY_BUILDERS = [
    ("two-state", "dt", "5e-324", "two-state.t_end / dt overflows"),
    ("kernel-circle", "dt", "1e-9", "kernel-circle.t_end / dt asks for more than"),
    ("four-rooms-features", "m_heads", "0", "four-rooms-features.m_heads"),
    ("four-rooms-features", "m_heads", "1,0", "four-rooms-features.m_heads"),
    ("random-cumulants", "m_heads", "0", "random-cumulants.m_heads"),
    ("smooth-kernel-generalization", "smooth_k", "0", "smooth-kernel-generalization.smooth_k"),
    ("smooth-kernel-generalization", "smooth_k", "-3", "smooth-kernel-generalization.smooth_k"),
    ("kernel-circle", "lengthscales", "0", "kernel-circle.lengthscale must be positive"),
    ("kernel-circle", "gammas", "0.5,1.0", r"kernel-circle.gamma must lie in \[0, 1\)"),
]


@pytest.mark.parametrize(
    "section, key, value, match", _REFUSED_BY_BUILDERS,
    ids=[f"{section}-{key}-{value}" for section, key, value, _ in _REFUSED_BY_BUILDERS],
)
def test_values_the_flow_builders_refuse_are_config_errors(tmp_path, section, key, value, match):
    """Each of these ran to a traceback (or to all-zero predictions, for
    smooth_k) before; validate and run now refuse them, through a declared
    range or through the FlowConfig/KernelSpec the experiment builds."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match=match):
        resolve_config(section, {key: value})


def test_write_csv_formats_every_cell_type(tmp_path):
    """Columns of one type and mixed columns format exactly as cell by cell;
    a row whose length differs from the header's is refused."""
    header = ("b", "nb", "i", "ni", "f", "nf", "text", "mixed", "nan")
    rows = [
        (True, np.bool_(False), 3, np.int64(-4), 0.1, np.float64(1e-300), "", 2, float("nan")),
        (False, np.bool_(True), -7, np.int64(2**62), -0.0, np.float64(np.inf), "x y", 2.5, np.float64("nan")),
        (True, np.bool_(True), 0, np.int64(0), 1e16, np.float64(-2.0), "z", True, float("nan")),
    ]
    path = tmp_path / "cells.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == (
        b"b,nb,i,ni,f,nf,text,mixed,nan\n"
        b"true,false,3,-4,0.10000000000000001,1e-300,,2,nan\n"
        b"false,true,-7,4611686018427387904,-0,inf,x y,2.5,nan\n"
        b"true,true,0,0,10000000000000000,-2,z,true,nan\n"
    )
    with pytest.raises(ValueError, match="3 cells"):
        write_csv(tmp_path / "ragged.csv", ("a", "b", "c"), [(1, 2, 3), (4, 5)])
    assert not (tmp_path / "ragged.csv").exists()


def test_declared_ranges_admit_the_defaults():
    for name, exp in EXPERIMENTS.items():
        for key, bounds in exp.ranges.items():
            default = exp.defaults[key]
            assert all(bounds.admits(v) for v in (default if isinstance(default, tuple) else (default,))), key
        assert resolve_config(name) == exp.defaults


@pytest.mark.parametrize(
    "section, key, value",
    [("four-rooms-features", "m_heads", "1,x"), ("bms-select", "k_values", "")],
)
def test_bad_list_value_is_config_error(tmp_path, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_list_values_are_typed_once():
    config = resolve_config("kernel-circle", {"gammas": "0.5, 0.9,", "lengthscales": [1, "2"]})
    assert config["gammas"] == (0.5, 0.9)
    assert config["lengthscales"] == (1.0, 2.0)
    targets = resolve_config("smooth-kernel-generalization", {"targets": " value ,nstep"})["targets"]
    assert targets == ("value", "nstep")
    with pytest.raises(ConfigError, match="finite"):
        resolve_config("second-order", {"alphas": "0.1,inf"})


def test_negative_seed_is_config_error(tmp_path, capsys):
    assert run_cli(["run", "two-state", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_and_missing_files_are_config_errors(tmp_path):
    broken = tmp_path / "broken.ini"
    broken.write_text("this is not an ini file\n")
    assert run_cli(["run", "two-state", "--config", str(broken), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["run", "two-state", "--config", str(tmp_path / "absent.ini"),
                    "--out", str(tmp_path / "o")]) == 2


def test_every_section_is_validated_even_if_unused(tmp_path, capsys):
    """A typo in a section for a different experiment still fails fast."""
    cfg = tmp_path / "multi.ini"
    cfg.write_text("[two-state]\nn_inits = 2\n\n[second-order]\nbogus = 1\n")
    assert run_cli(["run", "two-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_numerical_failure_exits_three_and_names_the_error(tmp_path, capsys):
    cfg = tmp_path / "blowup.ini"
    cfg.write_text("[second-order]\nalphas = 3.0\nt_total = 300\n")
    code = run_cli(["run", "second-order", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "DivergenceDetected" in err


def test_validate_reports_ok_and_errors(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text("[two-state]\nn_inits = 3\n[second-order]\ngamma = 0.5\n")
    assert run_cli(["validate", "--config", str(good)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.ini"
    bad.write_text("[two-state]\nwhoops = 3\n")
    assert run_cli(["validate", "--config", str(bad)]) == 2


def test_unknown_experiment_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli(["run", "bogus", "--out", str(tmp_path / "o")])
    assert info.value.code == 2


def test_reruns_are_byte_identical(tmp_path):
    for experiment in ("two-state", "second-order"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{experiment}-{tag}"
            assert run_cli(["run", experiment, "--out", str(out), "--seed", "7"]) == 0
            dirs.append(out)
        names = read_manifest(dirs[0])["outputs"]
        assert names == read_manifest(dirs[1])["outputs"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_reps_produce_prefixed_artifacts(tmp_path):
    out = tmp_path / "reps"
    assert run_cli(["run", "second-order", "--out", str(out), "--reps", "2"]) == 0
    manifest = read_manifest(out)
    assert manifest["reps"] == 2
    assert any(n.startswith("rep000_") for n in manifest["outputs"])
    assert any(n.startswith("rep001_") for n in manifest["outputs"])
    assert set(manifest["derived"]) == {"rep000", "rep001"}


def test_reps_change_the_draws_but_not_the_config(tmp_path):
    out = tmp_path / "r2"
    assert run_cli(["run", "second-order", "--out", str(out), "--reps", "2"]) == 0
    manifest = read_manifest(out)
    first = [n for n in manifest["outputs"] if n.startswith("rep000_")]
    paired = [n.replace("rep000_", "rep001_") for n in first]
    assert all(n in manifest["outputs"] for n in paired)
    # different rep => different RNG stream => different artifact bytes
    assert any(
        (out / a).read_bytes() != (out / b).read_bytes() for a, b in zip(first, paired)
    )


def test_verbose_goes_to_stderr_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDLAB_VERBOSE", "1")
    out = tmp_path / "v"
    assert run_cli(["run", "second-order", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == str(out / "manifest.json")
    assert "tdlab:" in captured.err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tdlab.cli", "list"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "two-state" in proc.stdout


def _scipy_modules_after(code):
    """Names of the scipy modules loaded after ``code`` runs in a fresh interpreter."""
    code += "; import sys; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_scipy_stats_unloaded():
    """Importing any scipy module takes ~0.3 s and only closed-form flows and the
    ICP scan need one, so startup loads none; this interpreter has loaded scipy."""
    assert _scipy_modules_after("import tdlab.experiments, tdlab.cli") == []


def test_exact_and_sampled_evidence_load_no_scipy():
    code = (
        "from tdlab.evidence import algorithm1_sumloss, evidence_report, model_selection_task; "
        "models, data = model_selection_task('prior_variance'); "
        "evidence_report(models[0], data, n_seeds=2); "
        "algorithm1_sumloss(models[0], data, seed=0, method='exact')"
    )
    assert _scipy_modules_after(code) == []
