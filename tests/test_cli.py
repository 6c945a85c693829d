import csv
import functools
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdlab import experiments
from tdlab.cli import main
from tdlab.experiments import (
    EXPERIMENT_ORDER,
    ArtifactWriter,
    EXPERIMENTS,
    NUMERICAL_ERRORS,
    ConfigError,
    _format_cell,
    _pooled_covariances,
    resolve_config,
    run_experiment,
    write_csv,
)


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
    ("misa-robustness", "n_envs", "10001"),
    ("misa-robustness", "n_steps", "3"), ("bms-select", "n_estimator_seeds", "0"),
    ("bms-select", "k_values", "0"), ("bms-select", "k_values", "4,0"),
    ("bms-select", "ls_samples", "1"), ("bms-select", "task_seed", "-1"),
    ("four-rooms-features", "k_features", "0"),
    ("four-rooms-features", "k_features", "500"), ("capacity-ranks", "eps", "0"),
    ("capacity-ranks", "eps", "-1"), ("second-order", "alphas", "0"),
    ("second-order", "alphas", "0.1,-0.1"),
    ("smooth-kernel-generalization", "fractions", "0.0,0.5"),
    ("smooth-kernel-generalization", "fractions", "0.5,2.0"),
    ("smooth-kernel-generalization", "gamma", "1.0"), ("smooth-kernel-generalization", "gamma", "1.5"),
    ("smooth-kernel-generalization", "nstep_n", "0"), ("smooth-kernel-generalization", "n_states", "1"),
    ("smooth-kernel-generalization", "n_mdps", "0"), ("two-state", "gamma", "1"),
    ("two-state", "gamma", "-0.5"), ("two-state", "t_end", "-1"), ("two-state", "dt", "0"),
    # integer keys that declare no range are counts, >= 1
    ("two-state", "n_inits", "0"), ("random-cumulants", "n_states", "0"),
    ("random-cumulants", "n_seeds", "-1"), ("kernel-circle", "n_states", "-1"),
    ("capacity-ranks", "n_samples", "0"), ("capacity-ranks", "d_features", "-1"),
    ("second-order", "n_states", "-3"), ("capacity-ranks", "constructed_ranks", "2,-1"),
    ("capacity-ranks", "sgd_lr", "-0.1"),
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
    ("random-cumulants", "n_states = 1", "m_heads"),
]


@pytest.mark.parametrize(
    "section, body, key", _INCONSISTENT,
    ids=["smooth_k-above-n_states", "no-train-state", "no-steps", "m_heads-above-n_states"],
)
def test_inconsistent_keys_are_config_errors(tmp_path, section, body, key):
    """Values each in range that together fail at run time: more eigenvectors
    than states, a train fraction that keeps no state, a step longer than
    the horizon, more cumulant heads than states."""
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
    ("four-rooms-features", "alpha", "-1", "four-rooms-features.alpha must be nonnegative and finite"),
    ("four-rooms-features", "beta", "-5", "four-rooms-features.beta must be nonnegative and finite"),
    ("random-cumulants", "m_heads", "0", "random-cumulants.m_heads"),
    ("smooth-kernel-generalization", "smooth_k", "0", "smooth-kernel-generalization.smooth_k"),
    ("smooth-kernel-generalization", "smooth_k", "-3", "smooth-kernel-generalization.smooth_k"),
    ("kernel-circle", "lengthscales", "0", "kernel-circle.lengthscale must be positive"),
    ("kernel-circle", "gammas", "0.5,1.0", r"kernel-circle.gamma must lie in \[0, 1\)"),
    ("chain-transfer", "n_states", "1", "chain-transfer.n_states must be at least 2"),
    ("chain-transfer", "slip", "-1", r"chain-transfer.slip_prob must lie in \[0, 1\]"),
    ("chain-transfer", "gamma", "1", r"chain-transfer.gamma must lie in \[0, 1\)"),
    ("chain-transfer", "k", "31", r"chain-transfer.k must lie in \[1, 30\]"),
    ("kernel-circle", "reward_state", "-1", r"kernel-circle.reward_state -1 outside \[0, 50\)"),
    ("kernel-circle", "n_train", "60", r"kernel-circle.n_train must lie in \[1, 50\]"),
    ("kernel-circle", "method", "closed_form", "kernel-circle.method: 'closed_form' is not one of rk4, euler"),
    ("smooth-kernel-generalization", "targets", "value, smoothest", "targets: 'smoothest' is not one of value,"),
    ("bms-select", "kind", "linear", "bms-select.kind: 'linear' is not one of feature_dimension,"),
    ("bms-select", "alg1_method", "sgd", "bms-select.alg1_method: 'sgd' is not one of gd, exact"),
    ("capacity-ranks", "n_states", "1", "capacity-ranks.n_states must be at least 2"),
    ("capacity-ranks", "lengthscales", "1,-1", "capacity-ranks.lengthscale must be positive"),
    ("capacity-ranks", "sgd_lr", "0", "capacity-ranks.sgd_lr: '0' is not > 0"),
    ("second-order", "gamma", "1", r"second-order.gamma must lie in \[0, 1\)"),
    ("second-order", "alphas", "1e-320", r"second-order.t_end / dt overflows"),
]


@pytest.mark.parametrize(
    "section, key, value, match", _REFUSED_BY_BUILDERS,
    ids=[f"{section}-{key}-{value}" for section, key, value, _ in _REFUSED_BY_BUILDERS],
)
def test_values_the_flow_builders_refuse_are_config_errors(tmp_path, section, key, value, match):
    """Each of these ran to a traceback (or to all-zero predictions, for
    smooth_k) before; validate and run now refuse them, through the count
    default, a declared range (sgd_lr), the names the library exports, or
    the inputs (FlowConfig, KernelSpec, MDP, basis) the experiment's setup
    builds."""
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


def test_write_csv_body_matches_the_cell_by_cell_format(tmp_path):
    """Each row, one ``%`` operation on the row spec, is byte for byte
    ``_format_cell`` of every cell joined by commas, for every column kind
    and for zero rows."""
    header = ("s", "i", "ni", "f", "nf", "b", "nb", "blank_or_float", "int_and_float")
    rows = [
        ("a", 1, np.int64(-2), 0.1, np.float64(1 / 3), True, np.bool_(False), "", 1),
        ("b", -5, np.int64(7), -1e-300, np.float64(2e20), False, np.bool_(True), 2.5, 0.5),
        ("", 0, np.int64(0), float("inf"), np.float64(-0.0), True, np.bool_(True), np.float64(-3.0), 2),
    ]
    for name, table in (("rows", rows), ("empty", [])):
        path = tmp_path / f"{name}.csv"
        write_csv(path, header, table)
        lines = [",".join(header)] + [",".join(map(_format_cell, row)) for row in table]
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize(
    "header, rows, column",
    [
        (("label", "value"), [("x,y", 1.5)], "label"),
        (("s", "i"), [("a", 1), ("b,c", 2)], "s"),
        (("i", "s"), [(1, 'say "hi"')], "s"),
        (("s", "f"), [("one\ntwo", 1.0)], "s"),
        (("s", "f"), [("one\rtwo", 1.0)], "s"),
        (("f", "blank_or_float"), [(1.0, ""), (2.0, "3,5")], "blank_or_float"),
        (("f", "a,b"), [(1.0, 2.0)], "a,b"),
        (("f", "a\nb"), [], "a\nb"),
    ],
    ids=["comma", "comma-in-a-later-row", "quote", "newline", "carriage-return", "mixed-column",
         "header", "header-of-no-rows"],
)
def test_write_csv_refuses_text_that_csv_would_split_or_quote(tmp_path, header, rows, column):
    """Cells are written unquoted, so a comma, a double quote or a line break
    in a column's name or text cells would change what a CSV reader reads
    back: the write is refused, naming the file and the column, and no file
    or temp file is made."""
    with pytest.raises(ValueError, match=re.escape(f"bad.csv: column {column!r}")):
        write_csv(tmp_path / "bad.csv", header, rows)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("total", [700, 3 * 1024 + 313], ids=["under-1000", "not-a-chunk-multiple"])
def test_pooled_covariances_match_the_whole_draw(total):
    """Each checkpoint's streamed covariance is ``X[:c].T @ X[:c] / c`` of the
    one ``(total, n)`` draw's image ``X = C psi^T``, exactly symmetric, and
    the stream is left where that draw leaves it."""
    n = 6
    psi = np.linalg.inv(np.eye(n) - 0.9 * np.random.default_rng(1).dirichlet(np.ones(n), size=n))
    checkpoints = sorted({min(c, total) for c in (100, 500, 1000, total)})
    whole = np.random.default_rng(2)
    X = whole.standard_normal((total, n)) @ psi.T
    rng = np.random.default_rng(2)
    streamed = list(_pooled_covariances(rng, psi, checkpoints))
    assert [c for c, _ in streamed] == checkpoints
    for c, cov in streamed:
        expected = X[:c].T @ X[:c] / c
        assert np.linalg.norm(cov - expected) <= 1e-12 * np.linalg.norm(expected), c
        assert np.array_equal(cov, cov.T)
    assert rng.standard_normal(3).tolist() == whole.standard_normal(3).tolist()


def test_random_cumulants_chunking_moves_no_exact_cell(tmp_path, monkeypatch):
    """With one chunk covering the whole pool, ``flow_alignment.csv`` and the
    exact columns (indices, pool sizes, the theoretical covariance) are
    byte-identical to the default chunked run: the draws after the pool match."""
    cfg = EXPERIMENTS["random-cumulants"].defaults
    run_experiment("random-cumulants", {}, tmp_path / "chunked", 0)
    monkeypatch.setattr(experiments, "_POOL_CHUNK", cfg["n_seeds"] * cfg["m_heads"])
    run_experiment("random-cumulants", {}, tmp_path / "whole", 0)

    def exact(run, name, columns):
        rows = list(csv.DictReader(open(tmp_path / run / f"rep000_{name}.csv")))
        return [[row[c] for c in columns] for row in rows]

    flow = "rep000_flow_alignment.csv"
    assert (tmp_path / "chunked" / flow).read_bytes() == (tmp_path / "whole" / flow).read_bytes()
    for name, columns in (("covariance", ("i", "j", "theoretical")), ("covariance_error", ("n_pooled_columns",))):
        assert exact("chunked", name, columns) == exact("whole", name, columns)


def test_declared_ranges_admit_the_defaults():
    """Every numeric key's range (a count's included) and every string key's
    name set admit its default."""
    for name, exp in EXPERIMENTS.items():
        for key, default in exp.defaults.items():
            items = default if isinstance(default, tuple) else (default,)
            bounds, names = exp.bounds(key), exp.names.get(key)
            assert bounds is None or all(bounds.admits(v) for v in items), key
            assert names is None or set(items) <= set(names), key
        assert resolve_config(name) == exp.defaults


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("four-rooms-features", "m_heads", "1,x"),
        ("bms-select", "k_values", ""),
        # a repeated item would write two columns of one name (Lk_2 twice in
        # bms-select's evidence.csv) or rows no reader can tell apart
        ("bms-select", "k_values", "2,2"),
        ("four-rooms-features", "m_heads", "1,20,1"),
        ("second-order", "alphas", "0.1,0.05,0.10"),
        ("smooth-kernel-generalization", "targets", "value, value"),
    ],
)
def test_bad_list_value_is_config_error(tmp_path, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match=f"{section}.{key}: "):
        resolve_config(section, {key: value})


@pytest.mark.parametrize("key, value", [("gammas", "0.5,0.5000001"), ("lengthscales", "1,1.0000001")])
def test_kernel_circle_refuses_values_that_share_a_file_name(tmp_path, capsys, key, value):
    """Trajectory files are named ``trajectory_gamma{:g}_ell{:g}``: two values
    that print alike would write one file twice and lose the first."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[kernel-circle]\n{key} = {value}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    assert f"kernel-circle.{key}" in capsys.readouterr().err
    assert run_cli(["run", "kernel-circle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("n_states", [30, 100, 300])
def test_numerical_failure_in_a_setup_exits_three_at_validate_and_run(tmp_path, capsys, n_states):
    """A chain whose slip is all but zero has an eigendecomposition no solver
    can trust: a numerical failure while the setup builds the EBFs, not a
    config error, so ``validate`` and ``run`` both exit 3 and name it."""
    cfg = tmp_path / "slip.ini"
    cfg.write_text(f"[chain-transfer]\nslip = 1e-12\nn_states = {n_states}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == 3
    assert run_cli(["run", "chain-transfer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("tdlab: numerical failure in experiment 'chain-transfer': LinAlgError: ")
    assert not (tmp_path / "o" / "manifest.json").exists()


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


@functools.cache
def _all_modules_after(code):
    """Names of every module loaded after ``code`` runs in a fresh
    interpreter: one interpreter per distinct ``code``, however many
    packages the tests check in it."""
    code += "; import sys; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _modules_after(code, package="scipy"):
    """Names of the modules of ``package`` loaded after ``code`` runs in a fresh interpreter."""
    return [m for m in _all_modules_after(code) if (m + ".").startswith(package + ".")]


def test_import_leaves_scipy_stats_unloaded():
    """Importing any scipy module takes ~0.3 s, so startup loads none; this
    interpreter has loaded scipy."""
    assert _modules_after("import tdlab.experiments, tdlab.cli") == []


@pytest.mark.parametrize("package", ["numpy.random", "multiprocessing"])
def test_import_leaves_lazily_imported_modules_unloaded(package):
    """The sampled estimators import ``numpy.random`` on their first draw, so
    startup (every CLI call, and perfbench's ``setup_s``) does not pay for
    it; ``multiprocessing`` is imported by no tdlab module."""
    assert _modules_after("import tdlab.experiments, tdlab.cli", package) == []


def test_package_namespace_holds_only_submodules_and_dunders():
    """Each public name has one import path, the module that defines it:
    ``tdlab`` itself binds no library name."""
    import tdlab

    names = [n for n, obj in vars(tdlab).items() if not n.startswith("__") and not isinstance(obj, ModuleType)]
    assert names == []


def test_experiments_and_commands_run_where_scipy_cannot_be_imported(whole_program_pass):
    """scipy is a test dependency only: in the suite's one whole-program pass
    (``conftest.whole_program_pass``), whose interpreter cannot import scipy,
    ``list``, ``validate`` of a config naming every experiment and all ten
    experiments (at their defaults) exit 0, and each run writes its manifest."""
    assert whole_program_pass["codes"] == [0] * (2 + len(EXPERIMENT_ORDER))
    assert whole_program_pass["validated"]
    assert whole_program_pass["unwritten"] == []


def test_exact_and_sampled_evidence_load_no_scipy():
    code = (
        "from tdlab.evidence import algorithm1_sumloss, evidence_report, model_selection_task; "
        "models, data = model_selection_task('prior_variance'); "
        "evidence_report(models[0], data, n_seeds=2); "
        "algorithm1_sumloss(models[0], data, seeds=[0], method='exact')"
    )
    assert _modules_after(code) == []


# Every experiment at a size that runs in milliseconds; a drawn value overrides its key.
_SMALL = {
    "two-state": {"t_end": 1.0, "n_inits": 2},
    "chain-transfer": {"n_states": 8, "k": 2},
    "four-rooms-features": {"t_end": 0.1, "m_heads": (1, 2)},
    "random-cumulants": {"n_states": 4, "m_heads": 2, "n_seeds": 10, "t_end": 0.5},
    "kernel-circle": {
        "n_states": 8, "reward_state": 3, "n_train": 6, "t_end": 5.0, "gammas": (0.5,), "lengthscales": (1.0,),
    },
    "smooth-kernel-generalization": {"n_states": 10, "smooth_k": 5, "n_mdps": 2, "fractions": (0.5,)},
    "bms-select": {"kind": "prior_variance", "n_estimator_seeds": 2, "k_values": (2,), "ls_samples": 2},
    "misa-robustness": {"n_seeds": 2, "n_steps": 50, "do_values": (0.0, 1.0)},
    "capacity-ranks": {"n_states": 6, "n_samples": 20, "constructed_ranks": (1, 2), "d_features": 4},
    "second-order": {"alphas": (0.1, 0.05), "t_total": 0.5},
}


def _boundary_values(exp, key):
    """0, -1, 1, each end the key declares (a count's is 1) and one step past
    it; for a string key, a name no library function knows."""
    default = exp.defaults[key]
    item = default[0] if isinstance(default, tuple) else default
    if isinstance(item, str):
        return ["no-such-name"]
    values = {0, -1, 1}
    bounds = exp.bounds(key)
    if bounds is not None:
        for end, outward in ((bounds.lo, -1), (bounds.hi, 1)):
            if math.isfinite(end):
                past = end + outward if type(item) is int else math.nextafter(end, outward * math.inf)
                values |= {end, past}
    return sorted(type(item)(v) for v in values)


_ONE_KEY_CASES = [
    (name, key, (value,) if isinstance(exp.defaults[key], tuple) else value)
    for name, exp in EXPERIMENTS.items()
    for key in exp.defaults
    for value in _boundary_values(exp, key)
]


def _with_partner(case):
    """The case alone, or with a boundary value of another key of its experiment."""
    partners = [other for other in _ONE_KEY_CASES if other[0] == case[0] and other[1] != case[1]]
    return st.one_of(st.just((case,)), st.sampled_from(partners).map(lambda other: (case, other)))


def _every_one_key_case(test):
    """Run each one-key case as an explicit example, so that every (experiment,
    key) pair is covered whatever the drawn examples are."""
    for case in _ONE_KEY_CASES:
        test = example((case,))(test)
    return test


# The README's NaN columns: the distance of a rank-deficient feature snapshot
# (four-rooms-features, random-cumulants) is NaN.
_NAN_COLUMNS = {"grassmann_distance", "grassmann_distance_to_resolvent_span"}


def _non_finite_cells(path: Path):
    """(column, cell) of each non-finite number outside the NaN columns' NaNs."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    bad = []
    for row in rows[1:]:
        for column, cell in zip(rows[0], row):
            try:
                finite = math.isfinite(float(cell))
            except ValueError:  # a label or an empty cell
                continue
            if not finite and not (cell == "nan" and column in _NAN_COLUMNS):
                bad.append((column, cell))
    return bad


@settings(max_examples=80)
@_every_one_key_case
@given(st.sampled_from(_ONE_KEY_CASES).flatmap(_with_partner))
def test_validate_refuses_or_run_completes(cases):
    """Each boundary config, alone or paired, is refused by ``validate`` with a
    ConfigError or a numerical failure (exit 3) in its setup, or runs to
    success or to a numerical failure; a success writes only finite numbers,
    outside the documented NaN columns."""
    name = cases[0][0]
    overrides = dict(_SMALL[name], **{key: value for _, key, value in cases})
    try:
        resolve_config(name, overrides)
    except (ConfigError, *NUMERICAL_ERRORS):
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            manifest = json.loads(run_experiment(name, overrides, out, 0).read_text())
        except NUMERICAL_ERRORS:
            return
        for output in manifest["outputs"]:
            bad = _non_finite_cells(Path(out) / output)
            assert not bad, (output, bad[:3])


@pytest.mark.parametrize(
    "section, body, validated",
    [
        ("chain-transfer", "slip = 0", 0),
        ("four-rooms-features", "k_features = 69\nt_end = 0.1", 3),
        ("four-rooms-features", "k_features = 80", 3),
    ],
    ids=["chain-slip-0", "four-rooms-k-69", "four-rooms-k-80"],
)
def test_rank_deficient_span_exits_three(tmp_path, capsys, section, body, validated):
    """A deterministic chain's EBFs and the four-rooms walk's top 69 (or 80)
    EBFs span fewer dimensions than they have columns: a singular system,
    exit 3.  The four-rooms target span is built in the setup, so
    ``validate`` refuses it too; the chain's spans are taken per policy in
    the run."""
    cfg = tmp_path / "span.ini"
    cfg.write_text(f"[{section}]\n{body}\n")
    assert run_cli(["validate", "--config", str(cfg)]) == validated
    assert run_cli(["run", section, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "LinAlgError: columns are rank deficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("chain-transfer", {}),
        ("kernel-circle", {"t_end": 20.0}),
        ("capacity-ranks", {"n_samples": 500}),
        ("four-rooms-features", {"t_end": 0.5, "m_heads": (1, 4)}),
    ],
)
def test_reps_share_one_setup_and_leave_it_unchanged(tmp_path, experiment, overrides):
    """Repetitions share one setup: rep000 of a two-rep run is byte-identical
    to a one-rep run, and rep001 to the runner on a fresh setup with rep 1's
    stream, so a runner that mutates what its setup built fails here."""
    exp = EXPERIMENTS[experiment]
    one, two, fresh = tmp_path / "one", tmp_path / "two", tmp_path / "fresh"
    run_experiment(experiment, overrides, one, 7, reps=1)
    run_experiment(experiment, overrides, two, 7, reps=2)
    fresh.mkdir()
    config = resolve_config(experiment, overrides)
    rep1 = ArtifactWriter(fresh, "rep001_")
    exp.runner(config, exp.setup(config), np.random.default_rng([7, exp.index, 1]), rep1)
    outputs = read_manifest(two)["outputs"]
    assert read_manifest(one)["outputs"] + rep1.files == outputs
    for name in outputs:
        expected = (one if name.startswith("rep000_") else fresh) / name
        assert expected.read_bytes() == (two / name).read_bytes(), name


def test_misa_robustness_charts_the_selection_it_made(tmp_path):
    """When the first seed's MISA selects no variable, the robustness curve
    fits the intercept-only predictor, not the true parents.  The intercept
    ignores the clamped variable and the draws are common across values, so
    its error is the same at every value."""
    run_experiment("misa-robustness", {"n_steps": 10, "n_seeds": 3}, tmp_path, seed=2)
    with open(tmp_path / "rep000_selection.csv") as fh:
        assert next(csv.DictReader(fh))["selected"] == ""
    with open(tmp_path / "rep000_robustness.csv") as fh:
        misa_mse = {row["misa_mse"] for row in csv.DictReader(fh)}
    assert len(misa_mse) == 1
