"""The names perfbench reads off tdlab stay defined, its references still hold,
and its feature-flow workload holds no snapshot stack.

``perfbench/run.py`` reports ``values[name]`` for every per-layer metric in
``BENCHMARK.json``, so a renamed or deleted public function makes a traced
run die with a ``KeyError``; the tracer binds a ``cfg`` argument of every
flow in ``tracing.RK4_FLOWS`` to count RK4 steps.  The golden check runs the
ten experiments as perfbench does (the flow experiments at every stored seed)
and compares them with its stored outputs, once per OpenBLAS kernel family
with stored references that this CPU runs.
perfbench's files are only read.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tdlab.experiments import EXPERIMENTS, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def perfbench_literal(module: str, name: str):
    """The literal a perfbench module assigns to ``name``, read without importing the module."""
    tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module}.py defines no {name}")


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    except OSError:
        return set()


KERNEL_FAMILIES = perfbench_literal("workloads", "KERNEL_FAMILIES")


def public_function(qualified: str):
    """The function the tracer wraps as ``layer.fn``: public, and defined in ``tdlab.<layer>``."""
    layer, fn = qualified.split(".")
    obj = getattr(importlib.import_module(f"tdlab.{layer}"), fn, None)
    assert not fn.startswith("_") and inspect.isfunction(obj), f"tdlab.{layer} has no public function {fn}"
    assert obj.__module__ == f"tdlab.{layer}", f"{qualified} is defined in {obj.__module__}"
    return obj


def test_per_layer_call_counts_name_public_functions():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    counted = [name.removesuffix(".calls") for name in names if name.endswith(".calls")]
    assert "kernel_td.split_kernel" in counted
    for qualified in counted:
        public_function(qualified)


def test_rk4_flows_take_a_cfg_parameter():
    flows = perfbench_literal("tracing", "RK4_FLOWS")
    assert "kernel_td.kernel_td_flow" in flows
    for qualified in flows:
        assert "cfg" in inspect.signature(public_function(qualified)).parameters, qualified


# the experiments that run learning-dynamics flows, golden-checked at every stored seed
FLOW_EXPERIMENTS = ("two-state", "four-rooms-features", "random-cumulants", "kernel-circle", "second-order")

_GOLDEN = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
kernel = {kernel!r}
workloads.pin_environment(kernel)  # before numpy loads its BLAS
import reference
from tdlab.experiments import EXPERIMENT_ORDER, run_experiment
for seed in range(10):
    ref = reference.Reference(seed, kernel)
    for name in EXPERIMENT_ORDER if seed == 0 else {flows!r}:
        out = {out!r} + f"/{{seed}}/{{name}}"
        run_experiment(name, dict(workloads.CONFIGS[name]), out, seed)
        for miss in ref.check(name, out):
            print(f"seed {{seed}}: {{miss}}")
"""


@pytest.mark.parametrize("kernel", KERNEL_FAMILIES)
def test_experiments_reproduce_the_perfbench_references(tmp_path, kernel):
    """Seed 0 of every experiment, and seeds 1-9 of the flow experiments, at
    perfbench's pinned configs, one BLAS thread and one stored kernel family,
    match that family's reference cell by cell under ``reference.RULES``, as
    perfbench checks whichever seed it runs.  A family whose instructions this
    CPU lacks is skipped.  A fresh interpreter per family, because the
    environment must be pinned before numpy loads; ``-B`` keeps perfbench free
    of bytecode."""
    missing = KERNEL_FAMILIES[kernel] - cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))} for OpenBLAS {kernel}")
    code = _GOLDEN.format(
        bench=str(ROOT / "perfbench"), src=str(ROOT / "src"), out=str(tmp_path), kernel=kernel, flows=FLOW_EXPERIMENTS
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "", f"reference misses:\n{proc.stdout}"


def test_a_four_rooms_run_holds_no_snapshot_stack(monkeypatch, tmp_path):
    """At its defaults, with one usable CPU (all three heads run in this
    process) and after a warm-up run that takes lazy set-up out of the trace,
    a ``four-rooms-features`` run's traced peak stays under 5 MiB: each flow
    measures its blocks of 64 snapshots as the engine makes them, so the peak
    is a few block temporaries (64 x 105 x 10 floats, 0.5 MiB each) and the
    set-up.  One flow's snapshot stack (1001 x 105 x 10 floats, 8.0 MiB)
    crosses it.  The run is traced again with the usable CPUs, where only
    this process's heads are seen."""
    cfg = EXPERIMENTS["four-rooms-features"].defaults
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_experiment("four-rooms-features", cfg, tmp_path / "warm-up", 0)
    peaks = {}
    for cpus in ("one", "usable"):
        if cpus == "usable":
            monkeypatch.undo()
        tracemalloc.start()
        try:
            run_experiment("four-rooms-features", cfg, tmp_path / cpus, 0)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 5 * 2**20, (
        "a four-rooms flow keeps a (snapshots, n, K) stack instead of measuring each block as it is made",
        {cpus: f"{peak / 2**20:.2f} MiB" for cpus, peak in peaks.items()},
    )


def test_random_cumulants_memory_does_not_grow_with_the_pool(tmp_path):
    """At perfbench's config a ``random-cumulants`` run's traced peak stays
    under 1.5 MB, and ten times the seeds (250,000 pooled draws, 20 MB as one
    array) raise it by under 10%: the pooled draws are kept as their Gram.
    A warm-up run first takes the lazy imports out of the trace."""
    cfg = perfbench_literal("workloads", "CONFIGS")["random-cumulants"]
    run_experiment("random-cumulants", dict(cfg, n_seeds=10), tmp_path / "warm-up", 0)
    peaks = {}
    for n_seeds in (5000, 50000):
        tracemalloc.start()
        try:
            run_experiment("random-cumulants", dict(cfg, n_seeds=n_seeds), tmp_path / str(n_seeds), 0)
            peaks[n_seeds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5000] <= 1.5e6, f"traced peak {peaks[5000] / 1e6:.2f} MB"
    assert peaks[50000] < 1.1 * peaks[5000], {n: f"{p / 1e6:.2f} MB" for n, p in peaks.items()}
