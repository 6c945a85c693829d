"""tdlab benchmark: time to a correct result for the default experiments.

    python3 perfbench/run.py --workload feature-flow --seed 0 --seconds 30 --trace 0

One caller in a closed loop runs the workload's experiments through
``tdlab.experiments.run_experiment``, one pass after another, for at least
``--seconds`` seconds and at least two passes.  Every call's CSVs are
checked value by value against the stored reference (``reference.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``pass_s`` (wall seconds per pass over the workload, averaged over every
pass of the run),
``setup_s`` (median seconds a fresh interpreter takes to import
``tdlab.experiments`` and ``tdlab.cli``) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time and calls of the layers' public functions,
boundary counts, per-experiment wall time, per-module import time from
``python -X importtime`` and the tracing overhead.  It writes every span to
``.benchout/spans/``.

Earlier lines of output give every metric with its unit, every pass time
behind ``pass_s``, and a machine block; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchout"

MIN_PASSES = 2
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TDLAB_MODULES = ("tdlab",) + tuple(f"tdlab.{m}" for m in (
    "mdp", "spectral", "flows", "kernel_td", "capacity", "evidence", "causal", "experiments", "cli"))
_PATH_FIRST = f"import sys; sys.path.insert(0, {str(SRC)!r}); "


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, a broken import)."""


# -- set-up ----------------------------------------------------------------


def _child(args: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {done.stderr.strip()[-2000:]}")
    return done


def measure_setup_s() -> list[float]:
    """Seconds for a fresh interpreter to import the experiments and the CLI."""
    code = _PATH_FIRST + (
        "import time; t = time.perf_counter(); import tdlab.experiments, tdlab.cli; "
        "print(time.perf_counter() - t, tdlab.__file__)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, origin = _child(["-c", code]).stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise BenchError(f"imported tdlab from {origin}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def measure_import_s() -> dict[str, float]:
    """Cumulative import seconds of each tdlab module, from ``-X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = _child(["-X", "importtime", "-c", _PATH_FIRST + "import tdlab.experiments, tdlab.cli"]).stderr
        cumulative = {}
        for line in stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, module = line.split("|")
                if module.strip() in TDLAB_MODULES:
                    cumulative[module.strip()] = int(cum) * 1e-6
        runs.append(cumulative)
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in TDLAB_MODULES}


# -- machine block ---------------------------------------------------------


def _openblas(package) -> dict:
    """Runtime thread count and kernel of the OpenBLAS bundled with a wheel."""
    libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib_path in sorted(libs_dir.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "pinned_env": {k: os.environ[k] for k in (*workloads.PINNED_ENV, "OPENBLAS_CORETYPE")},
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
    }


# -- passes ----------------------------------------------------------------


class Runner:
    """Runs passes over one workload and checks every call's output."""

    def __init__(self, names, seed: int, reference, experiments, work_dir: Path):
        self.names, self.seed, self.reference = names, seed, reference
        self.experiments = experiments  # the module, so a traced run calls the wrapper
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None) -> float:
        """Seconds spent inside ``run_experiment`` over one pass."""
        total = 0.0
        for name in self.names:
            out = self.work_dir / name
            shutil.rmtree(out, ignore_errors=True)
            span = tracer.open_span(f"experiment:{name}") if tracer else None
            start = time.perf_counter()
            try:
                self.experiments.run_experiment(name, dict(workloads.CONFIGS[name]), out, self.seed)
                misses = None
            except Exception as exc:  # a call that raises is a counted failure, not a crash
                misses = [f"{name}: raised {type(exc).__name__}: {exc}"]
            total += time.perf_counter() - start
            if tracer:
                tracer.close_span(span)
            self.attempted += 1
            misses = misses or self.reference.check(name, out)
            if misses:
                self.failures.append(misses[0])
        return total


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_untraced(runner: Runner, seconds: float) -> list[float]:
    times, start = [], time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        times.append(runner.one_pass())
    return times


def run_traced(runner: Runner, seconds: float, tracer):
    """Alternate untraced and traced passes; returns both lists of pass times."""
    plain, traced, start = [], [], time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.one_pass())
            continue
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(runner.one_pass(tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def per_layer_values(tracer, traced_passes: int, overhead_s: float, import_s: dict) -> dict:
    """Every per-layer metric this run can report, by name."""
    from tracing import LAYERS

    from tdlab.experiments import EXPERIMENT_ORDER

    passes = range(traced_passes)
    self_times, durations = tracer.self_times(), tracer.durations()

    def median(table, key):
        return statistics.median(table[p].get(key, 0) for p in passes)

    def count(key):  # the same in every pass for a fixed seed; median_low keeps it whole
        return statistics.median_low(tracer.counts[p].get(key, 0) for p in passes)

    values = {"trace.overhead_s": overhead_s}
    for name in tracer.wrapped:
        values[f"{name}.self_s"] = median(self_times, name)
        values[f"{name}.calls"] = count(f"{name}.calls")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(
            sum(t for n, t in self_times[p].items() if n.startswith(layer + ".")) for p in passes
        )
    for name in EXPERIMENT_ORDER:
        values[f"experiments.{name}.wall_s"] = median(durations, f"experiment:{name}")
    for counter in tracer.COUNTERS:
        values[counter] = count(counter)
    for name in tracer.DISTINCT:
        values[f"{name}.distinct_ratio"] = statistics.median(tracer.distinct_ratio(p, name) for p in passes)
    for module, seconds in import_s.items():
        values[f"setup.{module.removeprefix('tdlab.')}.import_s"] = seconds
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        kernel = workloads.blas_kernel()
    except RuntimeError as exc:
        raise BenchError(str(exc)) from exc
    workloads.pin_environment(kernel)
    if not (SRC / "tdlab" / "experiments.py").is_file():
        raise BenchError(f"no tdlab sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = workloads.workload_seed(args.seed)
    names = workloads.WORKLOADS[args.workload]

    # Fresh interpreters first, while this process has imported nothing numerical.
    setup = None if args.trace else measure_setup_s()
    import_s = measure_import_s() if args.trace else None

    sys.path.insert(0, str(SRC))
    import reference
    import tdlab.experiments
    from tracing import Tracer

    if not Path(tdlab.experiments.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported tdlab from {tdlab.experiments.__file__}, not from {SRC}")
    ref = reference.Reference(seed, kernel)
    work_dir = OUT / f"work-{os.getpid()}"
    runner = Runner(names, seed, ref, tdlab.experiments, work_dir)
    try:
        if args.trace:
            tracer = Tracer()
            plain, traced = run_traced(runner, args.seconds, tracer)
            overhead = statistics.fmean(traced) - statistics.fmean(plain)
            values = per_layer_values(tracer, len(traced), overhead, import_s)
            tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
            declared, pass_times = spec["per_layer"], {"untraced": plain, "traced": traced}
        else:
            times = run_untraced(runner, args.seconds)
            values = {
                # The mean, not the median: on a shared 2-vCPU VM the CPU speed
                # drifts by about 15% over seconds, and the mean of a run's passes
                # varies less from run to run than their median.  The first pass
                # is already warm: every import happens before timing, and tdlab
                # imports nothing lazily.
                "pass_s": statistics.fmean(times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            declared, pass_times = spec["end_to_end"], {"untraced": times}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(runner.failures)
    print(f"workload {args.workload}: {', '.join(names)}; --seed {args.seed} -> workload seed {seed}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    for kind, times in pass_times.items():
        q1, med, q3 = quartiles(times)
        print(f"passes ({kind}): {len(times)}, mean {statistics.fmean(times):.4f} s, median {med:.4f} s, "
              f"quartiles {q1:.4f} .. {q3:.4f} s, each: {', '.join(f'{t:.4f}' for t in times)}")
    if setup:
        print(f"setup samples (s): {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"failed_frac {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    print("waits: absent (one closed-loop caller; the program has no queues)")
    for miss in runner.failures[:20]:
        print(f"  MISS {miss}")
    if args.trace:
        for name in sorted(values):
            if values[name] and name not in metrics:
                print(f"  (not in BENCHMARK.json) {name} = {values[name]:.6g}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
