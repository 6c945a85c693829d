"""``experiments._fork_map`` splits bms-select's models, misa-robustness's
seeds and four-rooms-features' heads over forked workers: the same list as
the serial loop, the same CSV bytes, a child that fails or dies has its
share recomputed in the parent (so errors arrive as a one-CPU run raises
them), and no child is left running or unreaped."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tdlab.cli import main
from tdlab.experiments import _fork_map, run_experiment
from tdlab.flows import DivergenceDetected
from tdlab.spectral import NonRealSpectrum

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="_fork_map forks only on Linux")


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


@pytest.fixture(autouse=True)
def no_child_outlives_the_test(monkeypatch):
    """Every child the test forked with ``os.fork`` has been reaped by the end."""
    real_fork, pids = os.fork, []

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor left to reap
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 26])
def test_fork_map_equals_the_serial_list(monkeypatch, n, workers):
    """This process computes items 0, W, 2W, …, and the list is the serial
    one in order; the items read an array through a closure, which no
    pickling pool could send."""
    force_workers(monkeypatch, workers)
    table = np.arange(n) ** 1.5
    results = _fork_map(lambda i: (i, table[i], os.getpid()), n)
    assert [result[:2] for result in results] == [(i, table[i]) for i in range(n)]
    w = min(n, workers)
    assert [pid == os.getpid() for *_, pid in results] == [i % w == 0 for i in range(n)]


def failing_in_child_1(failure, called):
    """An ``fn`` whose item 1 is in child 1's share for W = 2 and 3: it
    raises ``failure`` wherever it runs, or (``"killed"``) SIGKILLs a forked
    child that runs it, or (``"unpicklable"``) every item returns a closure.
    The parent appends each item it calls to ``called``."""
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            called.append(i)
        elif i == 1 and failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 1 and isinstance(failure, Exception):
            raise failure
        return (i, fn) if failure == "unpicklable" else i

    return fn


@pytest.mark.parametrize("error", [
    ValueError("model 3: covariance is not positive semidefinite"),
    FloatingPointError("gd diverged at step 7: loss inf"),
    DivergenceDetected(0.31, 1.377e8),
    NonRealSpectrum("eigenvalue 2 has imaginary part 0.5"),
    np.linalg.LinAlgError("Singular matrix"),
])
def test_a_childs_exception_is_raised_in_the_parent_as_itself(monkeypatch, error):
    """The numerical errors a runner lets through (``NUMERICAL_ERRORS``)
    among them: child 1's item raises, so the parent recomputes child 1's
    share and its own call raises the serial loop's error."""
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        called = []
        fn = failing_in_child_1(error, called)
        with pytest.raises(type(error)) as raised:
            _fork_map(fn, 5)
        assert raised.value is error
        assert called == [*range(0, 5, workers), 1]  # its own share, then child 1's up to the raise


@pytest.mark.parametrize("failure", ["killed", "unpicklable"])
def test_a_killed_child_or_an_unpicklable_share_returns_the_serial_list(monkeypatch, failure):
    """Child 1 is SIGKILLed at item 1, or cannot pickle its share: the
    parent computes that share itself and returns the serial list, at once."""
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        called = []
        fn = failing_in_child_1(failure, called)
        start = time.monotonic()
        results = _fork_map(fn, 5)
        assert time.monotonic() - start < 10
        assert 1 in called
        assert results == [fn(i) for i in range(5)]


@pytest.mark.parametrize("failing", [0, 1], ids=["parent-share", "child-share"])
def test_a_failure_kills_the_children_still_working(monkeypatch, failing):
    """With three workers, item ``failing`` raises while child 2 would sleep
    for a minute: the call raises at once and leaves no child behind."""
    force_workers(monkeypatch, 3)

    def fn(i):
        if i == failing:
            raise ValueError(f"item {i} failed")
        if i == 2:
            time.sleep(60)
        return i

    start = time.monotonic()
    with pytest.raises(ValueError, match=f"item {failing} failed"):
        _fork_map(fn, 3)
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("name, overrides", [
    ("bms-select", {"kind": "feature_dimension", "n_estimator_seeds": 2, "k_values": (2,), "ls_samples": 2}),
    ("bms-select", {"kind": "rff_frequency", "n_estimator_seeds": 3, "k_values": (1, 2), "ls_samples": 2}),
    ("misa-robustness", {"n_seeds": 7, "n_steps": 60, "do_values": (0.0, 2.0)}),
    ("four-rooms-features", {"m_heads": (1, 20, 200), "t_end": 2.0}),
], ids=["feature_dimension", "rff_frequency", "misa-robustness", "four-rooms-features"])
def test_runners_write_the_serial_bytes_with_forked_workers(monkeypatch, tmp_path, name, overrides):
    """rff_frequency's feature maps are closures: a forked worker inherits them."""
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    outputs = {}
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        out = tmp_path / str(workers)
        run_experiment(name, overrides, out, seed=3)
        outputs[workers] = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert len(forks) == 1  # W = 1 forked nothing, W = 2 one child
    assert outputs[1] == outputs[2] and outputs[1]
    if name == "bms-select":  # the workers' stacking draws reach the parent's fit
        assert any(file.endswith("stacking_weights.csv") for file in outputs[2])


def test_a_forked_heads_divergence_is_raised_as_itself(monkeypatch, tmp_path, capsys):
    """At alpha 50 only the M = 1 head diverges.  With two workers it runs in
    the child, which exits 1; the parent recomputes that head and raises the
    serial run's ``DivergenceDetected``, partial trajectory included; the CLI
    exits 3 and names it."""
    overrides = {"m_heads": (200, 1), "alpha": 50.0, "t_end": 2.0}
    raised = {}
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        with pytest.raises(DivergenceDetected) as raised[workers]:
            run_experiment("four-rooms-features", overrides, tmp_path / str(workers), seed=0)
    serial, forked = raised[1].value, raised[2].value
    assert str(forked) == str(serial) and (forked.time, forked.sup_norm) == (serial.time, serial.sup_norm)
    assert forked.trajectory.times.tobytes() == serial.trajectory.times.tobytes()
    cfg = tmp_path / "diverging.ini"
    cfg.write_text("[four-rooms-features]\nm_heads = 200, 1\nalpha = 50\nt_end = 2\n")
    assert main(["run", "four-rooms-features", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 3
    assert f"DivergenceDetected: {serial}" in capsys.readouterr().err


_FORK_AFTER_BLAS_THREADS = """
import os, sys
from tdlab.experiments import run_experiment
overrides = {"n_estimator_seeds": 2, "k_values": (2,), "ls_samples": 2}
print(len(os.listdir("/proc/self/task")))  # OpenBLAS starts its threads when numpy loads
os.sched_getaffinity = lambda pid: {0, 1}
run_experiment("four-rooms-features", {"t_end": 2.0}, sys.argv[1] + "/four-rooms", 0)
run_experiment("bms-select", overrides, sys.argv[1] + "/forked", 0)
os.sched_getaffinity = lambda pid: {0}
run_experiment("bms-select", overrides, sys.argv[1] + "/serial", 0)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "multiprocessing"))
"""


@pytest.fixture(scope="module")
def forked_runs_after_blas_threads(tmp_path_factory):
    """One interpreter, with the BLAS thread count unset, runs four-rooms
    forked and bms-select forked and serially; returns its thread count
    before the forks, the ``multiprocessing`` modules it loaded and its
    output directory."""
    out = tmp_path_factory.mktemp("forked_runs")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_BLAS_THREADS, str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the forked worker too
        proc.communicate()
        pytest.fail("the forked runs did not finish within 120 s")
    assert proc.returncode == 0, stderr[-2000:]
    threads, multiprocessing_modules = stdout.splitlines()
    return int(threads), multiprocessing_modules, out


def test_forked_runs_leave_multiprocessing_unloaded(forked_runs_after_blas_threads):
    """``_fork_map`` forks with ``os.fork`` and a pipe: importing
    ``multiprocessing`` would add ~0.8 MB to a forked run's peak RSS."""
    _, multiprocessing_modules, _ = forked_runs_after_blas_threads
    assert multiprocessing_modules == "[]"


def test_bms_select_forks_safely_after_openblas_started_its_threads(forked_runs_after_blas_threads):
    """With the BLAS thread count unset, the process that forks already runs
    OpenBLAS's threads; the forked run finishes and writes the serial bytes."""
    threads, _, out = forked_runs_after_blas_threads
    if threads < 2:
        pytest.skip("the BLAS started no threads before the fork")
    forked, serial = (sorted((out / run).glob("*.csv")) for run in ("forked", "serial"))
    assert [path.name for path in forked] == [path.name for path in serial] != []
    assert [path.read_bytes() for path in forked] == [path.read_bytes() for path in serial]
