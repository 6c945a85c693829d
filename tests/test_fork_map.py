"""``experiments._fork_map`` splits bms-select's models, misa-robustness's
seeds and four-rooms-features' heads over forked workers: the same list as
the serial loop, the same CSV bytes, a child's failure raised in the parent,
and no child left running or unreaped."""

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


@pytest.mark.parametrize("error", [
    ValueError("model 3: covariance is not positive semidefinite"),
    FloatingPointError("gd diverged at step 7: loss inf"),
    DivergenceDetected(0.31, 1.377e8),
    NonRealSpectrum("eigenvalue 2 has imaginary part 0.5"),
    np.linalg.LinAlgError("Singular matrix"),
])
def test_a_childs_exception_is_raised_in_the_parent_as_itself(monkeypatch, error):
    """The numerical errors a runner lets through (``NUMERICAL_ERRORS``) among them."""
    force_workers(monkeypatch, 2)

    def fn(i):
        if i == 3:  # child 1's share
            raise error
        return i

    with pytest.raises(type(error)) as raised:
        _fork_map(fn, 5)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert raised.value is not error  # it came back through the pipe


def test_a_child_that_exits_without_a_result_raises_promptly(monkeypatch):
    force_workers(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="forked worker 1 of 2 exited with code 1 and no result"):
        _fork_map(lambda i: os._exit(1) if i == 1 else i, 4)
    assert time.monotonic() - start < 10


def test_a_result_that_cannot_be_pickled_fails_promptly(monkeypatch):
    """The child pickles its whole share before it writes: an unpicklable
    result comes back as the pickling error, not as a truncated stream.
    This process's own share is not pickled."""
    force_workers(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(TypeError, match="cannot pickle 'generator' object"):
        _fork_map(lambda i: (j for j in range(i)), 2)
    assert time.monotonic() - start < 10


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
    the child, and its ``DivergenceDetected`` comes back as the serial run's,
    partial trajectory included; the CLI exits 3 and names it."""
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


_FORKED_RUNS = """
import os, sys
from tdlab.experiments import run_experiment
os.sched_getaffinity = lambda pid: {0, 1}
run_experiment("four-rooms-features", {"t_end": 2.0}, sys.argv[1] + "/four-rooms", 0)
run_experiment("bms-select", {"n_estimator_seeds": 2, "k_values": (2,), "ls_samples": 2}, sys.argv[1] + "/bms", 0)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "multiprocessing"))
"""


def test_forked_runs_leave_multiprocessing_unloaded(tmp_path):
    """``_fork_map`` forks with ``os.fork`` and a pipe: importing
    ``multiprocessing`` would add ~0.8 MB to a forked run's peak RSS."""
    proc = subprocess.run([sys.executable, "-c", _FORKED_RUNS, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]"]


_FORK_AFTER_BLAS_THREADS = """
import os, sys
from tdlab.experiments import run_experiment
overrides = {"n_estimator_seeds": 2, "k_values": (2,), "ls_samples": 2}
print(len(os.listdir("/proc/self/task")))  # OpenBLAS starts its threads when numpy loads
os.sched_getaffinity = lambda pid: {0, 1}
run_experiment("bms-select", overrides, sys.argv[1] + "/forked", 0)
os.sched_getaffinity = lambda pid: {0}
run_experiment("bms-select", overrides, sys.argv[1] + "/serial", 0)
"""


def test_bms_select_forks_safely_after_openblas_started_its_threads(tmp_path):
    """With the BLAS thread count unset, the process that forks already runs
    OpenBLAS's threads; the forked run finishes and writes the serial bytes."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_BLAS_THREADS, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the forked worker too
        proc.communicate()
        pytest.fail("bms-select did not finish within 120 s of forking")
    assert proc.returncode == 0, stderr[-2000:]
    if int(stdout.split()[0]) < 2:
        pytest.skip("the BLAS started no threads before the fork")
    forked, serial = (sorted((tmp_path / run).glob("*.csv")) for run in ("forked", "serial"))
    assert [path.name for path in forked] == [path.name for path in serial] != []
    assert [path.read_bytes() for path in forked] == [path.read_bytes() for path in serial]
