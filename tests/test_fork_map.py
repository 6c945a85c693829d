"""``experiments._fork_map`` splits bms-select's models and misa-robustness's
seeds over forked workers: the same list as the serial loop, the same CSV
bytes, a child's failure raised in the parent, and no child left running."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tdlab.experiments import _fork_map, run_experiment

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="_fork_map forks only on Linux")


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    assert multiprocessing.active_children() == []


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
])
def test_a_childs_exception_is_raised_in_the_parent_as_itself(monkeypatch, error):
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
], ids=["feature_dimension", "rff_frequency", "misa-robustness"])
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
