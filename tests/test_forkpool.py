"""The fork pool: results in job order, errors at their result, a bounded
window of jobs, every worker reaped on every exit, one BLAS thread per worker."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import adhocpo
from adhocpo import forkpool

from conftest import child_process_left


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two usable CPUs, so every map of two or more jobs starts a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_come_in_job_order_from_the_workers():
    with forkpool.forked_map(lambda i: (i, os.getpid()), [(i,) for i in range(40)]) as results:
        got = list(results)
    assert [i for i, _ in got] == list(range(40))
    assert os.getpid() not in {pid for _, pid in got}
    assert not child_process_left()


def test_a_failing_job_raises_at_its_result_and_drops_the_jobs_not_submitted(tmp_path):
    log = tmp_path / "ran.log"

    def job(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        if i == 3:
            raise ValueError(f"job {i} failed")
        return i

    seen = []
    with pytest.raises(ValueError, match="job 3 failed"):
        with forkpool.forked_map(job, [(i,) for i in range(200)]) as results:
            for result in results:
                seen.append(result)
    assert seen == [0, 1, 2]
    assert not child_process_left()
    # Reading results 0-2 submitted one job each beyond the first window.
    assert len(log.read_text().split()) <= 2 * forkpool._AHEAD_PER_WORKER + 3


def test_a_long_map_peaks_no_higher_than_a_short_one():
    def peak(n):
        jobs = [(i,) for i in range(n)]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with forkpool.forked_map(lambda i: i, jobs) as results:
            for _ in results:
                pass
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(90)  # the first pool's one-off allocations
        # The least of three runs, since transient allocations vary a few KB.
        short = min(peak(90) for _ in range(3))
        long = min(peak(900) for _ in range(3))
    finally:
        tracemalloc.stop()
    assert not child_process_left()
    assert long <= short + 8 * 1024, (short, long)


def test_a_worker_that_dies_raises_its_exit_status():
    def job(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="exited with status 3"):
        with forkpool.forked_map(job, [(i,) for i in range(4)]) as results:
            list(results)
    assert not child_process_left()


def test_leaving_the_loop_early_leaves_no_process():
    # Results larger than a pipe holds, so a worker left alive would block
    # on its pipe for good rather than exit.
    def job(i):
        return i, bytes(256 * 1024)

    jobs = [(i,) for i in range(50)]
    with pytest.raises(KeyError):
        with forkpool.forked_map(job, jobs) as results:
            for i, _ in results:
                if i == 5:
                    raise KeyError(i)
    assert not child_process_left()
    with forkpool.forked_map(job, jobs) as results:
        for i, _ in results:
            if i == 5:
                break
    assert i == 5
    assert not child_process_left()


def test_an_exception_that_cannot_be_pickled_arrives_with_its_repr():
    class LocalError(Exception):  # a class pickle cannot find by name
        pass

    def job(i):
        if i == 2:
            raise LocalError(f"job {i} failed")
        return i

    seen = []
    with pytest.raises(RuntimeError, match="could not be sent back") as caught:
        with forkpool.forked_map(job, [(i,) for i in range(4)]) as results:
            for result in results:
                seen.append(result)
    assert seen == [0, 1]
    assert "LocalError('job 2 failed')" in str(caught.value)
    assert not child_process_left()


def test_a_large_array_result_arrives_intact():
    def job(i):
        return np.arange(512 * 1024, dtype=np.float64) + i  # 4 MB

    with forkpool.forked_map(job, [(i,) for i in range(3)]) as results:
        got = list(results)
    for i, array in enumerate(got):
        assert np.array_equal(array, np.arange(512 * 1024, dtype=np.float64) + i)
    assert not child_process_left()


def test_workers_run_one_blas_thread_and_the_count_is_restored():
    # Setting the count inside a worker would start an OpenBLAS thread
    # there, so the workers would read 2 tasks.
    calls = forkpool._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS is loaded")
    before = [get() for get, _ in calls]
    for _, put in calls:
        put(2)
    a, b = np.ones((15, 186)), np.ones((186, 81))
    try:
        def job(i):
            a @ b
            return len(os.listdir("/proc/self/task"))

        with forkpool.forked_map(job, [(0,), (1,)]) as results:
            assert list(results) == [1, 1]
        assert [get() for get, _ in calls] == [2] * len(calls)
    finally:
        for (_, put), count in zip(calls, before):
            put(count)
    assert not child_process_left()


def test_the_pool_and_an_isr_build_load_no_multiprocessing_or_numpy_ma():
    # The pool forks with os.fork and pipes, so a solve and an experiment
    # on two CPUs load neither multiprocessing nor concurrent.futures, and
    # a full-scale map build and digest leave numpy.ma (1.2 MB) unloaded.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(adhocpo.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    script = """
import os
import sys
os.sched_getaffinity = lambda pid: {0, 1}
import adhocpo.harness as harness
from adhocpo import modelio
from adhocpo.domains import build

grid = build("gridworld", size=3, tasks=2, belief_set_size=20, horizon=10)
library = harness.prepare_library(grid)
result = harness.run_experiment(library, ["atpo", "random"], horizon=5, trials=2)
assert [len(s.trials) for s in result.agents.values()] == [2, 2]
isr = build("isr")
assert len(modelio.model_digest(isr.models[0])) > 0
names = ("multiprocessing", "concurrent.futures", "numpy.ma")
print(sorted(m for m in sys.modules for n in names if m == n or m.startswith(n + ".")))
"""
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", f"loaded: {run.stdout.strip()}"
