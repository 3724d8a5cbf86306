"""The fork pool: results in job order, errors at their result, a bounded window of jobs."""
import os
import tracemalloc

import pytest

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
        # The least of three runs, since the pool's threads add a few
        # transient KB at varying moments.
        short = min(peak(90) for _ in range(3))
        long = min(peak(900) for _ in range(3))
    finally:
        tracemalloc.stop()
    assert not child_process_left()
    assert long <= short + 8 * 1024, (short, long)
