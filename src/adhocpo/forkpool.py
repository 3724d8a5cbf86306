"""Independent jobs in forked worker processes, results in job order.

`forked_map` runs `function(*job)` for every job and hands the results
back in job order.  It uses min(len(jobs), usable CPUs) workers; with one
job or one usable CPU it runs the jobs in this process and starts no
process at all.  The library solve (`solvers.solve_many`) and an
experiment's trials (`harness.run_experiment`) both go through it.

The function reaches the workers through the fork, as the pool
initializer's argument, so it is never pickled: it may be a closure over
the caller's very objects (a model library, agents made here), and the
workers read those from the memory they were forked with.  Only the job
arguments, the results and any exception cross a pipe, pickled, so a
job's exception must survive a pickle round trip.  Each worker
limits OpenBLAS to one thread, so two workers do not contend for the same
cores.
"""
from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

# The function of the forked_map call whose pool forked this process.
_forked_function: Optional[Callable] = None


def _pool_worker(function: Callable) -> None:
    """Pool initializer: keep the function the fork handed over, and use one BLAS thread."""
    global _forked_function
    _forked_function = function
    _one_blas_thread()


def _call(job: tuple):
    return _forked_function(*job)


def _one_blas_thread() -> None:
    """Limit every OpenBLAS loaded in this process to one thread.

    The library is already loaded when a worker is forked, so the thread
    variables in the environment have no effect; the setter is called
    through ctypes instead.  A process without OpenBLAS is left as it is.
    """
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            if hasattr(lib, symbol):
                setter = getattr(lib, symbol)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


@contextlib.contextmanager
def forked_map(function: Callable, jobs: Sequence[tuple]) -> Iterator[Iterator]:
    """Context yielding an iterator over function(*job) for each job, in job order.

    Results are produced lazily, so the caller can act on each one (store
    it, report it) as it arrives.  A job's exception is raised when its
    result is reached.  Leaving the block joins every worker; after an
    error or an interrupt, the jobs not yet started are dropped rather
    than run.
    """
    # os.sched_getaffinity exists only on Linux; elsewhere every job runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers <= 1:
        yield (function(*job) for job in jobs)
        return
    # fork, not spawn or forkserver: those leave a resource tracker or a
    # fork server process running after the pool has shut down, and would
    # pickle the function.  The pool forks all its workers before it
    # starts any thread of its own.
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_pool_worker,
        initargs=(function,),
    )
    try:
        futures = [pool.submit(_call, job) for job in jobs]
        yield (future.result() for future in futures)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
