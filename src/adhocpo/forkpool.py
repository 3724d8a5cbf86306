"""Independent jobs in forked worker processes, results in job order.

`forked_map` runs `function(*job)` for every job and hands the results
back in job order.  It uses min(len(jobs), usable CPUs) workers; with one
job or one usable CPU it runs the jobs in this process and starts no
process at all.  The library solve (`solvers.solve_many`) and an
experiment's trials (`harness.run_experiment`) both go through it.

The workers are started with `os.fork`, with no executor and no thread
in this process.  The function and the jobs reach them through the fork,
so neither is ever pickled: the function may be a closure over the
caller's very objects (a model library, agents made here), and the
workers read those from the memory they were forked with.  Only job
indices go down the one job pipe that every worker reads from, so a free
worker takes the next job.  Each result, or the job's exception, comes
back pickled and length-prefixed on the worker's own result pipe, so a
job's exception must survive a pickle round trip; one that does not
arrives as a RuntimeError carrying its repr.

Leaving the block closes the job pipe, so idle workers exit, and reaps
every worker.  After an error, an interrupt, a result left unread or a
worker that died (a RuntimeError naming its exit status), the workers are
killed first.  A worker leaves through `os._exit`, so it never runs the
caller's cleanup code.

OpenBLAS is set to one thread in this process just before the fork and
set back after the join, so each worker runs one BLAS thread and two
workers do not contend for the same cores.  Setting it inside a worker
instead would start an OpenBLAS server thread there.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import select
import signal
import sys
import traceback
from typing import Callable, Iterator, Sequence

# Jobs kept submitted per worker ahead of the result being read: enough
# that a slow job at the head rarely idles the other workers, few enough
# that a long map holds no result per job.  On a 2-core Xeon, experiments
# of the benchmark's libraries took as long with 8 as with every job
# submitted at once, and up to 6% longer with 2.
_AHEAD_PER_WORKER = 8

# A job index or a message length on a pipe: 8 bytes, written at once, so
# a write is atomic and two workers never split one index.
_WORD = 8


def _openblas_functions(first: str, second: str) -> list[tuple]:
    """The functions `first` and `second` of every loaded OpenBLAS that exports both,
    by the first of the names `{prefix}_{name}{suffix}` its build uses.  Empty when
    /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    spellings = [(f"{p}_{first}{s}", f"{p}_{second}{s}") for p in ("scipy_openblas", "openblas")
                 for s in ("64_", "")]
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        names = next((pair for pair in spellings if all(hasattr(lib, n) for n in pair)), None)
        if names is not None:
            found.append(tuple(getattr(lib, name) for name in names))
    return found


def _openblas_thread_calls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of every OpenBLAS loaded in this process.

    The library is already loaded, so the thread variables in the
    environment have no effect; its own calls are made through ctypes.
    """
    calls = _openblas_functions("get_num_threads", "set_num_threads")
    for get, put in calls:
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
    return calls


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on one thread, then restore its count."""
    calls = _openblas_thread_calls()
    counts = [get() for get, _ in calls]
    for _, put in calls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(calls, counts):
            put(count)


@contextlib.contextmanager
def forked_map(function: Callable, jobs: Sequence[tuple]) -> Iterator[Iterator]:
    """Context yielding an iterator over function(*job) for each job, in job order.

    Results are produced lazily, so the caller can act on each one (store
    it, report it) as it arrives; only a few jobs per worker are
    submitted ahead of the result being read.  A job's exception is raised
    when its result is reached, a worker's death as soon as it is seen.
    Leaving the block reaps every worker; after an error or an interrupt,
    the jobs not yet started are dropped rather than run.
    """
    # os.sched_getaffinity exists only on Linux; elsewhere every job runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers <= 1:
        yield (function(*job) for job in jobs)
        return
    with _one_blas_thread():
        pool = _Pool(jobs)
        try:
            pool.start(function, workers)
            yield pool.results(_AHEAD_PER_WORKER * workers)
        finally:
            pool.close()


class _Pool:
    """Forked workers of one `forked_map` call, and the pipes to them."""

    def __init__(self, jobs: Sequence[tuple]):
        self.jobs = jobs
        self.job_pipe = -1  # write end of the job pipe, -1 once closed
        self.workers: dict[int, int] = {}  # result pipe read end -> pid, until reaped
        self.submitted = 0  # job indices written
        self.read = 0  # results handed to the caller

    def start(self, function: Callable, workers: int) -> None:
        _flush_std_streams()  # else each worker would write this process's buffered output again
        job_source, self.job_pipe = os.pipe()
        try:
            for _ in range(workers):
                source, sink = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(source)
                    os.close(sink)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        for fd in (self.job_pipe, source, *self.workers):
                            os.close(fd)
                        _serve(function, self.jobs, job_source, sink)
                        _flush_std_streams()
                        status = 0
                    finally:
                        os._exit(status)
                os.close(sink)
                self.workers[source] = pid
        finally:
            os.close(job_source)

    def results(self, ahead: int) -> Iterator:
        """The results in job order, with at most `ahead` jobs submitted and not yet read."""
        received: dict[int, tuple[bool, object]] = {}
        self._submit(ahead)
        for index in range(len(self.jobs)):
            while index not in received:
                self._receive(received)
            ok, value = received.pop(index)
            if not ok:
                raise value
            self._submit(1)
            self.read += 1
            yield value

    def _submit(self, count: int) -> None:
        """Write the next `count` job indices; close the job pipe after the last."""
        end = min(self.submitted + count, len(self.jobs))
        for index in range(self.submitted, end):
            os.write(self.job_pipe, index.to_bytes(_WORD, "little"))
        self.submitted = end
        if end == len(self.jobs):
            self._close_job_pipe()

    def _close_job_pipe(self) -> None:
        """Close the job pipe, so each worker exits once it finds it empty."""
        if self.job_pipe >= 0:
            os.close(self.job_pipe)
            self.job_pipe = -1

    def _receive(self, received: dict) -> None:
        """Wait for the next messages of any worker and add them to `received`."""
        if not self.workers:
            raise RuntimeError("every fork pool worker exited with jobs unfinished")
        ready, _, _ = select.select(list(self.workers), [], [])
        for fd in ready:
            header = _read(fd, _WORD)
            size = int.from_bytes(header, "little") if len(header) == _WORD else 0
            payload = _read(fd, size)
            if not size or len(payload) < size:  # the worker has exited
                self._reap(fd)
                continue
            index, ok, value = pickle.loads(payload)
            received[index] = (ok, value)

    def _reap(self, fd: int) -> None:
        """Reap the worker whose result pipe closed; a RuntimeError if it failed."""
        pid = self.workers.pop(fd)
        os.close(fd)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
            raise RuntimeError(f"a fork pool worker {how}")

    def close(self) -> None:
        """Close the job pipe and reap every worker, killing them unless every result was read."""
        self._close_job_pipe()
        if self.read < len(self.jobs):
            for pid in self.workers.values():
                os.kill(pid, signal.SIGKILL)
        for fd, pid in self.workers.items():
            os.waitpid(pid, 0)
            os.close(fd)
        self.workers.clear()


def _serve(function: Callable, jobs: Sequence[tuple], job_source: int, sink: int) -> None:
    """A worker's loop: run each job index read from the job pipe until it is closed."""
    while True:
        word = _read(job_source, _WORD)
        if not word:
            return
        index = int.from_bytes(word, "little")
        try:
            message = (index, True, function(*jobs[index]))
        except Exception as error:
            if hasattr(error, "add_note"):  # Python 3.11+
                error.add_note("In a fork pool worker:\n" + "".join(traceback.format_exception(error)))
            message = (index, False, error)
        _send(sink, message)


def _send(sink: int, message: tuple) -> None:
    """Write one message, length-prefixed, to a result pipe.

    An exception is checked to load back, since the caller would otherwise
    fail on it; one that does not, or a result that cannot be pickled,
    is sent as a RuntimeError carrying its repr.
    """
    index, ok, value = message
    try:
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        if not ok:
            pickle.loads(payload)
    except Exception as error:
        what = "result" if ok else "exception"
        failure = RuntimeError(f"job {index}'s {what} {value!r} could not be sent back: {error!r}")
        payload = pickle.dumps((index, False, failure), pickle.HIGHEST_PROTOCOL)
    _write(sink, len(payload).to_bytes(_WORD, "little"))
    _write(sink, payload)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytearray:
    """`size` bytes from a pipe, or fewer if its writer closed it first."""
    buffer = bytearray(size)
    got = 0
    with memoryview(buffer) as view:
        while got < size:
            count = os.readv(fd, [view[got:]])
            if count == 0:
                break
            got += count
    return buffer if got == size else buffer[:got]
