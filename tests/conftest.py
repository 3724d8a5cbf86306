"""Shared helpers: random model generators, table reads, a storage seam,
exhaustive-filter oracles, a child process guard, and the OpenBLAS kernel
named in the report header."""
import ctypes
import itertools
import os
from unittest import mock

import numpy as np
import pytest

from adhocpo import pomdp
from adhocpo.csr import CsrTable
from adhocpo.forkpool import _openblas_functions
from adhocpo.pomdp import TabularPomdp


def openblas_cores() -> list[tuple[str, str]]:
    """(config string, core name) of every loaded OpenBLAS that can name its kernel.

    A DYNAMIC_ARCH build picks its kernel by CPU, or as OPENBLAS_CORETYPE
    forces it, and float results can differ by kernel in the last bits.
    Empty where no such library is loaded or /proc/self/maps is missing.
    """
    found = []
    for config, core in _openblas_functions("get_config", "get_corename"):
        for call in (config, core):
            call.argtypes, call.restype = [], ctypes.c_char_p
        found.append((" ".join(config().decode().split()), core().decode()))
    return found


def _kernel_lines() -> list[str]:
    cores = openblas_cores()
    if not cores:
        return ["openblas: no loaded OpenBLAS names its kernel"]
    return [f"openblas: {text}; core {core}" for text, core in cores]


def pytest_report_header(config):
    """Name the BLAS kernel: bit-for-bit results hold for one kernel only."""
    return _kernel_lines()


def pytest_terminal_summary(terminalreporter, config):
    """-q hides the header, so a quiet run names the kernel at its end."""
    if config.get_verbosity() < 0:
        for line in _kernel_lines():
            terminalreporter.write_line(line)


def dense(table):
    """A stored table as a new dense array, never the stored object itself."""
    return table.toarray() if isinstance(table, CsrTable) else np.array(table)


def bits_equal(a, b) -> bool:
    """Whether two float arrays hold the same float64 bit patterns."""
    bits = [np.ascontiguousarray(x, dtype=np.float64).view(np.uint64) for x in (a, b)]
    return np.array_equal(*bits)


def is_csr(table) -> bool:
    """Whether a table is stored in the package's CSR form."""
    return isinstance(table, CsrTable)


def is_canonical(table: CsrTable) -> bool:
    """Whether a CSR table's column indices ascend strictly within each row."""
    return bool((np.diff(table.indices)[np.diff(table.rows) == 0] > 0).all())


def stored_as_given():
    """A block inside which models store their tables exactly as handed in.

    The storage rule would re-store a small CSR table dense, so a test
    that needs a CSR (or otherwise hand-made) twin of a model builds it
    here, and asserts the form the twin holds.  Shapes are still checked.
    """
    return mock.patch.object(pomdp, "_stored", lambda table, rows_repeat=False: table)


def random_stochastic(rng, rows, cols, zeros=0.0):
    """Random row-stochastic matrix; `zeros` is the fraction of entries cleared."""
    m = rng.random((rows, cols))
    if zeros:
        mask = rng.random((rows, cols)) < zeros
        # Never clear an entire row.
        mask[np.arange(rows), rng.integers(0, cols, size=rows)] = False
        m[mask] = 0.0
    return m / m.sum(axis=1, keepdims=True)


def random_pomdp(
    rng,
    num_states=4,
    num_actions=3,
    num_observations=3,
    discount=0.9,
    zeros=0.0,
    label="random",
):
    transition = [
        random_stochastic(rng, num_states, num_states, zeros) for _ in range(num_actions)
    ]
    observation = [
        random_stochastic(rng, num_states, num_observations, zeros)
        for _ in range(num_actions)
    ]
    reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    b0 = rng.random(num_states)
    b0 /= b0.sum()
    return TabularPomdp(transition, observation, reward, discount, b0, label=label)


def exhaustive_filter(model, history):
    """Posterior over the final state by summing over every state sequence.

    Independent of the incremental filter: per-element float loops over
    itertools.product, no matrix algebra.  Returns (belief, total mass),
    where the mass is P(observations | actions).  Only usable for tiny
    models and short histories.
    """
    n = model.num_states
    t = len(history)
    transition = [dense(t) for t in model.transition]
    observation = [dense(o) for o in model.observation]
    mass = [0.0] * n
    for seq in itertools.product(range(n), repeat=t + 1):
        p = float(model.initial_belief[seq[0]])
        for i, (a, z) in enumerate(history):
            p *= float(transition[a][seq[i], seq[i + 1]])
            p *= float(observation[a][seq[i + 1], z])
        mass[seq[-1]] += p
    total = sum(mass)
    if total == 0.0:
        return None, 0.0
    return np.array(mass) / total, total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_library():
    """A solved two-task 3x3 grid library shared across harness tests."""
    from adhocpo.domains import build
    from adhocpo.harness import prepare_library

    domain = build("gridworld", size=3, tasks=2, belief_set_size=300, horizon=30)
    return domain, prepare_library(domain)


def child_process_left() -> bool:
    """True when this process has a child still running or never waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_suite():
    """Fail the run if any process the tests started is still alive at the end."""
    yield
    if child_process_left():
        pytest.fail("a child process of the test run is still alive or was never joined")
