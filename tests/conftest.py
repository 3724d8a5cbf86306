"""Shared helpers: random model generators and exhaustive-filter oracles."""
import itertools

import numpy as np
import pytest

from adhocpo.pomdp import TabularPomdp


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
    return TabularPomdp.from_tables(
        transition, observation, reward, discount, b0, label=label
    )


def exhaustive_filter(model, history):
    """Posterior over the final state by summing over every state sequence.

    Independent of the incremental filter: per-element float loops over
    itertools.product, no matrix algebra.  Returns (belief, total mass),
    where the mass is P(observations | actions).  Only usable for tiny
    models and short histories.
    """
    n = model.num_states
    t = len(history)
    mass = [0.0] * n
    for seq in itertools.product(range(n), repeat=t + 1):
        p = float(model.initial_belief[seq[0]])
        for i, (a, z) in enumerate(history):
            p *= float(model.dense_transition(a)[seq[i], seq[i + 1]])
            p *= float(model.dense_observation(a)[seq[i + 1], z])
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
