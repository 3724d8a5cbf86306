"""Open-grid rendezvous: two agents must jointly cover a pair of goal cells.

The state is the ordered pair of agent positions on an open size x size
grid (co-location allowed) plus one absorbing state.  The candidate models
differ in which unordered goal pair {g1, g2} is the task: the teammate
walks a deterministic shortest path to whichever goal is closest to it,
so each task induces different teammate motion.  The episode completes
when the two agents stand on the two goals in either assignment; the
completing state pays +100 and falls into the absorbing state, every other
live state costs 1 per step.

The controlled agent's moves fail (no-op) with the domain noise rate; the
teammate's never do.  Observations come from the shared four-way proximity
sensor; the absorbing state reads all-Nothing deterministically.

The teammate's step is worked out once per cell and task
(`teammate_step`); each task's transition entries and completion rewards
are then laid out with array operations over all (agent, teammate)
states at once, each row's entries in the order a state-by-state loop
would list them.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from adhocpo.domains import gridcommon as gc
from adhocpo.pomdp import TabularPomdp

STEP_REWARD = -1.0
COMPLETION_REWARD = 100.0
NUM_ACTIONS = 5


def canonical_tasks(size: int) -> list:
    """All unordered goal pairs, farthest apart first, then lexicographic.

    A library of K tasks takes the first K entries, so smaller libraries
    are prefixes of larger ones.
    """
    cells = list(range(size * size))
    pairs = []
    for g1, g2 in itertools.combinations(cells, 2):
        d = gc.manhattan(divmod(g1, size), divmod(g2, size))
        pairs.append((-d, g1, g2))
    pairs.sort()
    return [(g1, g2) for _, g1, g2 in pairs]


def _clip_move(cell: int, action: int, size: int) -> int:
    r, c = divmod(cell, size)
    dr, dc = gc.MOVES[action]
    r2, c2 = r + dr, c + dc
    if 0 <= r2 < size and 0 <= c2 < size:
        return r2 * size + c2
    return cell


def teammate_step(cell: int, goals: tuple, size: int) -> int:
    """One deterministic shortest-path step toward the nearest goal.

    Nearest by Manhattan distance with the lower goal id on ties; among
    distance-reducing moves the first in Up, Down, Left, Right order wins.
    """
    here = divmod(cell, size)
    target = min(goals, key=lambda g: (gc.manhattan(here, divmod(g, size)), g))
    if cell == target:
        return cell
    base = gc.manhattan(here, divmod(target, size))
    for action in gc.MOVE_ORDER:
        nxt = _clip_move(cell, action, size)
        if gc.manhattan(divmod(nxt, size), divmod(target, size)) < base:
            return nxt
    return cell  # pragma: no cover - a reducing move always exists


def _completed(pa, pt, goals: tuple):
    """Whether the agents stand on the two goals; cells may be ints or arrays."""
    g1, g2 = goals
    return ((pa == g1) & (pt == g2)) | ((pa == g2) & (pt == g1))


def build_gridworld(size: int, tasks: int, epsilon: float, discount: float) -> list:
    """One model per goal pair from the canonical task enumeration."""
    cells = size * size
    num_states = cells * cells + 1
    absorbing = num_states - 1
    goal_pairs = canonical_tasks(size)[:tasks]
    if len(goal_pairs) < tasks:
        raise ValueError(f"grid of size {size} supports {len(goal_pairs)} tasks")

    def passable(r, c):
        return 0 <= r < size and 0 <= c < size

    # Every non-absorbing state as its (agent, teammate) cells, in state
    # order: state pa * cells + pt.
    pa = np.repeat(np.arange(cells), cells)
    pt = np.tile(np.arange(cells), cells)

    # The sensor only depends on the landing state, so one observation
    # table serves every action and every task.
    obs = np.zeros((num_states, gc.NUM_OBSERVATIONS))
    for x, (a_cell, t_cell) in enumerate(zip(pa.tolist(), pt.tolist())):
        symbols = gc.sensor_symbols(divmod(a_cell, size), divmod(t_cell, size), passable)
        obs[x] = gc.noisy_observation_row(symbols, epsilon)
    obs[absorbing, gc.BLANK_OBSERVATION] = 1.0

    b0 = np.zeros(num_states)
    b0[:absorbing] = 1.0 / absorbing

    agent_moves = np.array(
        [[_clip_move(cell, a, size) for a in range(NUM_ACTIONS)] for cell in range(cells)]
    )
    models = []
    for goals in goal_pairs:
        done = _completed(pa, pt, goals)
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        la = pa[live]
        teammate = np.array([teammate_step(cell, goals, size) for cell in range(cells)])[pt[live]]
        held = la * cells + teammate
        reward = np.full((num_states, NUM_ACTIONS), STEP_REWARD)
        reward[absorbing] = 0.0
        reward[finished] = COMPLETION_REWARD
        # A finished task moves to the absorbing state, which stays put.
        fixed_rows = np.append(finished, absorbing)
        per_action = []
        for a in range(NUM_ACTIONS):
            agent = agent_moves[la, a]
            moves = agent != la
            # A row lists its move entry, then the failure entry if the move
            # leaves the cell; an epsilon of 0 or 1 leaves an explicit zero.
            rows = np.concatenate([fixed_rows, live, live[moves]])
            cols = np.concatenate(
                [np.full(len(fixed_rows), absorbing), agent * cells + teammate, held[moves]]
            )
            vals = np.concatenate([
                np.ones(len(fixed_rows)),
                np.where(moves, 1.0 - epsilon, 1.0),
                np.full(np.count_nonzero(moves), epsilon),
            ])
            per_action.append(
                sparse.coo_array((vals, (rows, cols)), shape=(num_states, num_states))
            )
        models.append(
            TabularPomdp.from_tables(
                per_action,
                [obs] * NUM_ACTIONS,
                reward,
                discount,
                b0,
                label=f"gridworld{size}x{size} goals {goals[0]}+{goals[1]}",
            )
        )

    return models
