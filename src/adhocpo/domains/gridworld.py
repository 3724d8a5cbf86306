"""Open-grid rendezvous: two agents must jointly cover a pair of goal cells.

The plan is a `GridMap` of size x size free cells, so the task enumeration,
the teammate's walk, the agent's moves and the sensor are the map domains'
(`gridcommon`), with path distances that equal Manhattan distances here.
What is the gridworld's own is the state space: the ordered pair of agent
positions with co-location allowed (state pa * cells + pt) plus one
absorbing state.  The candidate models differ in which unordered goal pair
{g1, g2} is the task: the teammate walks a deterministic shortest path to
whichever goal is closest to it, so each task induces different teammate
motion.  The episode completes when the two agents stand on the two goals
in either assignment; rewards, the absorbing state and the start belief
are the task skeleton of `gridcommon.task_model`.

The controlled agent's moves fail (no-op) with the domain noise rate; the
teammate's never do, and the two move independently.  The absorbing state
reads all-Nothing deterministically.  Each task's live transition entries
are laid out with array operations over all (agent, teammate) states at
once, each row's entries in the order a state-by-state loop would list
them.
"""
from __future__ import annotations

import numpy as np

from adhocpo.domains import gridcommon as gc


def build_gridworld(size: int, tasks: int, epsilon: float, discount: float) -> list:
    """One model per goal pair from the canonical task enumeration."""
    grid = gc.GridMap("\n".join(["." * size] * size))
    cells = size * size
    goal_pairs = gc.canonical_tasks(grid)[:tasks]
    if len(goal_pairs) < tasks:
        raise gc.TooFewTasks(f"grid of size {size} supports {len(goal_pairs)} tasks")

    # Every non-absorbing state as its (agent, teammate) cells, in state
    # order: state pa * cells + pt.
    pa = np.repeat(np.arange(cells), cells)
    pt = np.tile(np.arange(cells), cells)

    # The sensor only depends on the landing state, so one observation
    # table serves every action and every task.
    obs = gc.sensor_table(grid, pa, pt, epsilon)
    b0 = gc.uniform_start(cells * cells + 1)

    models = []
    for goals in goal_pairs:
        done = gc.on_goals(pa, pt, goals)
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        la = pa[live]
        teammate = gc.teammate_steps(grid, goals)[pt[live]]
        held = la * cells + teammate

        def live_entries(a):
            # A row lists its move entry, then the failure entry if the move
            # leaves the cell; an epsilon of 0 or 1 leaves an explicit zero.
            agent = grid.moves[la, a]
            moves = agent != la
            return (
                [live, live[moves]],
                [agent * cells + teammate, held[moves]],
                [np.where(moves, 1.0 - epsilon, 1.0), np.full(np.count_nonzero(moves), epsilon)],
            )

        label = f"gridworld{size}x{size} goals {goals[0]}+{goals[1]}"
        models.append(gc.task_model(finished, live_entries, [obs] * gc.NUM_ACTIONS, b0, discount, label))
        obs = models[-1].observation[0]

    return models
