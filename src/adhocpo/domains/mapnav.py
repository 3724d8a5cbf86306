"""Walled-map rendezvous: the open-grid task on real floor plans.

The plan, the task enumeration, the teammate's walk, the agent's moves and
the sensor are the gridworld's (`gridcommon`), with shortest paths on the
free cells in place of Manhattan distances.  What is the maps' own is the
state space and the joint-move rule.  States are ordered pairs of distinct
free cells (the two agents cannot share a cell) plus one absorbing state,
so a map with F free cells has F * (F - 1) + 1 states.  Moves resolve
jointly: two agents heading for the same cell, or trying to swap, both stay
put.  Each task's live transition entries are laid out with array
operations over all (agent, teammate) states at once; rewards, the
absorbing state and the start belief are `gridcommon.task_model`'s.

Maps are plain text, '#' for wall and '.' for free, shipped next to this
module.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from adhocpo.domains import gridcommon as gc

MAPS_DIR = Path(__file__).parent / "maps"


def load_map(name: str) -> gc.GridMap:
    path = MAPS_DIR / f"{name}.map"
    if not path.exists():
        known = sorted(p.stem for p in MAPS_DIR.glob("*.map"))
        raise ValueError(f"unknown map {name!r}; available: {', '.join(known)}")
    return gc.GridMap(path.read_text())


def build_map_navigation(map_name: str, tasks: int, epsilon: float, discount: float) -> tuple:
    """One model per goal pair of the canonical task enumeration; returns (map_name, models)."""
    grid = load_map(map_name)
    f = grid.num_free
    goal_pairs = gc.canonical_tasks(grid)[:tasks]
    if len(goal_pairs) < tasks:
        raise gc.TooFewTasks(f"map {map_name!r} supports {len(goal_pairs)} tasks")

    # Every non-absorbing state as its (agent, teammate) cells, in state order;
    # state pa * (f - 1) + pt - (pt > pa) skips the pairs with pa == pt.
    pa = np.repeat(np.arange(f), f - 1)
    pt = np.tile(np.arange(f - 1), f)
    pt += pt >= pa

    obs = gc.sensor_table(grid, pa, pt, epsilon)
    b0 = gc.uniform_start(f * (f - 1) + 1)

    branches = [(p, move) for p, move in ((1.0 - epsilon, True), (epsilon, False)) if p > 0.0]
    models = []
    for goals in goal_pairs:
        done = gc.on_goals(pa, pt, goals)
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        la, lt = pa[live], pt[live]
        teammate = gc.teammate_steps(grid, goals)[lt]

        def live_entries(a):
            cols, vals = [], []
            for p, move in branches:
                agent = grid.moves[la, a] if move else la
                # Same target or a swap leaves both agents in place.
                stay = (agent == teammate) | ((agent == lt) & (teammate == la))
                moved = agent * (f - 1) + teammate - (teammate > agent)
                cols.append(np.where(stay, live, moved))
                vals.append(np.full(len(live), p))
            return [live] * len(branches), cols, vals

        g_cells = tuple(grid.free_cells[g] for g in goals)
        label = f"map {map_name} goals {g_cells[0]}+{g_cells[1]}"
        models.append(gc.task_model(finished, live_entries, obs, b0, discount, label))
        obs = models[-1].observation[0]

    return map_name, models
