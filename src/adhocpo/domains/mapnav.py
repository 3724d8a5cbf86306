"""Walled-map rendezvous: the open-grid task on real floor plans.

States are ordered pairs of distinct free cells (the two agents cannot
share a cell) plus one absorbing state, so a map with F free cells has
F * (F - 1) + 1 states.  Tasks are goal-cell pairs as in the open grid,
but distances and the teammate's walk follow shortest paths on the free
graph.  Moves resolve jointly: two agents heading for the same cell, or
trying to swap, both stay put.

A map's shortest-path distances are searched once (`GridMap.distances`)
and serve both the task enumeration and the teammate's walk.  Each task's
transition entries and completion rewards are laid out with array
operations over all (agent, teammate) states at once.

Maps are plain text, '#' for wall and '.' for free, shipped next to this
module.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from pathlib import Path

import numpy as np
from scipy import sparse

from adhocpo.domains import gridcommon as gc
from adhocpo.pomdp import TabularPomdp

STEP_REWARD = -1.0
COMPLETION_REWARD = 100.0
NUM_ACTIONS = 5

MAPS_DIR = Path(__file__).parent / "maps"


class GridMap:
    """A parsed floor plan with free-cell indexing and path lookups."""

    def __init__(self, text: str, name: str = ""):
        self.name = name
        self.rows = [line for line in text.splitlines() if line.strip()]
        if not self.rows:
            raise ValueError("empty map")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("map rows must have equal length")
        self.height = len(self.rows)
        self.width = width
        self.free_cells = [
            (r, c)
            for r in range(self.height)
            for c in range(width)
            if self.rows[r][c] == "."
        ]
        self.index = {cell: i for i, cell in enumerate(self.free_cells)}

    @property
    def num_free(self) -> int:
        return len(self.free_cells)

    def passable(self, r: int, c: int) -> bool:
        return (
            0 <= r < self.height and 0 <= c < self.width and self.rows[r][c] == "."
        )

    def neighbors(self, cell):
        for d in gc.MOVE_ORDER:
            dr, dc = gc.MOVES[d]
            nxt = (cell[0] + dr, cell[1] + dc)
            if self.passable(*nxt):
                yield nxt

    @functools.cached_property
    def distances(self) -> list:
        """Path distances from each free cell, by cell id: {cell: steps}."""
        return [self.distances_from(cell) for cell in self.free_cells]

    def distances_from(self, target) -> dict:
        dist = {target: 0}
        queue = deque([target])
        while queue:
            cell = queue.popleft()
            for nxt in self.neighbors(cell):
                if nxt not in dist:
                    dist[nxt] = dist[cell] + 1
                    queue.append(nxt)
        return dist


def load_map(name: str) -> GridMap:
    path = MAPS_DIR / f"{name}.map"
    if not path.exists():
        known = sorted(p.stem for p in MAPS_DIR.glob("*.map"))
        raise ValueError(f"unknown map {name!r}; available: {', '.join(known)}")
    return GridMap(path.read_text(), name=name)


def canonical_tasks(grid: GridMap) -> list:
    """Goal pairs ordered by descending path distance, then cell ids."""
    pairs = []
    for i, j in itertools.combinations(range(grid.num_free), 2):
        d = grid.distances[i].get(grid.free_cells[j])
        if d is None:
            continue  # disconnected; never a task
        pairs.append((-d, i, j))
    pairs.sort()
    return [(i, j) for _, i, j in pairs]


def _teammate_step(grid: GridMap, cell_id: int, goals: tuple) -> int:
    """Deterministic path step toward the closer goal (lower id on ties)."""
    cell = grid.free_cells[cell_id]
    target = min(goals, key=lambda g: (grid.distances[g].get(cell, 10 ** 9), g))
    if cell_id == target:
        return cell_id
    dist = grid.distances[target]
    base = dist.get(cell, 10 ** 9)
    for d in gc.MOVE_ORDER:
        dr, dc = gc.MOVES[d]
        nxt = (cell[0] + dr, cell[1] + dc)
        if grid.passable(*nxt) and dist.get(nxt, 10 ** 9) < base:
            return grid.index[nxt]
    return cell_id  # disconnected from the goal: hold position


def build_map_navigation(map_name: str, tasks: int, epsilon: float, discount: float) -> tuple:
    """One model per goal pair of the canonical task enumeration; returns (map_name, models)."""
    grid = load_map(map_name)
    f = grid.num_free
    num_states = f * (f - 1) + 1
    absorbing = num_states - 1
    goal_pairs = canonical_tasks(grid)[:tasks]
    if len(goal_pairs) < tasks:
        raise ValueError(f"map {map_name!r} supports {len(goal_pairs)} tasks")

    # Every non-absorbing state as its (agent, teammate) cells, in state order;
    # state pa * (f - 1) + pt - (pt > pa) skips the pairs with pa == pt.
    pa = np.repeat(np.arange(f), f - 1)
    pt = np.tile(np.arange(f - 1), f)
    pt += pt >= pa

    obs = np.zeros((num_states, gc.NUM_OBSERVATIONS))
    for x, (a_cell, t_cell) in enumerate(zip(pa.tolist(), pt.tolist())):
        symbols = gc.sensor_symbols(
            grid.free_cells[a_cell], grid.free_cells[t_cell], grid.passable
        )
        obs[x] = gc.noisy_observation_row(symbols, epsilon)
    obs[absorbing, gc.BLANK_OBSERVATION] = 1.0

    b0 = np.zeros(num_states)
    b0[:absorbing] = 1.0 / absorbing

    agent_moves = np.empty((f, NUM_ACTIONS), dtype=int)
    for i, cell in enumerate(grid.free_cells):
        for a in range(NUM_ACTIONS):
            dr, dc = gc.MOVES[a]
            nxt = (cell[0] + dr, cell[1] + dc)
            agent_moves[i, a] = grid.index[nxt] if grid.passable(*nxt) else i

    branches = [(p, move) for p, move in ((1.0 - epsilon, True), (epsilon, False)) if p > 0.0]
    models = []
    for goals in goal_pairs:
        done = ((pa == goals[0]) & (pt == goals[1])) | ((pa == goals[1]) & (pt == goals[0]))
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        la, lt = pa[live], pt[live]
        teammate = np.array([_teammate_step(grid, i, goals) for i in range(f)])[lt]
        reward = np.full((num_states, NUM_ACTIONS), STEP_REWARD)
        reward[absorbing] = 0.0
        reward[finished] = COMPLETION_REWARD
        # A finished task moves to the absorbing state, which stays put.
        fixed_rows = np.append(finished, absorbing)
        per_action = []
        for a in range(NUM_ACTIONS):
            rows, cols = [fixed_rows], [np.full(len(fixed_rows), absorbing)]
            vals = [np.ones(len(fixed_rows))]
            for p, move in branches:
                agent = agent_moves[la, a] if move else la
                # Same target or a swap leaves both agents in place.
                stay = (agent == teammate) | ((agent == lt) & (teammate == la))
                rows.append(live)
                moved = agent * (f - 1) + teammate - (teammate > agent)
                cols.append(np.where(stay, live, moved))
                vals.append(np.full(len(live), p))
            per_action.append(sparse.coo_array(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(num_states, num_states),
            ))
        g_cells = tuple(grid.free_cells[g] for g in goals)
        models.append(
            TabularPomdp.from_tables(
                per_action,
                [obs] * NUM_ACTIONS,
                reward,
                discount,
                b0,
                label=f"map {map_name} goals {g_cells[0]}+{g_cells[1]}",
            )
        )

    return map_name, models
