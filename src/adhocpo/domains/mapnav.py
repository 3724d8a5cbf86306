"""Walled-map rendezvous: the open-grid task on real floor plans.

States are ordered pairs of distinct free cells (the two agents cannot
share a cell) plus one absorbing state, so a map with F free cells has
F * (F - 1) + 1 states.  Tasks are goal-cell pairs as in the open grid,
but distances and the teammate's walk follow shortest paths on the free
graph.  Moves resolve jointly: two agents heading for the same cell, or
trying to swap, both stay put.

Maps are plain text, '#' for wall and '.' for free, shipped next to this
module.
"""
from __future__ import annotations

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
    dist_maps = {i: grid.distances_from(cell) for i, cell in enumerate(grid.free_cells)}
    pairs = []
    for i, j in itertools.combinations(range(grid.num_free), 2):
        d = dist_maps[i].get(grid.free_cells[j])
        if d is None:
            continue  # disconnected; never a task
        pairs.append((-d, i, j))
    pairs.sort()
    return [(i, j) for _, i, j in pairs]


def _teammate_step(grid: GridMap, cell_id: int, goals: tuple, dist_maps: dict) -> int:
    """Deterministic path step toward the closer goal (lower id on ties)."""
    cell = grid.free_cells[cell_id]
    target = min(goals, key=lambda g: (dist_maps[g].get(cell, 10 ** 9), g))
    if cell_id == target:
        return cell_id
    dist = dist_maps[target]
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

    def state_id(pa: int, pt: int) -> int:
        return pa * (f - 1) + (pt if pt < pa else pt - 1)

    obs = np.zeros((num_states, gc.NUM_OBSERVATIONS))
    for pa in range(f):
        for pt in range(f):
            if pa == pt:
                continue
            symbols = gc.sensor_symbols(
                grid.free_cells[pa], grid.free_cells[pt], grid.passable
            )
            obs[state_id(pa, pt)] = gc.noisy_observation_row(symbols, epsilon)
    obs[absorbing, gc.BLANK_OBSERVATION] = 1.0

    b0 = np.zeros(num_states)
    b0[: f * (f - 1)] = 1.0 / (f * (f - 1))

    dist_maps = {i: grid.distances_from(grid.free_cells[i]) for i in range(f)}
    agent_moves = np.empty((f, NUM_ACTIONS), dtype=int)
    for pa in range(f):
        cell = grid.free_cells[pa]
        for a in range(NUM_ACTIONS):
            dr, dc = gc.MOVES[a]
            nxt = (cell[0] + dr, cell[1] + dc)
            agent_moves[pa, a] = grid.index[nxt] if grid.passable(*nxt) else pa

    models = []
    for goals in goal_pairs:
        reward = np.full((num_states, NUM_ACTIONS), STEP_REWARD)
        reward[absorbing] = 0.0
        te_step = {
            pt: _teammate_step(grid, pt, goals, dist_maps) for pt in range(f)
        }
        per_action = []
        for a in range(NUM_ACTIONS):
            rows, cols, vals = [], [], []
            for pa in range(f):
                for pt in range(f):
                    if pa == pt:
                        continue
                    x = state_id(pa, pt)
                    if (pa, pt) in ((goals[0], goals[1]), (goals[1], goals[0])):
                        reward[x] = COMPLETION_REWARD
                        rows.append(x), cols.append(absorbing), vals.append(1.0)
                        continue
                    intended_te = te_step[pt]
                    moved = agent_moves[pa, a]
                    for p_move, agent_cell in ((1.0 - epsilon, moved), (epsilon, pa)):
                        if p_move <= 0.0:
                            continue
                        # Same target or a swap leaves both agents in place.
                        pa2, te2 = agent_cell, intended_te
                        if pa2 == te2 or (pa2 == pt and te2 == pa):
                            pa2, te2 = pa, pt
                        rows.append(x), cols.append(state_id(pa2, te2)), vals.append(p_move)
            rows.append(absorbing), cols.append(absorbing), vals.append(1.0)
            per_action.append(sparse.coo_array(
                (np.array(vals), (np.array(rows), np.array(cols))),
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
