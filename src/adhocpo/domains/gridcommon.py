"""The task skeleton and shared geometry of the grid domains, and the one shortest-path search.

The open gridworld, the map domains and pursuit share one task skeleton:
five actions, a +100 completion that falls into an absorbing last state,
a cost of 1 per live step, a start belief uniform over the live states,
and one sensor table for every candidate.  `task_model` lays that out
from a candidate's finished states and live transition entries, so each
builder keeps only its state space and its live transitions.

The open gridworld and the map domains play one task on a `GridMap`: the
gridworld's plan is a square with every cell free, the maps are real floor
plans.  Both take from here the per-cell move table, the path distances,
the task enumeration, the teammate's step and the sensor table.
`path_lengths` is the breadth-first search of every domain: pursuit calls
it on its torus move table, built from the action ids and `MOVES` here,
and the power plant on its room graph.

The four-way proximity sensor reads the cells Up, Down, Left, Right of the
agent; each element is Nothing, Teammate, or Wall and is independently
corrupted with the domain noise rate (a corrupted element reads uniformly
over all three symbols, so the true one survives with probability
1 - 2 * epsilon / 3).  Observation ids pack the four elements base 3.
"""
from __future__ import annotations

import functools

import numpy as np

from adhocpo.csr import CsrTable
from adhocpo.pomdp import TabularPomdp

STEP_REWARD = -1.0
COMPLETION_REWARD = 100.0
NUM_ACTIONS = 5

# Action ids shared by the grid domains: the four moves, then stay.
UP, DOWN, LEFT, RIGHT, STAY = range(NUM_ACTIONS)
MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1), STAY: (0, 0)}
MOVE_ORDER = (UP, DOWN, LEFT, RIGHT)

NOTHING, TEAMMATE, WALL = range(3)
NUM_OBSERVATIONS = 3 ** 4
# The all-Nothing reading; absorbing states emit it deterministically.
BLANK_OBSERVATION = 0


class GridMap:
    """A floor plan, '#' for wall and '.' for free; free cells are numbered row by row."""

    def __init__(self, text: str):
        self.rows = [line for line in text.splitlines() if line.strip()]
        if not self.rows:
            raise ValueError("empty map")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("map rows must have equal length")
        self.height = len(self.rows)
        self.width = width
        self.free = np.array([[ch == "." for ch in row] for row in self.rows])
        r, c = np.nonzero(self.free)
        self.free_cells = list(zip(r.tolist(), c.tolist()))

    @property
    def num_free(self) -> int:
        return len(self.free_cells)

    @functools.cached_property
    def moves(self) -> np.ndarray:
        """moves[i, a]: the cell id action a lands on from cell i; into a wall or off the plan it stays."""
        ids = np.full((self.height + 2, self.width + 2), -1)
        here = np.arange(self.num_free)
        ids[1:-1, 1:-1][self.free] = here
        r, c = np.nonzero(self.free)
        dr, dc = np.array(list(MOVES.values())).T
        landing = ids[r[:, None] + 1 + dr, c[:, None] + 1 + dc]
        return np.where(landing < 0, here[:, None], landing)

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """Path distances between free cells by id; inf between disconnected cells."""
        return path_lengths(self.moves)


def path_lengths(moves: np.ndarray) -> np.ndarray:
    """Fewest steps from each node to each other one; inf where none leads.

    moves[i] lists the nodes one step from node i can reach; a move that
    goes nowhere lists i itself, and a node no move enters is unreachable.
    A breadth-first search from every node at once: each round, the nodes
    reached so far take one step, and a node still unreached adds one to
    its length.
    """
    n, k = moves.shape
    step = np.zeros((n, n))
    step[np.repeat(np.arange(n), k), moves.ravel()] = 1.0
    reached = np.eye(n, dtype=bool)
    lengths = np.zeros((n, n))
    while True:
        grown = reached | (reached @ step > 0)
        if np.array_equal(grown, reached):
            break
        lengths += ~reached
        reached = grown
    lengths[~reached] = np.inf
    return lengths


class TooFewTasks(ValueError):
    """A library asks for more tasks than its plan has connected goal pairs."""


def canonical_tasks(grid: GridMap) -> list:
    """All connected goal pairs, farthest apart first, then by cell ids.

    A library of K tasks takes the first K entries, so smaller libraries
    are prefixes of larger ones.
    """
    g1, g2 = np.triu_indices(grid.num_free, 1)
    d = grid.distances[g1, g2]
    connected = np.isfinite(d)
    g1, g2, d = g1[connected], g2[connected], d[connected]
    order = np.lexsort((g2, g1, -d))
    return list(zip(g1[order].tolist(), g2[order].tolist()))


def teammate_steps(grid: GridMap, goals: tuple) -> np.ndarray:
    """The teammate's next cell from every cell: one path step toward the closer goal.

    Closer by path distance with the lower goal id on ties; among the
    distance-reducing moves the first in Up, Down, Left, Right order wins.
    On a goal, or cut off from both, the teammate holds position.
    """
    g1, g2 = sorted(goals)
    dist = grid.distances
    target = np.where(dist[g2] < dist[g1], g2, g1)
    here = np.arange(grid.num_free)
    order = np.array(MOVE_ORDER)
    ahead = dist[target[:, None], grid.moves[:, order]] < dist[target, here][:, None]
    step = grid.moves[here, order[ahead.argmax(axis=1)]]
    return np.where(ahead.any(axis=1), step, here)


def on_goals(pa: np.ndarray, pt: np.ndarray, goals: tuple) -> np.ndarray:
    """Whether the agents on cells `pa` and `pt` stand on the two goals, in either order."""
    g1, g2 = goals
    return ((pa == g1) & (pt == g2)) | ((pa == g2) & (pt == g1))


@functools.cache
def _reading_table(epsilon: float) -> np.ndarray:
    """Row r: the distribution over the 81 ids when the true reading is id r; read-only.

    Each element's 3x3 noise matrix, Kronecker-multiplied over the four
    elements; computed once per noise rate and shared.
    """
    element = np.full((3, 3), epsilon / 3.0)
    element[np.diag_indices(3)] += 1.0 - epsilon
    table = functools.reduce(np.kron, [element] * 4)
    table.flags.writeable = False
    return table


def sensor_table(grid: GridMap, pa: np.ndarray, pt: np.ndarray, epsilon: float) -> np.ndarray:
    """Observation rows of the states with agent cells `pa` and teammate cells `pt`, in order,
    then the absorbing state's blank row.

    A direction reads Wall where the agent's move stays put, Teammate where
    it lands on the teammate, and Nothing otherwise.
    """
    reading = np.zeros(len(pa), dtype=int)
    for d in MOVE_ORDER:
        target = grid.moves[pa, d]
        symbol = np.where(target == pa, WALL, np.where(target == pt, TEAMMATE, NOTHING))
        reading = reading * 3 + symbol
    obs = np.zeros((len(pa) + 1, NUM_OBSERVATIONS))
    obs[:-1] = _reading_table(epsilon)[reading]
    obs[-1, BLANK_OBSERVATION] = 1.0
    return obs


def uniform_start(num_states: int) -> np.ndarray:
    """The start belief: uniform over every state but the absorbing last one."""
    b0 = np.zeros(num_states)
    b0[:-1] = 1.0 / (num_states - 1)
    return b0


def task_model(finished, live_entries, sensor, b0, discount: float, label: str) -> TabularPomdp:
    """One candidate of the task skeleton; the absorbing state is the last.

    `finished` lists the completing states, which pay COMPLETION_REWARD and
    fall into the absorbing state; it stays put and pays nothing, and every
    other state pays STEP_REWARD.  `live_entries(a)` gives action a's
    transition entries of the live states as lists of row, column and value
    arrays, whose concatenations list each row's entries in the order its
    duplicates are summed; it is called once per action, in order, before
    this returns, so one action's entries are held at a time.  `sensor`
    serves every action; a builder hands the first model's stored table,
    dense or CSR, to the later candidates, so a library holds one sensor
    table object.
    """
    num_states = len(b0)
    absorbing = num_states - 1
    reward = np.full((num_states, NUM_ACTIONS), STEP_REWARD)
    reward[absorbing] = 0.0
    reward[finished] = COMPLETION_REWARD
    fixed = np.append(finished, absorbing)
    transition = []
    for a in range(NUM_ACTIONS):
        rows, cols, vals = live_entries(a)
        transition.append(CsrTable.from_coo(
            np.concatenate([np.ones(len(fixed)), *vals]),
            np.concatenate([fixed, *rows]),
            np.concatenate([np.full(len(fixed), absorbing), *cols]),
            (num_states, num_states),
        ))
    return TabularPomdp(transition, [sensor] * NUM_ACTIONS, reward, discount, b0, label=label)
