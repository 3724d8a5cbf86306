"""Shared pieces for the grid-based domains: moves, sensors, encodings.

The four-way proximity sensor reads the cells Up, Down, Left, Right of the
agent; each element is Nothing, Teammate, or Wall and is independently
corrupted with the domain noise rate (a corrupted element reads uniformly
over all three symbols).  Observation ids pack the four elements base 3.
"""
from __future__ import annotations

import functools

import numpy as np

# Action ids shared by the grid domains: the four moves, then stay.
UP, DOWN, LEFT, RIGHT, STAY = range(5)
MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1), STAY: (0, 0)}
MOVE_ORDER = (UP, DOWN, LEFT, RIGHT)

NOTHING, TEAMMATE, WALL = range(3)
NUM_OBSERVATIONS = 3 ** 4
# The all-Nothing reading; absorbing states emit it deterministically.
BLANK_OBSERVATION = 0


def sensor_symbols(cell, teammate_cell, passable) -> tuple:
    """True reading per direction.  `passable(r, c)` is False off-map or in
    a wall; the teammate is reported only in passable cells."""
    r, c = cell
    out = []
    for d in MOVE_ORDER:
        dr, dc = MOVES[d]
        target = (r + dr, c + dc)
        if not passable(*target):
            out.append(WALL)
        elif teammate_cell is not None and target == teammate_cell:
            out.append(TEAMMATE)
        else:
            out.append(NOTHING)
    return tuple(out)


@functools.cache
def noisy_observation_row(symbols: tuple, epsilon: float) -> np.ndarray:
    """Distribution over the 81 ids for one true reading; read-only.

    Elements corrupt independently: with probability epsilon the element is
    uniform over the three symbols (the true one included).  There are only
    81 readings, so each (reading, epsilon) row is computed once and shared.
    """
    row = np.ones(1)
    for s in symbols:
        e = np.full(3, epsilon / 3.0)
        e[s] += 1.0 - epsilon
        row = np.kron(row, e)
    row.flags.writeable = False
    return row


def manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])
