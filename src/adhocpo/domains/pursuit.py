"""Toroidal pursuit: two predators trap a randomly moving prey.

The state is the pair of offsets (teammate - agent, prey - agent) on a
size x size torus, plus an absorbing state; offsets make the dynamics
translation invariant.  A candidate is a capture configuration (which pair
of opposite prey-adjacent cells must be occupied, straight or diagonal)
together with a teammate type: the greedy type chases the prey directly,
the aware type claims one capture slot, assigns itself by total distance,
and routes around both the agent and the prey.

Predators may overlap each other but never enter the prey's cell (such
moves become stays).  The prey picks uniformly among staying and its four
moves; choices landing on a predator become stays.  The agent's moves fail
with the domain noise rate.  Each entity is sensed in the 3x3 patch around
the agent: outside the patch, or on sensor failure (rate epsilon again),
it reads as the centre cell.  Pursuit needs a side of at least 3: below
that the capture configurations collapse into each other.

The torus is one move table over offset ids, as the grid domains'
`GridMap.moves` is over cells, with tables of offset sums and differences
beside it; distances and the aware teammate's routes come from
`gridcommon.path_lengths` on that table.  Every rule (capture, the two
teammate types, the prey's five landings, the sensor patch) is read off
these tables with array operations over all states at once, and each
candidate's live transition entries are laid out the same way, each row's
entries in the order a state-by-state loop would list them, so coinciding
prey landings are summed in that order.  A capture completes the task of
`gridcommon.task_model`, which lays out the rewards, the absorbing state
and the start belief.
"""
from __future__ import annotations

import numpy as np

from adhocpo.domains import gridcommon as gc

# One representative (dx, dy) offset per capture configuration; the
# opposite cell completes the pair.  Straight pairs first, then diagonals.
CAPTURE_OFFSETS = ((0, -1), (-1, 0), (1, -1), (-1, -1))
CONFIG_NAMES = ("north-south", "west-east", "ne-sw", "nw-se")

GREEDY, AWARE = "greedy", "aware"

# Below this side the candidates collapse: at size 2 only 6 of the 8 have
# distinct tables, and at size 1 all 8 share the tables of one
# non-absorbing state, which puts the prey on both predators.
MIN_SIZE = 3


def build_pursuit(size: int, variant: str, epsilon: float, discount: float) -> tuple:
    """Candidate set by variant: 'task' varies the capture configuration
    under a greedy teammate, 'teammate' varies the teammate type under the
    first configuration, 'both' crosses all of them.  Returns
    ('pursuit-<variant>', models)."""
    if variant == "task":
        candidates = [(c, GREEDY) for c in CAPTURE_OFFSETS]
    elif variant == "teammate":
        candidates = [(CAPTURE_OFFSETS[0], GREEDY), (CAPTURE_OFFSETS[0], AWARE)]
    elif variant == "both":
        candidates = [
            (c, kind) for c in CAPTURE_OFFSETS for kind in (GREEDY, AWARE)
        ]
    else:
        raise ValueError(f"unknown pursuit variant {variant!r}")
    if size < MIN_SIZE:
        raise ValueError(f"pursuit needs size at least {MIN_SIZE}, got {size!r}")

    cells = size * size
    # Offset (x, y) has id y * size + x, the agent's own cell is offset 0.
    # moves[i, a]: offset i moved by action a; add[i, j] and diff[i, j]:
    # the offsets i + j and i - j.
    here = np.arange(cells)
    y, x = np.divmod(here, size)
    dy, dx = np.array(list(gc.MOVES.values())).T
    moves = (y[:, None] + dy) % size * size + (x[:, None] + dx) % size
    add = (y[:, None] + y) % size * size + (x[:, None] + x) % size
    diff = (y[:, None] - y) % size * size + (x[:, None] - x) % size
    dist = gc.path_lengths(moves)
    # Every non-absorbing state is its (teammate, prey) offsets: dt * cells + dp.
    dt, dp = np.divmod(np.arange(cells * cells), cells)

    # The teammate and prey readings are independent, so a state's reading
    # of the pair is the outer product of the two.  The patch's cells run
    # row by row from the north-west; outside it an entity reads as cell 4.
    patch = add[moves[0, [gc.UP, gc.STAY, gc.DOWN]][:, None], moves[0, [gc.LEFT, gc.STAY, gc.RIGHT]]]
    true_cell = np.full(cells, 4)
    true_cell[patch.ravel()] = np.arange(9)
    reading = np.zeros((cells, 9))
    reading[here, true_cell] = 1.0 - epsilon
    reading[:, 4] += epsilon
    obs = np.zeros((cells * cells + 1, 81))
    obs[:-1] = (reading[:, None, :, None] * reading[None, :, None, :]).reshape(-1, 81)
    obs[-1, 4 * 9 + 4] = 1.0
    b0 = gc.uniform_start(cells * cells + 1)

    # The prey's five landings; one onto a predator is a stay.
    landing = moves[dp]
    prey = np.where((landing == 0) | (landing == dt[:, None]), dp[:, None], landing)
    # The greedy teammate: the first move in action order that brings it
    # nearest the prey, a move onto the prey counting as a stay.
    landing = moves[dt]
    landing = np.where(landing == dp[:, None], dt[:, None], landing)
    greedy = np.take_along_axis(landing, dist[landing, dp[:, None]].argmin(axis=1)[:, None], 1)[:, 0]
    # Per action, the states where the agent holds still: it stays, or its
    # move would enter the prey's cell.
    held_by_action = dp == moves[0, :, None]
    held_by_action[gc.STAY] = True

    # The aware teammate routes on the torus around the agent's and the
    # prey's cells, less its slot; a route depends only on the prey's cell
    # and whether the slot is the agent's cell, so candidates share them.
    # An unreachable cell reads 10 * cells, more than any path.
    routes: dict = {}

    def route_from(slot, prey_cell):
        key = (prey_cell, slot == 0)
        if key not in routes:
            walls = np.isin(moves, [prey_cell] if slot == 0 else [0, prey_cell])
            routes[key] = np.minimum(gc.path_lengths(np.where(walls, here[:, None], moves)), 10 * cells)
        return routes[key][slot]

    models = []
    for (cx, cy), kind in candidates:
        c = cy % size * size + cx % size
        c2 = add[c, c]
        done = ((dp == c) & (dt == c2)) | ((dp == diff[0, c]) & (dt == diff[0, c2]))
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        if kind == GREEDY:
            teammate = greedy[live]
        else:
            # The slots sit at prey +/- c.  The teammate takes the one that
            # minimises its route length plus the agent's distance to the
            # other, the + slot on ties, then steps to the landing nearest
            # it along its route; it never enters the agent's or the prey's
            # cell, and standing on the slot it stays.
            slots = np.stack([add[here, c], diff[here, c]])
            route = np.array([[route_from(s, p) for p, s in enumerate(side)] for side in slots])
            own = route[:, dp, dt]
            agent = dist[0, slots[:, dp]]
            plus = own[0] + agent[1] <= own[1] + agent[0]
            toward = np.where(plus[:, None], route[0, dp], route[1, dp])
            landing = moves[dt]
            score = np.take_along_axis(toward, landing, 1)
            blocked = (landing == 0) | (landing == dp[:, None])
            blocked[:, gc.STAY] = False
            score[blocked] = np.inf
            teammate = np.take_along_axis(landing, score.argmin(axis=1)[:, None], 1)[live, 0]
        live_prey = prey[live]
        # Landings by prey choice when the agent stays in place.
        still = teammate[:, None] * cells + live_prey

        def live_entries(a):
            held = held_by_action[a][live]
            shifted = diff[:, moves[0, a]]  # an offset as seen from the moved agent
            moved = shifted[teammate][:, None] * cells + shifted[live_prey]
            # A row lists its five prey landings after the agent's move, then,
            # unless the agent holds still, the five after a failed move; an
            # epsilon of 0 or 1 leaves explicit zeros, and landings that
            # coincide are summed in this order.
            return (
                [np.repeat(live, 5), np.repeat(live[~held], 5)],
                [np.where(held[:, None], still, moved).ravel(), still[~held].ravel()],
                [
                    np.repeat(np.where(held, 1.0 / 5.0, (1.0 - epsilon) / 5.0), 5),
                    np.full(5 * np.count_nonzero(~held), epsilon / 5.0),
                ],
            )

        label = f"pursuit{size} {CONFIG_NAMES[CAPTURE_OFFSETS.index((cx, cy))]} {kind}"
        models.append(gc.task_model(finished, live_entries, [obs] * gc.NUM_ACTIONS, b0, discount, label))
        obs = models[-1].observation[0]

    return f"pursuit-{variant}", models
