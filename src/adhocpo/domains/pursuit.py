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

The teammate's move and the prey's five landings are worked out state by
state, the greedy move and the prey's once per build since no candidate
changes them.  Each candidate's transition entries and capture rewards
are then laid out with array operations over all states at once, each
row's entries in the order a state-by-state loop would list them, so
coinciding prey landings are summed in that order.
"""
from __future__ import annotations

from collections import deque

import numpy as np
from scipy import sparse

from adhocpo.pomdp import TabularPomdp

STEP_REWARD = -1.0
CAPTURE_REWARD = 100.0
NUM_ACTIONS = 5

# (dx, dy) per action: Up, Down, Left, Right, Stay.
ACTION_VECTORS = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))

# One representative offset per capture configuration; the opposite cell
# completes the pair.  Straight pairs first, then diagonals.
CAPTURE_OFFSETS = ((0, -1), (-1, 0), (1, -1), (-1, -1))
CONFIG_NAMES = ("north-south", "west-east", "ne-sw", "nw-se")

GREEDY, AWARE = "greedy", "aware"

# Below this side the candidates collapse: at size 2 only 6 of the 8 have
# distinct tables, and at size 1 all 8 share the tables of one
# non-absorbing state, which puts the prey on both predators.
MIN_SIZE = 3


def _wrap(v, size):
    return (v[0] % size, v[1] % size)


def _add(a, b, size):
    return ((a[0] + b[0]) % size, (a[1] + b[1]) % size)


def _sub(a, b, size):
    return ((a[0] - b[0]) % size, (a[1] - b[1]) % size)


def _torus_distance(offset, size) -> int:
    dx = min(offset[0], size - offset[0])
    dy = min(offset[1], size - offset[1])
    return dx + dy


def _signed(offset, size):
    sx = offset[0] if offset[0] <= size // 2 else offset[0] - size
    sy = offset[1] if offset[1] <= size // 2 else offset[1] - size
    return sx, sy


def _offset_id(offset, size) -> int:
    return offset[1] * size + offset[0]


def _bfs_distances(size, target, blocked) -> dict:
    """Shortest path lengths to `target` avoiding `blocked` cells."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        cell = queue.popleft()
        for move in ACTION_VECTORS[:4]:
            nxt = _add(cell, move, size)
            if nxt in blocked or nxt in dist:
                continue
            dist[nxt] = dist[cell] + 1
            queue.append(nxt)
    return dist


def _completed(dt, dp, config, size) -> bool:
    d = config
    d2 = _wrap((2 * d[0], 2 * d[1]), size)
    if dp == _wrap(d, size) and dt == d2:
        return True
    neg = _wrap((-d[0], -d[1]), size)
    neg2 = _wrap((-2 * d[0], -2 * d[1]), size)
    return dp == neg and dt == neg2


def _greedy_teammate_move(dt, dp, size):
    """Chase the prey: minimise toroidal distance, lowest action id on ties.
    Moves onto the prey are evaluated as stays."""
    best = None
    for move in ACTION_VECTORS:
        landing = _add(dt, move, size)
        effective = dt if landing == dp else landing
        score = _torus_distance(_sub(dp, effective, size), size)
        if best is None or score < best[0]:
            best = (score, effective)
    return best[1]


def _aware_teammate_move(dt, dp, config, size, bfs_cache):
    """Claim a capture slot and route to it around the agent and prey.

    The two slots sit at prey +/- the configuration offset.  Slots go to
    whichever assignment minimises teammate path length (avoiding the
    agent's and prey's cells) plus the agent's straight-line distance; ties
    favour the teammate taking the + slot.
    """
    slot_a = _add(dp, config, size)
    slot_b = _sub(dp, config, size)
    blocked = {(0, 0), dp}
    cost = {}
    for slot in (slot_a, slot_b):
        key = (dp, slot)
        if key not in bfs_cache:
            bfs_cache[key] = _bfs_distances(size, slot, blocked - {slot})
        cost[slot] = bfs_cache[key]
    inf = 10 * size * size
    te_a = cost[slot_a].get(dt, inf)
    te_b = cost[slot_b].get(dt, inf)
    ah_a = _torus_distance(slot_a, size)  # agent sits at the origin
    ah_b = _torus_distance(slot_b, size)
    target = slot_a if te_a + ah_b <= te_b + ah_a else slot_b
    if dt == target:
        return dt
    dist = cost[target]
    best = None
    for move in ACTION_VECTORS:
        landing = _add(dt, move, size)
        if move != (0, 0) and landing in blocked:
            continue
        score = dist.get(landing, inf)
        if best is None or score < best[0]:
            best = (score, landing)
    return best[1]


def _patch_reading(offset, size, epsilon) -> np.ndarray:
    """Distribution over the 9 patch cells at which one entity reads."""
    sx, sy = _signed(offset, size)
    if abs(sx) <= 1 and abs(sy) <= 1:
        true_cell = (sy + 1) * 3 + (sx + 1)
    else:
        true_cell = 4
    e = np.zeros(9)
    e[true_cell] += 1.0 - epsilon
    e[4] += epsilon
    return e


def _prey_choices(dt, dp, size) -> list:
    """The prey's landing per move in action order; a move onto a predator is a stay."""
    choices = []
    for pm in ACTION_VECTORS:
        prey_landing = _add(dp, pm, size)
        if prey_landing in ((0, 0), dt):
            prey_landing = dp  # blocked by a predator
        choices.append(prey_landing)
    return choices


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
    num_states = cells * cells + 1
    absorbing = num_states - 1
    # Offset ids follow _offset_id, and every non-absorbing state is its
    # (teammate, prey) offsets in state order: state id(dt) * cells + id(dp).
    offsets = [(x, y) for y in range(size) for x in range(size)]
    states = [(dt, dp) for dt in offsets for dp in offsets]

    # The teammate and prey readings are independent, so a state's reading
    # of the pair is the outer product of the two.
    reading = np.array([_patch_reading(o, size, epsilon) for o in offsets])
    obs = np.zeros((num_states, 81))
    obs[:absorbing] = (reading[:, None, :, None] * reading[None, :, None, :]).reshape(absorbing, 81)
    obs[absorbing, 4 * 9 + 4] = 1.0

    b0 = np.zeros(num_states)
    b0[:absorbing] = 1.0 / absorbing

    # shifted[a, i]: offset i as seen from the agent after it moves by action a.
    shifted = np.array(
        [[_offset_id(_sub(o, move, size), size) for o in offsets] for move in ACTION_VECTORS]
    )
    # The prey's options and the greedy teammate's move depend only on the
    # state, not on the candidate or the agent's action.
    prey = np.array(
        [[_offset_id(p, size) for p in _prey_choices(dt, dp, size)] for dt, dp in states]
    )
    greedy = np.array([_offset_id(_greedy_teammate_move(dt, dp, size), size) for dt, dp in states])
    prey_cell = np.tile(np.arange(cells), cells)
    # Per action, the states where the agent holds still: it stays, or its
    # move would enter the prey's cell.
    held_by_action = [
        (prey_cell == _offset_id(_wrap(move, size), size)) | (move == (0, 0))
        for move in ACTION_VECTORS
    ]

    models = []
    # A search depends only on its (prey, slot) key, so candidates share them.
    bfs_cache: dict = {}
    for config, kind in candidates:
        done = np.array([_completed(dt, dp, config, size) for dt, dp in states])
        finished, live = np.flatnonzero(done), np.flatnonzero(~done)
        if kind == GREEDY:
            teammate = greedy[live]
        else:
            teammate = np.array([
                _offset_id(_aware_teammate_move(*states[x], config, size, bfs_cache), size)
                for x in live.tolist()
            ])
        live_prey = prey[live]
        reward = np.full((num_states, NUM_ACTIONS), STEP_REWARD)
        reward[absorbing] = 0.0
        reward[finished] = CAPTURE_REWARD
        # A capture moves to the absorbing state, which stays put.
        fixed_rows = np.append(finished, absorbing)
        # Landings by prey choice when the agent stays in place.
        still = teammate[:, None] * cells + live_prey
        per_action = []
        for a in range(NUM_ACTIONS):
            held = held_by_action[a][live]
            moved = shifted[a, teammate][:, None] * cells + shifted[a, live_prey]
            # A row lists its five prey landings after the agent's move, then,
            # unless the agent holds still, the five after a failed move; an
            # epsilon of 0 or 1 leaves explicit zeros, and landings that
            # coincide are summed in this order.
            rows = np.concatenate([fixed_rows, np.repeat(live, 5), np.repeat(live[~held], 5)])
            cols = np.concatenate([
                np.full(len(fixed_rows), absorbing),
                np.where(held[:, None], still, moved).ravel(),
                still[~held].ravel(),
            ])
            vals = np.concatenate([
                np.ones(len(fixed_rows)),
                np.repeat(np.where(held, 1.0 / 5.0, (1.0 - epsilon) / 5.0), 5),
                np.full(5 * np.count_nonzero(~held), epsilon / 5.0),
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
                label=f"pursuit{size} {CONFIG_NAMES[CAPTURE_OFFSETS.index(config)]} {kind}",
            )
        )

    return f"pursuit-{variant}", models
