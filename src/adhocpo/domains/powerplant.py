"""Six-room plant shared by a service robot and a human coworker.

The robot moves between rooms and can query two on-board sensors; the
human walks a shortest path toward the nearest unfinished room but
wanders to a random adjacent room with the domain noise rate.  The two
candidate tasks differ in what "finished" means and who can finish it:

- cleanup: two contaminated rooms; only the human can decontaminate, so
  a room is cleared the moment the human walks into it.
- survey: three rooms to inspect; presence is enough, so a room counts
  as inspected when either the robot or the human enters it.

A state is (robot room, human room, unfinished set) plus a terminal
absorbing state; once the unfinished set empties the state pays +100 and
falls into the absorbing state, and every other step costs 1.
`gridcommon.task_model` lays out those rewards and rows; this module
gives the live transitions, the start state and the query tables.  The
two tasks reach different state sets, so the candidate models
deliberately do not share a state space.

Actions: three indexed moves (the i-th lowest-numbered adjacent room;
indexes past the room's degree stay put), hold, query-human-room and
query-progress.  Moves fail (no-op) with the noise rate.  Observations
are null plus room ids 1..5: movement always reads null, query-human
reads the human's room (room 0 aliases null), query-progress reads one
plus the number of unfinished rooms; queries fail to null with the
noise rate.
"""
from __future__ import annotations

import numpy as np

from adhocpo.domains import gridcommon as gc

NUM_ROOMS = 6
ADJACENCY = {0: (2, 3, 4), 1: (2, 3), 2: (0, 1, 5), 3: (0, 1), 4: (0,), 5: (2,)}
ROBOT_START = 1
HUMAN_START = 0
CLEANUP_ROOMS = (3, 4)
SURVEY_ROOMS = (2, 3, 5)

MOVE_0, MOVE_1, MOVE_2, HOLD, QUERY_HUMAN, QUERY_PROGRESS = range(6)
NUM_ACTIONS = 6
NUM_OBSERVATIONS = 6
NULL_OBSERVATION = 0


# ROOM_MOVES[room][a]: where the robot's move action a leads from room; a
# move indexed past the room's degree stays put.
ROOM_MOVES = tuple(
    tuple(rooms[a] if a < len(rooms) else room for a in (MOVE_0, MOVE_1, MOVE_2))
    for room, rooms in sorted(ADJACENCY.items())
)
_DIST = gc.path_lengths(np.array(ROOM_MOVES))


def human_step(room: int, unfinished: frozenset) -> int:
    """Intended move: one step toward the nearest unfinished room.

    Nearest by graph distance with the lower room id on ties; among
    distance-reducing neighbors the lowest id wins.  The human is never
    inside an unfinished room (entering finishes it), so a reducing
    neighbor always exists.
    """
    target = min(unfinished, key=lambda t: (_DIST[room, t], t))
    for nxt in ADJACENCY[room]:
        if _DIST[nxt, target] < _DIST[room, target]:
            return nxt
    raise AssertionError(f"no reducing step from {room} to {target}")


def human_row(room: int, unfinished: frozenset, epsilon: float) -> dict:
    """Distribution over the human's next room: intended step plus wander."""
    neighbors = ADJACENCY[room]
    row = {nxt: epsilon / len(neighbors) for nxt in neighbors}
    row[human_step(room, unfinished)] += 1.0 - epsilon
    return row


def enumerate_states(targets: tuple, robot_finishes: bool) -> list:
    """All (robot, human, unfinished) triples reachable from the start.

    Includes the zero-unfinished completion states; the absorbing state
    is appended separately by the builder.
    """
    start = (ROBOT_START, HUMAN_START, frozenset(targets))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for r, h, bits in frontier:
            if not bits:
                continue
            for h2 in ADJACENCY[h]:
                for r2 in (*ADJACENCY[r], r):
                    bits2 = set(bits)
                    bits2.discard(h2)
                    if robot_finishes:
                        bits2.discard(r2)
                    state = (r2, h2, frozenset(bits2))
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
        frontier = nxt
    return sorted(seen, key=lambda s: (s[0], s[1], tuple(sorted(s[2]))))


def _build_task(task: str, targets: tuple, robot_finishes: bool, epsilon: float, discount: float):
    triples = enumerate_states(targets, robot_finishes)
    index = {s: i for i, s in enumerate(triples)}
    num_states = len(triples) + 1
    finished = [x for x, (_, _, bits) in enumerate(triples) if not bits]
    # The human's next-room row of every live state, made once for all actions.
    live = [(x, r, bits, human_row(h, bits, epsilon)) for x, (r, h, bits) in enumerate(triples) if bits]

    def live_entries(a):
        rows, cols, vals = [], [], []
        for x, r, bits, hdist in live:
            if a <= MOVE_2 and ROOM_MOVES[r][a] != r:
                rdist = {ROOM_MOVES[r][a]: 1.0 - epsilon, r: epsilon}
            else:
                rdist = {r: 1.0}
            for r2, pr in rdist.items():
                for h2, ph in hdist.items():
                    bits2 = bits - {h2, r2} if robot_finishes else bits - {h2}
                    rows.append(x)
                    cols.append(index[(r2, h2, bits2)])
                    vals.append(pr * ph)
        return [rows], [cols], [vals]

    # Observations depend only on the landing state and the query used.
    silent = np.zeros((num_states, NUM_OBSERVATIONS))
    silent[:, NULL_OBSERVATION] = 1.0
    who = np.zeros((num_states, NUM_OBSERVATIONS))
    left = np.zeros((num_states, NUM_OBSERVATIONS))
    for x, (r, h, bits) in enumerate(triples):
        if h == 0:
            who[x, NULL_OBSERVATION] = 1.0
        else:
            who[x, h] = 1.0 - epsilon
            who[x, NULL_OBSERVATION] = epsilon
        left[x, 1 + len(bits)] = 1.0 - epsilon
        left[x, NULL_OBSERVATION] = epsilon
    who[-1, NULL_OBSERVATION] = 1.0  # the absorbing state
    left[-1, NULL_OBSERVATION] = 1.0
    observation = [silent, silent, silent, silent, who, left]

    b0 = np.zeros(num_states)
    b0[index[(ROBOT_START, HUMAN_START, frozenset(targets))]] = 1.0
    return gc.task_model(finished, live_entries, observation, b0, discount, f"power-plant {task}")


def build_power_plant(epsilon: float, discount: float) -> list:
    """Two candidate tasks over the same rooms, queries and noise rate."""
    return [
        _build_task("cleanup", CLEANUP_ROOMS, False, epsilon, discount),
        _build_task("survey", SURVEY_ROOMS, True, epsilon, discount),
    ]
