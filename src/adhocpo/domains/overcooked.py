"""Two-level kitchen: a helper feeds ingredients to a cook through balconies.

The kitchen is split in two halves.  The helper works the supply half:
an onion dispenser on the top level and a plate dispenser on the bottom.
The cook works the kitchen half: a soup pot on the top level and a
serving window on the bottom.  Each level has a pass-through balcony
that holds at most one item, and that is the only way to hand things
over.  The dish needs two onions in the pot, one tick of cooking, a
plate to scoop with, and a trip to the window to serve.

The state is the tuple (helper level, cook level, helper hands, cook
hands, top balcony, bottom balcony, pot) with sizes (2, 2, 3, 4, 3, 3,
4), plus a served marker and an absorbing state.  The full product is
kept even though play only visits part of it.  Hands and balconies hold
nothing, an onion or a plate; the cook's hands can also hold the
finished soup; the pot is empty, one onion, two onions (cooking) or
cooked.  Observations are the identity (the kitchen is fully
observable) and actions never fail.  `gridcommon.task_model` lays out
the task skeleton: the served marker pays +100 and falls into the
absorbing state, and every other step costs 1.

Both agents choose among Up, Down, Noop and Act.  Within a step, moves
resolve first, then the helper's Act, then the cook's Act, and finally
a pot that was cooking at the start of the step finishes.  The helper's
Act grabs from the dispenser at its level when empty-handed, otherwise
sets the item on its level's balcony if free.  The cook's Act delivers
soup at the window, scoops a cooked pot with a plate, loads onions into
a non-full pot, takes from the balcony at its level when empty-handed,
and otherwise sets down what it holds.

The candidate models differ only in the cook's policy: pan-side and
window-side cooks prefer the top or bottom balcony and idle at that
level, the stationary cook idles where it stands, and the erratic cook
acts uniformly at random.
"""
from __future__ import annotations

import numpy as np

from adhocpo.csr import CsrTable
from adhocpo.domains import gridcommon as gc

TOP, BOTTOM = 0, 1
UP, DOWN, NOOP, ACT = range(4)
NUM_ACTIONS = 4
EMPTY, ONION, PLATE, SOUP = range(4)
POT_COOKED = 3

FACTOR_SIZES = (2, 2, 3, 4, 3, 3, 4)
NUM_FACTOR_STATES = 1728  # product of FACTOR_SIZES
SERVED = NUM_FACTOR_STATES
NUM_STATES = NUM_FACTOR_STATES + 2

COOK_NAMES = ("pan-side", "window-side", "stationary", "erratic")
ORIGIN = (TOP, TOP, EMPTY, EMPTY, EMPTY, EMPTY, 0)


def state_id(factors: tuple) -> int:
    return int(np.ravel_multi_index(factors, FACTOR_SIZES))


def resolve(factors: tuple, helper_action: int, cook_action: int):
    """Apply one joint step; returns the next factors, or None once served."""
    p_a, p_c, h_a, h_c, tb, bb, pot = factors
    pot_was_cooking = pot == 2
    if helper_action == UP:
        p_a = TOP
    elif helper_action == DOWN:
        p_a = BOTTOM
    if cook_action == UP:
        p_c = TOP
    elif cook_action == DOWN:
        p_c = BOTTOM

    if helper_action == ACT:
        if h_a == EMPTY:
            h_a = ONION if p_a == TOP else PLATE
        elif p_a == TOP and tb == EMPTY:
            tb, h_a = h_a, EMPTY
        elif p_a == BOTTOM and bb == EMPTY:
            bb, h_a = h_a, EMPTY

    if cook_action == ACT:
        if h_c == SOUP:
            if p_c == BOTTOM:
                return None
        elif h_c == EMPTY:
            if p_c == TOP and tb != EMPTY:
                h_c, tb = tb, EMPTY
            elif p_c == BOTTOM and bb != EMPTY:
                h_c, bb = bb, EMPTY
        elif h_c == ONION and p_c == TOP and pot < 2:
            pot += 1
            h_c = EMPTY
        elif h_c == PLATE and p_c == TOP and pot == POT_COOKED:
            h_c, pot = SOUP, 0
        elif p_c == TOP and tb == EMPTY:
            tb, h_c = h_c, EMPTY
        elif p_c == BOTTOM and bb == EMPTY:
            bb, h_c = h_c, EMPTY

    if pot_was_cooking and pot == 2:
        pot = POT_COOKED
    return (p_a, p_c, h_a, h_c, tb, bb, pot)


def _steady_cook(factors: tuple, prefer_top: bool, idle_level) -> int:
    """Shared deterministic skeleton: serve, scoop, load, fetch, idle."""
    _, p_c, _, h_c, tb, bb, pot = factors
    if h_c == SOUP:
        return ACT if p_c == BOTTOM else DOWN
    if h_c == ONION:
        if pot < 2:
            return ACT if p_c == TOP else UP
        return ACT  # surplus onion: set it down
    if h_c == PLATE:
        if pot >= 2:
            if p_c != TOP:
                return UP
            return ACT if pot == POT_COOKED else NOOP
        return ACT  # plate not needed yet: set it down
    useful = ONION if pot < 2 else PLATE
    spots = [level for level, item in ((TOP, tb), (BOTTOM, bb)) if item == useful]
    if spots:
        target = min(spots) if prefer_top else max(spots)
        if p_c == target:
            return ACT
        return UP if target == TOP else DOWN
    if idle_level is None or p_c == idle_level:
        return NOOP
    return UP if idle_level == TOP else DOWN


def cook_action_distribution(name: str, factors: tuple) -> dict:
    """Action distribution for the named cook in the given state."""
    if name == "pan-side":
        return {_steady_cook(factors, True, TOP): 1.0}
    if name == "window-side":
        return {_steady_cook(factors, False, BOTTOM): 1.0}
    if name == "stationary":
        return {_steady_cook(factors, True, None): 1.0}
    if name == "erratic":
        return {a: 0.25 for a in range(NUM_ACTIONS)}
    raise ValueError(f"unknown cook {name!r}")


def _build_cook_model(name: str, discount: float, identity: CsrTable):
    # Every (state, factors, cook action, probability) of the cook's policy, in state order.
    every = zip(*(v.tolist() for v in np.unravel_index(np.arange(NUM_FACTOR_STATES), FACTOR_SIZES)))
    rows, factors, cooks, vals = zip(*(
        (x, f, c, pc)
        for x, f in enumerate(every)
        for c, pc in cook_action_distribution(name, f).items()
    ))

    def live_entries(a):
        landings = [resolve(f, a, c) for f, c in zip(factors, cooks)]
        served = [nxt is None for nxt in landings]
        # A served landing takes the origin's id, then SERVED.
        ids = np.ravel_multi_index(np.array([nxt or ORIGIN for nxt in landings]).T, FACTOR_SIZES)
        return [rows], [np.where(served, SERVED, ids)], [vals]

    b0 = np.zeros(NUM_STATES)
    b0[state_id(ORIGIN)] = 1.0
    label = f"overcooked {name} cook"
    return gc.task_model([SERVED], live_entries, [identity] * NUM_ACTIONS, b0, discount, label)


def build_overcooked(discount: float) -> list:
    """One candidate model per cook style; the kitchen itself is shared.

    The state is fully observed: every model stores the one identity table.
    """
    states = np.arange(NUM_STATES)
    identity = CsrTable.from_coo(np.ones(NUM_STATES), states, states, (NUM_STATES, NUM_STATES))
    return [_build_cook_model(name, discount, identity) for name in COOK_NAMES]
