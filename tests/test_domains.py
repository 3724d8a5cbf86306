"""Construction checks for the benchmark domains at small scale.

Full-scale state/action/observation counts are covered by the
acceptance suite; here the builders are exercised on small instances
with hand-checked dynamics.
"""
import numpy as np
import pytest
from scipy import sparse

import adhocpo
from adhocpo import domains
from adhocpo.domains import DOMAIN_NAMES, REGISTRY, build
from adhocpo.domains import gridworld as gw
from adhocpo.domains import mapnav
from adhocpo.domains import overcooked as oc
from adhocpo.domains import powerplant as pp
from adhocpo.domains import pursuit as pu
from adhocpo.pomdp import validate


def test_registry_lists_eleven_domains():
    assert len(DOMAIN_NAMES) == 11
    assert set(REGISTRY) == set(DOMAIN_NAMES)
    with pytest.raises(ValueError, match="unknown domain"):
        build("no-such-domain")


def test_gridworld_desk_build():
    b = build("gridworld", size=4, tasks=4, belief_set_size=100)
    assert b.size == 4
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (257, 5, 81)
        assert validate(m) == []


def test_gridworld_task_enumeration_nests():
    tasks = gw.canonical_tasks(4)
    assert tasks[0] == (0, 15)
    assert tasks[1] == (3, 12)
    assert gw.canonical_tasks(4)[:2] == tasks[:2]


def test_gridworld_teammate_walks_to_nearest_goal():
    # Cell 5 is (1,1) on a 4-grid; goal 0 is nearer than 15, Up wins.
    assert gw.teammate_step(5, (0, 15), 4) == 1
    assert gw.teammate_step(0, (0, 15), 4) == 0


def test_gridworld_completion_and_noise_rows():
    b = build("gridworld", size=4, tasks=1, epsilon=0.2, belief_set_size=100)
    m = b.models[0]  # goals (0, 15)
    absorbing = m.num_states - 1
    done = 0 * 16 + 15
    for a in range(5):
        assert m.dense_transition(a)[done, absorbing] == 1.0
    assert np.all(m.reward[done] == 100.0)
    assert np.all(m.reward[absorbing] == 0.0)

    # Agent at cell 5, teammate at 10: teammate steps Down to 14; the
    # agent's Up lands on 1 with prob 0.8 and fails in place with 0.2.
    x = 5 * 16 + 10
    row = m.dense_transition(0)[x]
    assert row[1 * 16 + 14] == pytest.approx(0.8)
    assert row[5 * 16 + 14] == pytest.approx(0.2)


def test_pursuit_desk_counts_by_variant():
    sizes = {"task": 4, "teammate": 2, "both": 8}
    for variant, k in sizes.items():
        b = build(f"pursuit-{variant}", size=3, belief_set_size=100)
        assert b.size == k
        for m in b.models:
            assert (m.num_states, m.num_actions, m.num_observations) == (82, 5, 81)
            assert validate(m) == []


def test_pursuit_capture_states_absorb():
    b = build("pursuit-task", size=3, belief_set_size=100)
    m = b.models[0]  # north-south configuration, offset (0, -1)
    absorbing = m.num_states - 1
    x = pu._offset_id((0, 1), 3) * 9 + pu._offset_id((0, 2), 3)
    assert pu._completed((0, 1), (0, 2), (0, -1), 3)
    for a in range(5):
        assert m.dense_transition(a)[x, absorbing] == 1.0
    assert np.all(m.reward[x] == 100.0)


def test_pursuit_greedy_teammate_closes_distance():
    assert pu._greedy_teammate_move((2, 2), (0, 1), 3) == (2, 1)
    # Already adjacent: several moves keep distance 1 and the first in
    # action order (Up) wins, landing on the agent's (shareable) cell.
    assert pu._greedy_teammate_move((0, 1), (0, 2), 3) == (0, 0)


def test_pursuit_observation_patch():
    b = build("pursuit-task", size=3, epsilon=0.2, belief_set_size=100)
    m = b.models[0]
    # Teammate on the agent (centre cell 4), prey at signed (+1,+1) = cell 8.
    x = pu._offset_id((0, 0), 3) * 9 + pu._offset_id((1, 1), 3)
    row = m.dense_observation(0)[x]
    assert row[4 * 9 + 8] == pytest.approx(0.8)
    assert row[4 * 9 + 4] == pytest.approx(0.2)
    assert row.sum() == pytest.approx(1.0)


def test_pursuit_observation_table_is_one_object_per_model():
    # Full scale (626 states) stores the sensor table as CSR; the one table
    # every action shares is converted once, not once per action.
    for m in build("pursuit-task").models:
        assert sparse.issparse(m.observation[0])
        assert all(o is m.observation[0] for o in m.observation)


def test_power_plant_counts_and_validity():
    b = build("power-plant")
    assert [m.num_states for m in b.models] == [97, 105]
    for m in b.models:
        assert (m.num_actions, m.num_observations) == (6, 6)
        assert validate(m) == []
    assert b.solver.belief_set_size == 2500


def test_power_plant_human_walk():
    # From room 0 with rooms 3 and 4 unfinished: both one step away, the
    # lower room id wins, and the wander mass spreads over the neighbours.
    assert pp.human_step(0, frozenset({3, 4})) == 3
    row = pp.human_row(0, frozenset({3, 4}), 0.2)
    third = 0.2 / 3
    assert row == pytest.approx({2: third, 3: 0.8 + third, 4: third})


def test_power_plant_queries_read_landing_state():
    b = build("power-plant", epsilon=0.2)
    m = b.models[0]
    triples = pp.enumerate_states(pp.CLEANUP_ROOMS, False)
    index = {s: i for i, s in enumerate(triples)}
    x = index[(1, 2, frozenset({3, 4}))]
    who = m.dense_observation(pp.QUERY_HUMAN)
    left = m.dense_observation(pp.QUERY_PROGRESS)
    assert who[x, 2] == pytest.approx(0.8)
    assert who[x, pp.NULL_OBSERVATION] == pytest.approx(0.2)
    assert left[x, 3] == pytest.approx(0.8)  # 1 + two unfinished rooms
    # The control room is indistinguishable from a failed reading.
    x0 = index[(1, 0, frozenset({3, 4}))]
    assert who[x0, pp.NULL_OBSERVATION] == 1.0
    # Movement is silent.
    assert m.dense_observation(pp.MOVE_0)[x, pp.NULL_OBSERVATION] == 1.0
    assert m.initial_belief[x0] == 1.0


def test_power_plant_completion_pays_once():
    b = build("power-plant")
    m = b.models[0]
    triples = pp.enumerate_states(pp.CLEANUP_ROOMS, False)
    absorbing = m.num_states - 1
    for x, (_, _, bits) in enumerate(triples):
        if not bits:
            assert np.all(m.reward[x] == 100.0)
            for a in range(6):
                assert m.dense_transition(a)[x, absorbing] == 1.0
        else:
            assert np.all(m.reward[x] == -1.0)


def test_overcooked_counts_and_validity():
    b = build("overcooked")
    assert b.size == 4
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (1730, 4, 1730)
        assert all(map(sparse.issparse, m.transition + m.observation))
        assert validate(m) == []
    assert b.epsilon == 0.0


def test_overcooked_act_rules():
    start = (oc.TOP, oc.TOP, oc.EMPTY, oc.EMPTY, oc.EMPTY, oc.EMPTY, 0)
    grabbed = oc.resolve(start, oc.ACT, oc.NOOP)
    assert grabbed[2] == oc.ONION
    placed = oc.resolve(grabbed, oc.ACT, oc.NOOP)
    assert placed[2] == oc.EMPTY and placed[4] == oc.ONION
    taken = oc.resolve(placed, oc.NOOP, oc.ACT)
    assert taken[3] == oc.ONION and taken[4] == oc.EMPTY
    loaded = oc.resolve(taken, oc.NOOP, oc.ACT)
    assert loaded[3] == oc.EMPTY and loaded[6] == 1
    # A pot that was already cooking finishes after one tick.
    cooking = (oc.TOP, oc.TOP, oc.EMPTY, oc.EMPTY, oc.EMPTY, oc.EMPTY, 2)
    assert oc.resolve(cooking, oc.NOOP, oc.NOOP)[6] == oc.POT_COOKED


def test_overcooked_helper_can_finish_a_dish():
    b = build("overcooked", belief_set_size=100)
    m = b.models[0]  # pan-side cook: deterministic rows
    script = [oc.ACT, oc.ACT, oc.ACT, oc.ACT, oc.ACT, oc.ACT,
              oc.DOWN, oc.ACT, oc.ACT] + [oc.NOOP] * 7
    x = int(np.argmax(m.initial_belief))
    total = 0.0
    for a in script:
        row = m.transition_row(x, a)
        assert row.max() == 1.0  # deterministic chain
        total += m.reward[x, a]
        x = int(np.argmax(row))
    # 15 live steps at -1, then the served marker pays +100.
    assert x == oc.ABSORBING
    assert total == pytest.approx(-15.0 + 100.0)


def test_overcooked_erratic_rows_spread():
    b = build("overcooked", belief_set_size=100)
    erratic = b.models[oc.COOK_NAMES.index("erratic")]
    x = int(np.argmax(erratic.initial_belief))
    row = erratic.transition_row(x, oc.NOOP)
    assert np.count_nonzero(row) >= 2
    assert row.sum() == pytest.approx(1.0)


def test_map_loading_and_free_counts():
    for name, free in (("test3x3", 9), ("ntu", 16), ("isr", 43),
                       ("mit", 47), ("pentagon", 52), ("cit", 70)):
        assert mapnav.load_map(name).num_free == free
    with pytest.raises(ValueError, match="unknown map"):
        mapnav.load_map("atlantis")


def test_map_navigation_desk_build():
    b = mapnav.build_map_navigation("test3x3", tasks=2, belief_set_size=100)
    grid = mapnav.load_map("test3x3")
    assert mapnav.canonical_tasks(grid)[0] == (0, 8)
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (73, 5, 81)
        assert validate(m) == []


def test_map_navigation_swap_blocks():
    # Agent on cell 0, teammate on cell 1 walking toward goal 0: any
    # attempt to cross leaves the pair exactly where it was.
    b = mapnav.build_map_navigation("test3x3", tasks=2, belief_set_size=100)
    m = b.models[0]  # goals (0, 8)
    x = 0 * 8 + (1 - 1)  # state_id(pa=0, pt=1)
    right = 3
    assert m.dense_transition(right)[x, x] == 1.0


def test_exported_names_resolve():
    for module in (adhocpo, domains):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
