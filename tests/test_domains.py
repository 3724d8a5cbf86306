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
from adhocpo.domains import gridcommon as gc
from adhocpo.domains import gridworld as gw
from adhocpo.domains import mapnav
from adhocpo.domains import overcooked as oc
from adhocpo.domains import powerplant as pp
from adhocpo.domains import pursuit as pu
from adhocpo.pomdp import TabularPomdp, validate
from adhocpo.solvers import SolverSettings


def test_registry_lists_eleven_domains():
    assert len(DOMAIN_NAMES) == 11
    assert set(REGISTRY) == set(DOMAIN_NAMES)
    with pytest.raises(ValueError, match="unknown domain"):
        build("no-such-domain")
    with pytest.raises(ValueError, match="domain 'gridworld' does not take 'flavour'"):
        build("gridworld", size=3, flavour="salty")


def test_build_names_and_solver_settings():
    assert build("isr", map_name="test3x3", tasks=2).name == "test3x3"
    assert build("pursuit-task", size=3, variant="both").name == "pursuit-both"
    assert build("cit").solver == SolverSettings(belief_set_size=8000, horizon=85)
    b = build("power-plant", horizon=20, belief_set_size=40, tolerance=0.0, solver_seed=3)
    assert b.solver == SolverSettings(belief_set_size=40, horizon=20, tolerance=0.0, seed=3)
    assert b.horizon == 20


def test_build_bounds_noise_rate_and_discount():
    for value in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match=rf"discount must lie in \[0, 1\), got {value}"):
            build("overcooked", discount=value)
    for name, tasks in (("gridworld", 0), ("gridworld", -1), ("isr", 0), ("ntu", -2)):
        with pytest.raises(ValueError, match=f"tasks must be at least 1, got {tasks}"):
            build(name, tasks=tasks)
    for name, size in (("gridworld", 0), ("gridworld", -2), ("pursuit-task", 0), ("pursuit-both", -1)):
        with pytest.raises(ValueError, match=f"size must be at least 1, got {size}"):
            build(name, size=size)
    # The closed ends of both ranges build valid models.
    for epsilon, discount in ((0.0, 0.0), (1.0, 0.99)):
        b = build("gridworld", size=3, tasks=1, epsilon=epsilon, discount=discount)
        assert validate(b.models[0]) == []


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



def _fresh_sensor_row(symbols, epsilon):
    """The sensor row by the kron formula, computed anew on every call."""
    row = np.ones(1)
    for s in symbols:
        e = np.full(3, epsilon / 3.0)
        e[s] += 1.0 - epsilon
        row = np.kron(row, e)
    return row


def test_sensor_tables_equal_rows_computed_fresh():
    # The builders share one row per (reading, epsilon); the tables must be
    # the rows the formula gives state by state.  Two noise rates in one
    # process check that rows are not shared across rates.
    size, epsilon = 4, 0.2
    grid = build("gridworld", size=size, tasks=1, epsilon=epsilon).models[0]
    cells = size * size
    expected = np.zeros((grid.num_states, gc.NUM_OBSERVATIONS))
    for pa in range(cells):
        for pt in range(cells):
            symbols = gc.sensor_symbols(
                divmod(pa, size), divmod(pt, size), lambda r, c: 0 <= r < size and 0 <= c < size
            )
            expected[pa * cells + pt] = _fresh_sensor_row(symbols, epsilon)
    expected[-1, gc.BLANK_OBSERVATION] = 1.0
    assert np.array_equal(grid.dense_observation(0), expected)

    epsilon = 0.1
    house = build("isr", map_name="test3x3", tasks=1, epsilon=epsilon).models[0]
    plan = mapnav.load_map("test3x3")
    f = plan.num_free
    expected = np.zeros((house.num_states, gc.NUM_OBSERVATIONS))
    for pa in range(f):
        for pt in range(f):
            if pa != pt:
                symbols = gc.sensor_symbols(plan.free_cells[pa], plan.free_cells[pt], plan.passable)
                expected[pa * (f - 1) + (pt if pt < pa else pt - 1)] = _fresh_sensor_row(symbols, epsilon)
    expected[-1, gc.BLANK_OBSERVATION] = 1.0
    assert np.array_equal(house.dense_observation(0), expected)


def test_shared_sensor_rows_are_read_only():
    row = gc.noisy_observation_row((gc.WALL, gc.NOTHING, gc.TEAMMATE, gc.NOTHING), 0.2)
    assert gc.noisy_observation_row((gc.WALL, gc.NOTHING, gc.TEAMMATE, gc.NOTHING), 0.2) is row
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 1.0
    assert np.array_equal(row, _fresh_sensor_row((gc.WALL, gc.NOTHING, gc.TEAMMATE, gc.NOTHING), 0.2))

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
    b = build("isr", map_name="test3x3", tasks=2, belief_set_size=100)
    grid = mapnav.load_map("test3x3")
    assert mapnav.canonical_tasks(grid)[0] == (0, 8)
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (73, 5, 81)
        assert validate(m) == []


def test_map_navigation_swap_blocks():
    # Agent on cell 0, teammate on cell 1 walking toward goal 0: any
    # attempt to cross leaves the pair exactly where it was.
    b = build("isr", map_name="test3x3", tasks=2, belief_set_size=100)
    m = b.models[0]  # goals (0, 8)
    x = 0 * 8 + (1 - 1)  # state_id(pa=0, pt=1)
    right = 3
    assert m.dense_transition(right)[x, x] == 1.0


def _reference_map_tables(grid, goals, epsilon):
    """Dense transitions and reward of one map task, state by state."""
    f = grid.num_free
    n = f * (f - 1) + 1
    absorbing = n - 1

    def state_id(pa, pt):
        return pa * (f - 1) + (pt if pt < pa else pt - 1)

    def step(cell, a):
        dr, dc = gc.MOVES[a]
        nxt = (grid.free_cells[cell][0] + dr, grid.free_cells[cell][1] + dc)
        return grid.index[nxt] if grid.passable(*nxt) else cell

    teammate = [mapnav._teammate_step(grid, pt, goals) for pt in range(f)]
    transition = np.zeros((mapnav.NUM_ACTIONS, n, n))
    reward = np.full((n, mapnav.NUM_ACTIONS), mapnav.STEP_REWARD)
    reward[absorbing] = 0.0
    transition[:, absorbing, absorbing] = 1.0
    for a in range(mapnav.NUM_ACTIONS):
        for pa in range(f):
            for pt in range(f):
                if pa == pt:
                    continue
                x = state_id(pa, pt)
                if {pa, pt} == set(goals):
                    reward[x] = mapnav.COMPLETION_REWARD
                    transition[a, x, absorbing] = 1.0
                    continue
                for p, agent in ((1.0 - epsilon, step(pa, a)), (epsilon, pa)):
                    te = teammate[pt]
                    if agent == te or (agent == pt and te == pa):
                        agent, te = pa, pt
                    transition[a, x, state_id(agent, te)] += p
    return transition, reward


def test_map_tables_match_the_state_by_state_reference():
    for name, tasks, epsilon in (("test3x3", 2, 0.2), ("test3x3", 1, 0.0), ("ntu", 2, 0.1)):
        grid = mapnav.load_map(name)
        _, models = mapnav.build_map_navigation(name, tasks, epsilon, 0.95)
        for model, goals in zip(models, mapnav.canonical_tasks(grid), strict=False):
            transition, reward = _reference_map_tables(grid, goals, epsilon)
            assert np.array_equal(model.reward, reward)
            for a in range(model.num_actions):
                assert np.array_equal(model.dense_transition(a), transition[a])


def _reference_gridworld_tables(size, goals, epsilon):
    """Per-action COO transitions and the reward of one grid task, entry by entry."""
    cells = size * size
    num_states = cells * cells + 1
    absorbing = num_states - 1
    reward = np.full((num_states, gw.NUM_ACTIONS), gw.STEP_REWARD)
    reward[absorbing] = 0.0
    per_action = []
    for a in range(gw.NUM_ACTIONS):
        rows, cols, vals = [], [], []
        for pa in range(cells):
            for pt in range(cells):
                x = pa * cells + pt
                if (pa, pt) in (goals, goals[::-1]):
                    reward[x] = gw.COMPLETION_REWARD
                    rows.append(x), cols.append(absorbing), vals.append(1.0)
                    continue
                pt2 = gw.teammate_step(pt, goals, size)
                moved = gw._clip_move(pa, a, size)
                if moved == pa:
                    rows.append(x), cols.append(pa * cells + pt2), vals.append(1.0)
                else:
                    rows.append(x), cols.append(moved * cells + pt2), vals.append(1.0 - epsilon)
                    rows.append(x), cols.append(pa * cells + pt2), vals.append(epsilon)
        rows.append(absorbing), cols.append(absorbing), vals.append(1.0)
        per_action.append(sparse.coo_array(
            (np.array(vals), (np.array(rows), np.array(cols))), shape=(num_states, num_states)
        ))
    return per_action, reward


def _reference_pursuit_tables(size, config, kind, epsilon):
    """Per-action COO transitions and the reward of one pursuit candidate, entry by entry."""
    cells = size * size
    num_states = cells * cells + 1
    absorbing = num_states - 1
    offsets = [(x, y) for y in range(size) for x in range(size)]

    def state_id(dt, dp):
        return pu._offset_id(dt, size) * cells + pu._offset_id(dp, size)

    reward = np.full((num_states, pu.NUM_ACTIONS), pu.STEP_REWARD)
    reward[absorbing] = 0.0
    bfs_cache = {}
    per_state = {}
    for dt in offsets:
        for dp in offsets:
            if pu._completed(dt, dp, config, size):
                reward[state_id(dt, dp)] = pu.CAPTURE_REWARD
                continue
            if kind == pu.GREEDY:
                te_next = pu._greedy_teammate_move(dt, dp, size)
            else:
                te_next = pu._aware_teammate_move(dt, dp, config, size, bfs_cache)
            prey_choices = []
            for pm in pu.ACTION_VECTORS:
                prey_landing = pu._add(dp, pm, size)
                if prey_landing in ((0, 0), dt):
                    prey_landing = dp
                prey_choices.append(prey_landing)
            per_state[(dt, dp)] = (te_next, prey_choices)
    per_action = []
    for a in range(pu.NUM_ACTIONS):
        rows, cols, vals = [], [], []
        move = pu.ACTION_VECTORS[a]
        for dt in offsets:
            for dp in offsets:
                x = state_id(dt, dp)
                if (dt, dp) not in per_state:
                    rows.append(x), cols.append(absorbing), vals.append(1.0)
                    continue
                te_next, prey_choices = per_state[(dt, dp)]
                agent_moves = [(1.0 - epsilon, move), (epsilon, (0, 0))]
                if pu._wrap(move, size) == dp or move == (0, 0):
                    agent_moves = [(1.0, (0, 0))]
                for p_agent, am in agent_moves:
                    for prey_next in prey_choices:
                        nxt = state_id(pu._sub(te_next, am, size), pu._sub(prey_next, am, size))
                        rows.append(x), cols.append(nxt), vals.append(p_agent / 5.0)
        rows.append(absorbing), cols.append(absorbing), vals.append(1.0)
        per_action.append(sparse.coo_array(
            (np.array(vals), (np.array(rows), np.array(cols))), shape=(num_states, num_states)
        ))
    return per_action, reward


def _assert_same_stored_tables(model, reference_tables, reference_reward):
    """The model's stored transitions are exactly those the storage rules
    make of the reference tables: class, CSR arrays (explicit zeros and
    summation order included) or dense values."""
    reference = TabularPomdp.from_tables(
        reference_tables, model.observation, reference_reward, model.discount, model.initial_belief
    )
    assert np.array_equal(model.reward, reference.reward)
    for got, want in zip(model.transition, reference.transition, strict=True):
        assert type(got) is type(want)
        if sparse.issparse(want):
            assert got.has_canonical_format
            for field in ("indptr", "indices", "data"):
                ours, theirs = getattr(got, field), getattr(want, field)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), field
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("size", [3, 4])
def test_gridworld_tables_match_the_entry_by_entry_reference(size, epsilon):
    models = gw.build_gridworld(size, 8, epsilon, 0.95)
    for model, goals in zip(models, gw.canonical_tasks(size), strict=False):
        _assert_same_stored_tables(model, *_reference_gridworld_tables(size, goals, epsilon))


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("size", [3, 4])
def test_pursuit_tables_match_the_entry_by_entry_reference(size, epsilon):
    _, models = pu.build_pursuit(size, "both", epsilon, 0.95)
    candidates = [(c, kind) for c in pu.CAPTURE_OFFSETS for kind in (pu.GREEDY, pu.AWARE)]
    for model, (config, kind) in zip(models, candidates, strict=True):
        _assert_same_stored_tables(model, *_reference_pursuit_tables(size, config, kind, epsilon))


def test_exported_names_resolve():
    for module in (adhocpo, domains):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
