"""Construction checks for the benchmark domains at small scale.

Full-scale state/action/observation counts are covered by the
acceptance suite; here the builders are exercised on small instances
with hand-checked dynamics.
"""
import collections
import copy
import dataclasses
import itertools

import numpy as np
import pytest
from scipy import sparse

import adhocpo
from adhocpo import domains
from adhocpo.csr import CsrTable
from adhocpo.domains import DOMAIN_NAMES, REGISTRY, build
from adhocpo.domains import gridcommon as gc
from adhocpo.domains import gridworld as gw
from adhocpo.domains import mapnav
from adhocpo.domains import overcooked as oc
from adhocpo.domains import powerplant as pp
from adhocpo.domains import pursuit as pu
from adhocpo.modelio import model_digests
from adhocpo.pomdp import TabularPomdp, validate
from adhocpo.solvers import SolverSettings

from conftest import dense, is_canonical, is_csr


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


def test_every_domain_builds_each_model_through_the_task_skeleton(monkeypatch):
    # One task_model call per model.  Each model's absorbing last state pays
    # 0 and stays put, its finished states pay +100 and fall into it, and
    # every other state pays -1, under every action.
    task_model = gc.task_model
    calls = []

    def spy(finished, *args):
        calls.append((finished, task_model(finished, *args)))
        return calls[-1][1]

    monkeypatch.setattr(gc, "task_model", spy)
    for name in DOMAIN_NAMES:
        calls.clear()
        models = build(name, **({"size": 3} if name.startswith("pursuit") else {})).models
        assert [id(m) for _, m in calls] == [id(m) for m in models], name
        for finished, m in calls:
            absorbing = m.num_states - 1
            pays = np.full(m.num_states, gc.STEP_REWARD)
            pays[finished] = gc.COMPLETION_REWARD
            pays[absorbing] = 0.0
            assert len(finished) and absorbing not in finished, m.label
            assert np.array_equal(m.reward, np.repeat(pays[:, None], m.num_actions, axis=1)), m.label
            into_absorbing = np.zeros(m.num_states)
            into_absorbing[absorbing] = 1.0
            for t in m.transition:
                column, sums = t @ into_absorbing, t @ np.ones(m.num_states)
                assert np.all(column[finished] == 1.0) and column[absorbing] == 1.0, m.label
                assert np.all(sums[finished] == 1.0) and sums[absorbing] == 1.0, m.label


def test_gridworld_desk_build():
    b = build("gridworld", size=4, tasks=4, belief_set_size=100)
    assert b.size == 4
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (257, 5, 81)
        assert validate(m) == []


def _open_grid(size):
    return gc.GridMap("\n".join(["." * size] * size))


def _manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _manhattan_tasks(size):
    """The open grid's goal pairs by the Manhattan rule: farthest first, then by cell ids."""
    pairs = itertools.combinations(range(size * size), 2)
    return sorted(pairs, key=lambda g: (-_manhattan(divmod(g[0], size), divmod(g[1], size)), g))


def _clipped_move(cell, action, size):
    r, c = divmod(cell, size)
    dr, dc = gc.MOVES[action]
    return (r + dr) * size + c + dc if 0 <= r + dr < size and 0 <= c + dc < size else cell


def _manhattan_teammate_step(cell, goals, size):
    """Toward the Manhattan-nearer goal (lower id on ties), first reducing move in Up, Down, Left, Right."""
    here = divmod(cell, size)
    target = min(goals, key=lambda g: (_manhattan(here, divmod(g, size)), g))
    for action in gc.MOVE_ORDER:
        nxt = _clipped_move(cell, action, size)
        if _manhattan(divmod(nxt, size), divmod(target, size)) < _manhattan(here, divmod(target, size)):
            return nxt
    return cell


def test_gridworld_task_enumeration_nests():
    tasks = gc.canonical_tasks(_open_grid(4))
    assert tasks[0] == (0, 15)
    assert tasks[1] == (3, 12)
    assert gc.canonical_tasks(_open_grid(4))[:2] == tasks[:2]


def test_gridworld_teammate_walks_to_nearest_goal():
    # Cell 5 is (1,1) on a 4-grid; goal 0 is nearer than 15, Up wins.
    assert gc.teammate_steps(_open_grid(4), (0, 15))[[5, 0]].tolist() == [1, 0]


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_open_grid_geometry_follows_the_manhattan_rules(size):
    # The gridworld's plan is a map without walls: its path distances,
    # task order, teammate steps and moves are the Manhattan ones.
    grid = _open_grid(size)
    cells = range(size * size)
    manhattan = [[_manhattan(divmod(a, size), divmod(b, size)) for b in cells] for a in cells]
    assert grid.distances.tolist() == manhattan
    tasks = gc.canonical_tasks(grid)
    assert tasks == _manhattan_tasks(size)
    for goals in tasks:
        expected = [_manhattan_teammate_step(cell, goals, size) for cell in cells]
        assert gc.teammate_steps(grid, goals).tolist() == expected
    assert grid.moves.tolist() == [[_clipped_move(c, a, size) for a in range(5)] for c in cells]


def test_gridworld_completion_and_noise_rows():
    b = build("gridworld", size=4, tasks=1, epsilon=0.2, belief_set_size=100)
    m = b.models[0]  # goals (0, 15)
    absorbing = m.num_states - 1
    done = 0 * 16 + 15
    for a in range(5):
        assert dense(m.transition[a])[done, absorbing] == 1.0
    assert np.all(m.reward[done] == 100.0)
    assert np.all(m.reward[absorbing] == 0.0)

    # Agent at cell 5, teammate at 10: teammate steps Down to 14; the
    # agent's Up lands on 1 with prob 0.8 and fails in place with 0.2.
    x = 5 * 16 + 10
    row = dense(m.transition[0])[x]
    assert row[1 * 16 + 14] == pytest.approx(0.8)
    assert row[5 * 16 + 14] == pytest.approx(0.2)



def _sensor_symbols(cell, teammate_cell, passable):
    """True reading per direction, Up, Down, Left, Right: Wall where
    `passable(r, c)` is False, Teammate on the teammate's cell, else Nothing."""
    out = []
    for d in gc.MOVE_ORDER:
        target = (cell[0] + gc.MOVES[d][0], cell[1] + gc.MOVES[d][1])
        if not passable(*target):
            out.append(gc.WALL)
        elif target == teammate_cell:
            out.append(gc.TEAMMATE)
        else:
            out.append(gc.NOTHING)
    return tuple(out)


def _passable(plan):
    """Whether (r, c) is a free cell of the plan."""
    return lambda r, c: 0 <= r < plan.height and 0 <= c < plan.width and plan.rows[r][c] == "."


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
            symbols = _sensor_symbols(
                divmod(pa, size), divmod(pt, size), lambda r, c: 0 <= r < size and 0 <= c < size
            )
            expected[pa * cells + pt] = _fresh_sensor_row(symbols, epsilon)
    expected[-1, gc.BLANK_OBSERVATION] = 1.0
    assert np.array_equal(dense(grid.observation[0]), expected)

    epsilon = 0.1
    house = build("isr", map_name="test3x3", tasks=1, epsilon=epsilon).models[0]
    plan = mapnav.load_map("test3x3")
    f = plan.num_free
    expected = np.zeros((house.num_states, gc.NUM_OBSERVATIONS))
    for pa in range(f):
        for pt in range(f):
            if pa != pt:
                symbols = _sensor_symbols(plan.free_cells[pa], plan.free_cells[pt], _passable(plan))
                expected[pa * (f - 1) + (pt if pt < pa else pt - 1)] = _fresh_sensor_row(symbols, epsilon)
    expected[-1, gc.BLANK_OBSERVATION] = 1.0
    assert np.array_equal(dense(house.observation[0]), expected)


def test_shared_sensor_rows_are_read_only():
    table = gc._reading_table(0.2)
    assert gc._reading_table(0.2) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    for reading, symbols in enumerate(itertools.product(range(3), repeat=4)):
        assert np.array_equal(table[reading], _fresh_sensor_row(symbols, 0.2))

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
    x = _offset_id((0, 1), 3) * 9 + _offset_id((0, 2), 3)
    assert _captured((0, 1), (0, 2), (0, -1), 3)
    for a in range(5):
        assert dense(m.transition[a])[x, absorbing] == 1.0
    assert np.all(m.reward[x] == 100.0)


def test_pursuit_greedy_teammate_closes_distance():
    m = build("pursuit-task", size=3, belief_set_size=100).models[1]  # west-east, greedy

    def teammate_next(dt, dp):
        row = dense(m.transition[gc.STAY])[_offset_id(dt, 3) * 9 + _offset_id(dp, 3)]
        return {int(j) // 9 for j in np.flatnonzero(row)}

    assert _greedy_teammate_move((2, 2), (0, 1), 3) == (2, 1)
    assert teammate_next((2, 2), (0, 1)) == {_offset_id((2, 1), 3)}
    # Already adjacent: several moves keep distance 1 and the first in
    # action order (Up) wins, landing on the agent's (shareable) cell.
    assert _greedy_teammate_move((0, 1), (0, 2), 3) == (0, 0)
    assert teammate_next((0, 1), (0, 2)) == {_offset_id((0, 0), 3)}


def test_pursuit_observation_patch():
    b = build("pursuit-task", size=3, epsilon=0.2, belief_set_size=100)
    m = b.models[0]
    # Teammate on the agent (centre cell 4), prey at signed (+1,+1) = cell 8.
    x = _offset_id((0, 0), 3) * 9 + _offset_id((1, 1), 3)
    row = dense(m.observation[0])[x]
    assert row[4 * 9 + 8] == pytest.approx(0.8)
    assert row[4 * 9 + 4] == pytest.approx(0.2)
    assert row.sum() == pytest.approx(1.0)


def test_pursuit_observation_table_is_one_object_per_model():
    # Full scale (626 states) stores the sensor table as CSR; the one table
    # every action shares is converted once, not once per action.
    for m in build("pursuit-task").models:
        assert is_csr(m.observation[0])
        assert all(o is m.observation[0] for o in m.observation)


def test_grid_sensor_table_is_one_object_per_library():
    # Later candidates keep the first one's stored sensor table, dense or
    # CSR.  Cases: (name, settings, stored as CSR at the default epsilon,
    # stored as CSR at epsilon 0).
    cases = [
        ("gridworld", {"size": 5, "tasks": 4}, False, True),
        ("pursuit-task", {}, True, True),
        ("pursuit-both", {}, True, True),
        ("ntu", {}, False, False),
        *((name, {}, False, True) for name in ("isr", "mit", "pentagon", "cit")),
    ]
    for name, settings, *csr in cases:
        for overrides, stored_csr in zip(({}, {"epsilon": 0.0}), csr, strict=True):
            models = build(name, **settings, **overrides).models
            assert len({id(o) for m in models for o in m.observation}) == 1
            assert is_csr(models[0].observation[0]) == stored_csr
            # Sharing leaves each model's digest as that of its own copy of the table.
            unshared = [
                dataclasses.replace(m, observation=[copy.copy(m.observation[0])] * m.num_actions)
                for m in models
            ]
            assert len({id(o) for m in unshared for o in m.observation}) == len(models)
            assert model_digests(unshared) == model_digests(models)


def test_power_plant_counts_and_validity():
    b = build("power-plant")
    assert [m.num_states for m in b.models] == [97, 105]
    for m in b.models:
        assert (m.num_actions, m.num_observations) == (6, 6)
        assert validate(m) == []
        # The three moves and hold share one silent table; every table is small enough to stay dense.
        assert not any(map(is_csr, m.transition + m.observation))
        assert len({id(o) for o in m.observation[: pp.HOLD + 1]}) == 1
        assert len({id(o) for o in m.observation}) == 3
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
    who = dense(m.observation[pp.QUERY_HUMAN])
    left = dense(m.observation[pp.QUERY_PROGRESS])
    assert who[x, 2] == pytest.approx(0.8)
    assert who[x, pp.NULL_OBSERVATION] == pytest.approx(0.2)
    assert left[x, 3] == pytest.approx(0.8)  # 1 + two unfinished rooms
    # The control room is indistinguishable from a failed reading.
    x0 = index[(1, 0, frozenset({3, 4}))]
    assert who[x0, pp.NULL_OBSERVATION] == 1.0
    # Movement is silent.
    assert dense(m.observation[pp.MOVE_0])[x, pp.NULL_OBSERVATION] == 1.0
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
                assert dense(m.transition[a])[x, absorbing] == 1.0
        else:
            assert np.all(m.reward[x] == -1.0)


def test_overcooked_counts_and_validity():
    b = build("overcooked")
    assert b.size == 4
    for m in b.models:
        assert (m.num_states, m.num_actions, m.num_observations) == (1730, 4, 1730)
        assert all(map(is_csr, m.transition + m.observation))
        assert validate(m) == []
    # Every action of every cook reads the one CSR identity table.
    assert len({id(o) for m in b.models for o in m.observation}) == 1


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
    # 15 live steps at -1, then the served marker pays +100 and falls into the absorbing state.
    assert x == m.num_states - 1
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
    assert gc.canonical_tasks(grid)[0] == (0, 8)
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
    assert dense(m.transition[right])[x, x] == 1.0


def _reference_map_tables(grid, goals, epsilon):
    """Dense transitions and reward of one map task, state by state."""
    f = grid.num_free
    n = f * (f - 1) + 1
    absorbing = n - 1
    index = {cell: i for i, cell in enumerate(grid.free_cells)}
    passable = _passable(grid)

    def state_id(pa, pt):
        return pa * (f - 1) + (pt if pt < pa else pt - 1)

    def step(cell, a):
        dr, dc = gc.MOVES[a]
        nxt = (grid.free_cells[cell][0] + dr, grid.free_cells[cell][1] + dc)
        return index[nxt] if passable(*nxt) else cell

    def steps_to(goal):
        """Breadth-first path lengths to `goal`, by cell id; absent where cut off."""
        dist, queue = {goal: 0}, collections.deque([goal])
        while queue:
            cell = queue.popleft()
            for a in gc.MOVE_ORDER:
                nxt = step(cell, a)
                if nxt not in dist:
                    dist[nxt] = dist[cell] + 1
                    queue.append(nxt)
        return dist

    far = grid.num_free  # longer than any path
    to_goal = {g: steps_to(g) for g in goals}

    def teammate_step(cell):
        target = min(goals, key=lambda g: (to_goal[g].get(cell, far), g))
        for a in gc.MOVE_ORDER:
            if to_goal[target].get(step(cell, a), far) < to_goal[target].get(cell, far):
                return step(cell, a)
        return cell

    teammate = [teammate_step(pt) for pt in range(f)]
    transition = np.zeros((gc.NUM_ACTIONS, n, n))
    reward = np.full((n, gc.NUM_ACTIONS), gc.STEP_REWARD)
    reward[absorbing] = 0.0
    transition[:, absorbing, absorbing] = 1.0
    for a in range(gc.NUM_ACTIONS):
        for pa in range(f):
            for pt in range(f):
                if pa == pt:
                    continue
                x = state_id(pa, pt)
                if {pa, pt} == set(goals):
                    reward[x] = gc.COMPLETION_REWARD
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
        for model, goals in zip(models, gc.canonical_tasks(grid), strict=False):
            transition, reward = _reference_map_tables(grid, goals, epsilon)
            assert np.array_equal(model.reward, reward)
            for a in range(model.num_actions):
                assert np.array_equal(dense(model.transition[a]), transition[a])


def _reference_gridworld_tables(size, goals, epsilon):
    """Per-action COO transitions and the reward of one grid task, entry by entry."""
    cells = size * size
    num_states = cells * cells + 1
    absorbing = num_states - 1
    reward = np.full((num_states, gc.NUM_ACTIONS), gc.STEP_REWARD)
    reward[absorbing] = 0.0
    per_action = []
    for a in range(gc.NUM_ACTIONS):
        rows, cols, vals = [], [], []
        for pa in range(cells):
            for pt in range(cells):
                x = pa * cells + pt
                if (pa, pt) in (goals, goals[::-1]):
                    reward[x] = gc.COMPLETION_REWARD
                    rows.append(x), cols.append(absorbing), vals.append(1.0)
                    continue
                pt2 = _manhattan_teammate_step(pt, goals, size)
                moved = _clipped_move(pa, a, size)
                if moved == pa:
                    rows.append(x), cols.append(pa * cells + pt2), vals.append(1.0)
                else:
                    rows.append(x), cols.append(moved * cells + pt2), vals.append(1.0 - epsilon)
                    rows.append(x), cols.append(pa * cells + pt2), vals.append(epsilon)
        rows.append(absorbing), cols.append(absorbing), vals.append(1.0)
        # SciPy's own CSR is the reference for the sort and the duplicate sums.
        ref = sparse.csr_array(sparse.coo_array(
            (np.array(vals), (np.array(rows), np.array(cols))), shape=(num_states, num_states)
        ))
        per_action.append(CsrTable(ref.data, ref.indices, ref.indptr, ref.shape))
    return per_action, reward


# Pursuit's rules state by state on (dx, dy) offset tuples, the test's
# reference for the builder's array rules.
_PURSUIT_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))  # Up, Down, Left, Right, Stay


def _torus_add(a, b, size):
    return ((a[0] + b[0]) % size, (a[1] + b[1]) % size)


def _torus_sub(a, b, size):
    return ((a[0] - b[0]) % size, (a[1] - b[1]) % size)


def _torus_distance(offset, size):
    return min(offset[0], size - offset[0]) + min(offset[1], size - offset[1])


def _offset_id(offset, size):
    return offset[1] * size + offset[0]


def _captured(dt, dp, config, size):
    """Teammate and prey complete the configuration: prey at +c and teammate at +2c, or both negated."""
    plus, minus = _torus_add(config, (0, 0), size), _torus_sub((0, 0), config, size)
    return (dp, dt) in ((plus, _torus_add(plus, plus, size)), (minus, _torus_add(minus, minus, size)))


def _greedy_teammate_move(dt, dp, size):
    """Chase the prey: minimise toroidal distance, lowest action id on ties.
    Moves onto the prey are evaluated as stays."""
    best = None
    for move in _PURSUIT_MOVES:
        landing = _torus_add(dt, move, size)
        effective = dt if landing == dp else landing
        score = _torus_distance(_torus_sub(dp, effective, size), size)
        if best is None or score < best[0]:
            best = (score, effective)
    return best[1]


def _torus_path_lengths(start, blocked, size):
    """Breadth-first path lengths from `start` that never enter a `blocked` cell; absent where cut off."""
    dist, queue = {start: 0}, collections.deque([start])
    while queue:
        cell = queue.popleft()
        for move in _PURSUIT_MOVES[:4]:
            nxt = _torus_add(cell, move, size)
            if nxt not in dist and nxt not in blocked:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    return dist


def _aware_teammate_move(dt, dp, config, size, routes):
    """Claim a capture slot and route to it around the agent and prey.

    The two slots sit at prey +/- the configuration offset.  Slots go to
    whichever assignment minimises teammate path length (avoiding the
    agent's and prey's cells) plus the agent's straight-line distance; ties
    favour the teammate taking the + slot.  A cut-off cell counts
    10 * size**2 steps.
    """
    far = 10 * size * size
    slot_a = _torus_add(dp, config, size)
    slot_b = _torus_sub(dp, config, size)
    blocked = {(0, 0), dp}
    for slot in (slot_a, slot_b):
        if (slot, dp) not in routes:
            routes[(slot, dp)] = _torus_path_lengths(slot, blocked - {slot}, size)
    te_a = routes[(slot_a, dp)].get(dt, far)
    te_b = routes[(slot_b, dp)].get(dt, far)
    ah_a = _torus_distance(slot_a, size)  # agent sits at the origin
    ah_b = _torus_distance(slot_b, size)
    target = slot_a if te_a + ah_b <= te_b + ah_a else slot_b
    if dt == target:
        return dt
    best = None
    for move in _PURSUIT_MOVES:
        landing = _torus_add(dt, move, size)
        if move != (0, 0) and landing in blocked:
            continue
        score = routes[(target, dp)].get(landing, far)
        if best is None or score < best[0]:
            best = (score, landing)
    return best[1]


def _reference_pursuit_observation(size, epsilon):
    """Each state's reading of the teammate and the prey in the 3x3 patch, state by state."""
    cells = size * size

    def patch_reading(offset):
        sx, sy = (v if v <= size // 2 else v - size for v in offset)
        e = np.zeros(9)
        e[(sy + 1) * 3 + sx + 1 if abs(sx) <= 1 and abs(sy) <= 1 else 4] += 1.0 - epsilon
        e[4] += epsilon
        return e

    offsets = [(x, y) for y in range(size) for x in range(size)]
    obs = np.zeros((cells * cells + 1, 81))
    for x, (dt, dp) in enumerate(itertools.product(offsets, repeat=2)):
        obs[x] = np.outer(patch_reading(dt), patch_reading(dp)).ravel()
    obs[-1, 4 * 9 + 4] = 1.0
    return obs


def _reference_pursuit_tables(size, config, kind, epsilon):
    """Per-action COO transitions and the reward of one pursuit candidate, entry by entry."""
    cells = size * size
    num_states = cells * cells + 1
    absorbing = num_states - 1
    offsets = [(x, y) for y in range(size) for x in range(size)]

    def state_id(dt, dp):
        return _offset_id(dt, size) * cells + _offset_id(dp, size)

    reward = np.full((num_states, gc.NUM_ACTIONS), gc.STEP_REWARD)
    reward[absorbing] = 0.0
    routes = {}
    per_state = {}
    for dt in offsets:
        for dp in offsets:
            if _captured(dt, dp, config, size):
                reward[state_id(dt, dp)] = gc.COMPLETION_REWARD
                continue
            if kind == pu.GREEDY:
                te_next = _greedy_teammate_move(dt, dp, size)
            else:
                te_next = _aware_teammate_move(dt, dp, config, size, routes)
            prey_choices = []
            for pm in _PURSUIT_MOVES:
                prey_landing = _torus_add(dp, pm, size)
                if prey_landing in ((0, 0), dt):
                    prey_landing = dp
                prey_choices.append(prey_landing)
            per_state[(dt, dp)] = (te_next, prey_choices)
    per_action = []
    for a in range(gc.NUM_ACTIONS):
        rows, cols, vals = [], [], []
        move = _PURSUIT_MOVES[a]
        for dt in offsets:
            for dp in offsets:
                x = state_id(dt, dp)
                if (dt, dp) not in per_state:
                    rows.append(x), cols.append(absorbing), vals.append(1.0)
                    continue
                te_next, prey_choices = per_state[(dt, dp)]
                agent_moves = [(1.0 - epsilon, move), (epsilon, (0, 0))]
                if _torus_add(move, (0, 0), size) == dp or move == (0, 0):
                    agent_moves = [(1.0, (0, 0))]
                for p_agent, am in agent_moves:
                    for prey_next in prey_choices:
                        nxt = state_id(_torus_sub(te_next, am, size), _torus_sub(prey_next, am, size))
                        rows.append(x), cols.append(nxt), vals.append(p_agent / 5.0)
        rows.append(absorbing), cols.append(absorbing), vals.append(1.0)
        # SciPy's own CSR is the reference for the sort and the duplicate sums.
        ref = sparse.csr_array(sparse.coo_array(
            (np.array(vals), (np.array(rows), np.array(cols))), shape=(num_states, num_states)
        ))
        per_action.append(CsrTable(ref.data, ref.indices, ref.indptr, ref.shape))
    return per_action, reward


def _assert_same_stored_tables(model, reference_tables, reference_reward):
    """The model's stored transitions are exactly those the storage rules
    make of the reference tables: class, CSR arrays (explicit zeros and
    summation order included) or dense values."""
    reference = TabularPomdp(
        reference_tables, model.observation, reference_reward, model.discount, model.initial_belief
    )
    assert np.array_equal(model.reward, reference.reward)
    for got, want in zip(model.transition, reference.transition, strict=True):
        assert type(got) is type(want)
        if is_csr(want):
            assert is_canonical(got)
            for field in ("indptr", "indices", "data"):
                ours, theirs = getattr(got, field), getattr(want, field)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), field
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("size", [3, 4])
def test_gridworld_tables_match_the_entry_by_entry_reference(size, epsilon):
    models = gw.build_gridworld(size, 8, epsilon, 0.95)
    for model, goals in zip(models, _manhattan_tasks(size), strict=False):
        _assert_same_stored_tables(model, *_reference_gridworld_tables(size, goals, epsilon))


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_pursuit_tables_match_the_entry_by_entry_reference(size, epsilon):
    _, models = pu.build_pursuit(size, "both", epsilon, 0.95)
    candidates = [(c, kind) for c in pu.CAPTURE_OFFSETS for kind in (pu.GREEDY, pu.AWARE)]
    observation = _reference_pursuit_observation(size, epsilon)
    for model, (config, kind) in zip(models, candidates, strict=True):
        _assert_same_stored_tables(model, *_reference_pursuit_tables(size, config, kind, epsilon))
        assert np.array_equal(dense(model.observation[0]), observation)


def test_exported_names_resolve():
    for module in (adhocpo, domains):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
