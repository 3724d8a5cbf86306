"""Solver correctness against independent oracles.

Value iteration is checked against closed-form policy evaluation (matrix
inversion) and an explicit Bellman sweep; the point-based solver against
fully observable reductions where the optimum is known; the lookahead q
against a scalar triple-sum reimplementation.
"""
import dataclasses
import multiprocessing
import os

import numpy as np
import pytest
from scipy import sparse

from adhocpo import modelio, solvers
from adhocpo.csr import CsrTable
from adhocpo.domains import build
from adhocpo.pomdp import (
    TabularMmdp,
    TabularPomdp,
    belief_update,
    row_sums,
    induced_mdp,
    sample_initial_state,
    simulate_step,
    validate,
)
from adhocpo.solvers import (
    AlphaVectorPolicy,
    NonconvergenceBudget,
    PolicyCache,
    PolicyFormatError,
    SolverSettings,
    collect_beliefs,
    dumps_policy,
    loads_policy,
    loss_all,
    perseus_solve,
    point_backup,
    policy_action,
    policy_q_all,
    policy_value,
    solve_many,
    solve_with_cache,
    value_iteration,
)

from conftest import dense, is_csr, random_pomdp, random_stochastic, stored_as_given


def random_mmdp(rng, num_states=5, num_actions=3, discount=0.9):
    t = [random_stochastic(rng, num_states, num_states) for _ in range(num_actions)]
    r = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    return TabularMmdp(transition=t, reward=r, discount=discount)


# -- value iteration ---------------------------------------------------------


def test_value_iteration_matches_policy_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mdp = random_mmdp(rng)
        svf = value_iteration(mdp, tolerance=1e-10)
        # Evaluate the greedy policy in closed form: v = (I - g T_pi)^-1 r_pi.
        n = mdp.num_states
        t_pi = np.array([mdp.transition[svf.greedy[x]][x] for x in range(n)])
        r_pi = np.array([mdp.reward[x, svf.greedy[x]] for x in range(n)])
        v_pi = np.linalg.solve(np.eye(n) - mdp.discount * t_pi, r_pi)
        assert np.abs(svf.values - v_pi).max() < 1e-7


def test_value_iteration_residual_via_explicit_sweep():
    rng = np.random.default_rng(17)
    mdp = random_mmdp(rng, num_states=4, num_actions=2)
    svf = value_iteration(mdp, tolerance=1e-8)
    # Scalar-loop Bellman application, independent of bellman_q.
    worst = 0.0
    for x in range(4):
        best = -np.inf
        for a in range(2):
            total = mdp.reward[x, a]
            for y in range(4):
                total += mdp.discount * mdp.transition[a][x, y] * svf.values[y]
            best = max(best, total)
        worst = max(worst, abs(best - svf.values[x]))
    assert worst <= 1e-8
    assert svf.residual <= 1e-8


def test_value_iteration_geometric_series():
    for r, g in [(-1.0, 0.5), (2.0, 0.95)]:
        mdp = TabularMmdp(transition=[np.ones((1, 1))], reward=np.array([[r]]), discount=g)
        svf = value_iteration(mdp, tolerance=1e-12)
        assert svf.values[0] == pytest.approx(r / (1 - g), abs=1e-9)


def test_value_iteration_budget_exhaustion():
    rng = np.random.default_rng(2)
    mdp = random_mmdp(rng, discount=0.99)
    with pytest.raises(NonconvergenceBudget):
        value_iteration(mdp, tolerance=1e-12, max_iterations=3)


def test_value_iteration_greedy_tie_lowest():
    # Both actions identical, so every state ties; greedy must pick 0.
    t = np.array([[0.5, 0.5], [0.5, 0.5]])
    mdp = TabularMmdp(transition=[t, t.copy()], reward=np.array([[1.0, 1.0], [0.0, 0.0]]), discount=0.9)
    svf = value_iteration(mdp, tolerance=1e-9)
    assert (svf.greedy == 0).all()



def test_value_iteration_breaks_near_ties_toward_the_lowest_action():
    # In state 0 action 1 earns 1e-11 more, far below the 1e-12 relative
    # rounding margin of q near 170, though a plain argmax would see it; in
    # state 1 it earns 1.0 more, a real difference.
    t = np.array([[0.5, 0.5], [0.5, 0.5]])
    reward = np.array([[85.64243255601275, 85.64243255601275 + 1e-11], [84.0, 85.0]])
    mdp = TabularMmdp(transition=[t, t.copy()], reward=reward, discount=0.5)
    svf = value_iteration(mdp, tolerance=1e-9)
    q = solvers.bellman_q(mdp, svf.values)
    assert q[0, 1] > q[0, 0]
    assert svf.greedy.tolist() == [0, 1]


def test_dense_and_csr_twins_pick_the_same_vi_actions():
    # Storage oracle: the 4x4 grid stores its transitions in CSR, which sums
    # without FMA; a dense twin's BLAS product differs in the last bit, and
    # its many exactly tied moves must still resolve to the same actions.
    for model in build("gridworld", size=4, tasks=8).models:
        assert is_csr(model.transition[0])
        with stored_as_given():
            twin = dataclasses.replace(model, transition=[dense(t) for t in model.transition])
        assert not any(map(is_csr, twin.transition))
        csr_vi, dense_vi = (value_iteration(induced_mdp(m)) for m in (model, twin))
        assert np.abs(csr_vi.values - dense_vi.values).max() <= 1e-12
        assert np.array_equal(csr_vi.greedy, dense_vi.greedy), model.label

# -- alpha-vector policy ops -------------------------------------------------


def _tiny_policy():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
    actions = np.array([2, 0, 1])
    return AlphaVectorPolicy(vectors=vectors, actions=actions, discount=0.9)


def test_policy_value_and_action():
    policy = _tiny_policy()
    assert policy_value(policy, np.array([1.0, 0.0])) == 1.0
    assert policy_action(policy, np.array([1.0, 0.0])) == 2
    assert policy_action(policy, np.array([0.0, 1.0])) == 0
    # At the uniform belief the first two vectors tie at 0.5: lowest action wins.
    assert policy_action(policy, np.array([0.5, 0.5])) == 0


def test_policy_q_matches_triple_sum_oracle(rng):
    for zeros in (0.0, 0.5):
        model = random_pomdp(rng, num_states=4, num_actions=3, num_observations=3, zeros=zeros)
        vectors = rng.normal(size=(5, 4))
        actions = rng.integers(0, 3, size=5)
        policy = AlphaVectorPolicy(vectors=vectors, actions=actions, discount=model.discount)
        b = rng.random(4)
        b /= b.sum()
        for a in range(3):
            # Scalar reimplementation with explicit normalisation.
            expected = sum(b[x] * model.reward[x, a] for x in range(4))
            for z in range(3):
                w = [
                    sum(b[x] * dense(model.transition[a])[x, y] for x in range(4))
                    * dense(model.observation[a])[y, z]
                    for y in range(4)
                ]
                rho = sum(w)
                if rho <= 0.0:
                    continue
                bz = [wy / rho for wy in w]
                val = max(sum(al[y] * bz[y] for y in range(4)) for al in vectors)
                expected += model.discount * rho * val
            assert policy_q_all(model, policy, b)[a] == pytest.approx(expected, abs=1e-10)


def test_zero_likelihood_observation_contributes_zero():
    # Observation 1 never occurs; q must equal the z=0 branch alone.
    t = [np.array([[0.3, 0.7], [0.6, 0.4]])]
    o = [np.array([[1.0, 0.0], [1.0, 0.0]])]
    model = TabularPomdp(t, o, np.array([[0.5], [-0.5]]), 0.9, np.array([0.5, 0.5]))
    vectors = np.array([[2.0, 1.0]])
    policy = AlphaVectorPolicy(vectors=vectors, actions=np.array([0]), discount=0.9)
    b = np.array([0.5, 0.5])
    # After action 0 the predictive is [0.45, 0.55]; z=0 certain.
    expected = 0.0 + 0.9 * (2.0 * 0.45 + 1.0 * 0.55)
    assert policy_q_all(model, policy, b)[0] == pytest.approx(expected, abs=1e-12)


def test_loss_nonnegative_with_zero_minimum(rng):
    model = random_pomdp(rng, num_states=4, num_actions=4, num_observations=3)
    vectors = rng.normal(size=(6, 4))
    policy = AlphaVectorPolicy(
        vectors=vectors, actions=rng.integers(0, 4, size=6), discount=model.discount
    )
    for _ in range(5):
        b = rng.random(4)
        b /= b.sum()
        losses = loss_all(model, policy, b)
        assert (losses >= 0.0).all()
        assert losses.min() == 0.0
        q = policy_q_all(model, policy, b)
        a = int(rng.integers(4))
        assert loss_all(model, policy, b)[a] == pytest.approx(q.max() - q[a], abs=1e-12)


def one_pass_models(rng):
    """Seeded models with dense and CSR tables, an observation table per
    action or one object shared by every action, and an observation z = 0
    that never follows action 0 (nor any action, when the table is shared)."""
    for csr in (False, True):
        for shared in (False, True):
            base = random_pomdp(rng, num_states=7, num_actions=3, num_observations=4, zeros=0.5)
            unseen = np.insert(random_stochastic(rng, 7, 3, zeros=0.5), 0, 0.0, axis=1)
            form = CsrTable.from_dense if csr else np.array
            observation = [form(unseen)] * 3 if shared else [form(unseen)] + [
                form(dense(o)) for o in base.observation[1:]
            ]
            with stored_as_given():
                model = dataclasses.replace(
                    base, transition=[form(dense(t)) for t in base.transition], observation=observation
                )
            assert is_csr(model.observation[1]) == is_csr(model.transition[0]) == csr
            assert (model.observation[0] is model.observation[2]) == shared
            yield model


def test_one_pass_lookahead_equals_the_solvers_route(rng):
    for model in one_pass_models(rng):
        full = rng.random(model.num_states) + 0.1
        # One belief whose actions reach every state, then narrow ones.
        beliefs = [full / full.sum(), model.initial_belief, *np.eye(model.num_states)]
        assert np.array([model.propagate(beliefs[0], a) for a in range(model.num_actions)]).any(axis=0).all()
        for size in (1, 3, 9):  # one vector, fewer and more vectors than observations
            vectors = rng.uniform(-5.0, 5.0, size=(size, model.num_states))
            policy = AlphaVectorPolicy(vectors, np.zeros(size, dtype=int), model.discount)
            for b in beliefs:
                q = policy_q_all(model, policy, b)
                reference = solvers._lookahead(model, vectors, solvers._successors(model, b[None]))[0]
                assert (np.abs(q - reference) <= 1e-12 * (1.0 + np.abs(q))).all()
                losses = loss_all(model, policy, b)
                assert losses[q.argmax()] == 0.0 and (losses >= 0.0).all()


@pytest.mark.parametrize(
    "name, overrides",
    [("gridworld", dict(size=4, tasks=2, belief_set_size=40)), ("pursuit-both", dict(belief_set_size=40))],
)
def test_backup_value_equals_the_one_pass_lookahead_on_bench_libraries(name, overrides):
    # The benchmark checks each fresh library this way: point_backup (the
    # solver's route) and policy_q_all (the loss rows' route) agree.
    domain = build(name, **overrides)
    rng = np.random.default_rng(7)
    for model in domain.models[:2]:
        assert is_csr(model.observation[0]) == (name == "pursuit-both")
        policy = perseus_solve(model, domain.solver)
        for b in collect_beliefs(model, 8, domain.solver.horizon, rng):
            alpha, action = point_backup(model, b, policy.vectors)
            q = policy_q_all(model, policy, b)
            scale = max(1.0, abs(float(q.max())))
            assert abs(float(alpha @ b) - q.max()) <= 1e-9 * scale
            assert q.max() - q[action] <= 1e-9 * scale


# -- point-based solving -----------------------------------------------------


def test_collect_beliefs_starts_at_b0_and_dedups(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    beliefs = collect_beliefs(model, size=40, horizon=10, rng=rng)
    assert np.array_equal(beliefs[0], model.initial_belief)
    assert len(beliefs) == 40
    dists = np.abs(beliefs[:, None, :] - beliefs[None, :, :]).sum(axis=2)
    off_diag = dists + np.eye(len(beliefs)) * 10
    assert off_diag.min() > 1e-9


def test_collect_beliefs_stagnation_guard():
    # One state: the filter is constant, so only b0 is collectable.
    model = TabularPomdp(
        [np.ones((1, 1))], [np.ones((1, 1))], np.array([[-1.0]]), 0.9, np.array([1.0])
    )
    beliefs = collect_beliefs(model, size=100, horizon=5, rng=np.random.default_rng(0))
    assert len(beliefs) == 1


def test_perseus_single_state_geometric():
    model = TabularPomdp(
        [np.ones((1, 1)), np.ones((1, 1))],
        [np.ones((1, 1)), np.ones((1, 1))],
        np.array([[-1.0, 1.0]]),
        0.5,
        np.array([1.0]),
    )
    policy = perseus_solve(model, SolverSettings(belief_set_size=10, horizon=5, tolerance=1e-6, seed=0))
    assert policy_value(policy, np.array([1.0])) == pytest.approx(2.0, abs=1e-5)
    assert policy_action(policy, np.array([1.0])) == 1


def test_perseus_matches_vi_on_observable_reduction():
    # Identity observations collapse beliefs to corners, so corner values
    # must approach the fully observable optimum.
    rng = np.random.default_rng(5)
    for _ in range(3):
        n, na = 4, 3
        t = [random_stochastic(rng, n, n) for _ in range(na)]
        o = [np.eye(n) for _ in range(na)]
        r = rng.uniform(-1.0, 1.0, size=(n, na))
        b0 = np.full(n, 1.0 / n)
        model = TabularPomdp(t, o, r, 0.9, b0)
        policy = perseus_solve(
            model, SolverSettings(belief_set_size=150, horizon=25, tolerance=0.005, seed=1)
        )
        svf = value_iteration(induced_mdp(model), tolerance=1e-9)
        for x in range(n):
            corner = np.zeros(n)
            corner[x] = 1.0
            assert policy_value(policy, corner) == pytest.approx(svf.values[x], abs=0.1)


def test_perseus_stage_values_monotone(rng):
    model = random_pomdp(rng, num_states=5, num_actions=3, num_observations=3, discount=0.9)
    policy = perseus_solve(model, SolverSettings(belief_set_size=80, horizon=15, tolerance=0.01, seed=3))
    sv = np.array(policy.stage_values)
    assert len(sv) >= 2
    assert (np.diff(sv) >= -1e-9).all()
    assert policy.stage_improvements[-1] <= 0.01


def test_perseus_deterministic_for_seed(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    s = SolverSettings(belief_set_size=60, horizon=10, tolerance=0.01, seed=9)
    p1 = perseus_solve(model, s)
    p2 = perseus_solve(model, s)
    assert np.array_equal(p1.vectors, p2.vectors)
    assert np.array_equal(p1.actions, p2.actions)


def test_perseus_sparse_dense_storage_agree(rng):
    dense_model = random_pomdp(rng, num_states=6, num_actions=2, num_observations=3, zeros=0.4)
    with stored_as_given():
        sparse_model = dataclasses.replace(
            dense_model,
            transition=[CsrTable.from_dense(t) for t in dense_model.transition],
            observation=[CsrTable.from_dense(o) for o in dense_model.observation],
        )
    assert all(map(is_csr, sparse_model.transition + sparse_model.observation))
    s = SolverSettings(belief_set_size=50, horizon=10, tolerance=0.005, seed=2)
    pd = perseus_solve(dense_model, s)
    ps = perseus_solve(sparse_model, s)
    assert np.allclose(pd.stage_values, ps.stage_values, atol=1e-8)
    b = dense_model.initial_belief
    assert policy_value(pd, b) == pytest.approx(policy_value(ps, b), abs=1e-8)
    assert np.allclose(
        policy_q_all(dense_model, pd, b), policy_q_all(sparse_model, ps, b), atol=1e-8
    )


def test_csr_matrix_tables_solve_like_csr_arrays(rng):
    # 600 states and 64 observations, both about 90% zeros or more: every
    # table has over 2**15 zeros, so both tables of each action are CSR.
    n = 600
    transition = [random_stochastic(rng, n, n, zeros=0.995) for _ in range(2)]
    observation = [random_stochastic(rng, n, 64, zeros=0.9) for _ in range(2)]
    reward = rng.uniform(-1.0, 1.0, size=(n, 2))

    def model(form):
        return TabularPomdp(
            [form(t) for t in transition],
            [form(o) for o in observation],
            reward,
            0.9,
            np.full(n, 1.0 / n),
        )

    from_matrix, from_array = model(sparse.csr_matrix), model(sparse.csr_array)
    assert all(type(t) is CsrTable for t in from_matrix.transition + from_matrix.observation)
    s = SolverSettings(belief_set_size=30, horizon=5, tolerance=0.1, seed=4)
    pm, pa = perseus_solve(from_matrix, s), perseus_solve(from_array, s)
    assert np.array_equal(pm.vectors, pa.vectors)
    assert np.array_equal(pm.actions, pa.actions)


def test_point_backup_improves_value(rng):
    model = random_pomdp(rng, num_states=4, num_actions=3, num_observations=3, discount=0.9)
    floor = model.reward.min() / (1 - model.discount)
    vectors = np.full((1, 4), floor)
    b = rng.random(4)
    b /= b.sum()
    alpha, act = point_backup(model, b, vectors)
    assert 0 <= act < 3
    assert float(alpha @ b) >= floor - 1e-12


def test_point_backup_takes_the_first_of_tied_actions(rng):
    # Actions 1 and 2 share every table, so their q values tie exactly.
    base = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    model = TabularPomdp(
        base.transition + base.transition[1:],
        base.observation + base.observation[1:],
        base.reward[:, [0, 1, 1]],
        base.discount,
        base.initial_belief,
    )
    policy = perseus_solve(model, SolverSettings(belief_set_size=30, horizon=10, seed=1))
    for b in collect_beliefs(model, 30, 10, np.random.default_rng(3)):
        q = policy_q_all(model, policy, b)
        assert q[1] == q[2]
        alpha, act = point_backup(model, b, policy.vectors)
        assert act == int(q.argmax()) != 2
        # Valid bounds that visit action 2 before action 1 change nothing.
        bounds = solvers._Bounds(q + [1.0, 1.0, 2.0], [0])
        bounded = point_backup(model, b, policy.vectors, None, bounds)
        assert np.array_equal(bounded[0], alpha) and bounded[1] == act


def _csr_transition_model(rng, n=600):
    """A model whose transition and observation tables are all stored as CSR."""
    transition = [random_stochastic(rng, n, n, zeros=0.995) for _ in range(2)]
    observation = [random_stochastic(rng, n, 5, zeros=0.8) for _ in range(2)]
    reward = rng.uniform(-1.0, 1.0, size=(n, 2))
    # CSR whatever the storage rule picks for these tables.
    with stored_as_given():
        model = TabularPomdp(
            [CsrTable.from_dense(t) for t in transition],
            [CsrTable.from_dense(o) for o in observation],
            reward,
            0.9,
            np.full(n, 1.0 / n),
        )
    assert all(type(t) is CsrTable for t in model.transition + model.observation)
    return model


def test_successor_store_rows_are_fresh_propagations(rng):
    # Row i * |A| + a of the store is b_i T[a] on its support, next to
    # <b_i, R[:, a]>; the bound rows reuse its indices and offsets.
    dense_model = random_pomdp(rng, num_states=6, num_actions=3, num_observations=3, zeros=0.6)
    full = random_pomdp(rng, num_states=5, num_actions=2, num_observations=3)
    csr = _csr_transition_model(rng)
    for model in (dense_model, full, csr):
        beliefs = collect_beliefs(model, 12, 5, np.random.default_rng(1))
        store = solvers._successors(model, beliefs)
        n = model.num_actions
        assert store.offsets[0] == 0 and store.offsets[-1] == len(store.indices) == len(store.weights)
        rows, rewards = solvers._bound_inputs(model, beliefs, store)
        assert rewards is store.rewards
        assert np.shares_memory(rows.indices, store.indices)
        for i, b in enumerate(beliefs):
            one = store.belief(i)
            for a in range(n):
                u = model.propagate(b, a)
                idx = np.flatnonzero(u)
                r = slice(store.offsets[i * n + a], store.offsets[i * n + a + 1])
                assert np.array_equal(store.indices[r], idx)
                assert np.array_equal(store.weights[r], u[idx])
                assert store.rewards[i, a] == b @ model.reward[:, a]
                own = slice(one.offsets[a], one.offsets[a + 1])
                assert np.array_equal(one.indices[own], idx) and one.rewards[0, a] == store.rewards[i, a]
                sums = row_sums(model.observation[a])
                assert np.array_equal(rows.row(i * n + a), np.where(u != 0, u * sums, 0.0))
        widths = np.diff(store.offsets)
        if model is full:
            # Every row is the full support.
            assert (widths == model.num_states).all()
        else:
            assert (widths < model.num_states).any()


def test_solve_with_stored_successors_equals_rebuilding_them_per_backup(rng, monkeypatch):
    # Oracle: backups that drop every input the solve precomputed, the
    # successor store and the action bounds, so they propagate the belief
    # again and score every action at every call.
    backup = solvers.point_backup

    def rebuilding(model, belief, vectors, *_):
        return backup(model, belief, vectors)

    cases = [
        (build("gridworld", size=3, tasks=1).models[0], SolverSettings(belief_set_size=150, horizon=20, seed=1)),
        (_csr_transition_model(rng), SolverSettings(belief_set_size=30, horizon=5, tolerance=0.1, seed=4)),
    ]
    for model, settings in cases:
        stored = perseus_solve(model, settings)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "point_backup", rebuilding)
            rebuilt = perseus_solve(model, settings)
        assert len(stored.stage_values) > 2
        assert np.array_equal(stored.vectors, rebuilt.vectors)
        assert np.array_equal(stored.actions, rebuilt.actions)
        assert np.array_equal(stored.stage_values, rebuilt.stage_values)
        assert np.array_equal(stored.stage_improvements, rebuilt.stage_improvements)
        beliefs = collect_beliefs(model, 10, 10, np.random.default_rng(2))
        store = solvers._successors(model, beliefs)
        for i, b in enumerate(beliefs):
            given = point_backup(model, b, stored.vectors, store.belief(i))
            built = point_backup(model, b, stored.vectors)
            assert np.array_equal(given[0], built[0]) and given[1] == built[1]


def test_solve_propagates_each_belief_once_per_action(rng, monkeypatch):
    model = random_pomdp(rng, num_states=5, num_actions=3, num_observations=3, discount=0.9)
    settings = SolverSettings(belief_set_size=40, horizon=10, tolerance=1e-4, seed=3)
    beliefs = collect_beliefs(model, settings.belief_set_size, settings.horizon, np.random.default_rng(0))
    propagate, backup = model.propagate, solvers.point_backup
    calls = {"propagate": 0, "backup": 0}

    def counting_propagate(belief, a):
        calls["propagate"] += 1
        return propagate(belief, a)

    def counting_backup(*args):
        calls["backup"] += 1
        return backup(*args)

    monkeypatch.setattr(model, "propagate", counting_propagate)
    monkeypatch.setattr(solvers, "point_backup", counting_backup)
    policy = perseus_solve(model, settings, beliefs)
    # Enough backups that propagating at each of them would break the bound.
    assert calls["backup"] > len(beliefs)
    assert len(policy.stage_values) > 3
    assert calls["propagate"] <= len(beliefs) * model.num_actions


def _tied_model(rng):
    """A model whose actions 1 and 2 share every table, so their q values tie exactly.

    Their reward is raised so that they are often the best.
    """
    base = random_pomdp(rng, num_states=5, num_actions=2, num_observations=3)
    return TabularPomdp(
        base.transition + base.transition[1:],
        base.observation + base.observation[1:],
        base.reward[:, [0, 1, 1]] + [0.0, 0.5, 0.5],
        base.discount,
        base.initial_belief,
    )


def test_bounded_backups_equal_scanning_every_action(rng, monkeypatch):
    # Every backup of these solves runs twice, with the solve's bounds and
    # without them, and the two must give the same vector and action.
    backup, scores = solvers.point_backup, solvers._successor_scores
    count = {"backups": 0, "scored": 0}

    def counting_scores(*args):
        count["scored"] += 1
        return scores(*args)

    def checked(model, belief, vectors, successors=None, bounds=None):
        assert bounds is not None
        scored = count["scored"]
        pruned = backup(model, belief, vectors, successors, bounds)
        count["backups"] += 1
        evaluated.append(count["scored"] - scored)
        full = backup(model, belief, vectors)
        assert np.array_equal(pruned[0], full[0]) and pruned[1] == full[1]
        chosen.add(pruned[1])
        return pruned

    monkeypatch.setattr(solvers, "_successor_scores", counting_scores)
    monkeypatch.setattr(solvers, "point_backup", checked)
    models = [random_pomdp(rng, num_states=6, num_actions=4, num_observations=3, zeros=z) for z in (0.0, 0.5)]
    tied = _tied_model(rng)
    models += [tied, build("gridworld", size=3, tasks=1).models[0]]
    for model in models:
        count.update(backups=0, scored=0)
        evaluated, chosen = [], set()
        policy = perseus_solve(model, SolverSettings(belief_set_size=60, horizon=15, tolerance=1e-3, seed=2))
        if model is tied:
            # The tied actions were chosen, always as the lower one.
            assert 1 in chosen and 2 not in chosen
        total = count["backups"] * model.num_actions
        # Pruning skipped something, and the policy reports what it skipped.
        assert 0 < sum(evaluated) < total
        assert policy.lookahead_counts == (sum(evaluated), total - sum(evaluated))


def test_action_bounds_hold_above_every_lookahead_q(rng):
    for trial in range(6):
        model = random_pomdp(rng, num_states=6, num_actions=3, num_observations=4, zeros=0.3 * (trial % 2))
        beliefs = collect_beliefs(model, 40, 10, rng)
        inputs = solvers._bound_inputs(model, beliefs, solvers._successors(model, beliefs))
        for size in (1, 3, 20):
            vectors = rng.uniform(-5.0, 5.0, size=(size, model.num_states))
            upper = solvers._stage_bounds(model, inputs, vectors)
            policy = AlphaVectorPolicy(vectors, np.zeros(size, dtype=int), model.discount)
            q = np.array([policy_q_all(model, policy, b) for b in beliefs])
            assert (upper >= q).all()
            # Not vacuous: each bound is within the relaxation gap of its q.
            assert (upper - q).max() < 10.0 * model.discount


def test_a_negative_table_entry_turns_the_bounds_off_and_solves_like_the_oracle(rng, monkeypatch):
    base = random_pomdp(rng, num_states=5, num_actions=3, num_observations=3, zeros=0.4)
    observation = [dense(o) for o in base.observation]
    x, z = np.argwhere(observation[1] == 0.0)[0]
    observation[1][x, z] = -1e-12
    model = TabularPomdp(
        [dense(t) for t in base.transition], observation, base.reward, base.discount, base.initial_belief
    )
    assert validate(model) == []
    settings = SolverSettings(tolerance=1e-3, seed=2)
    # Sampling cannot draw from the negative row, so the beliefs come from
    # the model before the change.
    beliefs = collect_beliefs(base, 60, 15, np.random.default_rng(2))
    assert solvers._bound_inputs(model, beliefs, solvers._successors(model, beliefs)) is None
    guarded = perseus_solve(model, settings, beliefs)
    backup = solvers.point_backup
    monkeypatch.setattr(solvers, "point_backup", lambda model, belief, vectors, *_: backup(model, belief, vectors))
    oracle = perseus_solve(model, settings, beliefs)
    assert guarded.lookahead_counts[1] == 0
    assert np.array_equal(guarded.vectors, oracle.vectors)
    assert np.array_equal(guarded.actions, oracle.actions)
    assert np.array_equal(guarded.stage_values, oracle.stage_values)


def test_a_given_belief_set_must_start_at_the_initial_belief(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    settings = SolverSettings(belief_set_size=10, horizon=5, seed=0)
    corners = np.eye(4)
    with pytest.raises(ValueError, match="initial belief"):
        perseus_solve(model, settings, corners)
    with pytest.raises(ValueError, match="initial belief"):
        perseus_solve(model, settings, np.empty((0, 4)))
    with pytest.raises(ValueError, match="4 states"):
        perseus_solve(model, settings, np.vstack([model.initial_belief, corners])[:, :3])
    policy = perseus_solve(model, settings, np.vstack([model.initial_belief, corners]))
    assert policy.stage_values[-1] == policy_value(policy, model.initial_belief)


def _scanned_beliefs(model, size, horizon, rng, dedup_atol=1e-9, stagnation_limit=50):
    """collect_beliefs with the plain scan: each belief against every kept one."""
    out = np.empty((size, model.num_states))
    out[0] = model.initial_belief
    count, stagnant = 1, 0
    while count < size and stagnant < stagnation_limit:
        added = 0
        x = sample_initial_state(model, rng)
        b = model.initial_belief
        for _ in range(horizon):
            a = int(rng.integers(model.num_actions))
            x, z, _ = simulate_step(model, x, a, rng)
            b, _ = belief_update(model, b, a, z)
            if np.abs(out[:count] - b).sum(axis=1).min() > dedup_atol:
                out[count] = b
                count += 1
                added += 1
                if count == size:
                    break
        stagnant = 0 if added else stagnant + 1
    return out[:count]


def test_indexed_belief_dedup_equals_the_plain_scan():
    desk = build("gridworld", size=4, tasks=8, belief_set_size=1500)
    csr = build("pursuit-task", belief_set_size=1000)
    assert type(csr.models[0].transition[0]) is CsrTable
    for domain in (desk, csr):
        model, s = domain.models[0], domain.solver
        indexed_rng, scanned_rng = np.random.default_rng(s.seed), np.random.default_rng(s.seed)
        indexed = collect_beliefs(model, s.belief_set_size, s.horizon, indexed_rng)
        scanned = _scanned_beliefs(model, s.belief_set_size, s.horizon, scanned_rng)
        assert len(indexed) == s.belief_set_size
        assert np.array_equal(indexed, scanned)
        # The solver's generator is left where the plain scan leaves it.
        assert indexed_rng.bit_generator.state == scanned_rng.bit_generator.state


def test_converged_policy_loss_zero_at_greedy_action(rng):
    # With a tight tolerance the alpha-vector argmax and the lookahead
    # argmax coincide, so the greedy action carries zero loss.
    model = random_pomdp(rng, num_states=3, num_actions=2, num_observations=2, discount=0.5)
    policy = perseus_solve(
        model, SolverSettings(belief_set_size=60, horizon=10, tolerance=1e-9, seed=4, stage_cap=2000)
    )
    for _ in range(10):
        b = rng.random(3)
        b /= b.sum()
        a = policy_action(policy, b)
        assert loss_all(model, policy, b)[a] <= 1e-6


# -- policy files and cache --------------------------------------------------


def _small_policy(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    return model, perseus_solve(model, SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0))


def _header_length(data):
    """Bytes up to and including the newline of header line 9."""
    end = -1
    for _ in range(9):
        end = data.index(b"\n", end + 1)
    return end + 1


def _with_block(data, actions, vectors):
    """The file `data` with its line 9 and block rebuilt from the given arrays."""
    head = data[: data.index(b"\nvectors ") + 1]
    line9 = f"vectors {len(actions)} {vectors.shape[1]}\n".encode()
    return head + line9 + actions.astype("<i8").tobytes() + vectors.astype("<f8").tobytes()


def test_policy_round_trip_byte_identical(rng):
    _, policy = _small_policy(rng)
    data = dumps_policy(policy)
    assert isinstance(data, bytes)
    assert dumps_policy(loads_policy(data)) == data
    loaded = loads_policy(data)
    assert np.array_equal(loaded.vectors, policy.vectors)
    assert np.array_equal(loaded.actions, policy.actions)
    assert loaded.settings == policy.settings
    assert loaded.stage_values == policy.stage_values
    assert loaded.stage_improvements == policy.stage_improvements
    # Owned, writable, native-order arrays, like a solved policy's.
    for array, dtype in ((loaded.vectors, np.float64), (loaded.actions, np.int64)):
        assert array.dtype == dtype and array.dtype.isnative
        assert array.flags.owndata and array.flags.writeable and array.flags.c_contiguous


def test_cache_round_trip_and_digest_guard(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    digest = modelio.model_digest(model)
    assert cache.load(digest, s) is None
    p1, hit1 = solve_with_cache(model, s, cache)
    assert not hit1 and p1.source_digest == digest
    p2, hit2 = solve_with_cache(model, s, cache)
    assert hit2 and p2.source_digest == digest
    assert np.array_equal(p1.vectors, p2.vectors)
    # Different settings miss.
    assert cache.load(digest, SolverSettings(belief_set_size=31, horizon=8, tolerance=0.01, seed=0)) is None
    # Different model content misses even at the same path name space.
    other = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    assert cache.load(modelio.model_digest(other), s) is None


def test_truncated_policy_names_the_missing_line(rng):
    _, policy = _small_policy(rng)
    data = dumps_policy(policy)
    header = _header_length(data)
    # A cut anywhere in the header names the first line it leaves without
    # its newline: every byte count of lines 1 to 9.
    for cut in range(header):
        line = data[:cut].count(b"\n") + 1
        with pytest.raises(PolicyFormatError, match=f"^line {line}: unexpected end of file$"):
            loads_policy(data[:cut])
    assert data[:header].count(b"\n") == 9
    # A cut anywhere in the block, or one byte too many, names line 9 with
    # the byte counts.
    expected = len(data) - header
    assert expected == 8 * len(policy) * (1 + policy.vectors.shape[1])
    for bad in [data[:cut] for cut in range(header, len(data))] + [data + b"\0"]:
        message = f"^line 9: expected {expected} bytes of actions and vectors, found {len(bad) - header}$"
        with pytest.raises(PolicyFormatError, match=message):
            loads_policy(bad)


def test_vector_block_reads_bit_for_bit_and_names_a_bad_coefficient():
    vectors = np.array([[1.0 / 3.0, -0.0, 5e-324, -2.5e300], [0.0, -1.0, 1e-300, 7.0]])
    actions = np.array([1, 0])
    data = dumps_policy(AlphaVectorPolicy(vectors=vectors, actions=actions, discount=0.9))
    header = _header_length(data)
    assert data[:header].decode().splitlines()[-1] == "vectors 2 4"
    # The block is the little-endian tags, then the little-endian rows.
    assert data[header:] == actions.astype("<i8").tobytes() + vectors.astype("<f8").tobytes()
    assert data[header:header + 8] == b"\x01" + b"\x00" * 7
    parsed = loads_policy(data)
    assert np.array_equal(parsed.vectors.view(np.uint64), vectors.view(np.uint64))
    assert parsed.actions.tolist() == [1, 0]
    for value in (np.nan, np.inf, -np.inf):
        for row, col in ((0, 0), (1, 3)):
            bad = vectors.copy()
            bad[row, col] = value
            with pytest.raises(PolicyFormatError, match="^line 9: a coefficient is not finite$"):
                loads_policy(_with_block(data, actions, bad))


def test_non_utf8_header_names_its_line(rng):
    _, policy = _small_policy(rng)
    data = dumps_policy(policy)
    lines = data[:_header_length(data)].split(b"\n")[:9]
    block = data[_header_length(data):]
    for i in range(9):
        broken = [*lines[:i], lines[i] + b" \xff\xfe", *lines[i + 1:]]
        bad = b"".join(line + b"\n" for line in broken) + block
        message = "line 1: expected 'adhocpo-policy v2' header" if i == 0 else f"line {i + 1}: not UTF-8"
        with pytest.raises(PolicyFormatError, match=f"^{message}$"):
            loads_policy(bad)


def test_truncated_cache_entry_is_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    data = path.read_bytes()
    for cut in (len(data) // 2, _header_length(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        again, hit = solve_with_cache(model, s, cache)
        assert not hit
        assert np.array_equal(again.vectors, solved.vectors)
        assert path.read_bytes() == data
        _, hit = solve_with_cache(model, s, cache)
        assert hit
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp files left


CORRUPT_HEADERS = [
    # (line number, header line prefix, corrupt replacement)
    (4, "discount ", "discount zero"),
    (5, "settings ", "settings belief_set_size=30,horizon=x,tolerance=0.01,seed=0,stage_cap=500"),
    (5, "settings ", "settings belief_set_size=30"),
    (6, "beliefs ", "beliefs many"),
    (7, "stagevalues ", "stagevalues nope"),
    (8, "improvements ", "improvements 0.5 x"),
    (9, "vectors ", "vectors 3"),
    (9, "vectors ", "vectors -1 4"),
]


def _corrupt(data, prefix, replacement):
    """`data` with the header line that starts with `prefix` replaced."""
    header = _header_length(data)
    lines = data[:header].decode().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = replacement + "\n"
    return "".join(lines).encode() + data[header:]


def test_corrupt_policy_header_names_the_line(rng):
    _, policy = _small_policy(rng)
    data = dumps_policy(policy)
    for lineno, prefix, replacement in CORRUPT_HEADERS:
        with pytest.raises(PolicyFormatError, match=f"^line {lineno}: bad value"):
            loads_policy(_corrupt(data, prefix, replacement))
    # A line with the wrong key, or another format's tag, names its line too.
    with pytest.raises(PolicyFormatError, match="^line 3: expected 'model'$"):
        loads_policy(_corrupt(data, "model ", "modle -"))
    with pytest.raises(PolicyFormatError, match="^line 1: expected 'adhocpo-policy v2' header$"):
        loads_policy(_corrupt(data, "adhocpo-policy ", "adhocpo-policy v1"))


def _nonfinite_entry(data):
    """A whole entry with one coefficient NaN."""
    policy = loads_policy(data)
    policy.vectors[0, 0] = np.nan
    return _with_block(data, policy.actions, policy.vectors)


def test_corrupt_cache_header_is_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    data = path.read_bytes()
    corrupt = [_corrupt(data, prefix, replacement) for _, prefix, replacement in CORRUPT_HEADERS]
    for bad in (*corrupt, _nonfinite_entry(data)):
        path.write_bytes(bad)
        again, hit = solve_with_cache(model, s, cache)
        assert not hit
        assert np.array_equal(again.vectors, solved.vectors)
        assert path.read_bytes() == data
        _, hit = solve_with_cache(model, s, cache)
        assert hit
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp files left


def _unusable_entries(data, num_actions):
    """Readable variants of a policy file that no model can use: no vectors,
    vectors one state too narrow, an action tag past the last action, and a
    negative action tag.  Each block has the length its line 9 gives."""
    policy = loads_policy(data)
    actions, vectors = policy.actions, policy.vectors
    past, negative = actions.copy(), actions.copy()
    past[0], negative[0] = num_actions, -1
    return [
        _with_block(data, actions[:0], vectors[:0]),
        _with_block(data, actions, vectors[:, :-1]),
        _with_block(data, past, vectors),
        _with_block(data, negative, vectors),
    ]


def test_empty_vector_section_names_the_vectors_line(rng):
    model, policy = _small_policy(rng)
    data = dumps_policy(policy)
    empty, narrow, past, negative = _unusable_entries(data, model.num_actions)
    assert empty.endswith(f"\nvectors 0 {model.num_states}\n".encode())
    with pytest.raises(PolicyFormatError, match="^line 9: a policy needs at least one alpha vector$"):
        loads_policy(empty)
    # The others parse; only the cache knows they do not fit the model.
    assert loads_policy(narrow).vectors.shape == (len(policy), model.num_states - 1)
    assert np.array_equal(loads_policy(narrow).vectors, policy.vectors[:, :-1])
    assert loads_policy(past).actions[0] == model.num_actions
    assert loads_policy(negative).actions[0] == -1
    assert np.array_equal(loads_policy(negative).actions[1:], policy.actions[1:])


def test_unusable_cache_entry_is_reported_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    other = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    data = path.read_bytes()
    # A whole entry of another model (wrong digest at the right path), an
    # entry cut short and one without vectors do not load; readable entries
    # that do not fit this model load, and solve_many refuses them.
    other_policy = perseus_solve(other, s)
    other_policy.source_digest = modelio.model_digest(other)
    empty, *unfit = _unusable_entries(data, model.num_actions)
    for bad in (dumps_policy(other_policy), data[: len(data) // 2], empty, *unfit):
        path.write_bytes(bad)
        assert (cache.load(solved.source_digest, s) is None) == (bad not in unfit)
        notes = []
        again, hit = solve_with_cache(model, s, cache, progress=notes.append)
        assert not hit
        assert np.array_equal(again.vectors, solved.vectors)
        assert len(notes) == 1 and notes[0].endswith("replacing an unusable cache entry")
        assert path.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp files left
        notes.clear()
        _, hit = solve_with_cache(model, s, cache, progress=notes.append)
        assert hit and notes == [f"policy for {model.label}: cache"]


# A version 1 entry: the same header, then one text row per vector and an
# "end" line.
V1_ENTRY = """adhocpo-policy v1
label random
model -
discount 0.9
settings belief_set_size=30,horizon=8,tolerance=0.01,seed=0,stage_cap=500
beliefs 30
stagevalues -10.0 1.5
improvements 11.5 0.0
vectors 2 4
0 1.5 -0.25 0.0 2.0
1 0.5 0.75 1.0 -2.0
end
"""


def test_a_version_1_entry_is_resolved_once_and_replaced_in_place(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    digest = modelio.model_digest(model)
    path = cache.path(digest, s)
    path.write_text(V1_ENTRY)
    with pytest.raises(PolicyFormatError, match="^line 1: expected 'adhocpo-policy v2' header$"):
        solvers.load_policy(path)
    assert cache.load(digest, s) is None
    notes = []
    (policy, hit), = solve_many([model], s, cache, progress=notes.append)
    assert not hit
    assert len(notes) == 1 and notes[0].endswith("replacing an unusable cache entry")
    assert path.read_bytes().startswith(b"adhocpo-policy v2\n")
    assert path.read_bytes() == dumps_policy(policy)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    notes.clear()
    (again, hit), = solve_many([model], s, cache, progress=notes.append)
    assert hit and notes == [f"policy for {model.label}: cache"]
    assert np.array_equal(again.vectors.view(np.uint64), policy.vectors.view(np.uint64))


def _store_repeatedly(root, digest, settings, policy, times):
    cache = PolicyCache(root)
    for _ in range(times):
        cache.store(digest, settings, policy)


def test_concurrent_stores_of_one_key_leave_one_whole_entry(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    policy = perseus_solve(model, s)
    digest = modelio.model_digest(model)
    cache = PolicyCache(tmp_path)
    fork = multiprocessing.get_context("fork")
    writers = [
        fork.Process(target=_store_repeatedly, args=(tmp_path, digest, s, policy, 200))
        for _ in range(4)
    ]
    try:
        for w in writers:
            w.start()
        # A reader never sees a partial entry while the writers race.
        while any(w.is_alive() for w in writers):
            seen = cache.load(digest, s)
            assert seen is None or np.array_equal(seen.vectors, policy.vectors)
        for w in writers:
            w.join(timeout=60)
            assert not w.is_alive() and w.exitcode == 0
    finally:
        for w in writers:
            if w.is_alive():
                w.kill()
                w.join()
    loaded = cache.load(digest, s)
    assert np.array_equal(loaded.vectors, policy.vectors)
    assert np.array_equal(loaded.actions, policy.actions)
    assert loaded.stage_values == policy.stage_values
    assert list(tmp_path.glob("*.tmp")) == []


def test_one_miss_or_a_warm_cache_creates_no_pool(tmp_path, rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_pool)
    models = [random_pomdp(rng, num_states=4, num_actions=2, num_observations=3) for _ in range(2)]
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solve_with_cache(models[0], s, cache)
    assert [hit for _, hit in solve_many(models, s, cache)] == [True, False]
    assert [hit for _, hit in solve_many(models, s, cache)] == [True, True]


def test_solve_with_cache_digests_once_warm_and_cold(tmp_path, rng, monkeypatch):
    digest = modelio.model_digest
    calls = []

    def counting_digest(model, tables=None):
        calls.append(model.label)
        return digest(model, tables)

    monkeypatch.setattr(modelio, "model_digest", counting_digest)
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    _, hit = solve_with_cache(model, s, cache)
    assert not hit and len(calls) == 1
    calls.clear()
    _, hit = solve_with_cache(model, s, cache)
    assert hit and len(calls) == 1


@pytest.mark.parametrize("cap", [0, -3])
def test_solve_many_refuses_a_stage_cap_below_1_before_any_cache_access(tmp_path, rng, cap):
    # Such a cap would store the one-vector floor policy unsolved.
    loads = []

    class CountingCache(PolicyCache):
        def load(self, digest, settings):
            loads.append(digest)
            return super().load(digest, settings)

    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    settings = SolverSettings(belief_set_size=30, horizon=8, stage_cap=cap)
    with pytest.raises(ValueError, match=f"^solver stage cap must be at least 1, got {cap}$"):
        solve_many([model], settings, CountingCache(tmp_path))
    assert loads == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value, message", [
    ("belief_set_size", 0, "belief set size must be at least 1, got 0"),
    ("horizon", 0, "horizon must be at least 1, got 0"),
    ("tolerance", -1.0, "solver tolerance must be non-negative, got -1.0"),
    ("tolerance", float("nan"), "solver tolerance must be non-negative, got nan"),
    ("seed", -1, "solver seed must be non-negative, got -1"),
    ("stage_cap", 0, "solver stage cap must be at least 1, got 0"),
    ("stage_cap", -3, "solver stage cap must be at least 1, got -3"),
])
def test_perseus_solve_refuses_what_solve_many_refuses(tmp_path, rng, field, value, message):
    # Both entry points run one check, so a direct solve cannot return the
    # floor policy, run a NaN tolerance to the cap, or fail inside numpy.
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    settings = dataclasses.replace(SolverSettings(belief_set_size=30, horizon=8), **{field: value})
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_many([model], settings, PolicyCache(tmp_path))
    with pytest.raises(ValueError, match=f"^{message}$"):
        perseus_solve(model, settings)
    with pytest.raises(ValueError, match=f"^{message}$"):
        perseus_solve(model, settings, model.initial_belief[None])
    assert list(tmp_path.iterdir()) == []


def test_settings_key_string_is_pinned():
    # The key names every field in order, each value as its default's type;
    # cache paths hash it, so these bytes must not move.
    default = SolverSettings()
    bench = SolverSettings(belief_set_size=100, stage_cap=15)
    integer_tolerance = SolverSettings(tolerance=0)
    numpy_ints = SolverSettings(belief_set_size=np.int64(30), horizon=np.int32(8), seed=np.int64(3))
    assert default.key_string() == "belief_set_size=5000,horizon=50,tolerance=0.01,seed=0,stage_cap=500"
    assert bench.key_string() == "belief_set_size=100,horizon=50,tolerance=0.01,seed=0,stage_cap=15"
    assert integer_tolerance.key_string() == "belief_set_size=5000,horizon=50,tolerance=0.0,seed=0,stage_cap=500"
    assert numpy_ints.key_string() == "belief_set_size=30,horizon=8,tolerance=0.01,seed=3,stage_cap=500"
    for s in (default, bench, integer_tolerance, numpy_ints, SolverSettings(tolerance=1e-4)):
        assert SolverSettings.from_key_string(s.key_string()) == s
    # An int field the solver would refuse keys nothing, not the entry of its integer part.
    for count in (2.5, 2.0):
        with pytest.raises(TypeError):
            SolverSettings(belief_set_size=count).key_string()
