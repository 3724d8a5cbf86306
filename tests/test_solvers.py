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

from adhocpo import solvers
from adhocpo.pomdp import TabularMmdp, TabularPomdp, induced_mdp
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
    resolve_cache_dir,
    solve_many,
    solve_with_cache,
    value_iteration,
)

from conftest import random_pomdp, random_stochastic


def random_mmdp(rng, num_states=5, num_actions=3, discount=0.9):
    t = [random_stochastic(rng, num_states, num_states) for _ in range(num_actions)]
    r = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    return TabularMmdp(
        num_states=num_states,
        agent_action_counts=(num_actions,),
        transition=t,
        reward=r,
        discount=discount,
    )


# -- value iteration ---------------------------------------------------------


def test_value_iteration_matches_policy_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mdp = random_mmdp(rng)
        svf = value_iteration(mdp, tolerance=1e-10)
        # Evaluate the greedy policy in closed form: v = (I - g T_pi)^-1 r_pi.
        n = mdp.num_states
        t_pi = np.array([mdp.dense_transition(svf.greedy[x])[x] for x in range(n)])
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
                total += mdp.discount * mdp.dense_transition(a)[x, y] * svf.values[y]
            best = max(best, total)
        worst = max(worst, abs(best - svf.values[x]))
    assert worst <= 1e-8
    assert svf.residual <= 1e-8


def test_value_iteration_geometric_series():
    for r, g in [(-1.0, 0.5), (2.0, 0.95)]:
        mdp = TabularMmdp(
            num_states=1,
            agent_action_counts=(1,),
            transition=[np.ones((1, 1))],
            reward=np.array([[r]]),
            discount=g,
        )
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
    mdp = TabularMmdp(
        num_states=2,
        agent_action_counts=(2,),
        transition=[t, t.copy()],
        reward=np.array([[1.0, 1.0], [0.0, 0.0]]),
        discount=0.9,
    )
    svf = value_iteration(mdp, tolerance=1e-9)
    assert (svf.greedy == 0).all()


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
                    sum(b[x] * model.dense_transition(a)[x, y] for x in range(4))
                    * model.dense_observation(a)[y, z]
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
    model = TabularPomdp.from_tables(t, o, np.array([[0.5], [-0.5]]), 0.9, np.array([0.5, 0.5]))
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
    model = TabularPomdp.from_tables(
        [np.ones((1, 1))], [np.ones((1, 1))], np.array([[-1.0]]), 0.9, np.array([1.0])
    )
    beliefs = collect_beliefs(model, size=100, horizon=5, rng=np.random.default_rng(0))
    assert len(beliefs) == 1


def test_perseus_single_state_geometric():
    model = TabularPomdp.from_tables(
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
        model = TabularPomdp.from_tables(t, o, r, 0.9, b0)
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
    dense = random_pomdp(rng, num_states=6, num_actions=2, num_observations=3, zeros=0.4)
    sparse_model = dataclasses.replace(
        dense,
        transition=[sparse.csr_array(t) for t in dense.transition],
        observation=[sparse.csr_array(o) for o in dense.observation],
    )
    s = SolverSettings(belief_set_size=50, horizon=10, tolerance=0.005, seed=2)
    pd = perseus_solve(dense, s)
    ps = perseus_solve(sparse_model, s)
    assert np.allclose(pd.stage_values, ps.stage_values, atol=1e-8)
    b = dense.initial_belief
    assert policy_value(pd, b) == pytest.approx(policy_value(ps, b), abs=1e-8)
    assert np.allclose(
        policy_q_all(dense, pd, b), policy_q_all(sparse_model, ps, b), atol=1e-8
    )


def test_point_backup_improves_value(rng):
    model = random_pomdp(rng, num_states=4, num_actions=3, num_observations=3, discount=0.9)
    floor = model.reward.min() / (1 - model.discount)
    vectors = np.full((1, 4), floor)
    b = rng.random(4)
    b /= b.sum()
    alpha, act = point_backup(model, b, vectors)
    assert 0 <= act < 3
    assert float(alpha @ b) >= floor - 1e-12


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


def test_policy_round_trip_byte_identical(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    policy = perseus_solve(model, SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0))
    text = dumps_policy(policy)
    again = dumps_policy(loads_policy(text))
    assert text == again
    loaded = loads_policy(text)
    assert np.array_equal(loaded.vectors, policy.vectors)
    assert np.array_equal(loaded.actions, policy.actions)
    assert loaded.settings == policy.settings
    assert loaded.stage_values == policy.stage_values


def test_cache_round_trip_and_digest_guard(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    assert cache.load(model, s) is None
    p1, hit1 = solve_with_cache(model, s, cache)
    assert not hit1
    p2, hit2 = solve_with_cache(model, s, cache)
    assert hit2
    assert np.array_equal(p1.vectors, p2.vectors)
    # Different settings miss.
    assert cache.load(model, SolverSettings(belief_set_size=31, horizon=8, tolerance=0.01, seed=0)) is None
    # Different model content misses even at the same path name space.
    other = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    assert cache.load(other, s) is None


def test_truncated_policy_names_the_missing_line(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    policy = perseus_solve(model, SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0))
    lines = dumps_policy(policy).splitlines()
    for keep in range(1, len(lines)):
        with pytest.raises(PolicyFormatError, match=f"line {keep + 1}: unexpected end of file"):
            loads_policy("\n".join(lines[:keep]))
    # Cut inside a line: the last vector row loses half its text.
    text = dumps_policy(policy)
    cut = text.rindex("\nend") - 5
    with pytest.raises(PolicyFormatError, match="line"):
        loads_policy(text[:cut])


def test_truncated_cache_entry_is_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])

    again, hit = solve_with_cache(model, s, cache)
    assert not hit
    assert np.array_equal(again.vectors, solved.vectors)
    assert path.read_text() == text
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


def _corrupt(text, prefix, replacement):
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = replacement + "\n"
    return "".join(lines)


def test_corrupt_policy_header_names_the_line(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    policy = perseus_solve(model, SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0))
    text = dumps_policy(policy)
    for lineno, prefix, replacement in CORRUPT_HEADERS:
        with pytest.raises(PolicyFormatError, match=f"line {lineno}: bad value"):
            loads_policy(_corrupt(text, prefix, replacement))


def test_corrupt_cache_header_is_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    text = path.read_text()
    for _, prefix, replacement in CORRUPT_HEADERS:
        path.write_text(_corrupt(text, prefix, replacement))
        again, hit = solve_with_cache(model, s, cache)
        assert not hit
        assert np.array_equal(again.vectors, solved.vectors)
        assert path.read_text() == text
        _, hit = solve_with_cache(model, s, cache)
        assert hit


def test_unusable_cache_entry_is_reported_resolved_then_hits(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    other = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solved, _ = solve_with_cache(model, s, cache)
    path = cache.path(solved.source_digest, s)
    text = path.read_text()
    # A whole entry of another model (wrong digest at the right path), then
    # an entry cut short.
    for bad in (dumps_policy(perseus_solve(other, s)), text[: len(text) // 2]):
        path.write_text(bad)
        notes = []
        again, hit = solve_with_cache(model, s, cache, progress=notes.append)
        assert not hit
        assert np.array_equal(again.vectors, solved.vectors)
        assert len(notes) == 1 and notes[0].endswith("replacing an unusable cache entry")
        assert path.read_text() == text
        notes.clear()
        _, hit = solve_with_cache(model, s, cache, progress=notes.append)
        assert hit and notes == [f"policy for {model.label}: cache"]


def _store_repeatedly(root, model, settings, policy, times):
    cache = PolicyCache(root)
    for _ in range(times):
        cache.store(model, settings, policy)


def test_concurrent_stores_of_one_key_leave_one_whole_entry(tmp_path, rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    policy = perseus_solve(model, s)
    cache = PolicyCache(tmp_path)
    fork = multiprocessing.get_context("fork")
    writers = [
        fork.Process(target=_store_repeatedly, args=(tmp_path, model, s, policy, 200))
        for _ in range(4)
    ]
    try:
        for w in writers:
            w.start()
        # A reader never sees a partial entry while the writers race.
        while any(w.is_alive() for w in writers):
            seen = cache.load(model, s)
            assert seen is None or np.array_equal(seen.vectors, policy.vectors)
        for w in writers:
            w.join(timeout=60)
            assert not w.is_alive() and w.exitcode == 0
    finally:
        for w in writers:
            if w.is_alive():
                w.kill()
                w.join()
    loaded = cache.load(model, s)
    assert np.array_equal(loaded.vectors, policy.vectors)
    assert np.array_equal(loaded.actions, policy.actions)
    assert loaded.stage_values == policy.stage_values
    assert list(tmp_path.glob("*.tmp")) == []


def test_one_miss_or_a_warm_cache_creates_no_pool(tmp_path, rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(solvers, "ProcessPoolExecutor", no_pool)
    models = [random_pomdp(rng, num_states=4, num_actions=2, num_observations=3) for _ in range(2)]
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    solve_with_cache(models[0], s, cache)
    assert [hit for _, hit in solve_many(models, s, cache)] == [True, False]
    assert [hit for _, hit in solve_many(models, s, cache)] == [True, True]


def test_solve_with_cache_digests_once_warm_twice_cold(tmp_path, rng, monkeypatch):
    digest = solvers.model_digest
    calls = []

    def counting_digest(model):
        calls.append(model.label)
        return digest(model)

    monkeypatch.setattr(solvers, "model_digest", counting_digest)
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    cache = PolicyCache(tmp_path)
    s = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0)
    _, hit = solve_with_cache(model, s, cache)
    assert not hit and len(calls) == 2
    calls.clear()
    _, hit = solve_with_cache(model, s, cache)
    assert hit and len(calls) == 1


def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("ADHOCPO_CACHE", raising=False)
    assert resolve_cache_dir(None) is None
    monkeypatch.setenv("ADHOCPO_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"
