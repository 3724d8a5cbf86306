"""Belief filtering against an exhaustive path-sum oracle, plus model checks."""
import dataclasses

import numpy as np
import pytest
from scipy import sparse

from adhocpo.pomdp import (
    TabularPomdp,
    ZeroLikelihood,
    belief_update,
    induced_mdp,
    observation_likelihoods,
    sample_initial_state,
    simulate_step,
    validate,
)

from conftest import exhaustive_filter, random_pomdp, random_stochastic


def _random_history(model, rng, length):
    # Histories drawn by simulation are guaranteed to have positive likelihood.
    x = sample_initial_state(model, rng)
    history = []
    for _ in range(length):
        a = int(rng.integers(model.num_actions))
        x, z, _ = simulate_step(model, x, a, rng)
        history.append((a, z))
    return history


def test_belief_update_matches_path_sum_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        model = random_pomdp(
            rng,
            num_states=int(rng.integers(2, 5)),
            num_actions=int(rng.integers(1, 4)),
            num_observations=int(rng.integers(2, 4)),
            zeros=0.3 if trial % 2 else 0.0,
        )
        history = _random_history(model, rng, int(rng.integers(1, 5)))
        expected, expected_mass = exhaustive_filter(model, history)

        b = model.initial_belief
        mass = 1.0
        for a, z in history:
            b, lik = belief_update(model, b, a, z)
            mass *= lik
        assert np.allclose(b, expected, atol=1e-10)
        assert mass == pytest.approx(expected_mass, abs=1e-12)


def test_belief_update_zero_likelihood_raises():
    # Observation 1 is impossible everywhere under action 0.
    t = [np.eye(2)]
    o = [np.array([[1.0, 0.0], [1.0, 0.0]])]
    r = np.zeros((2, 1))
    model = TabularPomdp.from_tables(t, o, r, 0.9, np.array([0.5, 0.5]))
    with pytest.raises(ZeroLikelihood):
        belief_update(model, model.initial_belief, 0, 1)


def test_observation_likelihoods_sum_to_one(rng):
    for _ in range(10):
        model = random_pomdp(rng, num_states=5, num_actions=2, num_observations=4)
        b = rng.random(5)
        b /= b.sum()
        for a in range(model.num_actions):
            liks = observation_likelihoods(model, b, a)
            assert liks.shape == (4,)
            assert liks.sum() == pytest.approx(1.0, abs=1e-12)


def test_likelihood_matches_marginal(rng):
    model = random_pomdp(rng, num_states=6, num_actions=3, num_observations=5)
    b = model.initial_belief
    for a in range(3):
        liks = observation_likelihoods(model, b, a)
        for z in range(5):
            _, lik = belief_update(model, b, a, z)
            assert lik == pytest.approx(liks[z], abs=1e-14)


def test_dense_and_sparse_storage_agree(rng):
    for _ in range(5):
        dense = random_pomdp(rng, num_states=8, num_actions=2, num_observations=3, zeros=0.5)
        sparse_model = dataclasses.replace(
            dense,
            transition=[sparse.csr_array(t) for t in dense.transition],
            observation=[sparse.csr_array(o) for o in dense.observation],
        )
        assert all(map(sparse.issparse, sparse_model.transition + sparse_model.observation))
        assert not any(map(sparse.issparse, dense.transition + dense.observation))
        history = _random_history(dense, rng, 4)
        bd, bs = dense.initial_belief, sparse_model.initial_belief
        for a, z in history:
            bd, lik_d = belief_update(dense, bd, a, z)
            bs, lik_s = belief_update(sparse_model, bs, a, z)
            assert np.allclose(bd, bs, atol=1e-12)
            assert lik_d == pytest.approx(lik_s, abs=1e-12)
        for x in range(8):
            assert np.allclose(dense.transition_row(x, 1), sparse_model.transition_row(x, 1))
            assert np.allclose(dense.observation_row(x, 0), sparse_model.observation_row(x, 0))


def test_each_table_picks_its_own_storage(rng):
    # 600 rows: a transition table with about 3 nonzeros per row is CSR; a
    # fully nonzero observation table stays dense and shared across actions.
    n = 600
    transition = [random_stochastic(rng, n, n, zeros=0.995) for _ in range(2)]
    obs = random_stochastic(rng, n, 4)
    model = TabularPomdp.from_tables(
        transition, [obs, obs], np.zeros((n, 2)), 0.9, np.full(n, 1.0 / n)
    )
    assert all(map(sparse.issparse, model.transition))
    assert model.observation[0] is obs and model.observation[1] is obs
    for a in range(2):
        assert np.array_equal(model.dense_transition(a), transition[a])

    # At 512 rows or fewer every table is dense, however sparse; one row
    # more and a mostly zero table is CSR.
    for rows, stored_sparse in ((512, False), (513, True)):
        eye = sparse.eye_array(rows, format="csr")
        model = TabularPomdp.from_tables(
            [eye, eye], [eye, eye], np.zeros((rows, 2)), 0.9, np.full(rows, 1.0 / rows)
        )
        tables = model.transition + model.observation
        assert [sparse.issparse(t) for t in tables] == [stored_sparse] * 4

    # Exactly half nonzero is not "fewer than half": dense.
    half = np.zeros((n, 2))
    half[:, 0] = 1.0
    model = TabularPomdp.from_tables(
        [sparse.eye_array(n, format="csr")], [half], np.zeros((n, 1)), 0.9, np.full(n, 1.0 / n)
    )
    assert model.observation[0] is half


def test_simulate_step_frequencies():
    rng = np.random.default_rng(99)
    model = random_pomdp(rng, num_states=3, num_actions=2, num_observations=3)
    x, a = 1, 0
    n = 20000
    next_counts = np.zeros(3)
    for _ in range(n):
        nxt, _, r = simulate_step(model, x, a, rng)
        assert r == model.reward[x, a]
        next_counts[nxt] += 1
    p = model.dense_transition(a)[x]
    # Binomial three-sigma envelope per outcome.
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(next_counts / n - p) <= 3 * sigma + 1e-9).all()


def test_observation_sampled_from_landing_state():
    # Deterministic chain: from 0, action 0 goes to 1; state 1 always emits 1.
    t = [np.array([[0.0, 1.0], [0.0, 1.0]])]
    o = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    model = TabularPomdp.from_tables(t, o, np.zeros((2, 1)), 0.9, np.array([1.0, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        nxt, z, _ = simulate_step(model, 0, 0, rng)
        assert (nxt, z) == (1, 1)


def test_sample_initial_state_frequencies():
    rng = np.random.default_rng(3)
    model = random_pomdp(rng, num_states=4)
    counts = np.zeros(4)
    n = 20000
    for _ in range(n):
        counts[sample_initial_state(model, rng)] += 1
    p = model.initial_belief
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(counts / n - p) <= 3 * sigma + 1e-9).all()


def test_validate_accepts_good_and_names_bad_rows(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2)
    assert validate(model) == []

    broken = random_pomdp(rng, num_states=4, num_actions=2)
    broken.transition[1][2, :] *= 0.5
    broken.observation[0][1, :] *= 2.0
    problems = validate(broken)
    assert any("transition[1] row 2" in p for p in problems)
    assert any("observation[0] row 1" in p for p in problems)

    lopsided = random_pomdp(rng, num_states=3)
    lopsided.initial_belief = np.array([0.7, 0.2, 0.2])
    assert any("initial belief" in p for p in validate(lopsided))


def test_induced_mdp_shares_tables(rng):
    model = random_pomdp(rng, num_states=5, num_actions=3)
    mdp = induced_mdp(model)
    assert mdp.num_joint_actions == 3
    assert mdp.agent_action_counts == (3,)
    assert np.array_equal(mdp.reward, model.reward)
    for a in range(3):
        assert np.array_equal(mdp.dense_transition(a), model.dense_transition(a))


def test_joint_action_ids_flatten_in_c_order():
    from adhocpo.pomdp import TabularMmdp

    m = TabularMmdp(
        num_states=2,
        agent_action_counts=(2, 3),
        transition=[np.eye(2)] * 6,
        reward=np.zeros((2, 6)),
        discount=0.9,
    )
    assert m.num_joint_actions == 6
    # Last agent varies fastest.
    assert m.joint_action_id((0, 0)) == 0
    assert m.joint_action_id((0, 2)) == 2
    assert m.joint_action_id((1, 0)) == 3
    assert m.joint_action(4) == (1, 1)
