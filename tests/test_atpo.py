"""Model identification against a joint enumeration oracle, plus the
mixture policy, losses, and the cumulative bound report."""
import math
import types

import numpy as np
import pytest

from adhocpo.atpo import (
    AllModelsPruned,
    BoundReport,
    ModelLibrary,
    PosteriorState,
    act,
    check_bound,
    mixture_policy,
    policy_loss_row,
    posterior_entropy,
    update,
    write_trace,
)
from adhocpo.domains import build
from adhocpo.harness import prepare_library, run_experiment
from adhocpo.pomdp import sample_initial_state, simulate_step
from adhocpo.solvers import AlphaVectorPolicy, loss_all, policy_action

from conftest import exhaustive_filter, random_pomdp


def _dummy_policy(model, rng):
    vectors = rng.normal(size=(4, model.num_states))
    actions = rng.integers(0, model.num_actions, size=4)
    return AlphaVectorPolicy(vectors=vectors, actions=actions, discount=model.discount)


def _random_library(rng, size=3, num_states=None, num_actions=3, num_observations=3):
    models = []
    policies = []
    for k in range(size):
        n = num_states if num_states else int(rng.integers(2, 5))
        m = random_pomdp(
            rng, num_states=n, num_actions=num_actions,
            num_observations=num_observations, zeros=0.3, label=f"m{k}",
        )
        models.append(m)
        policies.append(_dummy_policy(m, rng))
    return ModelLibrary(models=models, policies=policies)


def _simulate_history(lib, rng, length):
    k = int(rng.integers(lib.size))
    x = sample_initial_state(lib.models[k], rng)
    history = []
    for _ in range(length):
        a = int(rng.integers(lib.num_actions))
        x, z, _ = simulate_step(lib.models[k], x, a, rng)
        history.append((a, z))
    return history


def joint_oracle(lib, history):
    """Posterior over models and per-model final beliefs by enumerating
    every (model, state sequence) pair."""
    mass = np.zeros(lib.size)
    beliefs = [None] * lib.size
    for k, model in enumerate(lib.models):
        beliefs[k], mass[k] = exhaustive_filter(model, history)
    weights = lib.prior * mass
    return weights / weights.sum(), beliefs


def test_library_prior_is_uniform_and_not_a_parameter():
    # The trial draws the true model uniformly; the library's prior, every
    # agent's starting posterior, is that same distribution.
    rng = np.random.default_rng(4)
    for size in (1, 2, 3, 7):
        lib = _random_library(rng, size=size)
        assert lib.prior.dtype == np.float64
        assert np.array_equal(lib.prior, np.full(size, 1.0 / size))
        start = PosteriorState.initial(lib)
        assert np.array_equal(start.posterior, lib.prior) and start.posterior is not lib.prior
        assert (start.greedy >= 0).all()
    with pytest.raises(TypeError, match="prior"):
        ModelLibrary(lib.models, lib.policies, prior=[1.0] + [0.0] * (lib.size - 1))


def test_posterior_matches_joint_enumeration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        lib = _random_library(rng, size=int(rng.integers(2, 4)))
        history = _simulate_history(lib, rng, int(rng.integers(1, 5)))
        expected_posterior, expected_beliefs = joint_oracle(lib, history)

        s = PosteriorState.initial(lib)
        for a, z in history:
            s = update(lib, s, a, z)
        assert np.allclose(s.posterior, expected_posterior, atol=1e-10)
        for k in range(lib.size):
            if s.greedy[k] >= 0:
                assert np.allclose(s.beliefs[k], expected_beliefs[k], atol=1e-10)
            else:
                assert expected_posterior[k] == 0.0


def test_pruned_models_stay_pruned():
    rng = np.random.default_rng(3)
    lib = _random_library(rng, size=3, num_states=3)
    # Make observation 2 impossible under model 0 for every action.
    for a in range(lib.num_actions):
        o = lib.models[0].observation[a]
        o[:, 2] = 0.0
        o /= o.sum(axis=1, keepdims=True)
    s = PosteriorState.initial(lib)
    s = update(lib, s, 0, 2)
    assert s.posterior[0] == 0.0
    assert s.greedy[0] == -1
    s2 = update(lib, s, 1, 0)
    assert s2.posterior[0] == 0.0
    assert s2.greedy[0] == -1


def test_all_models_pruned_raises():
    rng = np.random.default_rng(4)
    lib = _random_library(rng, size=2, num_states=3)
    for m in lib.models:
        for a in range(lib.num_actions):
            o = m.observation[a]
            o[:, 1] = 0.0
            empty = o.sum(axis=1) == 0.0
            o[empty, 0] = 1.0
            m.observation[a] = o / o.sum(axis=1, keepdims=True)
    s = PosteriorState.initial(lib)
    with pytest.raises(AllModelsPruned):
        update(lib, s, 0, 1)


def test_likelihood_floor_keeps_model_alive():
    rng = np.random.default_rng(5)
    lib = _random_library(rng, size=2, num_states=3)
    for a in range(lib.num_actions):
        lib.models[0].observation[a][:, 1] = 0.0
        lib.models[0].observation[a] /= lib.models[0].observation[a].sum(axis=1, keepdims=True)
    s0 = PosteriorState.initial(lib)
    s = update(lib, s0, 0, 1, likelihood_floor=1e-12)
    assert s.greedy[0] >= 0
    assert s.posterior[0] > 0.0
    # The stalled filter keeps its previous belief.
    assert np.array_equal(s.beliefs[0], s0.beliefs[0])


def test_identical_models_keep_uniform_posterior():
    rng = np.random.default_rng(6)
    base = random_pomdp(rng, num_states=3, num_actions=2, num_observations=3)
    lib = ModelLibrary(
        models=[base, base], policies=[_dummy_policy(base, rng)] * 2
    )
    s = PosteriorState.initial(lib)
    history = _simulate_history(lib, rng, 6)
    for a, z in history:
        s = update(lib, s, a, z)
    assert np.allclose(s.posterior, [0.5, 0.5], atol=1e-12)


def test_posterior_permutation_equivariance():
    rng = np.random.default_rng(7)
    lib = _random_library(rng, size=3, num_states=3)
    history = _simulate_history(lib, rng, 4)
    perm = [2, 0, 1]
    permuted = ModelLibrary(
        models=[lib.models[i] for i in perm],
        policies=[lib.policies[i] for i in perm],
    )
    s1 = PosteriorState.initial(lib)
    s2 = PosteriorState.initial(permuted)
    for a, z in history:
        s1 = update(lib, s1, a, z)
        s2 = update(permuted, s2, a, z)
    assert np.allclose(s2.posterior, s1.posterior[perm], atol=1e-12)


def test_single_model_library_is_transparent():
    rng = np.random.default_rng(8)
    lib = _random_library(rng, size=1, num_states=4)
    s = PosteriorState.initial(lib)
    for a, z in _simulate_history(lib, rng, 5):
        s = update(lib, s, a, z)
        assert s.posterior[0] == 1.0
    action, mix = act(lib, s, rng)
    expected = policy_action(lib.policies[0], s.beliefs[0])
    assert action == expected
    assert mix[expected] == 1.0


def test_mixture_policy_weights():
    rng = np.random.default_rng(9)
    lib = _random_library(rng, size=3, num_states=3)
    s = PosteriorState.initial(lib)
    mix = mixture_policy(s.greedy, s.posterior, lib.num_actions)
    assert mix.sum() == pytest.approx(1.0, abs=1e-12)
    acts = [policy_action(lib.policies[k], s.beliefs[k]) for k in range(3)]
    assert s.greedy.tolist() == acts
    manual = np.zeros(lib.num_actions)
    for k in range(3):
        manual[acts[k]] += s.posterior[k]
    assert np.allclose(mix, manual)


def test_act_sampling_frequencies_and_greedy():
    rng = np.random.default_rng(10)
    lib = _random_library(rng, size=3, num_states=3)
    s = PosteriorState.initial(lib)
    mix = mixture_policy(s.greedy, s.posterior, lib.num_actions)
    counts = np.zeros(lib.num_actions)
    n = 5000
    for _ in range(n):
        a, _ = act(lib, s, rng)
        counts[a] += 1
    sigma = np.sqrt(mix * (1 - mix) / n)
    assert (np.abs(counts / n - mix) <= 3 * sigma + 1e-9).all()
    a_greedy, _ = act(lib, s, rng, greedy=True)
    assert a_greedy == int(mix.argmax())


def test_act_deterministic_for_seed():
    rng = np.random.default_rng(11)
    lib = _random_library(rng, size=3, num_states=3)
    s = PosteriorState.initial(lib)
    a1 = [act(lib, s, np.random.default_rng(42))[0] for _ in range(5)]
    a2 = [act(lib, s, np.random.default_rng(42))[0] for _ in range(5)]
    assert a1 == a2


def test_entropy_conventions():
    assert posterior_entropy(np.array([1.0, 0.0])) == 0.0
    assert posterior_entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)


def test_loss_row_reads_each_models_greedy_action():
    rng = np.random.default_rng(12)
    lib = _random_library(rng, size=3, num_states=4)
    s = PosteriorState.initial(lib)
    k_true = 1
    losses = loss_all(lib.models[k_true], lib.policies[k_true], s.beliefs[k_true])
    row = policy_loss_row(lib, k_true, s.beliefs[k_true], s.greedy)
    for k in range(3):
        assert row[k] == losses[policy_action(lib.policies[k], s.beliefs[k])]
    # A pruned model gets the worst loss in the row, and no mixture weight.
    for a in range(lib.num_actions):
        o = lib.models[0].observation[a]
        o[:, 2] = 0.0
        o[o.sum(axis=1) == 0.0, 0] = 1.0
        o /= o.sum(axis=1, keepdims=True)
    s = update(lib, s, 0, 2)
    assert s.greedy[0] == -1
    losses = loss_all(lib.models[k_true], lib.policies[k_true], s.beliefs[k_true])
    row = policy_loss_row(lib, k_true, s.beliefs[k_true], s.greedy)
    assert row[0] == losses.max()
    assert row[2] == losses[policy_action(lib.policies[2], s.beliefs[2])]
    manual = np.zeros(lib.num_actions)
    for k in (1, 2):
        manual[policy_action(lib.policies[k], s.beliefs[k])] += s.posterior[k]
    assert np.array_equal(mixture_policy(s.greedy, s.posterior, lib.num_actions), manual)


def test_check_bound_hand_computed():
    # Two steps, two models, all pieces chosen so the ceiling is explicit.
    loss_rows = np.array([[1.0, 3.0], [2.0, 0.0]])
    posteriors = np.array([[0.5, 0.5], [0.25, 0.75]])
    report = check_bound(loss_rows, posteriors, 0, r_max=2.0, discount=0.5)
    assert report.mixture_total == pytest.approx(0.5 + 1.5 + 0.5 + 0.0)
    assert report.comparator_total == pytest.approx(1.0 + 2.0)
    expected_kl = math.log(1 / 0.5) + math.log(1 / 0.25)
    assert report.kl_total == pytest.approx(expected_kl, abs=1e-12)
    assert report.slack == pytest.approx(math.sqrt(1.0) * 4.0 / 0.25)
    assert report.ceiling == pytest.approx(3.0 + math.sqrt(1.0) * expected_kl + 16.0)
    assert report.satisfied
    assert report.margin == pytest.approx(report.ceiling - report.mixture_total)


def test_check_bound_flags_violation():
    # Zero slack and a zero-loss comparator leave no room: any mixture
    # loss violates.
    loss_rows = np.array([[1.0, 0.0]])
    posteriors = np.array([[1.0, 0.0]])
    report = check_bound(loss_rows, posteriors, 1, r_max=0.0, discount=0.5)
    assert report.mixture_total == 1.0
    assert math.isinf(report.kl_total)  # true model outside the support
    assert report.satisfied  # infinite ceiling

    posteriors = np.array([[0.5, 0.5]])
    report = check_bound(loss_rows, posteriors, 1, r_max=0.0, discount=0.5)
    assert report.ceiling == pytest.approx(math.sqrt(2.0) * math.log(2.0))
    assert report.satisfied  # mixture 0.5 under a ceiling of about 0.98

    # A confident posterior on the true model shrinks the KL term, so a
    # large loss on the other model puts the mixture over the ceiling.
    report = check_bound(np.array([[10.0, 0.0]]), np.array([[0.05, 0.95]]), 1, r_max=0.0, discount=0.5)
    assert report.mixture_total == pytest.approx(0.5)
    assert report.ceiling == pytest.approx(math.sqrt(2.0) * math.log(1.0 / 0.95))
    assert not report.satisfied
    assert report.margin < 0


def test_write_trace(tmp_path):
    trial = types.SimpleNamespace(
        actions=[1, 0],
        observations=[2, 0],
        posteriors=np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]]),
        evidence=np.array([[0.1, 0.1], [0.3, 0.03]]),
    )
    path = tmp_path / "trace.csv"
    write_trace(trial, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "step", "action", "observation",
        "posterior_0", "posterior_1", "evidence_0", "evidence_1", "entropy",
    ]
    assert len(lines) == 3
    assert lines[1] == f"1,1,2,0.5,0.5,0.1,0.1,{math.log(2)!r}"
    assert lines[2].startswith("2,0,0,0.9,0.1,0.3,0.03,")


def test_library_rejects_mismatched_action_spaces(rng):
    m1 = random_pomdp(rng, num_states=3, num_actions=2, num_observations=3)
    m2 = random_pomdp(rng, num_states=3, num_actions=3, num_observations=3)
    with pytest.raises(ValueError):
        ModelLibrary(models=[m1, m2], policies=[_dummy_policy(m1, rng), _dummy_policy(m2, rng)])


def _mixture_log_loss_terms(trial, prior):
    """(Σ_t -ln p_t, -ln Σ_k prior_k Π_t evidence[t, k], each candidate's
    ln(1/prior_k) + Σ_t -ln evidence[t, k]) of one recorded trial, with
    p_t = Σ_k posteriors[t, k] evidence[t, k]."""
    p = (trial.posteriors[:-1] * trial.evidence).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_evidence = np.log(prior) + np.log(trial.evidence).sum(axis=0)
    return float(-np.log(p).sum()), float(-np.logaddexp.reduce(log_evidence)), -log_evidence


def test_mixture_log_loss_equals_the_bayes_mixture_on_every_trial():
    # The posterior the agent records is the prior times the recorded
    # evidence, normalised, so the mixture's log loss telescopes to the
    # Bayes mixture's and is at most any candidate's log loss plus
    # ln(1/prior).  The 3x3 grid keeps every candidate alive; on the
    # noiseless 3x3 pursuit a candidate is ruled out mid-trial.  The floor
    # run records floored evidence in place of zeros.
    ruled_out_mid_trial = floored = 0
    for name, overrides in (("gridworld", dict(size=3, tasks=2)), ("pursuit-task", dict(size=3, epsilon=0.0))):
        domain = build(name, belief_set_size=60, horizon=30, **overrides)
        library = prepare_library(domain)
        for floor in (0.0, 1e-12):
            result = run_experiment(library, ["atpo"], domain.horizon, trials=8, likelihood_floor=floor)
            for trial in result.agents["atpo"].trials:
                total, mixture, candidates = _mixture_log_loss_terms(trial, library.prior)
                assert total == pytest.approx(mixture, rel=1e-12, abs=1e-12)
                true_model = trial.model_index
                assert total <= candidates[true_model] + 1e-12 * max(1.0, abs(candidates[true_model]))
                first_zero = np.flatnonzero((trial.evidence == 0.0).any(axis=1))
                ruled_out_mid_trial += bool(first_zero.size and first_zero[0] > 0)
                floored += int((trial.evidence == floor).sum()) if floor else 0
    assert ruled_out_mid_trial > 0 and floored > 0
