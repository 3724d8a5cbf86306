"""Trial reproducibility, experiment summaries, report files and the library solve."""
import array
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import pickle
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adhocpo import agents, atpo, cli, forkpool, harness, modelio, pomdp, solvers
from adhocpo.agents import make_agent
from adhocpo.domains import build
from adhocpo.harness import (
    AgentSummary,
    ExperimentResult,
    TrialResult,
    emit_reports,
    first_correct_step,
    identification_summary,
    prepare_library,
    plan_experiment,
    run_experiment,
    run_trial,
)
from adhocpo.pomdp import TabularPomdp
from adhocpo.solvers import PolicyCache

from conftest import bits_equal, child_process_left, dense, is_csr, random_pomdp, stored_as_given


def test_trial_is_reproducible(small_library):
    _, lib = small_library
    a = run_trial(lib, make_agent("atpo", lib), horizon=20, seed=11)
    b = run_trial(lib, make_agent("atpo", lib), horizon=20, seed=11)
    assert a.actions == b.actions
    assert a.observations == b.observations
    assert a.rewards == b.rewards
    assert a.states == b.states
    c = run_trial(lib, make_agent("atpo", lib), horizon=20, seed=12)
    assert (a.actions, a.observations) != (c.actions, c.observations)


def test_ground_truth_shared_across_agents(small_library):
    _, lib = small_library
    for seed in range(6):
        picks = set()
        for name in ("random", "atpo", "vi"):
            t = run_trial(lib, make_agent(name, lib), horizon=3, seed=seed)
            picks.add((t.model_index, t.initial_state))
        assert len(picks) == 1


def test_trial_override_of_ground_truth(small_library):
    _, lib = small_library
    t = run_trial(lib, make_agent("random", lib), horizon=3, seed=0,
                  true_model=1, initial_state=5)
    assert t.model_index == 1
    assert t.initial_state == 5


def test_trial_carries_atpo_diagnostics(small_library):
    _, lib = small_library
    t = run_trial(lib, make_agent("atpo", lib), horizon=15, seed=3)
    assert t.posteriors.shape == (16, 2)
    assert t.evidence.shape == (15, 2)
    assert t.loss_rows.shape == (15, 2)
    assert t.bound is not None
    assert t.bound.horizon == 15
    plain = run_trial(lib, make_agent("random", lib), horizon=15, seed=3)
    assert plain.posteriors is None
    assert plain.bound is None


# (seed, true model, actions, observations, total return) per agent from the
# fixed-seed run below; a change to the agents' arithmetic or rng use shows here.
PINNED_TRAJECTORIES = {
    "atpo": [
        (40, 1, [3, 1, 1, 2, 2, 2, 2, 1], [2, 56, 47, 47, 0, 74, 6, 24], -8.0),
        (41, 0, [2, 0, 0, 3, 1, 3, 1, 3], [15, 15, 60, 0, 0, 0, 0, 0], 97.0),
        (42, 0, [2, 2, 3, 1, 3, 1, 3, 1], [20, 0, 0, 0, 0, 0, 0, 0], 99.0),
    ],
    "random-picker": [
        (40, 1, [2, 1, 2, 1, 3, 0, 3, 0], [27, 54, 33, 51, 0, 0, 0, 0], 96.0),
        (41, 0, [2, 0, 0, 3, 1, 3, 1, 0], [15, 15, 60, 0, 0, 0, 0, 0], 97.0),
        (42, 0, [3, 1, 3, 1, 1, 1, 3, 1], [20, 0, 0, 0, 0, 0, 0, 0], 99.0),
    ],
    "bopa": [
        (40, 1, [1, 2, 2, 0, 0, 0, 0, 0], [20, 72, 51, 0, 0, 0, 0, 0], 97.0),
        (41, 0, [0, 0, 0, 0, 0, 0, 0, 0], [15, 15, 60, 0, 0, 0, 0, 0], 97.0),
        (42, 0, [1, 0, 0, 0, 0, 0, 0, 0], [20, 0, 0, 0, 0, 0, 0, 0], 99.0),
    ],
}


def test_seeded_trajectories_are_pinned(small_library):
    _, lib = small_library
    res = run_experiment(lib, tuple(PINNED_TRAJECTORIES), horizon=8, trials=3, base_seed=40)
    for name, expected in PINNED_TRAJECTORIES.items():
        got = [
            (t.seed, t.model_index, list(t.actions), list(t.observations), t.total_return)
            for t in res.agents[name].trials
        ]
        assert got == expected, name


def test_seeded_trial_on_csr_tables_is_pinned():
    # At size 5 the grid has 626 states and CSR transitions, so the trial
    # runs the CSR kernels: propagate, row and column reads.  Recorded
    # before those kernels kept transposes; any rounding drift shows here.
    domain = build("gridworld", size=5, tasks=2)
    assert all(map(is_csr, domain.models[0].transition))
    settings = dataclasses.replace(domain.solver, belief_set_size=50, stage_cap=5)
    lib = atpo.ModelLibrary(domain.models, [solvers.perseus_solve(m, settings) for m in domain.models])
    t = run_trial(lib, make_agent("atpo", lib), horizon=30, seed=0)
    digest = hashlib.sha256()
    digest.update(np.asarray(t.actions, dtype=np.int64).tobytes())
    digest.update(np.asarray(t.observations, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(t.posteriors[:-1], dtype=np.float64).tobytes())
    assert digest.hexdigest() == "91665b417cfd39d29917e685278cf4750e936cdc9428cc3b39e3371419365611"


def per_step_loss_rows(lib, trial, likelihood_floor=0.0, state=None):
    """(loss rows, acting posteriors, greedy actions) as an agent told the
    true model would record them while acting, from `state` (the initial
    posterior state by default): on its own belief of that model, each step."""
    k = trial.model_index
    state = atpo.PosteriorState.initial(lib) if state is None else state
    rows, posteriors, greedy = [], [], []
    for a, z in zip(trial.actions, trial.observations):
        losses = solvers.loss_all(lib.models[k], lib.policies[k], state.beliefs[k])
        rows.append(np.where(state.greedy >= 0, losses[state.greedy], losses.max()))
        posteriors.append(state.posterior)
        greedy.append(state.greedy)
        state = atpo.update(lib, state, a, z, likelihood_floor)
    return np.array(rows), np.array(posteriors), greedy


def assert_deferred_rows_match(lib, trial, likelihood_floor=0.0):
    rows, posteriors, _ = per_step_loss_rows(lib, trial, likelihood_floor)
    assert np.array_equal(trial.loss_rows, rows)
    assert np.array_equal(trial.posteriors[:-1], posteriors)


def reference_bound_terms(loss_rows, posteriors, comparator, r_max, discount):
    """(mixture, comparator, KL, slack) totals of the loss bound against any
    fixed comparator distribution over the models, with 0 ln 0 = 0 and an
    infinite KL once the comparator has mass outside the posterior."""
    mixture_total = float((loss_rows * posteriors).sum())
    comparator_total = float((loss_rows @ comparator).sum())
    kl_total = 0.0
    for t in range(loss_rows.shape[0]):
        for k in np.flatnonzero(comparator > 0.0):
            if posteriors[t, k] <= 0.0:
                kl_total = math.inf
                break
            kl_total += comparator[k] * math.log(comparator[k] / posteriors[t, k])
        if math.isinf(kl_total):
            break
    slack = math.sqrt(loss_rows.shape[0] / 2.0) * r_max * r_max / (1.0 - discount) ** 2
    return mixture_total, comparator_total, kl_total, slack


def assert_bound_matches_reference(lib, trial):
    # The bound's comparator is the true model: its terms are, float for
    # float, those of the general formula with a point mass there.
    comparator = np.zeros(lib.size)
    comparator[trial.model_index] = 1.0
    want = reference_bound_terms(
        trial.loss_rows,
        trial.posteriors[:-1],
        comparator,
        lib.max_abs_reward,
        lib.models[trial.model_index].discount,
    )
    b = trial.bound
    assert (b.mixture_total, b.comparator_total, b.kl_total, b.slack) == want


def test_deferred_loss_rows_equal_per_step_rows(small_library):
    _, lib = small_library
    for seed in range(5):
        t = run_trial(lib, make_agent("atpo", lib), horizon=20, seed=seed)
        assert_deferred_rows_match(lib, t)
        assert_bound_matches_reference(lib, t)

    domain = build("gridworld", size=5, tasks=2)
    settings = dataclasses.replace(domain.solver, belief_set_size=50, stage_cap=5)
    csr = atpo.ModelLibrary(domain.models, [solvers.perseus_solve(m, settings) for m in domain.models])
    for seed in range(2):
        assert_deferred_rows_match(csr, run_trial(csr, make_agent("atpo", csr), horizon=30, seed=seed))


def test_deferred_loss_rows_cover_pruned_and_floored_models():
    # Model 0 never emits observation 2, so it is ruled out the first time
    # model 1, the true one, does; with a likelihood floor it stays alive
    # with its belief held.
    rng = np.random.default_rng(8)
    models = [random_pomdp(rng, label=f"m{k}") for k in range(2)]
    observation = []
    for a in range(models[0].num_actions):
        o = dense(models[0].observation[a])
        o[:, 0] += o[:, 2]
        o[:, 2] = 0.0
        observation.append(o)
    m = models[0]
    transition = [dense(t) for t in m.transition]
    models[0] = TabularPomdp(transition, observation, m.reward, m.discount, m.initial_belief, label="m0")
    settings = solvers.SolverSettings(belief_set_size=30, horizon=8, stage_cap=20)
    lib = atpo.ModelLibrary(models, [solvers.perseus_solve(m, settings) for m in models])
    for seed in range(3):
        t = run_trial(lib, make_agent("atpo", lib), horizon=20, seed=seed, true_model=1)
        assert t.posteriors[-1, 0] == 0.0
        assert_deferred_rows_match(lib, t)
        assert_bound_matches_reference(lib, t)
        floor = 1e-3
        t = run_trial(lib, make_agent("atpo", lib, likelihood_floor=floor), horizon=20, seed=seed, true_model=1)
        assert (t.evidence[:, 0] == floor).any()
        assert_deferred_rows_match(lib, t, floor)
        assert_bound_matches_reference(lib, t)
    # A true model pruned from step 0 keeps its initial belief in the loss
    # rows, as it does in a posterior state that holds it pruned, and its
    # KL term is infinite.
    t = run_trial(lib, make_agent("atpo", lib), horizon=10, seed=0, true_model=0)
    pruned = atpo.PosteriorState.initial(lib)
    pruned.posterior, pruned.greedy[0] = np.array([0.0, 1.0]), -1
    rows, posteriors, greedy = per_step_loss_rows(lib, t, state=pruned)
    assert all(g[0] == -1 for g in greedy) and not posteriors[:, 0].any()
    held = dataclasses.replace(t, loss_rows=atpo.loss_rows(lib, 0, t.actions, t.observations, greedy),
                               posteriors=np.vstack([posteriors, [[0.0, 1.0]]]))
    assert np.array_equal(held.loss_rows, rows)
    b0 = models[0].initial_belief
    assert np.array_equal(held.loss_rows, [atpo.policy_loss_row(lib, 0, b0, g) for g in greedy])
    held.bound = atpo.check_bound(held.loss_rows, posteriors, 0, lib.max_abs_reward, models[0].discount)
    assert math.isinf(held.bound.kl_total)
    assert_bound_matches_reference(lib, held)


def test_traced_benchmark_wraps_names_that_exist(monkeypatch, small_library):
    # The benchmark's tracer wraps package functions by name; a rename in
    # the package must fail here, not only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    originals = [
        (owner, attr, getattr(owner, attr)) for _, owners, attr in spans.FUNCTIONS for owner in owners
    ]
    _, lib = small_library
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_trial(lib, harness.make_agent("atpo", lib), horizon=3, seed=0)
    calls = tracer.summary()["calls"]
    for name in ("harness.run_trial", "agents.make_agent", "atpo.act", "atpo.update", "atpo.check_bound"):
        assert calls[name] >= 1, name
    assert calls["atpo.policy_loss_row"] == 3
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_traced_warm_set_up_times_one_digest_per_model(monkeypatch, tmp_path, small_library):
    # The benchmark reads the digest time from these spans: a warm set-up
    # must digest each model once, in a span of its own, and load it once.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    domain, lib = small_library
    cache = PolicyCache(tmp_path)
    for policy in lib.policies:
        cache.store(policy.source_digest, domain.solver, policy)
    tracer = spans.Tracer()
    with tracer.installed():
        warm = prepare_library(domain, cache)
    digests = [end - start for name, start, end, _, _ in tracer.spans if name == "modelio.model_digest"]
    assert len(digests) == len(domain.models) and min(digests) > 0
    calls = tracer.summary()["calls"]
    assert calls["solvers.cache_load"] == len(domain.models)
    assert "solvers.perseus_solve" not in calls
    assert [p.source_digest for p in warm.policies] == [p.source_digest for p in lib.policies]


def test_csr_and_dense_desk_grids_solve_and_play_alike():
    # Storage oracle: the 4x4 desk grid keeps its transitions in CSR; a
    # twin with the same tables dense must give the same policies, up to
    # float rounding (CSR sums without FMA), and the same ATPO trials.
    domain = build("gridworld", size=4, tasks=2)
    settings = dataclasses.replace(domain.solver, belief_set_size=100, stage_cap=30)
    csr_models = domain.models
    with stored_as_given():
        dense_models = [dataclasses.replace(m, transition=[dense(t) for t in m.transition]) for m in csr_models]
    assert all(is_csr(t) for m in csr_models for t in m.transition)
    assert not any(is_csr(t) for m in dense_models for t in m.transition)
    csr_lib, dense_lib = (
        atpo.ModelLibrary(models, [solvers.perseus_solve(m, settings) for m in models])
        for models in (csr_models, dense_models)
    )
    for c, d in zip(csr_lib.policies, dense_lib.policies):
        assert c.vectors.shape == d.vectors.shape
        assert np.array_equal(c.actions, d.actions)
        assert len(c.stage_values) == len(d.stage_values)
        assert np.abs(c.vectors - d.vectors).max() <= 1e-12
        assert np.abs(np.subtract(c.stage_values, d.stage_values)).max() <= 1e-12
    for seed in range(4):
        c = run_trial(csr_lib, make_agent("atpo", csr_lib), horizon=30, seed=seed)
        d = run_trial(dense_lib, make_agent("atpo", dense_lib), horizon=30, seed=seed)
        assert (c.actions, c.observations) == (d.actions, d.observations)


def test_atpo_trial_computes_each_greedy_action_once(small_library, monkeypatch):
    _, lib = small_library
    calls = []

    def counting_policy_action(policy, belief):
        calls.append(1)
        return solvers.policy_action(policy, belief)

    monkeypatch.setattr(atpo, "policy_action", counting_policy_action)
    monkeypatch.setattr(agents, "policy_action", counting_policy_action)
    horizon = 12
    t = run_trial(lib, make_agent("atpo", lib), horizon=horizon, seed=5)
    assert t.loss_rows.shape == (horizon, lib.size)
    assert 0 < len(calls) <= lib.size * (horizon + 1)


def test_experiment_normalization_endpoints(small_library):
    domain, lib = small_library
    res = run_experiment(lib, ["vi", "atpo", "random"], horizon=25, trials=6,
                         base_seed=0, label=domain.name)
    assert res.agents["vi"].normalized == pytest.approx(100.0)
    assert res.agents["random"].normalized == pytest.approx(0.0)
    assert res.agents["atpo"].normalized is not None
    assert res.num_trials == 6 and res.horizon == 25


def test_experiment_refuses_a_repeated_agent_before_any_trial(small_library, monkeypatch):
    # One summary entry per name: a second block of a repeated agent would
    # replace the first.
    _, lib = small_library

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trials)
    with pytest.raises(ValueError, match="^agent 'random' is named more than once$"):
        run_experiment(lib, ["random", "atpo", "random"], horizon=3, trials=2)
    # numpy seeds no generator with a negative seed.
    with pytest.raises(ValueError, match="^trial seed must be non-negative, got -1$"):
        run_experiment(lib, ["random"], horizon=3, trials=2, base_seed=-1)


def test_identification_summary_math():
    # The last row follows the last action; no step acts on it.
    histories = [
        np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]]),
        np.array([[0.5, 0.5], [0.2, 0.8], [0.1, 0.9]]),
        np.array([[0.5, 0.5], [0.6, 0.4], [0.1, 0.9]]),
    ]
    trials = [
        TrialResult("atpo", seed=i, model_index=0, initial_state=0,
                    actions=[0, 0], observations=[0, 0], rewards=[0, 0],
                    states=[0, 0], posteriors=h)
        for i, h in enumerate(histories)
    ]
    ident = identification_summary(trials, step=1)
    assert ident.probabilities == pytest.approx([0.9, 0.2, 0.6])
    assert ident.median_probability == pytest.approx(0.6)
    assert ident.accuracy == pytest.approx(2 / 3)
    # Steps beyond the recorded horizon clamp to the last acting entry.
    assert identification_summary(trials, step=99).median_probability == pytest.approx(0.6)
    # First correct step: ties in the uniform prior go to index 0.
    assert first_correct_step(trials[0]) == 0
    trials[1].model_index = 1
    assert first_correct_step(trials[1]) == 1
    trials[1].model_index = 0
    with pytest.raises(ValueError, match="posterior history"):
        identification_summary([trials[0].__class__(
            "random", seed=0, model_index=0, initial_state=0,
            actions=[], observations=[], rewards=[], states=[])], step=1)


# Two candidates over five acting steps, every posterior and loss a dyadic
# rational, so each mixture loss and its sums are exact.  Acting steps
# 0 and 2 put the argmax on model 0 (step 0 by the tie), steps 1, 3 and 4
# on model 1; the last row follows the last action.
SETTLE_POSTERIORS = [[0.5, 0.5], [0.25, 0.75], [0.75, 0.25], [0.125, 0.875], [0.0625, 0.9375], [0.0, 1.0]]
SETTLE_LOSS_ROWS = [[1.0, 2.0], [4.0, 0.5], [2.0, 8.0], [0.5, 0.25], [3.0, 1.0]]
# The mixture loss by step: 1.5, 1.375, 3.5, 0.28125, 1.125.


def settle_trial(model_index, posteriors=SETTLE_POSTERIORS):
    steps = len(SETTLE_LOSS_ROWS)
    posteriors, loss_rows = np.array(posteriors), np.array(SETTLE_LOSS_ROWS)
    return TrialResult(
        "atpo", seed=model_index, model_index=model_index, initial_state=0,
        actions=array.array("i", [0] * steps), observations=array.array("i", [0] * steps),
        rewards=array.array("d", [0.0] * steps), states=array.array("i", [0] * steps),
        posteriors=posteriors, evidence=np.ones((steps, 2)), loss_rows=loss_rows,
        bound=atpo.check_bound(loss_rows, posteriors[:-1], model_index, r_max=1.0, discount=0.5),
    )


def test_settle_split_divides_the_mixture_loss_at_the_step_the_posterior_settles(tmp_path, small_library):
    # Model 1 is the argmax from step 3 on; model 0 is not at the last step,
    # so a trial of model 0 never settles and all of its loss is before.
    # A trial whose argmax is model 1 throughout settles at step 0.
    settles = settle_trial(1)
    never = settle_trial(0)
    at_once = settle_trial(1, [[0.25, 0.75]] * 5 + [[0.0, 1.0]])
    assert harness.settle_split(settles) == (3, 6.375, 1.40625)
    assert harness.settle_split(never) == (None, 7.78125, 0.0)
    assert harness.settle_split(at_once) == (0, 0.0, 11.4375)
    for t in (settles, never, at_once):
        _, before, after = harness.settle_split(t)
        assert before + after == t.bound.mixture_total

    summary = AgentSummary("atpo", [settles, never, at_once])
    result = ExperimentResult("settle", horizon=5, base_seed=0, num_trials=3, agents={"atpo": summary})
    report = emit_reports(result, tmp_path / "hand")
    assert json.loads((tmp_path / "hand" / "summary.json").read_text()) == report
    assert report["agents"]["atpo"]["settle"] == {
        "0": {"trials": 1, "settled": 0, "median_settle_step": None,
              "mean_loss_before": 7.78125, "mean_loss_after": 0.0},
        "1": {"trials": 2, "settled": 2, "median_settle_step": 1.5,
              "mean_loss_before": 3.1875, "mean_loss_after": 6.421875},
    }

    # On real trials the split adds up to the bound's mixture total.
    _, lib = small_library
    res = run_experiment(lib, ["atpo", "random"], horizon=30, trials=6, base_seed=3)
    trials = res.agents["atpo"].trials
    for t in trials:
        settle, before, after = harness.settle_split(t)
        assert settle is None or 0 <= settle < t.horizon
        total = t.bound.mixture_total
        assert abs(before + after - total) <= 1e-12 * (1.0 + abs(total))
    entry = emit_reports(res, tmp_path / "run")["agents"]
    assert "settle" not in entry["random"]
    assert sum(e["trials"] for e in entry["atpo"]["settle"].values()) == len(trials)
    assert set(entry["atpo"]["settle"]) == {str(k) for k in {t.model_index for t in trials}}


def test_emit_reports_files(tmp_path, small_library):
    domain, lib = small_library
    res = run_experiment(lib, ["atpo", "vi", "random"], horizon=10, trials=3,
                         base_seed=0, label=domain.name)
    report = emit_reports(res, tmp_path, traces=True)

    lines = (tmp_path / "returns.csv").read_text().strip().splitlines()
    assert lines[0] == "agent,trial,seed,model_index,total_return,wall_time"
    assert len(lines) == 1 + 3 * 3

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == report
    assert on_disk["label"] == domain.name
    atpo_entry = on_disk["agents"]["atpo"]
    assert set(atpo_entry["identification"]["at_step"]) == {"5", "10", "20"}
    assert "median_first_correct_step" in atpo_entry["identification"]
    assert "bound_violations" in atpo_entry
    bounds = [t.bound for t in res.agents["atpo"].trials]
    terms = atpo_entry["bound_terms"]
    assert set(terms) == {"mixture_total", "comparator_total", "kl_total", "slack", "margin"}
    for term, values in terms.items():
        expected = [getattr(b, term) for b in bounds]
        assert values == [v if math.isfinite(v) else None for v in expected], term
    # A true model with no posterior mass (its posterior underflowed to
    # 0.0) has an infinite KL term and margin, written as null.
    res = run_experiment(lib, ["atpo"], horizon=5, trials=4, base_seed=0)
    hidden = [t.model_index == 0 for t in res.agents["atpo"].trials]
    for t in itertools.compress(res.agents["atpo"].trials, hidden):
        posteriors = t.posteriors[:-1].copy()
        posteriors[:, 0] = 0.0
        t.bound = atpo.check_bound(t.loss_rows, posteriors, 0, lib.max_abs_reward, lib.models[0].discount)
    terms = emit_reports(res, tmp_path / "ruled-out")["agents"]["atpo"]["bound_terms"]
    assert any(hidden) and not all(hidden)
    assert [v is None for v in terms["kl_total"]] == hidden
    assert [v is None for v in terms["margin"]] == hidden
    assert None not in terms["mixture_total"] + terms["comparator_total"] + terms["slack"]
    assert "Infinity" not in (tmp_path / "ruled-out" / "summary.json").read_text()
    assert len(atpo_entry["mean_entropy_by_step"]) == 10
    assert "normalized_score" in on_disk["agents"]["vi"]
    assert len(on_disk["manifest"]["models"]) == 2
    assert all(m["digest"] for m in on_disk["manifest"]["models"])
    assert len(on_disk["manifest"]["solver_settings"]) == 1

    traces = sorted(p.name for p in (tmp_path / "traces").glob("*.csv"))
    assert traces == ["atpo-000.csv", "atpo-001.csv", "atpo-002.csv"]


def entropy_trial(posteriors):
    """A trial carrying only a posterior history (None: untracked)."""
    steps = 1 if posteriors is None else len(posteriors) - 1
    series = array.array("i", [0] * steps)
    return TrialResult("atpo", seed=0, model_index=0, initial_state=0, actions=series,
                       observations=series, rewards=array.array("d", [0.0] * steps),
                       states=series, posteriors=posteriors)


def trial_major_entropy_by_step(trials) -> list:
    """The trial-major loop entropy_by_step replaced: every step's column is
    filled before any mean is taken."""
    columns: list = []
    for t in trials:
        if t.posteriors is None:
            continue
        for i, posterior in enumerate(t.posteriors[1:]):
            if i == len(columns):
                columns.append([])
            columns[i].append(atpo.posterior_entropy(posterior))
    return [float(np.mean(c)) for c in columns]


def test_entropy_by_step_equals_the_trial_major_loop_bit_for_bit():
    # Ragged sets: horizons 1 to 60, 1 to 9 candidates, untracked trials
    # mixed in, and posteriors with zero entries (whole rows of them too).
    rng = np.random.default_rng(48)
    ragged = 0
    for _ in range(200):
        k = int(rng.integers(1, 10))
        trials = []
        for _ in range(int(rng.integers(1, 12))):
            if rng.random() < 0.25:
                trials.append(entropy_trial(None))
                continue
            posteriors = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 61)) + 1)
            posteriors[rng.random(posteriors.shape) < 0.3] = 0.0
            trials.append(entropy_trial(posteriors))
        expected = trial_major_entropy_by_step(trials)
        got = harness.entropy_by_step(trials)
        assert len(got) == len(expected) and all(type(v) is float for v in got)
        assert bits_equal(got, expected)
        ragged += len({len(t.posteriors) for t in trials if t.posteriors is not None}) > 1
    assert ragged > 100
    assert harness.entropy_by_step([entropy_trial(None)]) == []


def test_entropy_by_step_holds_one_step_of_entropies_at_a_time():
    # 300 tracked 50-step trials, the ATPO check experiment of the benchmark's
    # cold solve.  Holding every (trial, step) entropy as a float takes about
    # 0.48 MB here; one step's column at a time about 0.02 MB.
    rng = np.random.default_rng(0)
    trials = [entropy_trial(rng.dirichlet(np.ones(2), size=51)) for _ in range(300)]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        means = harness.entropy_by_step(trials)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(means) == 50
    assert peak < 0.1e6, peak


def test_library_scaling_runs_each_size(small_library):
    _, lib = small_library
    sub = type(lib)(lib.models[:1], lib.policies[:1])
    plan = plan_experiment(("atpo", "random"), lib.models, trials=2, base_seed=0)
    results = plan.run_scaling({2: lib, 1: sub}, horizon=8, label="scaling")
    assert sorted(results) == [1, 2]
    for k, res in results.items():
        assert set(res.agents) == {"atpo", "random"}
        assert res.label == f"scaling K={k}" and res.num_trials == 2


def test_prepare_library_cache_round_trip(tmp_path, small_library):
    domain, lib = small_library
    cache = PolicyCache(tmp_path)
    notes = []
    first = prepare_library(domain, cache=cache, progress=notes.append)
    solved = r"policy for (.+): (\d+) vectors in \d+\.\d\d s, (\d+)% of lookahead actions skipped"
    for note, model, policy in zip(notes, domain.models, first.policies, strict=True):
        label, vectors, share = re.fullmatch(solved, note).groups()
        evaluated, skipped = policy.lookahead_counts
        assert label == model.label and int(vectors) == len(policy)
        assert skipped > 0 and f"{skipped / (evaluated + skipped):.0%}" == share + "%"
    notes.clear()
    second = prepare_library(domain, cache=cache, progress=notes.append)
    # A cached policy has no solve to report.
    assert notes == [f"policy for {model.label}: cache" for model in domain.models]
    assert all(policy.lookahead_counts is None for policy in second.policies)
    for p1, p2 in zip(first.policies, second.policies):
        assert np.array_equal(p1.vectors, p2.vectors)


@pytest.fixture
def pool_library(monkeypatch):
    """A 2-model 3x3 grid whose misses go to a pool of two workers on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return build("gridworld", size=3, tasks=2, belief_set_size=100, horizon=20)


def test_prepare_library_pool_matches_sequential_solves(tmp_path, pool_library, monkeypatch):
    domain = pool_library
    solve = solvers.perseus_solve
    log = tmp_path / "solves.log"

    def logged(model, settings):
        with open(log, "a") as fh:
            # The most threads of any OpenBLAS loaded; 1 where none is.
            threads = max((get() for get, _ in forkpool._openblas_thread_calls()), default=1)
            fh.write(f"{os.getpid()} {threads}\n")
        return solve(model, settings)

    monkeypatch.setattr(solvers, "perseus_solve", logged)
    threads = threading.active_count()
    library = prepare_library(domain)
    assert not child_process_left()
    assert threading.active_count() == threads
    solves = [line.split() for line in log.read_text().splitlines()]
    assert len(solves) == 2
    for pid, blas in solves:
        assert int(pid) != os.getpid()  # solved in a worker
        assert blas == "1"  # one BLAS thread
    for model, policy in zip(domain.models, library.policies):
        expected = solve(model, domain.solver)  # this process, default BLAS threads
        assert np.array_equal(policy.vectors, expected.vectors)
        assert np.array_equal(policy.actions, expected.actions)
        assert policy.stage_values == expected.stage_values


def test_a_cold_pool_solve_digests_the_library_once_in_this_process(tmp_path, pool_library, monkeypatch):
    domain = pool_library
    digest = modelio.model_digest
    log = tmp_path / "digests.log"

    def logged(model, tables=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {model.label}\n")
        return digest(model, tables)

    monkeypatch.setattr(modelio, "model_digest", logged)
    results = solvers.solve_many(domain.models, domain.solver, PolicyCache(tmp_path / "cache"))
    assert not child_process_left()
    # One digest per model, all here; the workers never digest.
    assert log.read_text().splitlines() == [f"{os.getpid()} {model.label}" for model in domain.models]
    for model, (policy, cached) in zip(domain.models, results):
        assert not cached
        expected = solvers.perseus_solve(model, domain.solver)
        assert np.array_equal(policy.vectors, expected.vectors)
        assert np.array_equal(policy.actions, expected.actions)
        assert expected.source_digest == ""  # a standalone solve has none
        assert policy.source_digest == digest(model)


def test_a_failing_worker_solve_propagates_and_leaves_no_process(pool_library, monkeypatch):
    def failing(model, settings):
        raise RuntimeError(f"cannot solve {model.label} in process {os.getpid()}")

    monkeypatch.setattr(solvers, "perseus_solve", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="cannot solve") as raised:
        prepare_library(pool_library)
    assert f"process {os.getpid()}" not in str(raised.value)
    assert not child_process_left()
    assert threading.active_count() == threads


def test_errors_survive_a_pickle_round_trip():
    # A pool worker's exception reaches the caller pickled; each must come
    # back as itself, with its fields and its message.
    for error in (
        atpo.AllModelsPruned(3, 1, 2),
        solvers.NonconvergenceBudget(10, 0.5, 1e-6),
    ):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error) and vars(back) == vars(error)


def assert_same_trials(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.agent_name, a.seed, a.model_index, a.initial_state) == (
            b.agent_name, b.seed, b.model_index, b.initial_state)
        assert (a.actions, a.observations, a.rewards, a.states) == (
            b.actions, b.observations, b.rewards, b.states)
        for field in ("posteriors", "evidence", "loss_rows"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or np.array_equal(x, y), field
        assert a.bound == b.bound
        assert set(a.phase_s) == set(b.phase_s) == set(harness.PHASES)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs this process may use, as the pools read it."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.mark.parametrize("greedy, floor", [(False, 0.0), (True, 1e-3)])
def test_pool_trials_equal_trials_in_this_process(small_library, cpus, tmp_path, monkeypatch, greedy, floor):
    _, lib = small_library
    kwargs = dict(horizon=12, trials=3, base_seed=7, greedy=greedy, likelihood_floor=floor)
    cpus(1)
    here = run_experiment(lib, agents.AGENT_NAMES, **kwargs)

    trial = harness.run_trial
    log = tmp_path / "trials.log"

    def logged(*args, **kw):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return trial(*args, **kw)

    monkeypatch.setattr(harness, "run_trial", logged)
    cpus(2)
    threads = threading.active_count()
    notes = []
    pooled = run_experiment(lib, agents.AGENT_NAMES, progress=notes.append, **kwargs)
    assert not child_process_left()
    assert threading.active_count() == threads
    pids = log.read_text().split()
    assert len(pids) == len(agents.AGENT_NAMES) * 3 and str(os.getpid()) not in pids
    assert [note.split(": ")[1].split()[0] for note in notes] == list(agents.AGENT_NAMES)
    assert list(pooled.agents) == list(here.agents) == list(agents.AGENT_NAMES)
    for name in agents.AGENT_NAMES:
        assert_same_trials(pooled.agents[name].trials, here.agents[name].trials)
        assert pooled.agents[name].normalized == here.agents[name].normalized


def test_value_iteration_runs_once_per_library_and_never_in_a_worker(small_library, cpus, tmp_path, monkeypatch):
    _, solved = small_library
    roster = ("vi", "bopa", "random")
    seeds = (0, 40, 80)
    cpus(1)
    reference = atpo.ModelLibrary(solved.models, solved.policies)
    here = [run_experiment(reference, roster, horizon=12, trials=4, base_seed=seed) for seed in seeds]

    solve = solvers.value_iteration
    log = tmp_path / "vi.log"

    def logged(mdp, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(mdp, *args, **kwargs)

    # Both names the tracer wraps, so a solve through either is counted.
    monkeypatch.setattr(solvers, "value_iteration", logged)
    monkeypatch.setattr(agents, "value_iteration", logged)
    cpus(2)
    lib = atpo.ModelLibrary(solved.models, solved.policies)
    pooled = [run_experiment(lib, roster, horizon=12, trials=4, base_seed=seed) for seed in seeds]
    assert not child_process_left()
    # One solve per model, all in this process, none in a later block.
    assert log.read_text().split() == [str(os.getpid())] * lib.size
    for got, expected in zip(pooled, here):
        for name in roster:
            assert_same_trials(got.agents[name].trials, expected.agents[name].trials)

    # vi plays each visited state's greedy action of a direct solve of the true model.
    greedy = [solve(pomdp.induced_mdp(m)).greedy for m in lib.models]
    for got, table in zip(lib.state_greedy, greedy):
        assert np.array_equal(got, table)
    for result in pooled:
        for t in result.agents["vi"].trials:
            visited = [t.initial_state, *t.states[:-1]]
            assert list(t.actions) == [int(greedy[t.model_index][x]) for x in visited]


def test_scale_solves_value_iteration_once_per_model_in_this_process(cpus, tmp_path, monkeypatch):
    # Each prefix library takes its slice of the largest library's tables,
    # and the table it writes is the one of prefixes solved on their own.
    domain = build("gridworld", size=3, tasks=2, belief_set_size=40, horizon=10)
    cpus(1)
    solved = prepare_library(domain, cache=PolicyCache(tmp_path / "cache"))
    plan = plan_experiment(harness.SCALING_AGENTS, domain.models, trials=3)
    separate = {k: atpo.ModelLibrary(solved.models[:k], solved.policies[:k]) for k in (1, 2)}
    expected = plan.run_scaling(separate, domain.horizon, label=domain.name)

    solve = solvers.value_iteration
    log = tmp_path / "vi.log"

    def logged(mdp, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(mdp, *args, **kwargs)

    monkeypatch.setattr(solvers, "value_iteration", logged)
    monkeypatch.setattr(agents, "value_iteration", logged)
    cpus(2)
    assert cli.main(["scale", "gridworld", "--size", "3", "--beliefs", "40", "--horizon", "10", "--trials", "3",
                     "--sizes", "1,2", "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]) == 0
    assert not child_process_left()
    assert log.read_text().split() == [str(os.getpid())] * domain.size
    rows = (tmp_path / "out" / "scale.csv").read_text().splitlines()
    assert rows[1:] == [
        f"{k},{name},{s.mean!r},{s.std!r},{'' if s.normalized is None else repr(s.normalized)}"
        for k in (1, 2) for name, s in expected[k].agents.items()
    ]


def test_trial_series_are_packed_arrays_in_the_pool_and_in_this_process(small_library, cpus):
    # Each per-step series is a typed array whose one referent is its type:
    # the collector finds no object per step behind it.  It comes back from a
    # pool worker as the same array, and the return sums it as a list would.
    _, lib = small_library
    kwargs = dict(horizon=12, trials=3, base_seed=5)
    cpus(1)
    here = run_experiment(lib, agents.AGENT_NAMES, **kwargs)
    cpus(2)
    pooled = run_experiment(lib, agents.AGENT_NAMES, **kwargs)
    assert not child_process_left()
    for name in agents.AGENT_NAMES:
        assert_same_trials(pooled.agents[name].trials, here.agents[name].trials)
        for t in pooled.agents[name].trials + here.agents[name].trials:
            for field, typecode in (("actions", "i"), ("observations", "i"), ("states", "i"), ("rewards", "d")):
                series = getattr(t, field)
                assert type(series) is array.array and series.typecode == typecode, field
                assert len(series) == 12 and gc.get_referents(series) == [array.array], field
            assert bits_equal(t.total_return, float(sum(list(t.rewards))))


def test_one_cpu_or_one_job_creates_no_pool(small_library, cpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    _, lib = small_library
    monkeypatch.setattr(os, "fork", no_pool)
    cpus(1)
    assert len(run_experiment(lib, ["atpo", "random"], horizon=5, trials=3).agents) == 2
    cpus(2)
    result = run_experiment(lib, ["atpo"], horizon=5, trials=1)
    assert len(result.agents["atpo"].trials) == 1


def test_a_failing_pool_trial_raises_its_own_error_and_leaves_no_process(cpus, monkeypatch):
    # The agent's models never emit observation 2 and the environment's
    # does, so every model is pruned the first time observation 2 comes.
    rng = np.random.default_rng(8)
    emitting = random_pomdp(rng, label="emits")
    m = random_pomdp(rng, label="silent")
    observation = []
    for a in range(m.num_actions):
        o = dense(m.observation[a])
        o[:, 0] += o[:, 2]
        o[:, 2] = 0.0
        observation.append(o)
    transition = [dense(t) for t in m.transition]
    silent = TabularPomdp(transition, observation, m.reward, m.discount, m.initial_belief)
    settings = solvers.SolverSettings(belief_set_size=30, horizon=8, stage_cap=20)
    env = atpo.ModelLibrary([emitting], [solvers.perseus_solve(emitting, settings)])
    agent_lib = atpo.ModelLibrary([silent], [solvers.perseus_solve(silent, settings)])
    monkeypatch.setattr(harness, "make_agent", lambda name, library, **kw: agents.AtpoAgent(agent_lib))

    cpus(1)
    with pytest.raises(atpo.AllModelsPruned) as here:
        run_experiment(env, ["atpo"], horizon=20, trials=6)
    cpus(2)
    threads = threading.active_count()
    with pytest.raises(atpo.AllModelsPruned) as pooled:
        run_experiment(env, ["atpo"], horizon=20, trials=6)
    assert not child_process_left()
    assert threading.active_count() == threads
    assert type(pooled.value) is atpo.AllModelsPruned
    assert str(pooled.value) == str(here.value) and pooled.value.step == here.value.step


def test_trials_and_summary_carry_phase_times(small_library, tmp_path):
    _, lib = small_library
    result = run_experiment(lib, ["atpo", "random"], horizon=10, trials=3)
    for summary in result.agents.values():
        for t in summary.trials:
            assert tuple(t.phase_s) == harness.PHASES
            assert all(seconds >= 0.0 for seconds in t.phase_s.values())
            assert sum(t.phase_s.values()) <= t.wall_time
    assert result.agents["atpo"].trials[0].phase_s["diagnostics"] > 0.0
    report = emit_reports(result, tmp_path)
    for name, summary in result.agents.items():
        totals = report["agents"][name]["phase_s"]
        assert list(totals) == list(harness.PHASES)
        for phase, seconds in totals.items():
            assert seconds == pytest.approx(sum(t.phase_s[phase] for t in summary.trials))


@pytest.mark.parametrize("name, overrides", [
    ("gridworld", dict(size=3, tasks=2)), ("pursuit-task", dict(size=3)), ("power-plant", {}),
])
def test_scaling_every_reward_by_a_power_of_two_scales_what_a_trial_returns_exactly(name, overrides):
    # Every reward times c, and the solver tolerance with it, changes no
    # float but by that factor: the solved vectors scale bit for bit, the
    # actions, stage counts and ATPO trajectories stay, and the rewards and
    # loss rows scale by exactly c.  Two models each, 8 ATPO trials a model.
    domain = build(name, belief_set_size=60, horizon=20, **overrides)
    models = domain.models[:2]

    def solved(c):
        scaled = [dataclasses.replace(m, reward=m.reward * c) for m in models]
        settings = dataclasses.replace(domain.solver, tolerance=domain.solver.tolerance * c)
        library = atpo.ModelLibrary(scaled, [solvers.perseus_solve(m, settings) for m in scaled])
        agent = make_agent("atpo", library)
        trials = [run_trial(library, agent, domain.horizon, seed, true_model=k) for k in range(2) for seed in range(8)]
        return library.policies, trials

    policies, trials = solved(1.0)
    for c in (2.0, 0.5):
        scaled_policies, scaled_trials = solved(c)
        for p, q in zip(policies, scaled_policies, strict=True):
            assert bits_equal(p.vectors * c, q.vectors)
            assert np.array_equal(p.actions, q.actions) and [v * c for v in p.stage_values] == q.stage_values
        for t, u in zip(trials, scaled_trials, strict=True):
            assert (t.actions, t.observations, t.states) == (u.actions, u.observations, u.states)
            assert bits_equal(t.posteriors, u.posteriors) and bits_equal(t.evidence, u.evidence)
            assert [r * c for r in t.rewards] == list(u.rewards)
            assert bits_equal(t.loss_rows * c, u.loss_rows)


# Three hand-written candidates over states 0 and 1 and the absorbing state
# 2, with 2 actions and 2 observations: per candidate the transition and
# observation tables by action, the reward, the start belief and the alpha
# vectors with their actions.  The absorbing state pays 0 and keeps itself.
# The third candidate starts in state 1, which keeps itself and, under
# action 0, never shows observation 1: a trial of another candidate that
# shows 1 after action 0 prunes it.
ABSORBING = 2
EXACT_CANDIDATES = [
    dict(
        transition=[[[0.6, 0.2, 0.2], [0.3, 0.5, 0.2], [0.0, 0.0, 1.0]],
                    [[0.1, 0.8, 0.1], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]]],
        observation=[[[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]],
                     [[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]],
        reward=[[3.0, 0.5], [0.0, 2.0], [0.0, 0.0]],
        b0=[0.7, 0.3, 0.0],
        vectors=[[4.0, 1.0, 0.1], [1.0, 3.0, 0.2]],
        actions=[0, 1],
    ),
    dict(
        transition=[[[0.2, 0.5, 0.3], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                    [[0.7, 0.3, 0.0], [0.1, 0.3, 0.6], [0.0, 0.0, 1.0]]],
        observation=[[[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]],
                     [[0.3, 0.7], [0.85, 0.15], [0.5, 0.5]]],
        reward=[[0.0, 2.5], [1.5, -1.0], [0.0, 0.0]],
        b0=[0.4, 0.6, 0.0],
        vectors=[[0.5, 2.5, 0.3], [4.0, 0.5, 0.1]],
        actions=[0, 1],
    ),
    dict(
        transition=[[[0.3, 0.5, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                    [[0.6, 0.3, 0.1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
        observation=[[[0.8, 0.2], [1.0, 0.0], [0.5, 0.5]],
                     [[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]],
        reward=[[2.0, 1.0], [2.0, 0.0], [0.0, 0.0]],
        b0=[0.0, 1.0, 0.0],
        vectors=[[1.0, 1.0, 0.0], [3.0, 0.5, 0.1]],
        actions=[0, 1],
    ),
]


def _clear_best(values, actions):
    """The action of the largest value; its lead over every value of
    another action must be clear, so rounding cannot pick otherwise."""
    best = max(range(len(values)), key=values.__getitem__)
    rivals = [v for v, a in zip(values, actions) if a != actions[best]]
    assert not rivals or values[best] - max(rivals) > 1e-6
    return actions[best]


def _vi_greedy(c, discount, sweeps=2000):
    """The value-iteration greedy action of each live state, by per-element sweeps."""
    n, num_actions = len(c["reward"]), len(c["transition"])

    def q(s, a, v):
        return c["reward"][s][a] + discount * sum(c["transition"][a][s][t] * v[t] for t in range(n))

    v = [0.0] * n
    for _ in range(sweeps):
        v = [max(q(s, a, v) for a in range(num_actions)) for s in range(n)]
    return [_clear_best([q(s, a, v) for a in range(num_actions)], range(num_actions))
            for s in range(ABSORBING)]


def _first_best(mix):
    """The mixture's argmax, lowest action on an exact tie; any other
    lead must be clear, so rounding cannot pick otherwise."""
    best = max(range(len(mix)), key=lambda a: (mix[a], -a))
    assert all(a == best or mix[a] == mix[best] or mix[best] - mix[a] > 1e-9 for a in range(len(mix)))
    return best


def trial_statistics(trial):
    """The undiscounted return of a trial, and over the steps it acts from a
    live state, its plays of action 1 and its changes of action."""
    before = [trial.initial_state, *trial.states[:-1]]
    live = [a for a, x in zip(trial.actions, before) if x != ABSORBING]
    return trial.total_return, live.count(1), sum(a != b for a, b in zip(live, live[1:]))


def expected_statistics(candidates, horizon, discount):
    """{agent: [(mean, variance) of each of trial_statistics]}, by
    enumerating every branch: the true candidate (uniform), the start state,
    then per step the action, the next state and the observation.  A branch
    ends at the horizon or in the absorbing state, which pays 0 from then on
    and takes no action the statistics count.  Each agent's action law is
    taken from the branch alone: per candidate the unnormalised P(state,
    observations | actions), a joint filter that the atpo agents and
    random-picker read through the candidates' vectors, perseus through the
    true candidate's alone, and the product of the transitions seen, bopa's
    evidence.  A candidate whose joint filter has lost all mass is pruned:
    the atpo agents give it no weight and random-picker draws among the
    others."""
    vi = [_vi_greedy(c, discount) for c in candidates]

    def greedy(c, p, mass):
        belief = [x / mass for x in p]
        values = [sum(w * b for w, b in zip(vector, belief)) for vector in c["vectors"]]
        return _clear_best(values, c["actions"])

    def action_probs(agent, k, s, joint, moves):
        if agent == "random":
            return [0.5, 0.5]
        if agent == "vi":
            return [float(vi[k][s] == a) for a in range(2)]
        if agent == "bopa":
            mix = [0.0, 0.0]
            for j, move in enumerate(moves):
                mix[vi[j][s]] += move / sum(moves)
            return mix
        if agent == "perseus":
            return [float(greedy(candidates[k], joint[k], sum(joint[k])) == a) for a in range(2)]
        masses = [sum(p) for p in joint]
        alive = [(c, p, mass) for c, p, mass in zip(candidates, joint, masses) if mass > 0.0]
        mix = [0.0, 0.0]
        for c, p, mass in alive:
            share = 1.0 / len(alive) if agent == "random-picker" else mass / sum(masses)
            mix[greedy(c, p, mass)] += share
        if agent == "atpo --greedy":
            return [float(a == _first_best(mix)) for a in range(2)]
        return mix

    def walk(agent, k, s, step, stats, weight, joint, moves, moments):
        if step == horizon or s == ABSORBING:
            for i, x in enumerate(stats[:3]):
                moments[i] += (weight * x, weight * x * x)
            return
        true = candidates[k]
        for a, pa in enumerate(action_probs(agent, k, s, joint, moves)):
            for s2, pt in enumerate(true["transition"][a][s]):
                for z, pz in enumerate(true["observation"][a][s2]):
                    if pa * pt * pz == 0.0:
                        continue
                    advanced = [
                        [sum(p[x] * c["transition"][a][x][y] for x in range(len(p))) * c["observation"][a][y][z]
                         for y in range(len(p))]
                        for c, p in zip(candidates, joint)
                    ]
                    moved = [move * c["transition"][a][s][s2] for c, move in zip(candidates, moves)]
                    total, ones, changes, last = stats
                    stats2 = (total + true["reward"][s][a], ones + (a == 1), changes + (last not in (None, a)), a)
                    walk(agent, k, s2, step + 1, stats2, weight * pa * pt * pz, advanced, moved, moments)

    out = {}
    for agent in ("random", "vi", "atpo", "random-picker", "bopa", "perseus", "atpo --greedy"):
        moments = np.zeros((3, 2))
        for k, c in enumerate(candidates):
            for s, p0 in enumerate(c["b0"]):
                if p0 > 0.0:
                    walk(agent, k, s, 0, (0.0, 0, 0, None), p0 / len(candidates),
                         [list(d["b0"]) for d in candidates], [1.0] * len(candidates), moments)
        out[agent] = [(mean, square - mean ** 2) for mean, square in moments]
    return out


def test_seeded_means_match_the_enumerated_expected_returns():
    # What a trial returns, checked against its exact expectation: the
    # horizon, the reward at the state acted in, the uniform draw of the
    # true model, each agent's action law and its pruning of the third
    # candidate all show in the means of the return, of the plays of action
    # 1 and of the changes of action.
    horizon, discount, trials = 4, 0.95, 1500
    models = [
        TabularPomdp(c["transition"], c["observation"], c["reward"], discount, c["b0"], label=f"exact{k}")
        for k, c in enumerate(EXACT_CANDIDATES)
    ]
    policies = [
        solvers.AlphaVectorPolicy(vectors=np.array(c["vectors"]), actions=np.array(c["actions"]), discount=discount)
        for c in EXACT_CANDIDATES
    ]
    library = atpo.ModelLibrary(models, policies)
    expected = expected_statistics(EXACT_CANDIDATES, horizon, discount)
    sampled = run_experiment(
        library, ("random", "vi", "atpo", "random-picker", "bopa", "perseus"),
        horizon=horizon, trials=trials, base_seed=0,
    )
    argmax = run_experiment(library, ("atpo",), horizon=horizon, trials=trials, base_seed=0, greedy=True)
    runs = {name: agent.trials for name, agent in sampled.agents.items()}
    runs["atpo --greedy"] = argmax.agents["atpo"].trials
    # Per agent and statistic: (seeded mean, expectation, distance in standard errors).
    off = {}
    for name, moments in expected.items():
        seen = np.mean([trial_statistics(t) for t in runs[name]], axis=0)
        off[name] = [(m, mean, (m - mean) / math.sqrt(variance / trials)) for m, (mean, variance) in zip(seen, moments)]
    assert all(abs(z) <= 4.0 for rows in off.values() for _, _, z in rows), off
