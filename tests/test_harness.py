"""Trial reproducibility, experiment summaries, report files and the library solve."""
import ctypes
import dataclasses
import hashlib
import importlib
import json
import math
import os
import pickle
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from adhocpo import agents, atpo, harness, modelio, pomdp, solvers
from adhocpo.agents import make_agent
from adhocpo.domains import build
from adhocpo.harness import (
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

from conftest import child_process_left, dense, is_csr, random_pomdp, stored_as_given


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
            (t.seed, t.model_index, t.actions, t.observations, t.total_return)
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


def per_step_loss_rows(lib, trial, likelihood_floor=0.0):
    """(loss rows, acting posteriors) as an agent told the true model would
    record them while acting: on its own belief of that model, each step."""
    k = trial.model_index
    state = atpo.PosteriorState.initial(lib)
    rows, posteriors = [], []
    for a, z in zip(trial.actions, trial.observations):
        losses = solvers.loss_all(lib.models[k], lib.policies[k], state.beliefs[k])
        rows.append(np.where(state.greedy >= 0, losses[state.greedy], losses.max()))
        posteriors.append(state.posterior)
        state = atpo.update(lib, state, a, z, likelihood_floor)
    return np.array(rows), np.array(posteriors)


def assert_deferred_rows_match(lib, trial, likelihood_floor=0.0):
    rows, posteriors = per_step_loss_rows(lib, trial, likelihood_floor)
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
    # A true model the prior rules out keeps its initial belief, as it
    # does in the agent's posterior state.
    ruled_out = atpo.ModelLibrary(models, lib.policies, prior=[0.0, 1.0])
    t = run_trial(ruled_out, make_agent("atpo", ruled_out), horizon=10, seed=0, true_model=0)
    assert_deferred_rows_match(ruled_out, t)
    assert math.isinf(t.bound.kl_total)
    assert_bound_matches_reference(ruled_out, t)


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
    # A true model the prior rules out has an infinite KL term and margin,
    # written as null.
    ruled_out = type(lib)(lib.models, lib.policies, prior=[0.0, 1.0])
    res = run_experiment(ruled_out, ["atpo"], horizon=5, trials=4, base_seed=0)
    terms = emit_reports(res, tmp_path / "ruled-out")["agents"]["atpo"]["bound_terms"]
    hidden = [t.model_index == 0 for t in res.agents["atpo"].trials]
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


def _blas_threads():
    """Thread count of the OpenBLAS loaded in this process; None without one."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


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
            fh.write(f"{os.getpid()} {_blas_threads()}\n")
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
        assert blas in ("1", "None")  # one BLAS thread, where OpenBLAS is loaded
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
        pomdp.ZeroLikelihood("grid", 1, 2),
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
            assert t.actions == [int(greedy[t.model_index][x]) for x in visited]


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
