"""Trial reproducibility, experiment summaries, report files and the library solve."""
import ctypes
import json
import os
import threading

import numpy as np
import pytest

from adhocpo import solvers
from adhocpo.agents import make_agent
from adhocpo.domains import build
from adhocpo.harness import (
    TrialResult,
    emit_reports,
    first_correct_step,
    identification_summary,
    prepare_library,
    run_experiment,
    run_library_scaling,
    run_trial,
)
from adhocpo.solvers import PolicyCache

from conftest import child_process_left


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
    assert t.posterior_history.shape == (15, 2)
    assert t.loss_rows.shape == (15, 2)
    assert t.bound is not None
    assert t.bound.horizon == 15
    assert len(t.trace) == 15
    plain = run_trial(lib, make_agent("random", lib), horizon=15, seed=3)
    assert plain.posterior_history is None
    assert plain.bound is None


def test_experiment_normalization_endpoints(small_library):
    domain, lib = small_library
    res = run_experiment(lib, ["vi", "atpo", "random"], horizon=25, trials=6,
                         base_seed=0, label=domain.name)
    assert res.agents["vi"].normalized == pytest.approx(100.0)
    assert res.agents["random"].normalized == pytest.approx(0.0)
    assert res.agents["atpo"].normalized is not None
    assert res.num_trials == 6 and res.horizon == 25


def test_identification_summary_math():
    histories = [
        np.array([[0.5, 0.5], [0.9, 0.1]]),
        np.array([[0.5, 0.5], [0.2, 0.8]]),
        np.array([[0.5, 0.5], [0.6, 0.4]]),
    ]
    trials = [
        TrialResult("atpo", seed=i, model_index=0, initial_state=0,
                    actions=[0, 0], observations=[0, 0], rewards=[0, 0],
                    states=[0, 0], posterior_history=h)
        for i, h in enumerate(histories)
    ]
    ident = identification_summary(trials, step=1)
    assert ident.probabilities == pytest.approx([0.9, 0.2, 0.6])
    assert ident.median_probability == pytest.approx(0.6)
    assert ident.accuracy == pytest.approx(2 / 3)
    # Steps beyond the recorded horizon clamp to the last entry.
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
    report = emit_reports(res, tmp_path, traces=True, identification_steps=(5,))

    lines = (tmp_path / "returns.csv").read_text().strip().splitlines()
    assert lines[0] == "agent,trial,seed,model_index,total_return,wall_time"
    assert len(lines) == 1 + 3 * 3

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == report
    assert on_disk["label"] == domain.name
    atpo_entry = on_disk["agents"]["atpo"]
    assert set(atpo_entry["identification"]["at_step"]) == {"5"}
    assert "median_first_correct_step" in atpo_entry["identification"]
    assert "bound_violations" in atpo_entry
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
    results = run_library_scaling({2: lib, 1: sub}, horizon=8, trials=2,
                                  base_seed=0, agent_names=("atpo", "random"))
    assert sorted(results) == [1, 2]
    for res in results.values():
        assert set(res.agents) == {"atpo", "random"}


def test_prepare_library_cache_round_trip(tmp_path, small_library):
    domain, lib = small_library
    cache = PolicyCache(tmp_path)
    notes = []
    first = prepare_library(domain, cache=cache, progress=notes.append)
    assert all("vectors" in n for n in notes)
    notes.clear()
    second = prepare_library(domain, cache=cache, progress=notes.append)
    assert all("cache" in n for n in notes)
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
