"""Release gates: one test per release requirement.

Each test here is a pass/fail check on the toolkit as a whole: filter
correctness against independent oracles, loss-bound integrity, solver
quality, desk-scale benchmark scores, identification quality, library-size
scaling, agent ordering, full-scale domain construction, and the two
reduction equivalences.  Thresholds are fixed release bars, not tuning
targets; do not loosen them to make a failing build pass.

Expensive policy solves go through the on-disk cache (ADHOCPO_CACHE, or
.cache/ next to the package by default), so repeat runs skip them.  Delete
the cache directory to time a cold run; the wall-clock asserts are sized
for cold runs on an ordinary workstation.
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

from adhocpo import atpo
from adhocpo.agents import (
    AtpoAgent,
    CapabilityError,
    InformedPerseusAgent,
    make_agent,
)
from adhocpo.atpo import ModelLibrary, PosteriorState
from adhocpo.cli import CACHE_ENV
from adhocpo.domains import build
from adhocpo.harness import (
    SCALING_AGENTS,
    identification_summary,
    plan_experiment,
    prepare_library,
    run_experiment,
    run_trial,
)
from adhocpo.pomdp import TabularMmdp, TabularPomdp, induced_mdp, sample_initial_state, simulate_step
from adhocpo.solvers import (
    AlphaVectorPolicy,
    PolicyCache,
    SolverSettings,
    perseus_solve,
    policy_value,
    value_iteration,
)

from conftest import dense, exhaustive_filter, random_pomdp, random_stochastic

CACHE_DIR = Path(os.environ.get(CACHE_ENV) or Path(__file__).resolve().parent.parent / ".cache")

# Desk-scale settings: small enough to solve in minutes, large enough that
# the benchmark bars below are meaningful.  The solve tolerance and the
# evaluation protocol match the full-scale benchmark defaults.
GRID_DESK = dict(size=4, tasks=8, belief_set_size=1500)
PURSUIT_DESK = dict(size=3, belief_set_size=1500)
TRIALS = 32
BASE_SEED = 0
ORDERING = ("vi", "perseus", "atpo", "random-picker", "random")

# Wall-clock spent building each shared fixture, keyed by fixture name, so
# the per-test runtime bars can account for the solves they rely on.
ELAPSED = {}


def _prefix(library: ModelLibrary, k: int) -> ModelLibrary:
    return ModelLibrary(models=library.models[:k], policies=library.policies[:k])


@pytest.fixture(scope="session")
def grid_desk():
    """4x4 grid build with eight task models solved once through the cache."""
    started = time.perf_counter()
    domain = build("gridworld", **GRID_DESK)
    library = prepare_library(domain, PolicyCache(CACHE_DIR))
    ELAPSED["grid_solves"] = time.perf_counter() - started
    return domain, library


@pytest.fixture(scope="session")
def grid_experiment(grid_desk):
    domain, library = grid_desk
    started = time.perf_counter()
    result = run_experiment(
        _prefix(library, 4),
        ORDERING,
        horizon=domain.horizon,
        trials=TRIALS,
        base_seed=BASE_SEED,
        label="gridworld-desk",
    )
    ELAPSED["grid_trials"] = time.perf_counter() - started
    return result


@pytest.fixture(scope="session")
def scaling_results(grid_desk):
    domain, library = grid_desk
    started = time.perf_counter()
    libraries = {k: _prefix(library, k) for k in (2, 4, 8)}
    plan = plan_experiment(SCALING_AGENTS, library.models, trials=TRIALS, base_seed=BASE_SEED)
    results = plan.run_scaling(libraries, horizon=domain.horizon, label="scaling")
    ELAPSED["scaling_trials"] = time.perf_counter() - started
    return results


@pytest.fixture(scope="session")
def pursuit_desk():
    started = time.perf_counter()
    domain = build("pursuit-task", **PURSUIT_DESK)
    library = prepare_library(domain, PolicyCache(CACHE_DIR))
    ELAPSED["pursuit_solves"] = time.perf_counter() - started
    return domain, library


@pytest.fixture(scope="session")
def pursuit_experiment(pursuit_desk):
    domain, library = pursuit_desk
    result = run_experiment(
        library,
        ORDERING,
        horizon=domain.horizon,
        trials=TRIALS,
        base_seed=BASE_SEED,
        label="pursuit-desk",
    )
    return result


# ---------------------------------------------------------------------------
# 1. Posterior and per-model beliefs against an exhaustive joint filter.


def _scalar_forward_step(alpha, t_table, o_table, z):
    """One unnormalised forward-filter step, scalar arithmetic only."""
    n = len(alpha)
    out = [0.0] * n
    for x2 in range(n):
        s = 0.0
        for x in range(n):
            s += alpha[x] * float(t_table[x, x2])
        out[x2] = s * float(o_table[x2, z])
    return out


def _dummy_policy(model) -> AlphaVectorPolicy:
    return AlphaVectorPolicy(
        vectors=np.zeros((1, model.num_states)),
        actions=np.zeros(1, dtype=int),
        discount=model.discount,
    )


def test_posterior_matches_exhaustive_joint_filter():
    """Model posterior and per-model beliefs equal the joint Bayes filter.

    The reference is a forward filter over the joint (model, state) space
    written with explicit scalar loops, cross-checked on small instances
    against full enumeration of every state sequence.
    """
    rng = np.random.default_rng(20260823)
    started = time.perf_counter()
    for lib_index in range(50):
        num_actions = int(rng.integers(2, 4))
        num_obs = int(rng.integers(2, 5))
        num_models = int(rng.integers(1, 4))
        zeros = 0.3 if lib_index % 2 else 0.0
        models = [
            random_pomdp(
                rng,
                num_states=int(rng.integers(2, 7)),
                num_actions=num_actions,
                num_observations=num_obs,
                zeros=zeros,
                label=f"m{k}",
            )
            for k in range(num_models)
        ]
        library = ModelLibrary(models, [_dummy_policy(m) for m in models])
        state = PosteriorState.initial(library)

        t_tables = [[dense(t) for t in m.transition] for m in models]
        o_tables = [[dense(t) for t in m.observation] for m in models]
        alphas = [[float(v) for v in m.initial_belief] for m in models]

        k_star = int(rng.integers(num_models))
        x = sample_initial_state(models[k_star], rng)
        history = []
        for _ in range(int(rng.integers(1, 6))):
            a = int(rng.integers(num_actions))
            x, z, _ = simulate_step(models[k_star], x, a, rng)
            history.append((a, z))

            state = atpo.update(library, state, a, z)
            for k in range(num_models):
                alphas[k] = _scalar_forward_step(
                    alphas[k], t_tables[k][a], o_tables[k][a], z
                )

            masses = [sum(al) for al in alphas]
            weights = [float(library.prior[k]) * masses[k] for k in range(num_models)]
            total = sum(weights)
            assert total > 0.0
            for k in range(num_models):
                assert bool(state.greedy[k] >= 0) == (masses[k] > 0.0)
                assert abs(state.posterior[k] - weights[k] / total) <= 1e-8
                if masses[k] > 0.0:
                    want = np.array(alphas[k]) / masses[k]
                    assert np.abs(state.beliefs[k] - want).max() <= 1e-8

        # Tie the scalar forward filter itself back to brute-force
        # enumeration over complete state sequences where that is feasible.
        t = len(history)
        if sum(m.num_states ** (t + 1) for m in models) <= 4000:
            for k, model in enumerate(models):
                belief, mass = exhaustive_filter(model, history)
                assert abs(mass - sum(alphas[k])) <= 1e-10
                if mass > 0.0:
                    want = np.array(alphas[k]) / sum(alphas[k])
                    assert np.abs(belief - want).max() <= 1e-9
    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 2. The online loss bound holds on every benchmark trajectory.


def test_loss_bound_holds_on_all_trajectories(grid_experiment, scaling_results):
    trials = list(grid_experiment.agents["atpo"].trials)
    for result in scaling_results.values():
        trials.extend(result.agents["atpo"].trials)
    assert len(trials) == 4 * TRIALS
    for trial in trials:
        assert trial.bound is not None
        assert trial.bound.tolerance == 1e-6
        assert trial.bound.satisfied, (
            f"seed {trial.seed}: mixture {trial.bound.mixture_total:.6f} "
            f"exceeds ceiling {trial.bound.ceiling:.6f}"
        )


# ---------------------------------------------------------------------------
# 3. Solver quality: exact residuals, corner-belief agreement, monotone stages.


def _random_mmdp(rng) -> TabularMmdp:
    n = int(rng.integers(3, 16))
    # 4, 6 or 9 actions.
    num_actions = int(rng.integers(2, 4)) * int(rng.integers(2, 4))
    return TabularMmdp(
        transition=[random_stochastic(rng, n, n) for _ in range(num_actions)],
        reward=rng.uniform(-1.0, 1.0, size=(n, num_actions)),
        discount=float(rng.uniform(0.90, 0.97)),
    )


def test_solver_quality(grid_desk, pursuit_desk):
    rng = np.random.default_rng(7)
    started = time.perf_counter()

    for _ in range(20):
        solution = value_iteration(_random_mmdp(rng), tolerance=1e-6)
        assert solution.residual <= 1e-6

    # On a fully observable model (identity observations) the point-based
    # policy must agree with exact state values at every corner belief.
    reduction_policies = []
    for _ in range(5):
        n = int(rng.integers(4, 11))
        num_actions = int(rng.integers(2, 5))
        model = random_pomdp(
            rng, num_states=n, num_actions=num_actions, num_observations=n,
            discount=0.95, label="observable",
        )
        model = TabularPomdp(
            [dense(t) for t in model.transition],
            [np.eye(n) for _ in range(num_actions)],
            model.reward,
            model.discount,
            model.initial_belief,
            label="observable",
        )
        exact = value_iteration(induced_mdp(model), tolerance=1e-8)
        settings = SolverSettings(
            belief_set_size=n + 1, horizon=1, tolerance=1e-3, seed=0, stage_cap=500
        )
        corners = np.vstack([model.initial_belief, np.eye(n)])
        policy = perseus_solve(model, settings, beliefs=corners)
        reduction_policies.append(policy)
        for xi in range(n):
            assert abs(policy_value(policy, np.eye(n)[xi]) - exact.values[xi]) <= 0.1

    # Stage values at the initial belief never decrease, for every solve
    # this session produced.
    _, grid_library = grid_desk
    _, pursuit_library = pursuit_desk
    for policy in list(grid_library.policies) + list(pursuit_library.policies) + reduction_policies:
        steps = np.diff(policy.stage_values)
        assert steps.min() >= -1e-9

    assert time.perf_counter() - started < 120.0


# ---------------------------------------------------------------------------
# 4. Desk-scale gridworld benchmark score.


def test_gridworld_benchmark_score(grid_experiment):
    score = grid_experiment.normalized_score("atpo")
    assert score is not None
    assert score >= 70.0, f"normalized score {score:.1f} below the 70 bar"
    assert ELAPSED["grid_solves"] + ELAPSED["grid_trials"] < 900.0


# ---------------------------------------------------------------------------
# 5. The true model is identified from behaviour alone.


def test_model_identification(grid_experiment):
    ident = identification_summary(grid_experiment.agents["atpo"].trials, step=20)
    assert ident.median_probability >= 0.7, (
        f"median posterior on the true model {ident.median_probability:.3f}"
    )
    assert ident.accuracy >= 0.75, f"argmax accuracy {ident.accuracy:.3f}"


# ---------------------------------------------------------------------------
# 6. Performance degrades gracefully, not sharply, as the library grows.


def _per_trial_normalized(result) -> np.ndarray:
    lo = result.agents["random"].mean
    hi = result.agents["vi"].mean
    return 100.0 * (result.agents["atpo"].returns - lo) / (hi - lo)


def test_library_size_scaling(scaling_results):
    for k, result in scaling_results.items():
        score = result.normalized_score("atpo")
        assert score is not None
        assert score >= 60.0, f"K={k}: normalized score {score:.1f} below the 60 bar"

    # Median per-trial score must not rise with K beyond noise: an
    # inversion is tolerated unless a one-sided sign test on the paired
    # per-seed scores flags a real increase at the 0.2 level.
    sizes = sorted(scaling_results)
    scores = {k: _per_trial_normalized(scaling_results[k]) for k in sizes}
    for small, large in zip(sizes, sizes[1:]):
        if np.median(scores[large]) <= np.median(scores[small]) + 1e-9:
            continue
        diff = scores[large] - scores[small]
        wins = int((diff > 0).sum())
        decided = wins + int((diff < 0).sum())
        p = binomtest(wins, decided, alternative="greater").pvalue if decided else 1.0
        assert p >= 0.2, (
            f"scores rise from K={small} to K={large} "
            f"(sign test p={p:.3f} on {decided} decided pairs)"
        )
    assert ELAPSED["grid_solves"] + ELAPSED["scaling_trials"] < 1800.0


# ---------------------------------------------------------------------------
# 7. Agents order by how much they are given.


def _check_ordering(result):
    summaries = [result.agents[name] for name in ORDERING]
    for hi, lo in zip(summaries, summaries[1:]):
        pooled = math.sqrt((hi.std**2 + lo.std**2) / 2.0)
        assert hi.mean >= lo.mean - pooled, (
            f"{result.label}: {hi.name} mean {hi.mean:.2f} trails "
            f"{lo.name} mean {lo.mean:.2f} by more than one pooled std {pooled:.2f}"
        )
    assert result.agents["vi"].mean > result.agents["random"].mean


def test_agent_ordering(grid_experiment, pursuit_experiment):
    _check_ordering(grid_experiment)
    _check_ordering(pursuit_experiment)


# ---------------------------------------------------------------------------
# 8. Full-scale domain construction: exact state, action, observation counts.

FULL_SCALE = {
    "gridworld": ([626], 5, 81, 2),
    "pursuit-task": ([626], 5, 81, 4),
    "pursuit-teammate": ([626], 5, 81, 2),
    "pursuit-both": ([626], 5, 81, 8),
    "power-plant": ([97, 105], 6, 6, 2),
    "ntu": ([241], 5, 81, 4),
    "overcooked": ([1730], 4, 1730, 4),
    "isr": ([1807], 5, 81, 3),
    "mit": ([2163], 5, 81, 3),
    "pentagon": ([2653], 5, 81, 3),
    "cit": ([4831], 5, 81, 3),
}


def test_full_scale_domain_catalog():
    started = time.perf_counter()
    for name, (state_counts, num_actions, num_obs, num_models) in FULL_SCALE.items():
        domain = build(name)
        assert len(domain.models) == num_models, name
        for i, model in enumerate(domain.models):
            # Heterogeneous libraries list one state count per model.
            expected_states = state_counts[i] if len(state_counts) > 1 else state_counts[0]
            assert model.num_states == expected_states, name
            assert model.num_actions == num_actions, name
            assert model.num_observations == num_obs, name
    assert time.perf_counter() - started < 1800.0


# ---------------------------------------------------------------------------
# 9. Reductions: a one-model library collapses to the informed agent, and
#    heterogeneous state spaces are rejected by the shared-state baseline.


def test_single_model_library_matches_informed_agent(grid_desk):
    domain, library = grid_desk
    single = _prefix(library, 1)
    adaptive = AtpoAgent(single)
    informed = InformedPerseusAgent(single)
    for seed in range(10):
        a_trial = run_trial(single, adaptive, domain.horizon, seed=seed)
        i_trial = run_trial(single, informed, domain.horizon, seed=seed)
        assert a_trial.actions == i_trial.actions
        assert a_trial.observations == i_trial.observations
        assert a_trial.states == i_trial.states
        assert a_trial.rewards == i_trial.rewards


def test_shared_state_baseline_rejects_heterogeneous_library():
    domain = build(
        "power-plant", belief_set_size=40, horizon=20, tolerance=5.0
    )
    library = prepare_library(domain)
    sizes = {m.num_states for m in library.models}
    assert len(sizes) == 2  # genuinely heterogeneous
    with pytest.raises(CapabilityError, match="shared state space"):
        make_agent("bopa", library)


# ---------------------------------------------------------------------------
# 10. A warm set-up plays as the cold one: the desk policies read back from
#     a cache give the same seeded trials, bit for bit.  On a run that
#     starts without a cache, the fixture's library is the cold solve.


def test_warm_desk_library_plays_as_the_cold_one(grid_desk, tmp_path):
    domain, library = grid_desk
    cache = PolicyCache(tmp_path)
    for policy in library.policies:
        cache.store(policy.source_digest, domain.solver, policy)
    notes = []
    warm = prepare_library(domain, cache, progress=notes.append)
    assert notes == [f"policy for {model.label}: cache" for model in domain.models]
    for cold_policy, warm_policy in zip(library.policies, warm.policies, strict=True):
        assert np.array_equal(warm_policy.vectors.view(np.uint64), cold_policy.vectors.view(np.uint64))
        assert np.array_equal(warm_policy.actions, cold_policy.actions)
    for seed in range(3):
        cold = run_trial(library, make_agent("atpo", library), domain.horizon, seed=seed)
        again = run_trial(warm, make_agent("atpo", warm), domain.horizon, seed=seed)
        assert again.model_index == cold.model_index
        assert again.actions == cold.actions
        assert again.observations == cold.observations
        assert again.rewards == cold.rewards
