"""Seeded trials, experiment sweeps and report files.

A trial pits one agent against one environment drawn from a model
library: the trial seed spawns independent environment and agent
streams, the environment stream picks the real model and start state,
and the loop runs act / step / observe for the full horizon (absorbing
states simply idle).  Running several agents with the same seed range
therefore gives every agent the same sequence of (model, start) pairs.

Scores follow the accumulated (undiscounted) reward over the horizon.
Normalised scores put the random agent at 0 and the state-observing
value-iteration agent at 100.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from adhocpo import atpo
from adhocpo.agents import Agent, make_agent
from adhocpo.atpo import BoundReport, ModelLibrary
from adhocpo.domains.base import DomainBuild
from adhocpo.pomdp import sample_initial_state, simulate_step
# solve_with_cache is not called here, but the benchmark's tracer wraps it
# under this module's name.
from adhocpo.solvers import PolicyCache, solve_many, solve_with_cache  # noqa: F401

Progress = Optional[Callable[[str], None]]


def prepare_library(
    build: DomainBuild,
    cache: Optional[PolicyCache] = None,
    progress: Progress = None,
) -> ModelLibrary:
    """Solve (or fetch) every candidate's policy and bundle the library.

    Cache misses are solved in parallel where more than one CPU is
    available; see solve_many.
    """
    solved = solve_many(build.models, build.solver, cache=cache, progress=progress)
    return ModelLibrary(build.models, [policy for policy, _ in solved])


@dataclasses.dataclass
class TrialResult:
    agent_name: str
    seed: int
    model_index: int
    initial_state: int
    actions: list
    observations: list
    rewards: list
    states: list
    posterior_history: Optional[np.ndarray] = None
    loss_rows: Optional[np.ndarray] = None
    bound: Optional[BoundReport] = None
    trace: Optional[list] = None
    wall_time: float = 0.0

    @property
    def total_return(self) -> float:
        return float(sum(self.rewards))

    @property
    def horizon(self) -> int:
        return len(self.actions)


def run_trial(
    library: ModelLibrary,
    agent: Agent,
    horizon: int,
    seed: int,
    true_model: Optional[int] = None,
    initial_state: Optional[int] = None,
) -> TrialResult:
    """One seeded episode; the full horizon is always played out."""
    env_seq, agent_seq = np.random.SeedSequence(seed).spawn(2)
    env_rng = np.random.default_rng(env_seq)
    agent_rng = np.random.default_rng(agent_seq)

    k_star = int(env_rng.integers(library.size)) if true_model is None else true_model
    model = library.models[k_star]
    x = sample_initial_state(model, env_rng) if initial_state is None else initial_state

    started = time.perf_counter()
    agent.reset(agent_rng, true_model=k_star, initial_state=x)
    result = TrialResult(
        agent_name=agent.name,
        seed=seed,
        model_index=k_star,
        initial_state=x,
        actions=[],
        observations=[],
        rewards=[],
        states=[],
    )
    for _ in range(horizon):
        a = agent.act(agent_rng)
        x, z, r = simulate_step(model, x, a, env_rng)
        agent.observe(a, observation=z, state=x)
        result.actions.append(a)
        result.observations.append(z)
        result.rewards.append(r)
        result.states.append(x)

    history = getattr(agent, "posterior_history", None)
    if history:
        result.posterior_history = np.array(history)
    rows = getattr(agent, "loss_rows", None)
    if rows:
        result.loss_rows = np.array(rows)
        comparator = np.zeros(library.size)
        comparator[k_star] = 1.0
        result.bound = atpo.check_bound(
            result.loss_rows,
            result.posterior_history,
            comparator,
            r_max=library.max_abs_reward,
            discount=model.discount,
        )
    trace = getattr(agent, "trace", None)
    if trace:
        result.trace = list(trace)
    result.wall_time = time.perf_counter() - started
    return result


@dataclasses.dataclass
class AgentSummary:
    name: str
    trials: list
    normalized: Optional[float] = None

    @property
    def returns(self) -> np.ndarray:
        return np.array([t.total_return for t in self.trials])

    @property
    def mean(self) -> float:
        return float(self.returns.mean())

    @property
    def std(self) -> float:
        r = self.returns
        return float(r.std(ddof=1)) if len(r) > 1 else 0.0

    @property
    def bound_violations(self) -> int:
        return sum(
            1 for t in self.trials if t.bound is not None and not t.bound.satisfied
        )


@dataclasses.dataclass
class ExperimentResult:
    label: str
    horizon: int
    base_seed: int
    num_trials: int
    agents: dict
    manifest: Optional[dict] = None

    def normalized_score(self, name: str) -> Optional[float]:
        return self.agents[name].normalized


def library_manifest(library: ModelLibrary) -> dict:
    """Model labels, content hashes and solver settings for the run record."""
    from adhocpo.modelio import model_digest

    models = []
    for model, policy in zip(library.models, library.policies):
        digest = policy.source_digest or model_digest(model)
        models.append({"label": model.label, "digest": digest})
    settings = {
        policy.settings.key_string() for policy in library.policies if policy.settings
    }
    return {"models": models, "solver_settings": sorted(settings)}


def run_experiment(
    library: ModelLibrary,
    agent_names,
    horizon: int,
    trials: int = 32,
    base_seed: int = 0,
    label: str = "experiment",
    greedy: bool = False,
    likelihood_floor: float = 0.0,
    progress: Progress = None,
) -> ExperimentResult:
    """Same seed block for every agent, sequential trials."""
    agents = {}
    for name in agent_names:
        agent = make_agent(name, library, greedy=greedy, likelihood_floor=likelihood_floor)
        runs = []
        for i in range(trials):
            runs.append(run_trial(library, agent, horizon, seed=base_seed + i))
        agents[name] = AgentSummary(name=name, trials=runs)
        if progress:
            s = agents[name]
            progress(f"{label}: {name} mean {s.mean:.2f} (std {s.std:.2f})")
    if "vi" in agents and "random" in agents:
        lo = agents["random"].mean
        hi = agents["vi"].mean
        span = hi - lo
        if span > 0.0:
            for s in agents.values():
                s.normalized = 100.0 * (s.mean - lo) / span
    return ExperimentResult(
        label=label,
        horizon=horizon,
        base_seed=base_seed,
        num_trials=trials,
        agents=agents,
        manifest=library_manifest(library),
    )


@dataclasses.dataclass
class IdentificationSummary:
    step: int
    probabilities: np.ndarray  # posterior mass on the real model, per trial
    accuracy: float  # fraction of trials whose posterior argmax is the real model

    @property
    def median_probability(self) -> float:
        return float(np.median(self.probabilities))


def identification_summary(trials, step: int) -> IdentificationSummary:
    """Posterior quality at an acting step, across trials that tracked it."""
    probs = []
    hits = 0
    n = 0
    for t in trials:
        if t.posterior_history is None:
            continue
        idx = min(step, len(t.posterior_history) - 1)
        row = t.posterior_history[idx]
        probs.append(row[t.model_index])
        hits += int(int(row.argmax()) == t.model_index)
        n += 1
    if n == 0:
        raise ValueError("no trials carried a posterior history")
    return IdentificationSummary(
        step=step, probabilities=np.array(probs), accuracy=hits / n
    )


def first_correct_step(trial: TrialResult) -> Optional[int]:
    """First acting step whose posterior argmax is the real model."""
    if trial.posterior_history is None:
        return None
    for t, row in enumerate(trial.posterior_history):
        if int(row.argmax()) == trial.model_index:
            return t
    return None


def entropy_by_step(trials) -> list:
    """Mean posterior entropy per step over trials with traces."""
    columns: list = []
    for t in trials:
        if not t.trace:
            continue
        for i, record in enumerate(t.trace):
            if i == len(columns):
                columns.append([])
            columns[i].append(record.entropy)
    return [float(np.mean(c)) for c in columns]


def run_library_scaling(
    libraries: dict,
    horizon: int,
    trials: int = 32,
    base_seed: int = 0,
    agent_names=("atpo", "vi", "random"),
    label: str = "scaling",
    progress: Progress = None,
) -> dict:
    """One experiment per library size, shared seed block."""
    results = {}
    for size in sorted(libraries):
        results[size] = run_experiment(
            libraries[size],
            agent_names,
            horizon,
            trials=trials,
            base_seed=base_seed,
            label=f"{label} K={size}",
            progress=progress,
        )
    return results


def emit_reports(
    result: ExperimentResult,
    out_dir,
    traces: bool = False,
    identification_steps=(5, 10, 20),
) -> dict:
    """Write returns.csv and summary.json (and per-trial traces on request).

    Returns the summary dictionary that was serialized.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "returns.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "trial", "seed", "model_index", "total_return", "wall_time"])
        for name, summary in result.agents.items():
            for i, t in enumerate(summary.trials):
                writer.writerow(
                    [name, i, t.seed, t.model_index, repr(t.total_return), f"{t.wall_time:.6f}"]
                )

    report = {
        "label": result.label,
        "horizon": result.horizon,
        "base_seed": result.base_seed,
        "trials": result.num_trials,
        "agents": {},
    }
    if result.manifest is not None:
        report["manifest"] = result.manifest
    for name, summary in result.agents.items():
        entry = {
            "mean_return": summary.mean,
            "std_return": summary.std,
        }
        if summary.normalized is not None:
            entry["normalized_score"] = summary.normalized
        tracked = [t for t in summary.trials if t.posterior_history is not None]
        if tracked:
            per_step = {}
            for step in identification_steps:
                ident = identification_summary(tracked, step)
                per_step[str(step)] = {
                    "median_probability": ident.median_probability,
                    "argmax_accuracy": ident.accuracy,
                }
            firsts = [s for s in map(first_correct_step, tracked) if s is not None]
            entry["identification"] = {
                "at_step": per_step,
                "median_first_correct_step": float(np.median(firsts)) if firsts else None,
            }
            entry["bound_violations"] = summary.bound_violations
            means = entropy_by_step(tracked)
            if means:
                entry["mean_entropy_by_step"] = means
        report["agents"][name] = entry
    with open(out / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if traces:
        trace_dir = out / "traces"
        trace_dir.mkdir(exist_ok=True)
        for name, summary in result.agents.items():
            for i, t in enumerate(summary.trials):
                if t.trace:
                    atpo.write_trace(t.trace, trace_dir / f"{name}-{i:03d}.csv")
    return report
