"""Seeded trials, experiment sweeps and report files.

A trial pits one agent against one environment drawn from a model
library: the trial seed spawns independent environment and agent
streams, the environment stream picks the real model and start state,
and the loop runs act / step / observe for the full horizon (absorbing
states simply idle).  Running several agents with the same seed range
therefore gives every agent the same sequence of (model, start) pairs.
The real model is drawn uniformly: `ModelLibrary.prior`, every agent's
starting posterior, is that one distribution.
Trials share no state, so an experiment runs them in forked worker
processes, one job per (agent, seed), through the fork pool the library
solve uses (`forkpool.forked_map`); the results are those of the same
trials run in this process.  An experiment is planned first
(`plan_experiment`) from the library's models alone, so its settings and
agents are checked once, before any policy is solved.

Scores follow the accumulated (undiscounted) reward over the horizon.
Normalised scores put the random agent at 0 and the state-observing
value-iteration agent at 100.
"""
from __future__ import annotations

import array
import csv
import dataclasses
import itertools
import json
import math
import statistics
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from adhocpo import atpo
from adhocpo.agents import Agent, CapabilityError, agent_class, make_agent
from adhocpo.atpo import BoundReport, ModelLibrary, posterior_entropy
from adhocpo.domains import DomainBuild
from adhocpo.forkpool import forked_map
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
    # The per-step series, packed: no object per step for the garbage
    # collector to traverse, and one bytes block when pickled.  `list(...)`
    # or `.tolist()` gives lists.
    actions: array.array  # "i"
    observations: array.array  # "i"
    rewards: array.array  # "d"
    states: array.array  # "i", the state after each step
    posteriors: Optional[np.ndarray] = None  # (T + 1, K): the prior, then after each step
    evidence: Optional[np.ndarray] = None  # (T, K)
    loss_rows: Optional[np.ndarray] = None  # (T, K)
    bound: Optional[BoundReport] = None
    wall_time: float = 0.0
    # Seconds per phase: agent.act, simulate_step, agent.observe and the
    # post-trial diagnostics (PHASES).
    phase_s: dict = dataclasses.field(default_factory=dict)

    @property
    def total_return(self) -> float:
        return float(sum(self.rewards))

    @property
    def horizon(self) -> int:
        return len(self.actions)


PHASES = ("act", "step", "observe", "diagnostics")
# The acting steps at which summary.json reports posterior identification.
IDENTIFICATION_STEPS = (5, 10, 20)
# The roster of a library-size sweep.
SCALING_AGENTS = ("atpo", "vi", "random")


def run_trial(
    library: ModelLibrary,
    agent: Agent,
    horizon: int,
    seed: int,
    true_model: Optional[int] = None,
    initial_state: Optional[int] = None,
) -> TrialResult:
    """One seeded episode; the full horizon is always played out.  The step
    loop appends each action, observation, reward and next state to the
    result's typed arrays.  An agent that keeps a posterior also gets its
    loss rows (`atpo.loss_rows`) and bound."""
    env_seq, agent_seq = np.random.SeedSequence(seed).spawn(2)
    env_rng = np.random.default_rng(env_seq)
    agent_rng = np.random.default_rng(agent_seq)

    k_star = int(env_rng.integers(library.size)) if true_model is None else true_model
    model = library.models[k_star]
    x = sample_initial_state(model, env_rng) if initial_state is None else initial_state

    clock = time.perf_counter
    started = clock()
    agent.reset(agent_rng, true_model=k_star, initial_state=x)
    acting = stepping = observing = 0.0
    result = TrialResult(
        agent_name=agent.name,
        seed=seed,
        model_index=k_star,
        initial_state=x,
        actions=array.array("i"),
        observations=array.array("i"),
        rewards=array.array("d"),
        states=array.array("i"),
    )
    for _ in range(horizon):
        t0 = clock()
        a = agent.act(agent_rng)
        t1 = clock()
        x, z, r = simulate_step(model, x, a, env_rng)
        t2 = clock()
        agent.observe(a, observation=z, state=x)
        acting += t1 - t0
        stepping += t2 - t1
        observing += clock() - t2
        result.actions.append(a)
        result.observations.append(z)
        result.rewards.append(r)
        result.states.append(x)

    diagnosing = clock()
    posteriors = getattr(agent, "posteriors", None)
    if posteriors is not None and horizon >= 1:
        result.posteriors = np.array(posteriors)
        result.evidence = np.array(agent.evidence)
        result.loss_rows = atpo.loss_rows(library, k_star, result.actions, result.observations,
                                          agent.greedy_actions)
        result.bound = atpo.check_bound(
            result.loss_rows,
            result.posteriors[:-1],
            k_star,
            r_max=library.max_abs_reward,
            discount=model.discount,
        )
    finished = clock()
    result.wall_time = finished - started
    result.phase_s = dict(zip(PHASES, (acting, stepping, observing, finished - diagnosing)))
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


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    """The agents, trial block and agent settings of one experiment, as
    `plan_experiment` checked them: running a plan checks nothing again."""

    agent_names: tuple
    trials: int
    base_seed: int
    greedy: bool = False
    likelihood_floor: float = 0.0

    def run(self, library: ModelLibrary, horizon: int, label: str = "experiment",
            progress: Progress = None) -> ExperimentResult:
        """Same seed block for every agent, trials in forked workers.

        The agents are made here first, so the library's value-iteration
        tables are solved in this process, before the fork.  The trials, one
        job per (agent, seed), go through `forkpool.forked_map`: the workers
        get the library and the agents through the fork, and every worker is
        joined before this returns, also after a failing trial or an
        interrupt.  A trial depends only on its seed, so the results are the
        ones a run in this process gives.  `progress` gets one line per agent.
        """
        made = [
            make_agent(name, library, greedy=self.greedy, likelihood_floor=self.likelihood_floor)
            for name in self.agent_names
        ]
        jobs = [(i, self.base_seed + t) for i in range(len(made)) for t in range(self.trials)]
        agents = {}
        with forked_map(lambda i, seed: run_trial(library, made[i], horizon, seed=seed), jobs) as runs:
            for name in self.agent_names:
                s = agents[name] = AgentSummary(name=name, trials=list(itertools.islice(runs, self.trials)))
                if progress:
                    progress(f"{label}: {name} mean {s.mean:.2f} (std {s.std:.2f})")
        if "vi" in agents and "random" in agents:
            lo, hi = agents["random"].mean, agents["vi"].mean
            if hi > lo:
                for s in agents.values():
                    s.normalized = 100.0 * (s.mean - lo) / (hi - lo)
        return ExperimentResult(
            label=label,
            horizon=horizon,
            base_seed=self.base_seed,
            num_trials=self.trials,
            agents=agents,
            manifest=library_manifest(library),
        )

    def run_scaling(self, libraries: dict, horizon: int, label: str, progress: Progress = None) -> dict:
        """One experiment per library size, shared seed block."""
        return {k: self.run(libraries[k], horizon, f"{label} K={k}", progress) for k in sorted(libraries)}


def plan_experiment(agent_names, models, trials: int = 32, base_seed: int = 0, greedy: bool = False,
                    likelihood_floor: float = 0.0, skip: Optional[Callable] = None) -> ExperimentPlan:
    """Check an experiment against its library's models, which need no policy yet.

    In this order, ValueError for: an unknown agent, one named twice
    (reports keep one entry per name), a trial count below 1, a negative
    seed (numpy seeds no generator with one), and with atpo in the roster a
    likelihood floor that is not finite and non-negative.  Then an agent
    that cannot run on the models raises CapabilityError, or, given
    `skip`, is handed to skip(name, error) and left out.
    """
    names = tuple(agent_names)
    classes = [agent_class(name) for name in names]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"agent {name!r} is named more than once")
    if trials < 1:
        raise ValueError(f"need at least one trial per agent, got {trials}")
    if base_seed < 0:
        raise ValueError(f"trial seed must be non-negative, got {base_seed}")
    if "atpo" in names and not (math.isfinite(likelihood_floor) and likelihood_floor >= 0.0):
        raise ValueError(f"likelihood floor must be finite and non-negative, got {likelihood_floor}")
    kept = []
    for name, cls in zip(names, classes):
        try:
            cls.check_models(models)
            kept.append(name)
        except CapabilityError as err:
            if skip is None:
                raise
            skip(name, err)
    return ExperimentPlan(tuple(kept), trials, base_seed, greedy, likelihood_floor)


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
    """`plan_experiment` on the library's models, then `ExperimentPlan.run`:
    a bad setting or an agent the library cannot serve raises before any
    agent is made or any trial runs."""
    plan = plan_experiment(agent_names, library.models, trials, base_seed, greedy, likelihood_floor)
    return plan.run(library, horizon, label=label, progress=progress)


@dataclasses.dataclass
class IdentificationSummary:
    step: int
    probabilities: np.ndarray  # posterior mass on the real model, per trial
    accuracy: float  # fraction of trials whose posterior argmax is the real model

    @property
    def median_probability(self) -> float:
        # The floats np.median gives, without its import of numpy.ma (1.2 MB).
        return float(statistics.median(self.probabilities))


def identification_summary(trials, step: int) -> IdentificationSummary:
    """Posterior quality at an acting step, across trials that tracked it."""
    probs = []
    hits = 0
    for t in trials:
        if t.posteriors is None:
            continue
        acting = t.posteriors[:-1]
        row = acting[min(step, len(acting) - 1)]
        probs.append(row[t.model_index])
        hits += int(int(row.argmax()) == t.model_index)
    if not probs:
        raise ValueError("no trials carried a posterior history")
    return IdentificationSummary(
        step=step, probabilities=np.array(probs), accuracy=hits / len(probs)
    )


def first_correct_step(trial: TrialResult) -> Optional[int]:
    """First acting step whose posterior argmax is the real model."""
    if trial.posteriors is None:
        return None
    for t, row in enumerate(trial.posteriors[:-1]):
        if int(row.argmax()) == trial.model_index:
            return t
    return None


def settle_split(trial: TrialResult) -> tuple[Optional[int], float, float]:
    """Where a tracked trial's mixture loss falls: (settle step, loss before, loss after).

    The settle step is the first acting step from which the posterior's
    argmax is the real model at every step to the end, None if the last
    step misses.  The loss at step t is the mixture's, loss_rows[t] weighted
    by the acting posterior; it is summed over the steps before the settle
    step and over the steps from it on (all of it before when None)."""
    acting = trial.posteriors[:-1]
    misses = np.flatnonzero(acting.argmax(axis=1) != trial.model_index)
    cut = int(misses[-1]) + 1 if misses.size else 0
    losses = (trial.loss_rows * acting).sum(axis=1)
    return (cut if cut < len(acting) else None), float(losses[:cut].sum()), float(losses[cut:].sum())


def settle_summary(trials) -> dict:
    """settle_split of tracked trials by real model: the trial count, how many
    settled, their median settle step (None if none did) and the mean loss
    before and after, keyed by model index as text for summary.json."""
    by_model: dict = {}
    for t in trials:
        by_model.setdefault(t.model_index, []).append(settle_split(t))
    out = {}
    for k in sorted(by_model):
        steps, before, after = zip(*by_model[k])
        settled = [s for s in steps if s is not None]
        out[str(k)] = {
            "trials": len(steps),
            "settled": len(settled),
            "median_settle_step": float(statistics.median(settled)) if settled else None,
            "mean_loss_before": statistics.fmean(before),
            "mean_loss_after": statistics.fmean(after),
        }
    return out


def entropy_by_step(trials) -> list:
    """Mean posterior entropy after each step, over the trials that tracked it
    and were still running, in trial order; one step's entropies at a time."""
    tracked = [t.posteriors for t in trials if t.posteriors is not None]
    steps = max((len(p) - 1 for p in tracked), default=0)
    return [
        float(np.mean([posterior_entropy(p[i + 1]) for p in tracked if len(p) > i + 1])) for i in range(steps)
    ]


def emit_reports(
    result: ExperimentResult,
    out_dir,
    traces: bool = False,
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
        tracked = [t for t in summary.trials if t.posteriors is not None]
        if tracked:
            per_step = {}
            for step in IDENTIFICATION_STEPS:
                ident = identification_summary(tracked, step)
                per_step[str(step)] = {
                    "median_probability": ident.median_probability,
                    "argmax_accuracy": ident.accuracy,
                }
            firsts = [s for s in map(first_correct_step, tracked) if s is not None]
            entry["identification"] = {
                "at_step": per_step,
                "median_first_correct_step": float(statistics.median(firsts)) if firsts else None,
            }
            entry["bound_violations"] = summary.bound_violations
            # Per trial, in trial order; a term that is not finite is written as null.
            entry["bound_terms"] = {
                term: [v if math.isfinite(v := getattr(t.bound, term)) else None for t in tracked]
                for term in ("mixture_total", "comparator_total", "kl_total", "slack", "margin")
            }
            entry["settle"] = settle_summary(tracked)
            entry["mean_entropy_by_step"] = entropy_by_step(tracked)
        entry["phase_s"] = {
            phase: sum(t.phase_s.get(phase, 0.0) for t in summary.trials) for phase in PHASES
        }
        report["agents"][name] = entry
    with open(out / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if traces:
        trace_dir = out / "traces"
        trace_dir.mkdir(exist_ok=True)
        for name, summary in result.agents.items():
            for i, t in enumerate(summary.trials):
                if t.posteriors is not None:
                    atpo.write_trace(t, trace_dir / f"{name}-{i:03d}.csv")
    return report
