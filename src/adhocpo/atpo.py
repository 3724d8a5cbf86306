"""Online identification of which library model is in play.

The agent tracks one belief per candidate model plus a posterior over the
models themselves.  Each step the posterior is reweighted by how well each
model predicted the last observation; models that assign it probability
zero are ruled out permanently (an optional likelihood floor keeps them
alive instead).  Actions come from the posterior-weighted mixture of the
per-model greedy policies.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from typing import Optional

import numpy as np

from adhocpo.pomdp import ZeroLikelihood, belief_update
from adhocpo.solvers import loss_all, policy_action


class AllModelsPruned(RuntimeError):
    """Every candidate model assigned the observation probability zero."""

    def __init__(self, step: int, action: int, observation: int):
        self.step = step
        super().__init__(
            f"all models pruned at step {step} after action {action}, "
            f"observation {observation}"
        )


@dataclasses.dataclass
class ModelLibrary:
    """Candidate models with their solved policies and a prior over them.

    All models must share action and observation spaces; state spaces may
    differ (each model carries its own belief).
    """

    models: list
    policies: list
    prior: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.models:
            raise ValueError("library needs at least one model")
        if len(self.policies) != len(self.models):
            raise ValueError("one policy per model")
        acts = {m.num_actions for m in self.models}
        obs = {m.num_observations for m in self.models}
        if len(acts) != 1 or len(obs) != 1:
            raise ValueError("models must share action and observation spaces")
        if self.prior is None:
            self.prior = np.full(len(self.models), 1.0 / len(self.models))
        else:
            self.prior = np.asarray(self.prior, dtype=float)
            if self.prior.shape != (len(self.models),) or abs(self.prior.sum() - 1.0) > 1e-9:
                raise ValueError("prior must be a distribution over the models")

    @property
    def size(self) -> int:
        return len(self.models)

    @property
    def num_actions(self) -> int:
        return self.models[0].num_actions

    @property
    def num_observations(self) -> int:
        return self.models[0].num_observations

    @property
    def max_abs_reward(self) -> float:
        return max(float(np.abs(m.reward).max()) for m in self.models)


def posterior_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; zero entries contribute nothing."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclasses.dataclass
class PosteriorState:
    """Posterior over models, per-model beliefs, and what is still alive."""

    posterior: np.ndarray
    beliefs: list
    active: np.ndarray
    step: int = 0
    last_evidence: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, library: ModelLibrary) -> "PosteriorState":
        return cls(
            posterior=library.prior.copy(),
            beliefs=[m.initial_belief.copy() for m in library.models],
            active=library.prior > 0.0,
            step=0,
            last_evidence=None,
        )

    @property
    def entropy(self) -> float:
        return posterior_entropy(self.posterior)

    @property
    def map_model(self) -> int:
        return int(self.posterior.argmax())


def greedy_actions(library: ModelLibrary, state: PosteriorState) -> np.ndarray:
    """Per-model greedy action at each tracked belief (-1 for pruned models)."""
    out = np.full(library.size, -1, dtype=int)
    for k in range(library.size):
        if state.active[k]:
            out[k] = policy_action(library.policies[k], state.beliefs[k])
    return out


def mixture_policy(library: ModelLibrary, state: PosteriorState) -> np.ndarray:
    """Posterior-weighted mixture of per-model greedy actions."""
    mix = np.zeros(library.num_actions)
    for k in range(library.size):
        if state.active[k] and state.posterior[k] > 0.0:
            mix[policy_action(library.policies[k], state.beliefs[k])] += state.posterior[k]
    return mix


def act(
    library: ModelLibrary,
    state: PosteriorState,
    rng: np.random.Generator,
    greedy: bool = False,
) -> tuple[int, np.ndarray]:
    """Pick an action from the mixture policy.

    Sampling is the default; greedy=True takes the mixture argmax instead
    (lowest action id on ties).  Returns (action, mixture weights).
    """
    mix = mixture_policy(library, state)
    if greedy:
        return int(mix.argmax()), mix
    return int(rng.choice(library.num_actions, p=mix)), mix


def update(
    library: ModelLibrary,
    state: PosteriorState,
    action: int,
    observation: int,
    likelihood_floor: float = 0.0,
) -> PosteriorState:
    """Condition on one (action, observation) pair.

    Per active model the belief advances through the Bayes filter and the
    observation likelihood multiplies into the posterior.  Zero likelihood
    prunes the model permanently unless likelihood_floor > 0, in which
    case the floor substitutes for the evidence and the belief is left
    unchanged.  Raises AllModelsPruned when nothing survives.
    """
    evidence = np.zeros(library.size)
    beliefs = list(state.beliefs)
    active = state.active.copy()
    for k in range(library.size):
        if not active[k]:
            continue
        try:
            beliefs[k], evidence[k] = belief_update(
                library.models[k], state.beliefs[k], action, observation
            )
        except ZeroLikelihood:
            if likelihood_floor > 0.0:
                evidence[k] = likelihood_floor
            else:
                active[k] = False
    weights = state.posterior * np.where(active, np.maximum(evidence, 0.0), 0.0)
    total = weights.sum()
    if total <= 0.0:
        raise AllModelsPruned(state.step, action, observation)
    return PosteriorState(
        posterior=weights / total,
        beliefs=beliefs,
        active=active,
        step=state.step + 1,
        last_evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Per-step losses and the cumulative bound


def step_loss(library: ModelLibrary, state: PosteriorState, action: int, true_model: int) -> float:
    """Regret of the executed action under the true model's tracked belief."""
    return float(
        loss_all(
            library.models[true_model],
            library.policies[true_model],
            state.beliefs[true_model],
        )[action]
    )


def policy_loss_row(library: ModelLibrary, state: PosteriorState, true_model: int) -> np.ndarray:
    """Loss, under the true model, of each model's greedy recommendation.

    Entry k is the true-model regret of playing what model k would play
    now; pruned models get the worst in-row loss so weighting them is
    never an advantage (their posterior weight is zero anyway).
    """
    losses = loss_all(
        library.models[true_model],
        library.policies[true_model],
        state.beliefs[true_model],
    )
    row = np.empty(library.size)
    for k in range(library.size):
        if state.active[k]:
            row[k] = losses[policy_action(library.policies[k], state.beliefs[k])]
        else:
            row[k] = losses.max()
    return row


def mixture_loss(row: np.ndarray, weights: np.ndarray) -> float:
    """Expected loss of playing a model drawn from `weights`."""
    return float(np.dot(row, weights))


@dataclasses.dataclass
class BoundReport:
    """Cumulative mixture loss against the comparator-plus-slack ceiling.

    The ceiling is comparator_total + sqrt(2/T) * kl_total plus a
    model-free term sqrt(T/2) * r_max^2 / (1 - discount)^2.
    """

    mixture_total: float
    comparator_total: float
    kl_total: float
    slack: float
    horizon: int
    r_max: float
    discount: float
    tolerance: float = 1e-6

    @property
    def ceiling(self) -> float:
        if math.isinf(self.kl_total):
            return math.inf
        return self.comparator_total + math.sqrt(2.0 / self.horizon) * self.kl_total + self.slack

    @property
    def margin(self) -> float:
        return self.ceiling - self.mixture_total

    @property
    def satisfied(self) -> bool:
        return self.mixture_total <= self.ceiling + self.tolerance


def check_bound(
    loss_rows: np.ndarray,
    posteriors: np.ndarray,
    comparator: np.ndarray,
    r_max: float,
    discount: float,
    tolerance: float = 1e-6,
) -> BoundReport:
    """Check the cumulative loss of the posterior mixture against its ceiling.

    loss_rows[t, k] is the true-model loss of model k's recommendation at
    step t; posteriors[t] is the mixture used at step t; comparator is any
    fixed distribution over models (typically a point mass on the true
    one).  KL terms use the convention 0 ln 0 = 0 and are infinite when
    the comparator puts mass outside the posterior's support.
    """
    loss_rows = np.asarray(loss_rows, dtype=float)
    posteriors = np.asarray(posteriors, dtype=float)
    comparator = np.asarray(comparator, dtype=float)
    horizon = loss_rows.shape[0]
    if horizon == 0:
        raise ValueError("need at least one step")
    mixture_total = float((loss_rows * posteriors).sum())
    comparator_total = float((loss_rows @ comparator).sum())
    kl_total = 0.0
    for t in range(horizon):
        for k in np.flatnonzero(comparator > 0.0):
            if posteriors[t, k] <= 0.0:
                kl_total = math.inf
                break
            kl_total += comparator[k] * math.log(comparator[k] / posteriors[t, k])
        if math.isinf(kl_total):
            break
    slack = math.sqrt(horizon / 2.0) * r_max * r_max / (1.0 - discount) ** 2
    return BoundReport(
        mixture_total=mixture_total,
        comparator_total=comparator_total,
        kl_total=kl_total,
        slack=slack,
        horizon=horizon,
        r_max=r_max,
        discount=discount,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Trace records


@dataclasses.dataclass
class TraceRecord:
    """One executed step: what was played, seen, and believed afterwards."""

    step: int
    action: int
    observation: int
    posterior: tuple
    evidence: tuple
    entropy: float


def write_trace(records, path) -> None:
    """Delimiter-separated trace, one row per step, posterior columns widened
    to the library size."""
    records = list(records)
    size = len(records[0].posterior) if records else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "action", "observation"]
            + [f"posterior_{k}" for k in range(size)]
            + [f"evidence_{k}" for k in range(size)]
            + ["entropy"]
        )
        for rec in records:
            writer.writerow(
                [rec.step, rec.action, rec.observation]
                + [repr(float(p)) for p in rec.posterior]
                + [repr(float(e)) for e in rec.evidence]
                + [repr(float(rec.entropy))]
            )
