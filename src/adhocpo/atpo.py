"""Online identification of which library model is in play.

The agent tracks one belief per candidate model plus a posterior over the
models themselves.  Each step the posterior is reweighted by how well each
model predicted the last observation; models that assign it probability
zero are ruled out permanently (an optional likelihood floor keeps them
alive instead).

Every posterior state carries each model's greedy action at its current
belief (-1 once pruned, the one record of which models are alive),
computed once when the state is made.  The mixture policy the agent acts
from and the random-picker baseline read that one array.

The agent is never told which model is in play.  The loss rows the
cumulative bound is checked on, against the true model, are computed
after the trial from the greedy actions it recorded and the true
model's belief re-filtered.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from adhocpo import solvers
from adhocpo.pomdp import ZeroLikelihood, belief_update, induced_mdp, weighted_draw
from adhocpo.solvers import loss_all, policy_action


class AllModelsPruned(RuntimeError):
    """Every candidate model assigned the observation probability zero."""

    def __init__(self, step: int, action: int, observation: int):
        self.step = step
        self.action = action
        self.observation = observation
        super().__init__(
            f"all models pruned at step {step} after action {action}, "
            f"observation {observation}"
        )

    def __reduce__(self):
        # Pickle by the fields (args holds only the message), so the error
        # comes back as itself from a pool worker.
        return type(self), (self.step, self.action, self.observation)


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

    @functools.cached_property
    def state_greedy(self) -> list:
        """Each model's value-iteration greedy action by state, on its fully observable
        model: solved on first read and kept, so workers forked afterwards inherit it."""
        # Read off the module so a tracer wrapping it sees these solves.
        return [solvers.value_iteration(induced_mdp(m)).greedy for m in self.models]


def posterior_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; zero entries contribute nothing."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _greedy_actions(library: ModelLibrary, beliefs: list, active: np.ndarray) -> np.ndarray:
    """Each model's greedy action at its belief, -1 for a pruned model."""
    out = np.full(library.size, -1, dtype=int)
    for k in np.flatnonzero(active):
        out[k] = policy_action(library.policies[k], beliefs[k])
    return out


@dataclasses.dataclass
class PosteriorState:
    """Posterior over models, per-model beliefs, and each model's greedy action.

    greedy[k] is model k's greedy action at beliefs[k], or -1 once k is
    pruned: a model is alive exactly when greedy[k] >= 0.  It is filled
    when the state is made and read by everything that acts on the state.
    """

    posterior: np.ndarray
    beliefs: list
    greedy: np.ndarray
    step: int = 0
    last_evidence: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, library: ModelLibrary) -> "PosteriorState":
        beliefs = [m.initial_belief.copy() for m in library.models]
        return cls(
            posterior=library.prior.copy(),
            beliefs=beliefs,
            greedy=_greedy_actions(library, beliefs, library.prior > 0.0),
        )


def mixture_policy(library: ModelLibrary, state: PosteriorState) -> np.ndarray:
    """Posterior-weighted mixture of per-model greedy actions."""
    active = state.greedy >= 0
    return np.bincount(
        state.greedy[active], weights=state.posterior[active], minlength=library.num_actions
    )


def draw(mix: np.ndarray, rng: np.random.Generator, greedy: bool) -> int:
    """An action from a mixture: a sample, or its argmax when greedy."""
    if greedy:
        return int(mix.argmax())
    return weighted_draw(mix, rng)


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
    return draw(mix, rng, greedy), mix


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
    unchanged.  The new state's greedy actions are computed here, once
    per surviving model.  Raises AllModelsPruned when nothing survives.
    """
    evidence = np.zeros(library.size)
    beliefs = list(state.beliefs)
    active = state.greedy >= 0
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
        greedy=_greedy_actions(library, beliefs, active),
        step=state.step + 1,
        last_evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Per-step losses and the cumulative bound


def policy_loss_row(
    library: ModelLibrary, true_model: int, belief: np.ndarray, greedy: np.ndarray
) -> np.ndarray:
    """Loss, under the true model at `belief`, of each model's greedy action.

    Entry k is the true-model regret of playing greedy[k], what model k
    would play now; a pruned model (greedy -1) gets the worst in-row loss
    so weighting it is never an advantage (its posterior weight is zero
    anyway).
    """
    losses = loss_all(library.models[true_model], library.policies[true_model], belief)
    return np.where(greedy >= 0, losses[greedy], losses.max())


@dataclasses.dataclass
class BoundReport:
    """Cumulative mixture loss against the comparator-plus-slack ceiling.

    The comparator is the true model.  The ceiling is comparator_total +
    sqrt(2/T) * kl_total plus a model-free term sqrt(T/2) * r_max^2 /
    (1 - discount)^2, and satisfied allows tolerance over it.
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
    true_model: int,
    r_max: float,
    discount: float,
) -> BoundReport:
    """Check the cumulative loss of the posterior mixture against its ceiling.

    loss_rows[t, k] is the true-model loss of model k's recommendation at
    step t and posteriors[t] is the mixture used at step t.  The comparator
    is the true model: its total is the true model's column of loss_rows,
    and its KL term at step t is ln(1 / posteriors[t, true_model]), infinite
    once the true model is outside the posterior's support.
    """
    loss_rows = np.asarray(loss_rows, dtype=float)
    posteriors = np.asarray(posteriors, dtype=float)
    horizon = loss_rows.shape[0]
    if horizon == 0:
        raise ValueError("need at least one step")
    mixture_total = float((loss_rows * posteriors).sum())
    comparator_total = float(loss_rows[:, true_model].sum())
    kl_total = 0.0
    for p in posteriors[:, true_model].tolist():
        if p <= 0.0:
            kl_total = math.inf
            break
        kl_total += math.log(1.0 / p)
    slack = math.sqrt(horizon / 2.0) * r_max * r_max / (1.0 - discount) ** 2
    return BoundReport(
        mixture_total=mixture_total,
        comparator_total=comparator_total,
        kl_total=kl_total,
        slack=slack,
        horizon=horizon,
        r_max=r_max,
        discount=discount,
    )


# ---------------------------------------------------------------------------
# Trace files


def write_trace(trial, path) -> None:
    """Delimiter-separated trace of a trial, one row per step: the action,
    the observation, then the posterior, evidence and entropy after it."""
    size = trial.posteriors.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "action", "observation"]
            + [f"posterior_{k}" for k in range(size)]
            + [f"evidence_{k}" for k in range(size)]
            + ["entropy"]
        )
        for t, (action, observation) in enumerate(zip(trial.actions, trial.observations)):
            posterior = trial.posteriors[t + 1]
            writer.writerow(
                [t + 1, action, observation]
                + [repr(float(p)) for p in posterior]
                + [repr(float(e)) for e in trial.evidence[t]]
                + [repr(posterior_entropy(posterior))]
            )
