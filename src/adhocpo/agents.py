"""Agent roster for the experiment harness.

Six ways to choose actions against an unknown task or teammate, from
fully informed oracles down to uniform noise:

- vi: knows the true model and sees the state; plays the value-iteration
  greedy action (an upper reference).
- perseus: knows the true model but only sees observations; runs its
  point-based policy on the tracked belief.
- atpo: knows only the library; maintains per-model beliefs and a
  posterior, and samples from the posterior mixture of per-model greedy
  actions.
- random-picker: maintains the same beliefs but each step follows one
  surviving model chosen uniformly at random.
- bopa: sees the state (not the observations); posterior from state
  transitions, mixture of per-model value-iteration actions.  Requires
  every candidate to share one state space.
- random: uniform over actions.

Agents are driven per trial as reset / act / observe.  The harness
always offers the true model index, the state and the observation;
`needs_state` and `needs_true_model` declare what an agent actually
requires, and the privileged agents read only what they declare.
"""
from __future__ import annotations

import numpy as np

from adhocpo import atpo
from adhocpo.atpo import AllModelsPruned, ModelLibrary, PosteriorState
from adhocpo.pomdp import belief_update, induced_mdp
from adhocpo.solvers import policy_action, value_iteration

AGENT_NAMES = ("atpo", "vi", "perseus", "random-picker", "bopa", "random")


class CapabilityError(RuntimeError):
    """The agent cannot run with the configuration or data it was given."""


class Agent:
    name = "agent"
    needs_state = False
    needs_true_model = False

    def __init__(self, library: ModelLibrary):
        self.library = library

    def reset(self, rng: np.random.Generator, true_model=None, initial_state=None) -> None:
        if self.needs_true_model and true_model is None:
            raise CapabilityError(f"{self.name} must be told the true model")
        if self.needs_state and initial_state is None:
            raise CapabilityError(f"{self.name} must see the environment state")

    def act(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def observe(self, action: int, observation=None, state=None) -> None:
        pass


class RandomAgent(Agent):
    name = "random"

    def act(self, rng):
        return int(rng.integers(self.library.num_actions))


class _StateFeedbackAgent(Agent):
    """An agent that sees the state and plays value-iteration greedy actions,
    solving each candidate's fully observable model on first use."""

    needs_state = True

    def __init__(self, library: ModelLibrary):
        super().__init__(library)
        self._solutions: dict = {}

    def _greedy_for(self, k: int) -> np.ndarray:
        if k not in self._solutions:
            mdp = induced_mdp(self.library.models[k])
            self._solutions[k] = value_iteration(mdp)
        return self._solutions[k].greedy


class OracleViAgent(_StateFeedbackAgent):
    """Plays the optimal state policy of the true model."""

    name = "vi"
    needs_true_model = True

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self._greedy = self._greedy_for(true_model)
        self._state = initial_state

    def act(self, rng):
        return int(self._greedy[self._state])

    def observe(self, action, observation=None, state=None):
        if state is None:
            raise CapabilityError(f"{self.name} must see the environment state")
        self._state = state


class InformedPerseusAgent(Agent):
    """Runs the true model's point-based policy on its tracked belief."""

    name = "perseus"
    needs_true_model = True

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self._model = self.library.models[true_model]
        self._policy = self.library.policies[true_model]
        self._belief = self._model.initial_belief.copy()

    def act(self, rng):
        return policy_action(self._policy, self._belief)

    def observe(self, action, observation=None, state=None):
        self._belief, _ = belief_update(self._model, self._belief, action, observation)


def check_likelihood_floor(likelihood_floor: float) -> None:
    """Raise ValueError unless the floor is finite and non-negative."""
    if not (np.isfinite(likelihood_floor) and likelihood_floor >= 0.0):
        raise ValueError(f"likelihood floor must be finite and non-negative, got {likelihood_floor}")


class AtpoAgent(Agent):
    """Posterior mixture over the library's per-model greedy actions.

    The agent is never told the true model.  Per trial it keeps three
    lists of arrays: the posterior and each model's greedy action (-1
    once pruned) at every step, and each model's evidence for every
    observation; the harness derives the diagnostics after the trial.
    """

    name = "atpo"

    def __init__(self, library: ModelLibrary, greedy: bool = False, likelihood_floor: float = 0.0):
        check_likelihood_floor(likelihood_floor)
        super().__init__(library)
        self.greedy = greedy
        self.likelihood_floor = likelihood_floor

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self.state = PosteriorState.initial(self.library)
        self.posteriors = [self.state.posterior]
        self.greedy_actions = [self.state.greedy]
        self.evidence = []

    def act(self, rng):
        action, _ = atpo.act(self.library, self.state, rng, greedy=self.greedy)
        return action

    def observe(self, action, observation=None, state=None):
        self.state = atpo.update(
            self.library, self.state, action, observation, self.likelihood_floor
        )
        # Each state holds fresh arrays, so no copies are needed.
        self.posteriors.append(self.state.posterior)
        self.greedy_actions.append(self.state.greedy)
        self.evidence.append(self.state.last_evidence)


class RandomPickerAgent(Agent):
    """Follows one surviving candidate chosen uniformly at every step."""

    name = "random-picker"

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self.state = PosteriorState.initial(self.library)

    def act(self, rng):
        pick = int(rng.choice(np.flatnonzero(self.state.greedy >= 0)))
        return int(self.state.greedy[pick])

    def observe(self, action, observation=None, state=None):
        self.state = atpo.update(self.library, self.state, action, observation)


class BopaAgent(_StateFeedbackAgent):
    """State-observing Bayesian mixture over per-model optimal actions."""

    name = "bopa"

    def __init__(self, library: ModelLibrary, greedy: bool = False):
        super().__init__(library)
        sizes = {m.num_states for m in library.models}
        if len(sizes) != 1:
            raise CapabilityError(
                "bopa needs one shared state space; library has sizes "
                + ", ".join(str(s) for s in sorted(sizes))
            )
        self.greedy = greedy

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self.posterior = self.library.prior.copy()
        self._x = initial_state
        self._step = 0

    def act(self, rng):
        mix = np.zeros(self.library.num_actions)
        for k in np.flatnonzero(self.posterior > 0.0):
            mix[self._greedy_for(k)[self._x]] += self.posterior[k]
        return atpo.draw(mix, rng, self.greedy)

    def observe(self, action, observation=None, state=None):
        if state is None:
            raise CapabilityError(f"{self.name} must see the environment state")
        evidence = np.array(
            [
                model.transition_row(self._x, action)[state]
                for model in self.library.models
            ]
        )
        weights = self.posterior * evidence
        total = weights.sum()
        if total <= 0.0:
            raise AllModelsPruned(self._step, action, state)
        self.posterior = weights / total
        self._x = state
        self._step += 1


def check_agent_name(name: str) -> None:
    """Raise ValueError unless `name` is one of AGENT_NAMES."""
    if name not in AGENT_NAMES:
        raise ValueError(f"unknown agent {name!r}; known agents: {', '.join(AGENT_NAMES)}")


def make_agent(
    name: str,
    library: ModelLibrary,
    greedy: bool = False,
    likelihood_floor: float = 0.0,
) -> Agent:
    check_agent_name(name)
    if name == "atpo":
        return AtpoAgent(library, greedy=greedy, likelihood_floor=likelihood_floor)
    if name == "vi":
        return OracleViAgent(library)
    if name == "perseus":
        return InformedPerseusAgent(library)
    if name == "random-picker":
        return RandomPickerAgent(library)
    if name == "bopa":
        return BopaAgent(library, greedy=greedy)
    return RandomAgent(library)
