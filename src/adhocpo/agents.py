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
  transitions, mixture of per-model value-iteration actions, through
  atpo's Bayes step and mixture.  Requires every candidate to share one
  state space.
- random: uniform over actions.

Every posterior starts at the uniform `ModelLibrary.prior`, the trial's
draw of the true model.  Every belief is tracked through
`pomdp.belief_update`, which holds it on an observation of likelihood 0:
atpo and random-picker then rule that candidate out, and perseus keeps its
belief (the true model it tracks never gives its own observation
likelihood 0).

Agents are driven per trial as reset / act / observe.  The harness
always offers the true model index, the state and the observation;
`needs_state` and `needs_true_model` declare what an agent actually
requires, and the privileged agents read only what they declare.
`check_models` refuses an agent that a library's models cannot serve,
before any policy is solved; `vi` and `bopa` read `ModelLibrary.state_greedy`.
"""
from __future__ import annotations

import numpy as np

from adhocpo import atpo
from adhocpo.atpo import ModelLibrary, PosteriorState
from adhocpo.pomdp import belief_update
# value_iteration is not called here, but the benchmark's tracer wraps it
# under this module's name.
from adhocpo.solvers import policy_action, value_iteration  # noqa: F401


class CapabilityError(RuntimeError):
    """The agent cannot run with the configuration or data it was given."""


class Agent:
    name = "agent"
    needs_state = False
    needs_true_model = False
    needs_shared_states = False

    def __init__(self, library: ModelLibrary):
        self.check_models(library.models)
        self.library = library

    @classmethod
    def check_models(cls, models) -> None:
        """Raise CapabilityError unless this agent can run on a library of `models`."""
        sizes = sorted({m.num_states for m in models})
        if cls.needs_shared_states and len(sizes) > 1:
            raise CapabilityError(
                f"{cls.name} needs one shared state space; library has sizes "
                + ", ".join(map(str, sizes))
            )

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
    """An agent that sees the state and plays the library's value-iteration
    greedy actions by state."""

    needs_state = True

    def __init__(self, library: ModelLibrary):
        super().__init__(library)
        # Solved here, where the agent is made; forked trial workers inherit it.
        self.state_greedy = library.state_greedy


class OracleViAgent(_StateFeedbackAgent):
    """Plays the optimal state policy of the true model."""

    name = "vi"
    needs_true_model = True

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self._greedy = self.state_greedy[true_model]
        self._state = initial_state

    def act(self, rng):
        return int(self._greedy[self._state])

    def observe(self, action, observation=None, state=None):
        if state is None:
            raise CapabilityError(f"{self.name} must see the environment state")
        self._state = state


class InformedPerseusAgent(Agent):
    """Runs the true model's point-based policy on its tracked belief,
    which holds on an observation of likelihood 0 (see the module docstring)."""

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


class AtpoAgent(Agent):
    """Posterior mixture over the library's per-model greedy actions.

    The agent is never told the true model.  Per trial it keeps three
    lists of arrays: the posterior and each model's greedy action (-1
    once pruned) at every step, and each model's evidence for every
    observation; the harness derives the diagnostics after the trial.
    """

    name = "atpo"

    def __init__(self, library: ModelLibrary, greedy: bool = False, likelihood_floor: float = 0.0):
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
    needs_shared_states = True

    def __init__(self, library: ModelLibrary, greedy: bool = False):
        super().__init__(library)
        self.greedy = greedy

    def reset(self, rng, true_model=None, initial_state=None):
        super().reset(rng, true_model, initial_state)
        self.posterior = self.library.prior.copy()
        self._x = initial_state
        self._step = 0

    def act(self, rng):
        actions = np.where(self.posterior > 0.0, [greedy[self._x] for greedy in self.state_greedy], -1)
        mix = atpo.mixture_policy(actions, self.posterior, self.library.num_actions)
        return atpo.draw(mix, rng, self.greedy)

    def observe(self, action, observation=None, state=None):
        if state is None:
            raise CapabilityError(f"{self.name} must see the environment state")
        evidence = np.array([model.transition_row(self._x, action)[state] for model in self.library.models])
        self.posterior = atpo.reweight(self.posterior, evidence, self._step, action, state)
        self._x = state
        self._step += 1


AGENTS = {
    cls.name: cls
    for cls in (AtpoAgent, OracleViAgent, InformedPerseusAgent, RandomPickerAgent, BopaAgent, RandomAgent)
}
AGENT_NAMES = tuple(AGENTS)


def agent_class(name: str) -> type:
    """The agent class called `name`; ValueError for an unknown name."""
    try:
        return AGENTS[name]
    except KeyError:
        raise ValueError(f"unknown agent {name!r}; known agents: {', '.join(AGENT_NAMES)}") from None


def make_agent(
    name: str,
    library: ModelLibrary,
    greedy: bool = False,
    likelihood_floor: float = 0.0,
) -> Agent:
    cls = agent_class(name)
    if cls is AtpoAgent:
        return AtpoAgent(library, greedy=greedy, likelihood_floor=likelihood_floor)
    if cls is BopaAgent:
        return BopaAgent(library, greedy=greedy)
    return cls(library)
