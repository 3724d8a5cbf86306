"""Tabular partially observable models and exact belief filtering.

Models are finite and explicit: per-action transition matrices, per-action
observation matrices, and a state-action reward table.  Each per-action
table picks its own storage from its structure: scipy CSR when it has more
than 512 rows and fewer than half of its entries are nonzero, a dense array
otherwise.  That keeps the sparse transitions of the larger benchmark
domains (thousands of states) affordable, while small tables and dense
sensor tables keep the faster dense arithmetic.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence, Union

import numpy as np
from scipy import sparse

# A belief is a 1-D probability vector over states.
Belief = np.ndarray

Table = Union[np.ndarray, sparse.csr_matrix, sparse.csr_array]

# A table is stored as CSR only when it has more than this many rows and
# fewer than half of its entries are nonzero.
_CSR_MIN_ROWS = 512

_ATOL = 1e-9


class ZeroLikelihood(Exception):
    """The observation has probability zero under the model and belief."""

    def __init__(self, label: str, action: int, observation: int):
        self.label = label
        self.action = action
        self.observation = observation
        super().__init__(
            f"observation {observation} after action {action} has zero "
            f"likelihood under model {label!r}"
        )


def _as_dense(m: Table) -> np.ndarray:
    if sparse.issparse(m):
        return np.asarray(m.todense())
    return np.asarray(m)


def _stored(table, shape) -> Table:
    """One per-action table in the storage form its structure calls for.

    A dense input that stays dense is not copied.
    """
    if sparse.issparse(table):
        table = table.tocsr()
        nonzeros = table.count_nonzero()
    else:
        table = np.asarray(table, dtype=float)
        nonzeros = np.count_nonzero(table)
    if table.shape != shape:
        raise ValueError(f"table has shape {table.shape}, expected {shape}")
    rows, cols = shape
    if rows > _CSR_MIN_ROWS and 2 * nonzeros < rows * cols:
        return table if sparse.issparse(table) else sparse.csr_array(table)
    return _as_dense(table)


def _stored_each(tables, shape) -> list:
    """Every per-action table in its storage form, each distinct input converted once.

    An input object shared across actions yields one shared stored table,
    whichever form it takes.
    """
    stored: dict = {}
    for table in tables:
        if id(table) not in stored:
            stored[id(table)] = _stored(table, shape)
    return [stored[id(table)] for table in tables]


@dataclasses.dataclass
class TabularPomdp:
    """A finite POMDP: states, actions, observations, and explicit tables.

    transition[a] is |X| x |X| (row-stochastic), observation[a] is |X| x |Z|
    where entry (x', z) is the probability of observing z when landing in x'
    after action a, and reward is |X| x |A|.
    """

    num_states: int
    num_actions: int
    num_observations: int
    transition: list  # per action, |X| x |X|
    observation: list  # per action, |X| x |Z|
    reward: np.ndarray  # |X| x |A|
    discount: float
    initial_belief: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.reward = np.asarray(self.reward, dtype=float)
        self.initial_belief = np.asarray(self.initial_belief, dtype=float)
        if len(self.transition) != self.num_actions:
            raise ValueError("need one transition matrix per action")
        if len(self.observation) != self.num_actions:
            raise ValueError("need one observation matrix per action")
        if self.reward.shape != (self.num_states, self.num_actions):
            raise ValueError(f"reward table has shape {self.reward.shape}")
        if self.initial_belief.shape != (self.num_states,):
            raise ValueError("initial belief length mismatch")

    @classmethod
    def from_tables(
        cls,
        transition,
        observation,
        reward,
        discount: float,
        initial_belief,
        label: str = "",
    ) -> "TabularPomdp":
        """Build a model from per-action tables (stacked arrays or lists).

        Each table is stored dense or CSR by its own structure.
        """
        transition = list(transition)
        observation = list(observation)
        num_states = transition[0].shape[0]
        num_observations = observation[0].shape[1]
        return cls(
            num_states=num_states,
            num_actions=len(transition),
            num_observations=num_observations,
            transition=_stored_each(transition, (num_states, num_states)),
            observation=_stored_each(observation, (num_states, num_observations)),
            reward=np.asarray(reward, dtype=float),
            discount=float(discount),
            initial_belief=np.asarray(initial_belief, dtype=float),
            label=label,
        )

    # -- Row access helpers (work for dense and CSR storage alike) --

    def transition_row(self, x: int, a: int) -> np.ndarray:
        t = self.transition[a]
        if sparse.issparse(t):
            return np.asarray(t[[x], :].todense())[0]
        return t[x]

    def observation_row(self, x: int, a: int) -> np.ndarray:
        o = self.observation[a]
        if sparse.issparse(o):
            return np.asarray(o[[x], :].todense())[0]
        return o[x]

    def observation_column(self, a: int, z: int) -> np.ndarray:
        o = self.observation[a]
        if sparse.issparse(o):
            return np.asarray(o[:, [z]].todense())[:, 0]
        return o[:, z]

    def propagate(self, belief: Belief, a: int) -> np.ndarray:
        """Predictive state distribution after action a: belief @ T[a]."""
        return np.asarray(belief @ self.transition[a])

    def dense_transition(self, a: int) -> np.ndarray:
        return _as_dense(self.transition[a])

    def dense_observation(self, a: int) -> np.ndarray:
        return _as_dense(self.observation[a])


def belief_update(
    model: TabularPomdp, belief: Belief, action: int, observation: int
) -> tuple[Belief, float]:
    """Exact Bayes filter step.

    Returns the posterior belief and the likelihood of the observation,
    i.e. the normalising constant P(z | belief, action).  Raises
    ZeroLikelihood when that constant is zero, which callers use to rule
    the model out.
    """
    predicted = model.propagate(belief, action)
    unnormalised = predicted * model.observation_column(action, observation)
    likelihood = float(unnormalised.sum())
    if likelihood <= 0.0:
        raise ZeroLikelihood(model.label, action, observation)
    return unnormalised / likelihood, likelihood


def observation_likelihoods(model: TabularPomdp, belief: Belief, action: int) -> np.ndarray:
    """P(z | belief, action) for every observation symbol at once."""
    predicted = model.propagate(belief, action)
    return np.asarray(predicted @ model.observation[action])


def validate(model: TabularPomdp, atol: float = _ATOL) -> list[str]:
    """Check stochasticity and shape constraints.

    Returns a list of human-readable violations, empty when the model is
    well formed.  Each entry names the offending table and row.
    """
    problems: list[str] = []
    for a in range(model.num_actions):
        t = model.dense_transition(a)
        if t.shape != (model.num_states, model.num_states):
            problems.append(f"transition[{a}]: shape {t.shape}")
            continue
        if (t < -atol).any():
            x = int(np.argwhere(t < -atol)[0][0])
            problems.append(f"transition[{a}] row {x}: negative entry")
        bad = np.flatnonzero(np.abs(t.sum(axis=1) - 1.0) > atol)
        for x in bad[:5]:
            problems.append(
                f"transition[{a}] row {int(x)}: sums to {t[int(x)].sum():.12g}"
            )
        o = model.dense_observation(a)
        if o.shape != (model.num_states, model.num_observations):
            problems.append(f"observation[{a}]: shape {o.shape}")
            continue
        if (o < -atol).any():
            x = int(np.argwhere(o < -atol)[0][0])
            problems.append(f"observation[{a}] row {x}: negative entry")
        bad = np.flatnonzero(np.abs(o.sum(axis=1) - 1.0) > atol)
        for x in bad[:5]:
            problems.append(
                f"observation[{a}] row {int(x)}: sums to {o[int(x)].sum():.12g}"
            )
    b = model.initial_belief
    if (b < -atol).any() or abs(b.sum() - 1.0) > atol:
        problems.append(f"initial belief: sums to {b.sum():.12g} or has negatives")
    if not (0.0 <= model.discount < 1.0):
        problems.append(f"discount {model.discount} outside [0, 1)")
    if not np.isfinite(model.reward).all():
        problems.append("reward table has non-finite entries")
    return problems


def _sample_row(row: np.ndarray, rng: np.random.Generator) -> int:
    # Rows can carry 1e-16-scale float dust; renormalise before sampling.
    total = row.sum()
    return int(rng.choice(len(row), p=row / total))


def simulate_step(
    model: TabularPomdp, state: int, action: int, rng: np.random.Generator
) -> tuple[int, int, float]:
    """Sample one environment step: next state, observation, reward.

    The reward is R[state][action], i.e. charged at the state where the
    action is taken.
    """
    nxt = _sample_row(model.transition_row(state, action), rng)
    obs = _sample_row(model.observation_row(nxt, action), rng)
    return nxt, obs, float(model.reward[state, action])


def sample_initial_state(model: TabularPomdp, rng: np.random.Generator) -> int:
    return _sample_row(model.initial_belief, rng)


@dataclasses.dataclass
class TabularMmdp:
    """A fully observable multiagent MDP over a shared state space.

    Joint actions are flattened in C order over the per-agent action counts
    (last agent varies fastest); transition[ja] and reward[:, ja] are indexed
    by that flat id.
    """

    num_states: int
    agent_action_counts: tuple
    transition: list  # per joint action, |X| x |X|
    reward: np.ndarray  # |X| x |JA|
    discount: float

    def __post_init__(self):
        self.agent_action_counts = tuple(int(n) for n in self.agent_action_counts)
        self.reward = np.asarray(self.reward, dtype=float)

    @property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.agent_action_counts))

    def joint_action_id(self, actions: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(actions), self.agent_action_counts))

    def joint_action(self, ja: int) -> tuple:
        return tuple(int(v) for v in np.unravel_index(ja, self.agent_action_counts))

    def dense_transition(self, ja: int) -> np.ndarray:
        return _as_dense(self.transition[ja])


def induced_mdp(model: TabularPomdp) -> TabularMmdp:
    """The fully observable control problem underlying a POMDP.

    Treats the single decision maker as a one-agent team; used by planners
    that assume state feedback.
    """
    return TabularMmdp(
        num_states=model.num_states,
        agent_action_counts=(model.num_actions,),
        transition=list(model.transition),
        reward=model.reward,
        discount=model.discount,
    )
