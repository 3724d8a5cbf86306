"""Tabular partially observable models and exact belief filtering.

Models are finite and explicit: per-action transition matrices, per-action
observation matrices, and a state-action reward table.  Builders and model
files hand tables in any form (dense arrays, scipy COO or CSR), and this
module alone decides how each is stored: a scipy `csr_array` when fewer
than half of its entries are nonzero and at least 2**15 of them are zero,
a dense array otherwise.  Both forms take the same `@`, `*` and
`.sum(axis=...)`, so the solvers need no storage branch.

The zeros floor means CSR is chosen only when a dense product would read
at least 256 KB of zeros.  Measured on a 2-core Xeon with two nonzeros
per row and 40 tables in the working set, dense `b @ T` against CSR
`T^T @ b` took:

    rows    64      96      128     181     256
    dense   2.9 us  4.9 us  8.2 us  15.5 us 26.5 us
    CSR     7.4 us  5.5 us  8.2 us  7.0 us  10.2 us

The floor sits above that crossover because a small CSR table costs more
elsewhere: without it every table of the 3x3 pursuit models goes CSR
(their 82x81 observation tables are 4.4% nonzero), and one such model's
1500-belief solve took 18.1 s instead of 7.3 s.  So the transitions of
the 4x4 gridworld (257 states, under 1% nonzero) and of the larger
domains are CSR, while small tables and dense sensor tables keep the
dense arithmetic.

Each CSR table also keeps its transpose, built once when the model is
made, so that belief propagation and column reads run as plain CSR
products and row slices instead of building a scipy object per call.
Stored tables are therefore read-only after construction.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse

# A belief is a 1-D probability vector over states.
Belief = np.ndarray

Table = np.ndarray | sparse.csr_array

# A table is stored as CSR only when fewer than half of its entries are
# nonzero and at least this many are zero (256 KB of float64 zeros).
_CSR_MIN_ZEROS = 2**15

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

    def __reduce__(self):
        # Pickle by the fields (args holds only the message), so the error
        # comes back as itself from a pool worker.
        return type(self), (self.label, self.action, self.observation)


def _dense_copy(m: Table) -> np.ndarray:
    """A table as a new dense array, never the stored object itself."""
    return m.toarray() if sparse.issparse(m) else np.array(m)


def _row(table: Table, x: int) -> np.ndarray:
    """Row x of a table as a new dense array.

    A CSR row is summed into zeros in stored order, as `toarray` does, so
    its floats equal those of scipy's own row read.
    """
    if not sparse.issparse(table):
        return table[x].copy()
    lo, hi = table.indptr[x], table.indptr[x + 1]
    return np.bincount(table.indices[lo:hi], weights=table.data[lo:hi], minlength=table.shape[1])


def _stored(table, shape) -> Table:
    """One per-action table in the storage form its structure calls for.

    Every sparse input becomes a `csr_array`, its duplicate entries summed;
    a `csr_matrix` never survives, since its `*` is a matrix product.  A
    dense input that stays dense is not copied.
    """
    if sparse.issparse(table):
        table = sparse.csr_array(table)
        nonzeros = table.count_nonzero()
    else:
        table = np.asarray(table, dtype=float)
        nonzeros = np.count_nonzero(table)
    if table.shape != shape:
        raise ValueError(f"table has shape {table.shape}, expected {shape}")
    zeros = shape[0] * shape[1] - nonzeros
    if nonzeros < zeros and zeros >= _CSR_MIN_ZEROS:
        return table if sparse.issparse(table) else sparse.csr_array(table)
    return table.toarray() if sparse.issparse(table) else table


def entry_count(table: Table) -> int:
    """Number of stored entries of one table: a CSR table's, explicit zeros
    included, or a dense table's nonzeros."""
    return table.nnz if sparse.issparse(table) else int(np.count_nonzero(table))


def _once_each(convert, tables) -> list:
    """convert(table) for every per-action table, each distinct object converted once.

    An input object shared across actions yields one shared result.
    """
    done: dict = {}
    for table in tables:
        if id(table) not in done:
            done[id(table)] = convert(table)
    return [done[id(table)] for table in tables]


def _transpose(table: Table):
    """A CSR table's transpose as a csr_array; None for a dense table."""
    return sparse.csr_array(table.T) if sparse.issparse(table) else None


@dataclasses.dataclass
class TabularPomdp:
    """A finite POMDP: states, actions, observations, and explicit tables.

    transition[a] is |X| x |X| (row-stochastic), observation[a] is |X| x |Z|
    where entry (x', z) is the probability of observing z when landing in x'
    after action a, and reward is |X| x |A|.

    Stored tables are read-only after construction: each CSR table keeps
    a transpose built in `__post_init__` (one per distinct table object),
    which a table changed in place would leave stale.  To change a table,
    make a new model, e.g. with `dataclasses.replace`.
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
    # Per action, _transpose of the table: derived, so not part of the value.
    _transition_t: list = dataclasses.field(init=False, repr=False, compare=False)
    _observation_t: list = dataclasses.field(init=False, repr=False, compare=False)

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
        self._transition_t = _once_each(_transpose, self.transition)
        self._observation_t = _once_each(_transpose, self.observation)

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
        """Build a model from per-action tables in any form.

        A table may be dense or any scipy sparse form; COO duplicates are
        summed.  Each table is stored dense or CSR by its own structure.
        """
        transition = list(transition)
        observation = list(observation)
        num_states = transition[0].shape[0]
        num_observations = observation[0].shape[1]
        return cls(
            num_states=num_states,
            num_actions=len(transition),
            num_observations=num_observations,
            transition=_once_each(lambda t: _stored(t, (num_states, num_states)), transition),
            observation=_once_each(lambda o: _stored(o, (num_states, num_observations)), observation),
            reward=np.asarray(reward, dtype=float),
            discount=float(discount),
            initial_belief=np.asarray(initial_belief, dtype=float),
            label=label,
        )

    # -- Row access helpers (work for dense and CSR storage alike) --

    def transition_row(self, x: int, a: int) -> np.ndarray:
        return _row(self.transition[a], x)

    def observation_row(self, x: int, a: int) -> np.ndarray:
        return _row(self.observation[a], x)

    def observation_column(self, a: int, z: int) -> np.ndarray:
        if self._observation_t[a] is None:
            return self.observation[a][:, z].copy()
        return _row(self._observation_t[a], z)

    def propagate(self, belief: Belief, a: int) -> np.ndarray:
        """Predictive state distribution after action a: belief @ T[a].

        On a CSR table this is T[a]^T @ belief, which adds the same
        products in the same ascending-state order as scipy's
        `belief @ T[a]`, so the result is bit-identical.
        """
        if self._transition_t[a] is None:
            return np.asarray(belief @ self.transition[a])
        return self._transition_t[a] @ belief

    def dense_transition(self, a: int) -> np.ndarray:
        return _dense_copy(self.transition[a])

    def dense_observation(self, a: int) -> np.ndarray:
        return _dense_copy(self.observation[a])


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


def _row_sums(table) -> np.ndarray:
    """Per-row sums as a 1-D array, whatever the table's storage."""
    return np.asarray(table.sum(axis=1)).ravel()


def validate(model: TabularPomdp, atol: float = _ATOL) -> list[str]:
    """Check stochasticity and shape constraints.

    Returns a list of human-readable violations, empty when the model is
    well formed.  Each entry names the offending table and row.  Tables
    are checked in their own storage, so a CSR table is never densified.
    """
    problems: list[str] = []

    def stochastic(name: str, table, shape) -> bool:
        if table.shape != shape:
            problems.append(f"{name}: shape {table.shape}")
            return False
        negative = np.flatnonzero(_row_sums(table < -atol))
        if negative.size:
            problems.append(f"{name} row {int(negative[0])}: negative entry")
        sums = _row_sums(table)
        for x in np.flatnonzero(np.abs(sums - 1.0) > atol)[:5]:
            problems.append(f"{name} row {int(x)}: sums to {sums[x]:.12g}")
        return True

    n = model.num_states
    for a in range(model.num_actions):
        if stochastic(f"transition[{a}]", model.transition[a], (n, n)):
            stochastic(f"observation[{a}]", model.observation[a], (n, model.num_observations))
    b = model.initial_belief
    if (b < -atol).any() or abs(b.sum() - 1.0) > atol:
        problems.append(f"initial belief: sums to {b.sum():.12g} or has negatives")
    if not (0.0 <= model.discount < 1.0):
        problems.append(f"discount {model.discount} outside [0, 1)")
    if not np.isfinite(model.reward).all():
        problems.append("reward table has non-finite entries")
    return problems


def weighted_draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability proportional to the entries of p.

    This is the draw `rng.choice(len(p), p=p)` makes, one `rng.random()`
    against the normalised cumulative sum, without its per-call checks.
    p must be non-negative; a p without positive mass is a ValueError.
    """
    cdf = p.cumsum()
    if not cdf[-1] > 0.0:
        raise ValueError(f"cannot draw from weights without positive mass (sum {cdf[-1]})")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_row(row: np.ndarray, rng: np.random.Generator) -> int:
    # Rows can carry float dust: clip the negative entries that `validate`
    # tolerates to zero, then renormalise.  A valid row keeps its floats.
    row = np.maximum(row, 0.0)
    total = row.sum()
    # Dividing first keeps the cumulative sum that rng.choice(p=row / total) built.
    return weighted_draw(row / total if total > 0.0 else row, rng)


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

    def dense_transition(self, ja: int) -> np.ndarray:
        return _dense_copy(self.transition[ja])


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
