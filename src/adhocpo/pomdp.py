"""Tabular partially observable models and exact belief filtering.

Models are finite and explicit: per-action transition matrices, per-action
observation matrices, and a state-action reward table.  A model is made
one way, `TabularPomdp(transition, observation, reward, discount,
initial_belief, label)`, and that constructor checks every shape, reads
the state, action and observation counts off the tables, and decides how
each table is stored.  Builders and model files hand tables in as dense
arrays, `CsrTable`s or `RowClassTable`s; each is stored as a canonical
`csr.CsrTable` when fewer than half of its entries are nonzero and at
least 2**15 of them are zero.  A hand-made `CsrTable` whose columns do
not ascend strictly within a row is re-made through `CsrTable.from_coo`
before that decision, so every stored CSR table is canonical.  An
observation table that is not sparse is stored as a
`rowclass.RowClassTable`, its distinct rows and a row index, when the
table is C-ordered and that form takes at least 2**15 entries fewer than
the dense array (the index counts one entry per row), and as a dense
array otherwise.  Dense and CSR tables take `table @ x` and `x @ table`,
and a CSR table sums in SciPy's order (see `csr`).  The other reads are
methods that every non-dense form answers (`row`, `column`, `row_sums`,
`min`, a gather of rows), so a read branches only on dense or not.
`row_sums` and the solver's back-projection, `back_project`, dispatch on
the form here.

The zeros floor means CSR is chosen only when a dense product would read
at least 256 KB of zeros.  Measured on a 2-core Xeon with two nonzeros
per row and 40 tables in the working set (best of three runs), dense
`b @ T` against the CSR table's `b @ T` took:

    rows    64      96      128     181     256
    dense   1.3 us  3.5 us  6.0 us  11.7 us 22.3 us
    CSR     1.6 us  1.8 us  2.0 us  2.4 us  2.9 us

CSR now wins from about 96 rows, but the floor and every storage
decision stay where they were set against SciPy's CSR: moving a table
between forms changes the rounding of its products, and with it every
cached policy.  The floor also keeps small CSR tables out of the
point-based solver's observation reads: without it every table of the
3x3 pursuit models goes CSR (their 82x81 observation tables are 4.4%
nonzero), and one such model's 1500-belief solve took 18.1 s instead of
7.3 s with SciPy's CSR.  So the transitions of the 4x4 gridworld (257
states, under 1% nonzero) and of the larger domains are CSR, while small
tables keep the dense arithmetic.

The row-class form is for the grid and map sensors: every state reads
one of a few dozen distributions.  The registered tables it takes:

    sensor          rows x 81   distinct   dense bytes   row-class bytes
    gridworld 5x5     626          34         405,648        27,040
    isr              1807          34       1,170,936        36,488
    mit              2163          37       1,401,624        41,280
    pentagon         2653          39       1,719,144        46,496
    cit              4831          37       3,130,488        62,624

`ntu` (241 rows) would save 16,283 entries and every desk-scale table
fewer, so they stay dense; the pursuit and overcooked sensors and every
epsilon-0 sensor are CSR.  Each read of a row-class table gives the
floats the dense array gives, in the same order, so policies, digests
and files do not depend on the form.  Transition tables never take it:
their products mix rows, and BLAS rounds a row by its position.

A CSR table derives its per-entry rows once, and its column order on the
first column read, on the table object itself, so models that share a
table share them.  Stored tables are therefore read-only after
construction.  A table handed in already in its stored form is kept as
that very object, so one table handed to many models stays one object.

`belief_update` is the one Bayes filter step.  An observation the model
gives likelihood 0 is evidence, not a fault: the step returns the belief
it was given and 0.0, and a caller that weighs candidates rules the model
out.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from adhocpo.csr import CsrTable
from adhocpo.rowclass import RowClassTable

# A belief is a 1-D probability vector over states.
Belief = np.ndarray

Table = np.ndarray | CsrTable | RowClassTable

# A table is stored as CSR only when fewer than half of its entries are
# nonzero and at least this many are zero (256 KB of float64 zeros), and
# an observation table in the row-class form only when that form takes at
# least this many entries fewer than the dense table.
_MIN_ENTRIES = 2**15

# Entries of a table that `back_project` multiplies at a time: 256 KB per
# operand, so a table of at most this many entries is one block.
_BACK_BLOCK = 2**15

_ATOL = 1e-9


def _row(table: Table, x: int) -> np.ndarray:
    """Row x of a table as a new dense array."""
    return table[x].copy() if isinstance(table, np.ndarray) else table.row(x)


def _sparse(nonzeros: int, shape: tuple) -> bool:
    """Whether a table of this shape and nonzero count is stored as CSR."""
    zeros = math.prod(shape) - nonzeros
    return nonzeros < zeros and zeros >= _MIN_ENTRIES


def _saved(table: RowClassTable) -> int:
    """Entries the dense table takes beyond its distinct rows and row index."""
    return math.prod(table.shape) - table.data.size - table.index.size


def _stored(table, rows_repeat: bool = False) -> Table:
    """One per-action table in the storage form its structure calls for.

    A `CsrTable` whose columns do not ascend strictly within each row is
    re-made through `CsrTable.from_coo`, so every stored CSR table is
    canonical: its duplicate entries are summed.  Any other table but a
    `RowClassTable` is read by `np.asarray(table, dtype=float)`, which
    refuses a SciPy sparse table with a ValueError.
    `rows_repeat`, which observation tables pass, lets a C-ordered table
    that is not sparse take the row-class form.  An input already in the
    form it is stored in is not copied.
    """
    if isinstance(table, RowClassTable):
        if rows_repeat and _saved(table) >= _MIN_ENTRIES and not _sparse(table.nnz, table.shape):
            return table
        table = table.toarray()
    csr = isinstance(table, CsrTable)
    if not csr:
        table = np.asarray(table, dtype=float)
    else:
        # Canonical exactly when the cells, row-major, strictly ascend.
        cells = table.rows * table.shape[1] + table.indices
        if not (cells[1:] > cells[:-1]).all():
            table = CsrTable.from_coo(table.data, table.rows, table.indices, table.shape)
    if _sparse(np.count_nonzero(table.data if csr else table), table.shape):
        return table if csr else CsrTable.from_dense(table)
    if csr:
        table = table.toarray()
    # Finding the distinct rows is skipped where even one would not save enough.
    if rows_repeat and table.flags.c_contiguous and table.size - len(table) >= _MIN_ENTRIES:
        factored = RowClassTable.from_dense(table)
        if factored is not None and _saved(factored) >= _MIN_ENTRIES:
            return factored
    return table


def _once_each(convert, tables) -> list:
    """convert(table) for every per-action table, each distinct object converted once.

    An input object shared across actions yields one shared result.
    """
    done: dict = {}
    for table in tables:
        if id(table) not in done:
            done[id(table)] = convert(table)
    return [done[id(table)] for table in tables]


@dataclasses.dataclass
class TabularPomdp:
    """A finite POMDP: states, actions, observations, and explicit tables.

    transition[a] is |X| x |X| (row-stochastic), observation[a] is |X| x |Z|
    where entry (x', z) is the probability of observing z when landing in x'
    after action a, and reward is |X| x |A|.  The counts |X|, |A| and |Z|
    are read off the tables; a table, reward or belief of another shape is
    a ValueError.

    Each table is stored dense, as CSR or, for an observation table whose
    rows repeat, as its distinct rows and a row index (see the module
    docstring).  Stored tables are read-only after construction: a CSR
    table keeps arrays derived from its entries, and a row-class table is
    shared by every model handed it, so a change in place would leave
    them stale.  To change a table, make a new model, e.g. with
    `dataclasses.replace`, which stores and checks the new tables as the
    constructor does.
    """

    transition: list  # per action, |X| x |X|
    observation: list  # per action, |X| x |Z|
    reward: np.ndarray  # |X| x |A|
    discount: float
    initial_belief: np.ndarray
    label: str = ""
    num_states: int = dataclasses.field(init=False)
    num_actions: int = dataclasses.field(init=False)
    num_observations: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.transition = _once_each(_stored, self.transition)
        self.observation = _once_each(lambda table: _stored(table, rows_repeat=True), self.observation)
        self.reward = np.asarray(self.reward, dtype=float)
        self.discount = float(self.discount)
        self.initial_belief = np.asarray(self.initial_belief, dtype=float)
        if not self.transition:
            raise ValueError("a model needs at least one action")
        if len(self.observation) != len(self.transition):
            raise ValueError(
                f"{len(self.transition)} transition tables but {len(self.observation)} observation tables"
            )
        self.num_actions = len(self.transition)
        self.num_states = n = self.transition[0].shape[0]
        self.num_observations = self.observation[0].shape[-1]
        for name, tables, shape in (
            ("transition", self.transition, (n, n)),
            ("observation", self.observation, (n, self.num_observations)),
        ):
            for a, table in enumerate(tables):
                if table.shape != shape:
                    raise ValueError(f"{name}[{a}] has shape {table.shape}, expected {shape}")
        if self.reward.shape != (n, self.num_actions):
            raise ValueError(f"reward table has shape {self.reward.shape}, expected {(n, self.num_actions)}")
        if self.initial_belief.shape != (n,):
            raise ValueError(f"initial belief has shape {self.initial_belief.shape}, expected {(n,)}")

    # -- Row access helpers (work for dense and CSR storage alike) --

    def transition_row(self, x: int, a: int) -> np.ndarray:
        return _row(self.transition[a], x)

    def observation_row(self, x: int, a: int) -> np.ndarray:
        return _row(self.observation[a], x)

    def observation_column(self, a: int, z: int) -> np.ndarray:
        table = self.observation[a]
        return table[:, z].copy() if isinstance(table, np.ndarray) else table.column(z)

    def propagate(self, belief: Belief, a: int) -> np.ndarray:
        """Predictive state distribution after action a: belief @ T[a]."""
        return belief @ self.transition[a]


def belief_update(
    model: TabularPomdp, belief: Belief, action: int, observation: int
) -> tuple[Belief, float]:
    """Exact Bayes filter step.

    Returns the posterior belief and the likelihood of the observation,
    i.e. the normalising constant P(z | belief, action).  An observation
    the model cannot produce (likelihood at most 0) is evidence, not a
    fault: the step returns the belief it was given, that same object,
    and 0.0, which rules the model out of a posterior over candidates.
    """
    predicted = model.propagate(belief, action)
    unnormalised = predicted * model.observation_column(action, observation)
    likelihood = float(unnormalised.sum())
    if likelihood <= 0.0:
        return belief, 0.0
    return unnormalised / likelihood, likelihood


def row_sums(table: Table) -> np.ndarray:
    """Per-row sums as a 1-D array, whatever the table's storage."""
    return table.sum(axis=1) if isinstance(table, np.ndarray) else table.row_sums()


def back_project(table: Table, vectors: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """back[x] = sum_z table[x, z] * vectors[picks[z], x], whatever the table's storage.

    The floats of (table * vectors[picks].T).sum(axis=1), without making
    either (|X|, |Z|) operand.  A CSR table reads the picked vectors at its
    stored entries only and sums each row's products in stored order, as
    SciPy's COO sum does.  A dense or row-class table goes _BACK_BLOCK
    entries of rows at a time: the block's rows, multiplied by the picked
    vectors on those states, then each row summed.  Each row is still one
    C-ordered row of |Z| products, which numpy reduces by the same steps
    wherever it sits, so the block size moves no float.  A dense block is
    a view of the table; a row-class block is a new gathered array and
    takes the product in place, which on full-scale isr makes a
    back-projection about 15% faster and 0.3 MB lighter than a second
    product array.
    """
    if isinstance(table, CsrTable):
        terms = table.data * vectors[picks[table.indices], table.rows]
        return np.bincount(table.rows, weights=terms, minlength=table.shape[0])
    num_rows, width = table.shape
    back = np.empty(num_rows)
    step = max(1, _BACK_BLOCK // width)
    for lo in range(0, num_rows, step):
        rows = table[lo:lo + step]
        out = None if isinstance(table, np.ndarray) else rows
        block = np.multiply(rows, vectors[picks, lo:lo + step].T, out=out)
        back[lo:lo + step] = block.sum(axis=1)
    return back


def validate(model: TabularPomdp) -> list[str]:
    """Check that the tables and the initial belief are distributions.

    Returns a list of human-readable violations, empty when the model is
    well formed.  Each entry names the offending table and row: a row that
    does not sum to one, or the first row with a negative or non-finite
    entry (a row with a NaN sums to NaN, which the sum check passes).
    Tables are checked in their own storage, so a CSR or row-class table
    is never densified.  Shapes need no check here: the constructor refuses a
    mis-shaped table.
    """
    problems: list[str] = []

    def stochastic(name: str, table) -> None:
        dense = isinstance(table, np.ndarray)
        values = table if dense else table.data
        for what, bad in (("negative", values < -_ATOL), ("non-finite", ~np.isfinite(values))):
            rows = np.flatnonzero(bad.any(axis=1)) if dense else table.rows_with(bad)
            if rows.size:
                problems.append(f"{name} row {int(rows[0])}: {what} entry")
        sums = row_sums(table)
        for x in np.flatnonzero(np.abs(sums - 1.0) > _ATOL)[:5]:
            problems.append(f"{name} row {int(x)}: sums to {sums[x]:.12g}")

    for a in range(model.num_actions):
        stochastic(f"transition[{a}]", model.transition[a])
        stochastic(f"observation[{a}]", model.observation[a])
    b = model.initial_belief
    if not np.isfinite(b).all():
        problems.append("initial belief: non-finite entry")
    if (b < -_ATOL).any() or abs(b.sum() - 1.0) > _ATOL:
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
    """A fully observable MDP over a POMDP's states and actions.

    transition[a] is |X| x |X| and reward is |X| x |A|; the counts are
    read off the reward table.
    """

    transition: list  # per action, |X| x |X|
    reward: np.ndarray  # |X| x |A|
    discount: float
    num_states: int = dataclasses.field(init=False)
    num_actions: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.reward = np.asarray(self.reward, dtype=float)
        self.num_states, self.num_actions = self.reward.shape


def induced_mdp(model: TabularPomdp) -> TabularMmdp:
    """The fully observable control problem underlying a POMDP, for
    planners that assume state feedback."""
    return TabularMmdp(transition=list(model.transition), reward=model.reward, discount=model.discount)
