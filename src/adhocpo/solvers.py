"""Planning: exact value iteration and point-based alpha-vector solving.

Value iteration targets the fully observable model (`induced_mdp`) and is the
performance ceiling in experiments.  The point-based solver follows the
randomised backup scheme: gather a reachable belief set by simulating
uniform-random actions, then per stage back up beliefs in random order,
skipping any belief already improved by a vector added earlier in the
stage.  Keeping the best previous vector whenever a backup fails to improve
a point makes the stage values monotone.  The cache misses of a library are
solved in parallel, one forked worker per usable CPU (solve_many, through
the fork pool of `forkpool.forked_map` that an experiment's trials share).

The belief set is fixed for the whole solve, and so is everything a backup
derives from a belief alone: per action, the reward term <b, R[:, a]>, the
support of the propagated belief b T[a] and its values there.  A solve
computes these once, when it starts, into one flat successor store that
every stage reuses.  Its rows are the very arrays a backup would compute
for itself, so the policy is the same, float for float, as one whose
backups recompute them on every call.

The online lookahead (`policy_q_all`, behind every loss row of a trial)
is a route of its own.  It scores every action, so no bound could skip
one, and it shares the work of one belief across the actions: it
propagates the belief through every action, gathers the vectors and the
observation rows once on the union of the actions' supports, and scores
each action from those copies.  The backup keeps its per-action scan,
with the bounds below.  The two routes' q differ in rounding only.

A backup skips every action whose upper bound cannot reach the best q
found so far.  With u = b T[a], top(x) = max_i alpha_i(x) and
s_a(x) = sum_z O[a](x, z), the fully observable relaxation of the next
step (Hauskrecht, JAIR 2000) gives

    q(b, a) <= U(b, a) = <b, R[:, a]> + discount * sum_x u(x) s_a(x) top(x),

since each successor's best score sum_x alpha_i(x) u(x) O[a](x, z) is at
most sum_x top(x) u(x) O[a](x, z) when u and O are nonnegative.  A solve
stores the rows u * s_a once, as CSR on the successor store's supports,
and gets every bound of a stage from one product with `top`.  The backup
visits the actions in descending bound order and scores an action only
when its bound plus a margin of 1e-9 (1 + max|R| + max|alpha|), far above
the rounding of either side, reaches the best q so far.  A skipped
action's q is below that best, so the backup returns the first maximal
action and the same alpha vector as a scan of every action, float for
float.  A solve whose model has a negative transition or observation
entry (validate accepts them down to -1e-9), or whose belief set has one,
runs the full scan.
"""
from __future__ import annotations

import bisect
import dataclasses
import hashlib
import math
import operator
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from adhocpo.csr import CsrTable
from adhocpo.forkpool import forked_map
# model_digest is not called here, but the benchmark's tracer wraps it
# under this module's name.
from adhocpo.modelio import model_digest, model_digests  # noqa: F401
from adhocpo.pomdp import (
    Belief,
    TabularMmdp,
    TabularPomdp,
    ZeroLikelihood,
    belief_update,
    row_sums,
    sample_initial_state,
    simulate_step,
)

POLICY_TAG = "adhocpo-policy v2"

_EPS = 1e-12
# collect_beliefs: the L1 distance below which a belief counts as collected,
# and the run of episodes adding nothing after which collection stops.
DEDUP_ATOL = 1e-9
STAGNATION_LIMIT = 50


class NonconvergenceBudget(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, iterations: int, residual: float, tolerance: float):
        self.iterations = iterations
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3g} > tolerance {tolerance:.3g}"
        )

    def __reduce__(self):
        # Pickle by the fields (args holds only the message), so the error
        # comes back as itself from a pool worker.
        return type(self), (self.iterations, self.residual, self.tolerance)


# ---------------------------------------------------------------------------
# Exact value iteration on fully observable models


@dataclasses.dataclass
class StateValueFunction:
    """Optimal state values with the greedy action per state."""

    values: np.ndarray
    greedy: np.ndarray  # action per state, lowest on ties within rounding
    residual: float
    iterations: int


def bellman_q(mdp: TabularMmdp, values: np.ndarray) -> np.ndarray:
    """One-step lookahead q(x, a) under the given state values, as the transpose of an
    action-major array, so a max over actions runs along whole rows of states."""
    q = np.empty((mdp.num_actions, mdp.num_states))
    for a in range(mdp.num_actions):
        q[a] = mdp.reward[:, a] + mdp.discount * (mdp.transition[a] @ values)
    return q.T


def value_iteration(
    mdp: TabularMmdp, tolerance: float = 1e-6, max_iterations: int = 100_000
) -> StateValueFunction:
    """Iterate the Bellman operator until the sup-norm step is <= tolerance.

    The returned values are one further application of the operator, so
    their own Bellman residual is at most discount * tolerance.  Raises
    NonconvergenceBudget when max_iterations passes without convergence.
    """
    v = np.zeros(mdp.num_states)
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        v_new = bellman_q(mdp, v).max(axis=1)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta <= tolerance:
            break
    else:
        raise NonconvergenceBudget(max_iterations, delta, tolerance)
    q = bellman_q(mdp, v)
    top = q.max(axis=1, keepdims=True)
    residual = float(np.abs(top[:, 0] - v).max())
    # Actions tied in exact arithmetic can differ in the last bit of T @ v,
    # which depends on the table storage; take the lowest within rounding.
    near_top = q >= top - 1e-12 * (1.0 + np.abs(q).max(axis=1, keepdims=True))
    return StateValueFunction(
        values=v,
        greedy=near_top.argmax(axis=1),
        residual=residual,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Alpha-vector policies


@dataclasses.dataclass
class SolverSettings:
    belief_set_size: int = 5000
    horizon: int = 50
    tolerance: float = 0.01
    seed: int = 0
    stage_cap: int = 500

    def key_string(self) -> str:
        """`name=value` per field, in field order, as the type of the field's
        default: tolerance 0 reads `tolerance=0.0`, and an int field given a
        float (2.5, or 2.0) is a TypeError, as it is to the solver."""
        write = {int: operator.index, float: float}
        return ",".join(
            f"{f.name}={write[type(f.default)](getattr(self, f.name))!r}" for f in dataclasses.fields(self)
        )

    @classmethod
    def from_key_string(cls, text: str) -> "SolverSettings":
        values = dict(part.split("=", 1) for part in text.split(","))
        return cls(**{f.name: type(f.default)(values[f.name]) for f in dataclasses.fields(cls)})


@dataclasses.dataclass
class AlphaVectorPolicy:
    """A set of alpha vectors, each tagged with its one-step action.

    stage_values records the lower-bound value at the initial belief after
    every solver stage; it is non-decreasing by construction and is kept as
    convergence evidence.  lookahead_counts is (evaluated, skipped): the
    lookahead actions the solve that made the policy scored and skipped.
    It is kept in memory only, so a policy read from a file has None.
    """

    vectors: np.ndarray  # (n, |X|)
    actions: np.ndarray  # (n,)
    discount: float
    label: str = ""
    source_digest: str = ""
    settings: Optional[SolverSettings] = None
    stage_values: list = dataclasses.field(default_factory=list)
    stage_improvements: list = dataclasses.field(default_factory=list)
    belief_count: int = 0
    lookahead_counts: Optional[tuple[int, int]] = None

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        self.actions = np.asarray(self.actions, dtype=int)
        if len(self.vectors) == 0:
            raise ValueError("a policy needs at least one alpha vector")
        if len(self.actions) != len(self.vectors):
            raise ValueError("one action tag per alpha vector")

    def __len__(self) -> int:
        return len(self.vectors)


def policy_value(policy: AlphaVectorPolicy, belief: Belief) -> float:
    """Lower-bound value at a belief: max over vectors of <alpha, b>."""
    return float((policy.vectors @ belief).max())


def policy_action(policy: AlphaVectorPolicy, belief: Belief) -> int:
    """Action of the maximising alpha vector; exact ties pick the lowest action."""
    scores = policy.vectors @ belief
    best = scores.max()
    return int(policy.actions[scores == best].min())


class _Successors(NamedTuple):
    """Per belief b_i and action a, what a backup needs apart from the alpha vectors.

    rewards[i, a] is <b_i, R[:, a]>.  Row r = i * |A| + a is u = b_i T[a]
    on its support: the states indices[lo:hi] and the values weights[lo:hi],
    with lo, hi = offsets[r], offsets[r + 1]; a row of |X| states is the
    full support.  At 16 bytes per support state and action the desk grid's
    1500 beliefs take about 4 MB; observation rows are gathered per backup.
    """

    rewards: np.ndarray  # (m, |A|)
    offsets: list  # m * |A| + 1 plain ints
    indices: np.ndarray
    weights: np.ndarray

    def belief(self, i: int) -> "_Successors":
        """The store of belief i alone, sharing this store's arrays."""
        n = self.rewards.shape[1]
        return _Successors(self.rewards[i:i + 1], self.offsets[i * n:(i + 1) * n + 1], self.indices, self.weights)


def _successors(model: TabularPomdp, beliefs: np.ndarray) -> _Successors:
    """The successor store of the rows of `beliefs`, an (m, |X|) array."""
    rewards = np.empty((len(beliefs), model.num_actions))
    offsets, indices, weights = [0], [], []
    for i, belief in enumerate(beliefs):
        for a in range(model.num_actions):
            u = model.propagate(belief, a)
            idx = u.nonzero()[0]  # u is 1-D; np.flatnonzero adds a ravel that doubles the cost
            rewards[i, a] = belief @ model.reward[:, a]
            offsets.append(offsets[-1] + len(idx))
            indices.append(idx)
            weights.append(u[idx])
    return _Successors(rewards, offsets, np.concatenate(indices), np.concatenate(weights))


def _successor_scores(
    model: TabularPomdp, vectors: np.ndarray, support: np.ndarray, weights: np.ndarray, a: int
) -> np.ndarray:
    """Alpha scores of every unnormalised successor belief, shape (n, |Z|).

    Entry (i, z) is <alpha_i, u * O[a][:, z]> with u the propagated belief.
    States outside the support of u contribute exactly zero, so the
    contraction runs on the support only; that keeps the cost proportional
    to how spread out the belief actually is.  The support and the weights
    u on it are a row of the successor store: the arrays a fresh
    propagation would give, so the scores are the same floats.
    """
    o = model.observation[a]
    if isinstance(o, CsrTable):
        return o.scores(vectors, support, weights)
    if len(support) < model.num_states:
        vectors = vectors[:, support]
    # One gathered buffer, multiplied in place: the floats of weights[:, None] * o[support].
    rows = o[support]
    rows *= weights[:, None]
    return vectors @ rows


class _Bounds(NamedTuple):
    """What a solve hands one backup so that it can skip actions."""

    upper: np.ndarray  # per action, U(b, a) plus the stage's rounding margin
    skipped: list  # one running count of skipped actions for the whole solve


def _lookahead(
    model: TabularPomdp, vectors: np.ndarray, successors: _Successors, bounds: Optional[_Bounds] = None
) -> tuple[np.ndarray, int, np.ndarray]:
    """One-step lookahead q(b, a), with the first maximal action and its scores.

    The solver's route: point_backup scans the actions one at a time,
    each on its own support, and may skip some by their bounds; the
    online lookahead that scores them all is policy_q_all.  successors is
    the store of b alone.  Returns q, the first action of
    maximal q, and that action's (n, |Z|) successor score matrix.
    Observations with zero likelihood contribute zero: their unnormalised
    successor is the zero vector, whose best alpha score is exactly 0.
    Only the best action's scores are kept: holding every action's at once
    made the allocator return and re-fault the heap at each backup of a
    large vector set (millions of page faults per desk solve).

    Without bounds every action is scored in order.  With them the actions
    are visited by descending bound, and the scan stops at the first one
    whose bound (margin included) is below the best q so far; every action
    after it is bounded lower still.  Those actions keep q = nan and are
    added to bounds.skipped.  Every maximal action has a bound at or above
    its q, so each is scored, and ties go to the lowest action as in the
    full scan.
    """
    q = np.full(model.num_actions, np.nan)
    order = range(model.num_actions) if bounds is None else np.argsort(-bounds.upper, kind="stable")
    rewards, offsets = successors.rewards[0].tolist(), successors.offsets
    best = -1
    for k, a in enumerate(order):
        if bounds is not None and k and bounds.upper[a] < q[best]:
            bounds.skipped[0] += model.num_actions - k
            break
        lo, hi = offsets[a], offsets[a + 1]
        s = _successor_scores(model, vectors, successors.indices[lo:hi], successors.weights[lo:hi], a)
        q[a] = rewards[a] + model.discount * float(s.max(axis=0).sum())
        if best < 0 or q[a] > q[best] or (q[a] == q[best] and a < best):
            best, best_scores = a, s
    return q, int(best), best_scores


def policy_q_all(model: TabularPomdp, policy: AlphaVectorPolicy, belief: Belief) -> np.ndarray:
    """One-step lookahead q(b, a) for every action under the policy's value.

    The q of _lookahead without bounds, in one pass that shares the work
    of the belief across the actions.  Each u_a = b T[a] is the model's own
    propagation.  States outside the union support s of those rows add
    exactly zero, so the vectors V, and the rows of each distinct dense
    or row-class observation table, are gathered on s once, and action a scores
    S_a = (V[:, s] * u_a[s]) @ O[a][s].  A CSR observation table keeps
    `CsrTable.scores` on u_a's own support, as the backup calls it.  Then
    q(b, a) = <b, R[:, a]> + discount * sum_z max_i S_a[i, z].  Only the
    rounding differs from the backup's per-action supports; the tests
    bound the difference at 1e-12 (1 + |q|).
    """
    u = np.array([model.propagate(belief, a) for a in range(model.num_actions)])
    support = u.any(axis=0).nonzero()[0]
    vectors, weights = policy.vectors[:, support], u[:, support]
    rows: dict = {}  # id of a dense or row-class observation table -> its rows on the support
    product = np.empty((len(vectors), model.num_observations))  # each dense table's scores in turn
    best = np.empty((model.num_actions, model.num_observations))  # max_i S[i, z] per action
    for a, o in enumerate(model.observation):
        if isinstance(o, CsrTable):
            idx = u[a].nonzero()[0]
            scores = o.scores(policy.vectors, idx, u[a, idx])
        else:
            if id(o) not in rows:
                rows[id(o)] = o[support]
            scores = np.matmul(vectors * weights[a], rows[id(o)], out=product)
        scores.max(axis=0, out=best[a])
    return belief @ model.reward + model.discount * best.sum(axis=1)


def loss_all(model: TabularPomdp, policy: AlphaVectorPolicy, belief: Belief) -> np.ndarray:
    """Per-action regret against the lookahead value of policy_q_all; >= 0,
    zero at the argmax."""
    q = policy_q_all(model, policy, belief)
    return q.max() - q


# ---------------------------------------------------------------------------
# Point-based solving


def collect_beliefs(
    model: TabularPomdp,
    size: int,
    horizon: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Beliefs reachable under uniform-random actions from the initial belief.

    Episodes run for `horizon` steps; a belief joins the set when its L1
    distance to every collected belief exceeds DEDUP_ATOL.  Collection stops
    at `size` beliefs or after STAGNATION_LIMIT episodes in a row add
    nothing (small or deterministic models saturate early).

    The distance test is indexed.  Collected beliefs are kept sorted by the
    key k(b) = b . w, with w a fixed vector in [0, 1)^X drawn from a
    generator of its own, so `rng` draws exactly what a plain scan would.
    Since |k(b) - k(c)| <= L1(b, c), a belief within DEDUP_ATOL of b has a
    key within DEDUP_ATOL of b's.  The window widens that by 1e-12 and by
    the rounding of two keys (each within X machine epsilons of exact), and
    only the beliefs inside it get the exact L1 test.  The result is the
    set a test against every collected belief gives.
    """
    if size < 1:
        raise ValueError(f"belief set size must be at least 1, got {size}")
    out = np.empty((size, model.num_states))
    out[0] = model.initial_belief
    count = 1
    weights = np.random.default_rng(0).random(model.num_states)
    keys = [float(out[0] @ weights)]  # ascending
    rows = [0]  # row of `out` holding each key's belief
    window = DEDUP_ATOL + _EPS + 2 * model.num_states * np.finfo(float).eps
    stagnant = 0
    while count < size and stagnant < STAGNATION_LIMIT:
        added = 0
        x = sample_initial_state(model, rng)
        b = model.initial_belief
        for _ in range(horizon):
            a = int(rng.integers(model.num_actions))
            x, z, _ = simulate_step(model, x, a, rng)
            try:
                b, _ = belief_update(model, b, a, z)
            except ZeroLikelihood:  # pragma: no cover - simulating the same model
                break
            key = float(b @ weights)
            near = rows[bisect.bisect_left(keys, key - window):bisect.bisect_right(keys, key + window)]
            if not near or np.abs(out[near] - b).sum(axis=1).min() > DEDUP_ATOL:
                at = bisect.bisect_right(keys, key)
                keys.insert(at, key)
                rows.insert(at, count)
                out[count] = b
                count += 1
                added += 1
                if count == size:
                    break
        stagnant = 0 if added else stagnant + 1
    return out[:count]


def point_backup(
    model: TabularPomdp,
    belief: Belief,
    vectors: np.ndarray,
    successors: Optional[_Successors] = None,
    bounds: Optional[_Bounds] = None,
) -> tuple[np.ndarray, int]:
    """Back up one belief against the current vector set.

    Returns the new alpha vector and its action, the first action of
    maximal lookahead q.  Scores are computed on unnormalised successor
    beliefs, so zero-likelihood observations drop out without special
    casing.  successors is the store of this belief alone, built here when
    not given; a solve passes belief i's rows of the store it built when it
    started, so no backup propagates the belief again.  They hold the arrays
    this call would build, so the result is the same either way.  bounds,
    which only a solve passes, lets the lookahead skip every action whose
    upper bound cannot reach the best q; the action and the vector are still
    the ones a scan of every action gives (see _lookahead).
    """
    if successors is None:
        successors = _successors(model, belief[None])
    _, a, scores = _lookahead(model, vectors, successors, bounds)
    picked = vectors[scores.argmax(axis=0)]  # (|Z|, |X|)
    o = model.observation[a]
    back = (o * picked.T).sum(axis=1) if isinstance(o, np.ndarray) else o.weighted_row_sums(picked.T)
    alpha = model.reward[:, a] + model.discount * (model.transition[a] @ back)
    return alpha, a


def _bound_inputs(model: TabularPomdp, beliefs: np.ndarray, successors: _Successors):
    """What the upper bounds U(b, a) of a solve's beliefs need apart from the vectors.

    Returns (rows, rewards), or None when the bound does not hold.  Row
    i * |A| + a of the CSR matrix `rows` is u(x) s_a(x) on the support of
    u = b_i T[a], with s_a the row sums of O[a], so its product with top(x)
    is the bound's lookahead term; it shares the indices and offsets of the
    store `successors`, and rewards is the store's.  The bound needs u >= 0
    and O >= 0, so a model with a negative transition or observation entry,
    or a belief set with a negative entry, gets None.
    """
    tables = model.transition + model.observation
    if beliefs.min() < 0 or any(table.min() < 0 for table in tables):
        return None
    sums = np.array([row_sums(o) for o in model.observation])
    actions = np.repeat(np.tile(np.arange(model.num_actions), len(beliefs)), np.diff(successors.offsets))
    data = successors.weights * sums[actions, successors.indices]
    shape = (len(beliefs) * model.num_actions, model.num_states)
    rows = CsrTable(data, successors.indices, successors.offsets, shape)
    return rows, successors.rewards


def _stage_bounds(model: TabularPomdp, inputs: tuple, vectors: np.ndarray) -> np.ndarray:
    """U(b, a) plus the rounding margin for every belief and action, shape (m, |A|).

    inputs is _bound_inputs(...).  The margin, 1e-9 (1 + max|R| +
    max|alpha|), is far above the rounding of either the bound or a q.
    """
    rows, rewards = inputs
    margin = 1e-9 * (1.0 + float(np.abs(model.reward).max()) + float(np.abs(vectors).max()))
    lookahead = (rows @ vectors.max(axis=0)).reshape(rewards.shape)
    return rewards + model.discount * lookahead + margin


def _check_settings(settings: SolverSettings) -> None:
    """ValueError for a belief set size or horizon below 1, a negative or
    NaN tolerance (which would never stop a solve), a negative seed, or a
    stage cap below 1 (which would return the one-vector floor policy
    unsolved)."""
    if settings.belief_set_size < 1:
        raise ValueError(f"belief set size must be at least 1, got {settings.belief_set_size}")
    if settings.horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {settings.horizon}")
    if not settings.tolerance >= 0.0:
        raise ValueError(f"solver tolerance must be non-negative, got {settings.tolerance}")
    if settings.seed < 0:
        raise ValueError(f"solver seed must be non-negative, got {settings.seed}")
    if settings.stage_cap < 1:
        raise ValueError(f"solver stage cap must be at least 1, got {settings.stage_cap}")


def perseus_solve(
    model: TabularPomdp,
    settings: SolverSettings,
    beliefs: Optional[np.ndarray] = None,
) -> AlphaVectorPolicy:
    """Point-based solve to the requested stage-improvement tolerance.

    Stops when the largest value improvement across the belief set falls to
    settings.tolerance, or at settings.stage_cap stages.  Stage values at
    the initial belief are recorded and are non-decreasing.  A given belief
    set must start with the model's initial belief, whose value the stage
    values record; ValueError otherwise, as for unusable settings
    (`_check_settings`, the check `solve_many` makes).
    """
    _check_settings(settings)
    rng = np.random.default_rng(settings.seed)
    if beliefs is None:
        beliefs = collect_beliefs(model, settings.belief_set_size, settings.horizon, rng)
    beliefs = np.asarray(beliefs, dtype=float)
    if beliefs.ndim != 2 or beliefs.shape[1] != model.num_states:
        raise ValueError(f"belief set has shape {beliefs.shape}, expected rows of {model.num_states} states")
    if not len(beliefs) or not np.array_equal(beliefs[0], model.initial_belief):
        raise ValueError("the first belief of the set must be the model's initial belief")
    m = len(beliefs)
    successors = _successors(model, beliefs)
    inputs = _bound_inputs(model, beliefs, successors)
    skipped = [0]
    backups = 0
    floor = float(model.reward.min()) / (1.0 - model.discount)
    vectors = np.full((1, model.num_states), floor)
    actions = np.zeros(1, dtype=int)
    values = beliefs @ vectors[0]

    stage_values = [float(values[0])]
    stage_improvements = []
    for _ in range(settings.stage_cap):
        if inputs is not None:
            upper = _stage_bounds(model, inputs, vectors)
        prev_values = values
        new_vectors: list = []
        new_actions: list = []
        copied: set = set()
        values = np.full(m, -math.inf)
        for i in rng.permutation(m):
            if values[i] >= prev_values[i] - _EPS:
                continue
            bounds = None if inputs is None else _Bounds(upper[i], skipped)
            alpha, act = point_backup(model, beliefs[i], vectors, successors.belief(i), bounds)
            backups += 1
            if float(alpha @ beliefs[i]) >= prev_values[i] - _EPS:
                new_vectors.append(alpha)
                new_actions.append(act)
                values = np.maximum(values, beliefs @ alpha)
            else:
                # Keep the best existing vector at this point so stage
                # values never decrease.
                scores = vectors @ beliefs[i]
                j = int(scores.argmax())
                if j not in copied:
                    copied.add(j)
                    new_vectors.append(vectors[j])
                    new_actions.append(int(actions[j]))
                values = np.maximum(values, beliefs @ vectors[j])
        vectors = np.array(new_vectors)
        actions = np.array(new_actions, dtype=int)
        improvement = float((values - prev_values).max())
        stage_values.append(float(values[0]))
        stage_improvements.append(improvement)
        if improvement <= settings.tolerance:
            break
    return AlphaVectorPolicy(
        vectors=vectors,
        actions=actions,
        discount=model.discount,
        label=model.label,
        settings=settings,
        stage_values=stage_values,
        stage_improvements=stage_improvements,
        belief_count=m,
        lookahead_counts=(backups * model.num_actions - skipped[0], skipped[0]),
    )


# ---------------------------------------------------------------------------
# Policy files and the solve cache


def dumps_policy(policy: AlphaVectorPolicy) -> bytes:
    """The policy file: nine UTF-8 header lines, then one raw block.

    The block holds the n action tags as little-endian int64, then the
    n x width coefficients as little-endian float64, row by row; the
    `vectors n width` line fixes its length, so nothing follows it.
    """
    n, width = policy.vectors.shape
    key = policy.settings.key_string() if policy.settings else "-"
    header = [
        POLICY_TAG,
        f"label {policy.label}",
        f"model {policy.source_digest or '-'}",
        f"discount {repr(float(policy.discount))}",
        f"settings {key}",
        f"beliefs {policy.belief_count}",
        "stagevalues " + " ".join(repr(float(v)) for v in policy.stage_values),
        "improvements " + " ".join(repr(float(v)) for v in policy.stage_improvements),
        f"vectors {n} {width}",
    ]
    return b"".join((
        ("\n".join(header) + "\n").encode(),
        policy.actions.astype("<i8").tobytes(),
        policy.vectors.astype("<f8").tobytes(),
    ))


class PolicyFormatError(ValueError):
    pass


def loads_policy(data: bytes) -> AlphaVectorPolicy:
    """Read a policy file made by dumps_policy; every fault names its line.

    A header line is whole only with its newline, so a file cut inside
    the header fails on the first line it lacks.  A block of the wrong
    length, or with a coefficient that is not finite, fails on line 9.
    The arrays are copies in native byte order.
    """
    lines, start = [], 0
    while len(lines) < 9 and (end := data.find(b"\n", start)) >= 0:
        lines.append(data[start:end])
        start = end + 1
    if lines and lines[0] != POLICY_TAG.encode():
        raise PolicyFormatError(f"line 1: expected {POLICY_TAG!r} header")
    if len(lines) < 9:
        raise PolicyFormatError(f"line {len(lines) + 1}: unexpected end of file")
    block = memoryview(data)[start:]  # no copy

    def field(i, key):
        try:
            text = lines[i].decode()
        except UnicodeDecodeError:
            raise PolicyFormatError(f"line {i + 1}: not UTF-8") from None
        if not text.startswith(key + " ") and text != key:
            raise PolicyFormatError(f"line {i + 1}: expected {key!r}")
        return text[len(key) + 1:]

    def parsed(i, convert, text):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise PolicyFormatError(f"line {i + 1}: bad value {text!r}") from None

    def floats(text):
        return [float(v) for v in text.split()]

    def shape(text):
        n, width = (int(v) for v in text.split())
        if n < 0 or width < 0:
            raise ValueError(text)
        return n, width

    keys = "label model discount settings beliefs stagevalues improvements vectors".split()
    label, digest, discount, key, belief_count, sv, imp, head = (
        field(i, k) for i, k in enumerate(keys, start=1)
    )
    discount = parsed(3, float, discount)
    settings = None if key == "-" else parsed(4, SolverSettings.from_key_string, key)
    belief_count = parsed(5, int, belief_count)
    stage_values = parsed(6, floats, sv)
    stage_improvements = parsed(7, floats, imp)
    n, width = parsed(8, shape, head)
    if n == 0:
        raise PolicyFormatError("line 9: a policy needs at least one alpha vector")
    if len(block) != 8 * n * (1 + width):
        raise PolicyFormatError(
            f"line 9: expected {8 * n * (1 + width)} bytes of actions and vectors, found {len(block)}"
        )
    actions = np.frombuffer(block, "<i8", n).astype(int)
    vectors = np.frombuffer(block, "<f8", offset=8 * n).reshape(n, width).astype(float)
    if not np.isfinite(vectors).all():
        raise PolicyFormatError("line 9: a coefficient is not finite")
    return AlphaVectorPolicy(
        vectors=vectors,
        actions=actions,
        discount=discount,
        label=label,
        source_digest="" if digest == "-" else digest,
        settings=settings,
        stage_values=stage_values,
        stage_improvements=stage_improvements,
        belief_count=belief_count,
    )


def load_policy(path) -> AlphaVectorPolicy:
    return loads_policy(Path(path).read_bytes())


class PolicyCache:
    """On-disk policy store keyed by model content and solver settings."""

    # Bump when solver behaviour changes so stale entries never load.
    REVISION = 2

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _key(self, digest: str, settings: SolverSettings) -> str:
        raw = f"{digest}|{settings.key_string()}|rev{self.REVISION}"
        return hashlib.sha256(raw.encode()).hexdigest()[:24]

    def path(self, digest: str, settings: SolverSettings) -> Path:
        """Entry file for a model digest and solver settings."""
        return self.root / (self._key(digest, settings) + ".policy")

    def load(self, digest: str, settings: SolverSettings) -> Optional[AlphaVectorPolicy]:
        """The entry of a model digest and settings, or None when there is
        none, it cannot be read, or it was stored for another digest."""
        try:
            policy = load_policy(self.path(digest, settings))
        except FileNotFoundError:
            return None
        except PolicyFormatError:
            return None  # unreadable entry; the re-solve overwrites it
        if policy.source_digest and policy.source_digest != digest:
            return None  # hash prefix collision; treat as a miss
        return policy

    def store(self, digest: str, settings: SolverSettings, policy: AlphaVectorPolicy):
        """Write the entry whole or not at all: temp file, then rename."""
        path = self.path(digest, settings)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(dumps_policy(policy))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _fits(policy: AlphaVectorPolicy, model: TabularPomdp) -> bool:
    """Whether a policy's vectors span the model's states and its actions are the model's."""
    return policy.vectors.shape[1] == model.num_states and (
        0 <= policy.actions.min() and policy.actions.max() < model.num_actions
    )


def _timed_solve(model: TabularPomdp, settings: SolverSettings) -> tuple[AlphaVectorPolicy, float]:
    """perseus_solve with its wall time in seconds."""
    started = time.perf_counter()
    policy = perseus_solve(model, settings)
    return policy, time.perf_counter() - started


def solve_many(
    models: Sequence[TabularPomdp],
    settings: SolverSettings,
    cache: Optional[PolicyCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> list[tuple[AlphaVectorPolicy, bool]]:
    """Solve or fetch every model's policy; returns (policy, came_from_cache) per model.

    This process digests the models once (`model_digests`), does every
    cache load and store by those digests, in model order, and stamps each
    returned policy's `source_digest`.  An entry that does not fit its
    model's states and actions is a miss.  When two or more models miss
    and this process may run on more than one CPU, the misses are solved
    in workers started with `os.fork` (`forkpool.forked_map`): OpenBLAS is
    set to one thread here just before the fork and set back after, so
    each worker runs one BLAS thread.  Every worker is reaped before this
    returns, and killed first after an error or a worker's death (a
    RuntimeError naming its exit status).  The workers get the models
    through the fork and never digest one; each policy comes back pickled.
    Each solve seeds its own generator, so the policies are the ones a
    solve in this process gives.  `progress` gets
    one line per model: a cache hit, or the vector count and solve
    seconds, noting an unusable entry that was replaced.  Unusable
    settings (`_check_settings`) are a ValueError, raised before any
    digest or cache access.
    """
    _check_settings(settings)
    digests = model_digests(models)
    results: list = [None] * len(models)
    misses = []
    for k, model in enumerate(models):
        hit = None if cache is None else cache.load(digests[k], settings)
        if hit is None or not _fits(hit, model):
            misses.append(k)
            continue
        hit.source_digest = digests[k]
        results[k] = (hit, True)
        if progress:
            progress(f"policy for {model.label}: cache")
    with forked_map(lambda k: _timed_solve(models[k], settings), [(k,) for k in misses]) as solved:
        for k, (policy, seconds) in zip(misses, solved):
            policy.source_digest = digests[k]
            note = f"policy for {models[k].label}: {len(policy)} vectors in {seconds:.2f} s"
            if policy.lookahead_counts:
                evaluated, skipped = policy.lookahead_counts
                share = skipped / max(evaluated + skipped, 1)
                note += f", {share:.0%} of lookahead actions skipped"
            if cache is not None:
                # The load above missed, so an entry now at this path could
                # not be read, belongs to another model, or was stored since
                # by another process.
                if cache.path(digests[k], settings).exists():
                    note += ", replacing an unusable cache entry"
                cache.store(digests[k], settings, policy)
            results[k] = (policy, False)
            if progress:
                progress(note)
    return results


def solve_with_cache(
    model: TabularPomdp,
    settings: SolverSettings,
    cache: Optional[PolicyCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[AlphaVectorPolicy, bool]:
    """Solve or fetch one model; returns (policy, came_from_cache)."""
    return solve_many([model], settings, cache, progress)[0]
