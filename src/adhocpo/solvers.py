"""Planning: exact value iteration and point-based alpha-vector solving.

Value iteration targets the fully observable joint-action model and is the
performance ceiling in experiments.  The point-based solver follows the
randomised backup scheme: gather a reachable belief set by simulating
uniform-random actions, then per stage back up beliefs in random order,
skipping any belief already improved by a vector added earlier in the
stage.  Keeping the best previous vector whenever a backup fails to improve
a point makes the stage values monotone.  The cache misses of a library are
solved in parallel, one forked worker per usable CPU (solve_many).
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import math
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from adhocpo.modelio import model_digest
from adhocpo.pomdp import (
    Belief,
    TabularMmdp,
    TabularPomdp,
    ZeroLikelihood,
    belief_update,
    sample_initial_state,
    simulate_step,
)

POLICY_TAG = "adhocpo-policy v1"
CACHE_ENV = "ADHOCPO_CACHE"

_EPS = 1e-12


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


# ---------------------------------------------------------------------------
# Exact value iteration on fully observable models


@dataclasses.dataclass
class StateValueFunction:
    """Optimal state values with the greedy joint action per state."""

    values: np.ndarray
    greedy: np.ndarray  # flat joint-action id per state, lowest id on ties
    residual: float
    iterations: int


def bellman_q(mdp: TabularMmdp, values: np.ndarray) -> np.ndarray:
    """One-step lookahead q(x, ja) under the given state values."""
    q = np.empty((mdp.num_states, mdp.num_joint_actions))
    for ja in range(mdp.num_joint_actions):
        q[:, ja] = mdp.reward[:, ja] + mdp.discount * np.asarray(
            mdp.transition[ja] @ values
        )
    return q


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
    residual = float(np.abs(q.max(axis=1) - v).max())
    return StateValueFunction(
        values=v,
        greedy=q.argmax(axis=1),
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
        return (
            f"belief_set_size={self.belief_set_size},horizon={self.horizon},"
            f"tolerance={repr(float(self.tolerance))},seed={self.seed},"
            f"stage_cap={self.stage_cap}"
        )

    @classmethod
    def from_key_string(cls, text: str) -> "SolverSettings":
        fields = dict(part.split("=", 1) for part in text.split(","))
        return cls(
            belief_set_size=int(fields["belief_set_size"]),
            horizon=int(fields["horizon"]),
            tolerance=float(fields["tolerance"]),
            seed=int(fields["seed"]),
            stage_cap=int(fields["stage_cap"]),
        )


@dataclasses.dataclass
class AlphaVectorPolicy:
    """A set of alpha vectors, each tagged with its one-step action.

    stage_values records the lower-bound value at the initial belief after
    every solver stage; it is non-decreasing by construction and is kept as
    convergence evidence.
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


def _successor_scores(model: TabularPomdp, vectors: np.ndarray, belief: Belief, a: int) -> np.ndarray:
    """Alpha scores of every unnormalised successor belief, shape (n, |Z|).

    Entry (i, z) is <alpha_i, u * O[a][:, z]> with u the propagated belief.
    States outside the support of u contribute exactly zero, so the
    contraction runs on the support only; that keeps the cost proportional
    to how spread out the belief actually is.
    """
    u = model.propagate(belief, a)
    o = model.observation[a]
    idx = np.flatnonzero(u)
    if len(idx) < model.num_states:
        o = o[idx]
        u = u[idx]
        vectors = vectors[:, idx]
    if sparse.issparse(o):
        w = o.multiply(u[:, None]).tocsr()
    else:
        w = u[:, None] * o
    return np.asarray(vectors @ w)


def _lookahead(model: TabularPomdp, vectors: np.ndarray, belief: Belief) -> tuple[np.ndarray, list]:
    """One-step lookahead q(b, a) for every action, with each action's scores.

    scores[a] is the (n, |Z|) successor score matrix of action a.
    Observations with zero likelihood contribute zero: their unnormalised
    successor is the zero vector, whose best alpha score is exactly 0.
    """
    q = np.empty(model.num_actions)
    scores = []
    for a in range(model.num_actions):
        s = _successor_scores(model, vectors, belief, a)
        q[a] = float(belief @ model.reward[:, a]) + model.discount * float(s.max(axis=0).sum())
        scores.append(s)
    return q, scores


def policy_q_all(model: TabularPomdp, policy: AlphaVectorPolicy, belief: Belief) -> np.ndarray:
    """One-step lookahead q(b, a) for every action under the policy's value."""
    return _lookahead(model, policy.vectors, belief)[0]


def loss_all(model: TabularPomdp, policy: AlphaVectorPolicy, belief: Belief) -> np.ndarray:
    """Per-action regret against the lookahead value; >= 0, zero at the argmax."""
    q = policy_q_all(model, policy, belief)
    return q.max() - q


# ---------------------------------------------------------------------------
# Point-based solving


def collect_beliefs(
    model: TabularPomdp,
    size: int,
    horizon: int,
    rng: np.random.Generator,
    dedup_atol: float = 1e-9,
    stagnation_limit: int = 50,
) -> np.ndarray:
    """Beliefs reachable under uniform-random actions from the initial belief.

    Episodes run for `horizon` steps; a belief joins the set when its L1
    distance to every collected belief exceeds dedup_atol.  Collection stops
    at `size` beliefs or after stagnation_limit episodes in a row add
    nothing (small or deterministic models saturate early).
    """
    out = np.empty((size, model.num_states))
    out[0] = model.initial_belief
    count = 1
    stagnant = 0
    while count < size and stagnant < stagnation_limit:
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
            if np.abs(out[:count] - b).sum(axis=1).min() > dedup_atol:
                out[count] = b
                count += 1
                added += 1
                if count == size:
                    break
        stagnant = 0 if added else stagnant + 1
    return out[:count]


def point_backup(
    model: TabularPomdp, belief: Belief, vectors: np.ndarray
) -> tuple[np.ndarray, int]:
    """Back up one belief against the current vector set.

    Returns the new alpha vector and its action, the first action of
    maximal lookahead q.  Scores are computed on unnormalised successor
    beliefs, so zero-likelihood observations drop out without special
    casing.
    """
    q, scores = _lookahead(model, vectors, belief)
    a = int(q.argmax())
    o = model.observation[a]
    picked = vectors[scores[a].argmax(axis=0)]  # (|Z|, |X|)
    if sparse.issparse(o):
        back = np.asarray(o.multiply(picked.T).sum(axis=1)).ravel()
    else:
        back = (o * picked.T).sum(axis=1)
    alpha = model.reward[:, a] + model.discount * np.asarray(model.transition[a] @ back)
    return alpha, a


def perseus_solve(
    model: TabularPomdp,
    settings: SolverSettings,
    beliefs: Optional[np.ndarray] = None,
) -> AlphaVectorPolicy:
    """Point-based solve to the requested stage-improvement tolerance.

    Stops when the largest value improvement across the belief set falls to
    settings.tolerance, or at settings.stage_cap stages.  Stage values at
    the initial belief are recorded and are non-decreasing.
    """
    rng = np.random.default_rng(settings.seed)
    if beliefs is None:
        beliefs = collect_beliefs(model, settings.belief_set_size, settings.horizon, rng)
    m = len(beliefs)
    floor = float(model.reward.min()) / (1.0 - model.discount)
    vectors = np.full((1, model.num_states), floor)
    actions = np.zeros(1, dtype=int)
    values = beliefs @ vectors[0]

    stage_values = [float(values[0])]
    stage_improvements = []
    for _ in range(settings.stage_cap):
        prev_values = values
        new_vectors: list = []
        new_actions: list = []
        copied: set = set()
        values = np.full(m, -math.inf)
        for i in rng.permutation(m):
            if values[i] >= prev_values[i] - _EPS:
                continue
            alpha, act = point_backup(model, beliefs[i], vectors)
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
        source_digest=model_digest(model),
        settings=settings,
        stage_values=stage_values,
        stage_improvements=stage_improvements,
        belief_count=m,
    )


# ---------------------------------------------------------------------------
# Policy files and the solve cache


def dumps_policy(policy: AlphaVectorPolicy) -> str:
    out = io.StringIO()
    out.write(POLICY_TAG + "\n")
    out.write(f"label {policy.label}\n")
    out.write(f"model {policy.source_digest or '-'}\n")
    out.write(f"discount {repr(float(policy.discount))}\n")
    key = policy.settings.key_string() if policy.settings else "-"
    out.write(f"settings {key}\n")
    out.write(f"beliefs {policy.belief_count}\n")
    out.write(
        "stagevalues " + " ".join(repr(float(v)) for v in policy.stage_values) + "\n"
    )
    out.write(
        "improvements "
        + " ".join(repr(float(v)) for v in policy.stage_improvements)
        + "\n"
    )
    out.write(f"vectors {len(policy.vectors)} {policy.vectors.shape[1]}\n")
    for coefs, act in zip(policy.vectors, policy.actions):
        out.write(str(int(act)) + " " + " ".join(repr(float(c)) for c in coefs) + "\n")
    out.write("end\n")
    return out.getvalue()


class PolicyFormatError(ValueError):
    pass


def loads_policy(text: str) -> AlphaVectorPolicy:
    lines = text.splitlines()
    if not lines or lines[0].strip() != POLICY_TAG:
        raise PolicyFormatError(f"expected {POLICY_TAG!r} header")

    def line(i):
        if i >= len(lines):
            raise PolicyFormatError(f"line {i + 1}: unexpected end of file")
        return lines[i]

    def field(i, key):
        text = line(i)
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

    # Read every header line before converting any, so that a file cut
    # short inside the header fails on the missing line, not on a number.
    label = field(1, "label")
    digest = field(2, "model")
    discount = field(3, "discount")
    key = field(4, "settings")
    belief_count = field(5, "beliefs")
    sv = field(6, "stagevalues")
    imp = field(7, "improvements")
    head = field(8, "vectors")
    discount = parsed(3, float, discount)
    settings = None if key == "-" else parsed(4, SolverSettings.from_key_string, key)
    belief_count = parsed(5, int, belief_count)
    stage_values = parsed(6, floats, sv)
    stage_improvements = parsed(7, floats, imp)
    n, width = parsed(8, shape, head)
    vectors = np.empty((n, width))
    actions = np.empty(n, dtype=int)
    for i in range(n):
        parts = line(9 + i).split()
        if len(parts) != width + 1:
            raise PolicyFormatError(f"line {10 + i}: expected {width + 1} fields")
        try:
            actions[i] = int(parts[0])
            vectors[i] = [float(p) for p in parts[1:]]
        except ValueError:
            raise PolicyFormatError(f"line {10 + i}: bad number") from None
    if line(9 + n).strip() != "end":
        raise PolicyFormatError(f"line {10 + n}: missing 'end'")
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
    with open(path) as fh:
        return loads_policy(fh.read())


def resolve_cache_dir(explicit=None) -> Optional[Path]:
    """Cache location: explicit argument first, then the environment."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


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

    def load(self, model: TabularPomdp, settings: SolverSettings):
        digest = model_digest(model)
        try:
            policy = load_policy(self.path(digest, settings))
        except FileNotFoundError:
            return None
        except PolicyFormatError:
            return None  # unreadable entry; the re-solve overwrites it
        if policy.source_digest and policy.source_digest != digest:
            return None  # hash prefix collision; treat as a miss
        return policy

    def store(self, model: TabularPomdp, settings: SolverSettings, policy: AlphaVectorPolicy):
        """Write the entry whole or not at all: temp file, then rename."""
        path = self.path(policy.source_digest or model_digest(model), settings)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(dumps_policy(policy))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _timed_solve(model: TabularPomdp, settings: SolverSettings) -> tuple[AlphaVectorPolicy, float]:
    """perseus_solve with its wall time in seconds."""
    started = time.perf_counter()
    policy = perseus_solve(model, settings)
    return policy, time.perf_counter() - started


def _one_blas_thread() -> None:
    """Pool initializer: limit every OpenBLAS loaded in this process to one thread.

    The library is already loaded when a worker is forked, so the thread
    variables in the environment have no effect; the setter is called
    through ctypes instead.  A process without OpenBLAS is left as it is.
    """
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            if hasattr(lib, symbol):
                setter = getattr(lib, symbol)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def solve_many(
    models: Sequence[TabularPomdp],
    settings: SolverSettings,
    cache: Optional[PolicyCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> list[tuple[AlphaVectorPolicy, bool]]:
    """Solve or fetch every model's policy; returns (policy, came_from_cache) per model.

    This process does every cache load and store, in model order.  When two
    or more models miss and this process may run on more than one CPU, the
    misses are solved in forked worker processes with one BLAS thread each,
    and every worker is joined before this returns.  Each solve seeds its
    own generator, so the policies are the ones a solve in this process
    gives.  `progress` gets one line per model: a cache hit, or the vector
    count and solve seconds, noting an unusable entry that was replaced.
    """
    results: list = [None] * len(models)
    misses = []
    for k, model in enumerate(models):
        hit = None if cache is None else cache.load(model, settings)
        if hit is None:
            misses.append(k)
            continue
        results[k] = (hit, True)
        if progress:
            progress(f"policy for {model.label}: cache")
    # os.sched_getaffinity exists only on Linux; elsewhere every solve runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(misses), cpus)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # fork, not spawn or forkserver: those leave a resource tracker
            # or a fork server process running after the pool has shut
            # down.  The pool forks all its workers before it starts any
            # thread of its own.
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_one_blas_thread,
            )
            # Joins every worker; after an error or an interrupt, the solves
            # not yet started are dropped rather than run.
            stack.callback(pool.shutdown, wait=True, cancel_futures=True)
            futures = [pool.submit(_timed_solve, models[k], settings) for k in misses]
            solved = (future.result() for future in futures)
        else:
            solved = (_timed_solve(models[k], settings) for k in misses)
        for k, (policy, seconds) in zip(misses, solved):
            note = f"policy for {models[k].label}: {len(policy)} vectors in {seconds:.2f} s"
            if cache is not None:
                # The load above missed, so an entry now at this path could
                # not be read, belongs to another model, or was stored since
                # by another process.
                if cache.path(policy.source_digest, settings).exists():
                    note += ", replacing an unusable cache entry"
                cache.store(models[k], settings, policy)
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
