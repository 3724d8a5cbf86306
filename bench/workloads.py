"""The benchmark's workloads, their timed phases and the checks on their outputs.

Every workload is a closed loop in one process: each call into the package
starts when the previous one returns.  A run has three phases.

1. Set-up, repeated ``setup_reps`` times and timed (``setup_s``): the
   domain build, plus a warm ``prepare_library`` on workloads whose policies
   come from the benchmark's own pre-filled cache.
2. Operations, each timed (``work_s``) and shared out between the set-ups:
   a cold ``prepare_library`` into an empty cache directory on a cold
   workload, or one ``run_experiment`` block plus ``emit_reports`` on a
   warm one.  The number of operations is fixed by ``--seconds`` and the
   workload's nominal operation time, so one seed always does the same work
   and the counts in the traced run repeat.
3. Checks, untimed.  A cold workload also runs one experiment on the library
   it has just solved, which checks the fresh policies and supplies the
   ATPO step times.

The ATPO step times (``act`` + ``observe`` of every step) are recorded in
both modes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

import spans
from adhocpo import agents, domains, harness, solvers
from adhocpo.pomdp import induced_mdp


# Every experiment runs the adaptive agent between the two references that
# normalize its score.
ROSTER = ("atpo", "vi", "random")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    build: dict  # keyword arguments of domains.build
    warm: bool  # policies come from the pre-filled cache; else every operation solves cold
    setup_reps: int
    op_seconds: float  # nominal wall time of one operation; sizes the run from --seconds
    trials: int  # per experiment
    solver: dict = dataclasses.field(default_factory=dict)  # SolverSettings fields to replace
    min_atpo_score: Optional[float] = None
    # Cold workloads: value at b0 of each model's policy, and the allowed gap.
    b0_reference: tuple = ()
    b0_tolerance: float = 0.0


WORKLOADS = {
    w.name: w
    for w in [
        # 257 states, dense tables.  The solve keeps the domain's reference
        # solver seed, as a user's cold solve does: the Perseus work varies
        # about 2x between solver seeds (3.1 to 7.3 s per model over seeds
        # 0 to 6 on a 2-core Xeon), which would hide any change.  --seed picks the trials
        # of the follow-up experiment and the identity-check beliefs.
        Workload(
            name="solve-grid",
            domain="gridworld",
            build=dict(size=4, tasks=2, belief_set_size=200),
            warm=False,
            setup_reps=3,
            op_seconds=16.0,
            trials=300,
            # Solver seeds 0 to 6 ended between 63.2 and 66.1 at b0.
            b0_reference=(65.53401057043470, 65.99182940609617),
            b0_tolerance=2.5,
        ),
        # K=8 desk library, dense tables, about 150 vectors per policy.
        Workload(
            name="online-grid",
            domain="gridworld",
            build=dict(size=4, tasks=8, belief_set_size=300),
            warm=True,
            setup_reps=3,
            op_seconds=1.75,
            trials=16,
            min_atpo_score=60.0,
        ),
        # Full-scale map: 3 models of 1807 states in CSR tables, 12 to 15
        # vectors per policy.  A warm set-up takes 10 to 18 s on a 2-core
        # Xeon, so it runs twice rather than three times.
        Workload(
            name="map-isr",
            domain="isr",
            build=dict(belief_set_size=100),
            solver=dict(stage_cap=15),
            warm=True,
            setup_reps=2,
            op_seconds=2.85,
            trials=4,
        ),
    ]
}


class CountingCache(solvers.PolicyCache):
    """Policy cache that counts lookups, hits and stores."""

    def __init__(self, root):
        super().__init__(root)
        self.lookups = 0
        self.hits = 0
        self.stores = 0

    def load(self, model, settings):
        policy = super().load(model, settings)
        self.lookups += 1
        self.hits += policy is not None
        return policy

    def store(self, model, settings, policy):
        self.stores += 1
        super().store(model, settings, policy)


def build_domain(workload: Workload):
    build = domains.build(workload.domain, **workload.build)
    if workload.solver:
        build.solver = dataclasses.replace(build.solver, **workload.solver)
    return build


def cache_dir(workload: Workload, workdir: Path) -> Path:
    return workdir / "cache" / workload.name


def fill_caches(workloads, workdir: Path, log=print) -> None:
    """Solve the policies of every warm workload into its cache, once per checkout."""
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "fill.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for workload in workloads:
            stamp = cache_dir(workload, workdir) / "filled"
            if not workload.warm or stamp.exists():
                continue
            started = time.perf_counter()
            cache = solvers.PolicyCache(cache_dir(workload, workdir))
            harness.prepare_library(build_domain(workload), cache=cache)
            stamp.write_text("")
            log(f"filled the policy cache of {workload.name} in {time.perf_counter() - started:.1f} s")


def needs_fill(workloads, workdir: Path) -> bool:
    return any(w.warm and not (cache_dir(w, workdir) / "filled").exists() for w in workloads)


@contextlib.contextmanager
def atpo_step_timer(samples: list):
    """Record act + observe seconds of every ATPO agent the harness makes."""
    make = harness.make_agent

    def timed_make(name, library, **kwargs):
        agent = make(name, library, **kwargs)
        if name == "atpo":
            _time_steps(agent, samples)
        return agent

    harness.make_agent = timed_make
    try:
        yield samples
    finally:
        harness.make_agent = make


def _time_steps(agent, samples: list) -> None:
    act, observe = agent.act, agent.observe
    acting = [0.0]

    def timed_act(rng):
        started = time.perf_counter()
        action = act(rng)
        acting[0] = time.perf_counter() - started
        return action

    def timed_observe(action, observation=None, state=None):
        started = time.perf_counter()
        observe(action, observation=observation, state=state)
        samples.append(acting[0] + time.perf_counter() - started)

    agent.act = timed_act
    agent.observe = timed_observe


def tail_percentile(n: int) -> float:
    """99, or the highest lower percentile that keeps at least 10 samples beyond it."""
    for p in (99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def backup_matches_lookahead(model, policy, beliefs, rtol: float = 1e-9) -> bool:
    """The backed-up vector's value at b equals max_a q(b, a), and its action attains it.

    point_backup (the solver) and policy_q_all (the online loss
    diagnostics) compute the same lookahead by different routes.
    """
    for b in beliefs:
        alpha, action = solvers.point_backup(model, b, policy.vectors)
        q = solvers.policy_q_all(model, policy, b)
        scale = max(1.0, abs(float(q.max())))
        if abs(float(alpha @ b) - q.max()) > rtol * scale or q.max() - q[action] > rtol * scale:
            return False
    return True


class Run:
    """One run of one workload: timings, counts and check results."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.ops = max(1, round(seconds / workload.op_seconds))
        self.models = 0
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.setup_s: list = []
        self.op_s: list = []
        self.steps: list = []  # seconds of act + observe per ATPO step
        self.attempted = 0  # model solves and trials
        self.failed = 0
        self.void = False  # a whole-workload check failed: every operation counts as failed
        self.checks: dict = {}  # name -> [passed, checked]
        self.cache = {"lookups": 0, "hits": 0, "stores": 0}
        self.solved = {"stages": 0, "vectors": 0}
        self.experiments: list = []
        self.atpo_score: Optional[float] = None
        self.tracer: Optional[spans.Tracer] = None

    def check(self, name: str, passed: bool) -> bool:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += bool(passed)
        entry[1] += 1
        return bool(passed)

    def phase(self, run_id: str) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def execute(self, trace: bool) -> None:
        self.tracer = spans.Tracer() if trace else None
        installed = self.tracer.installed() if trace else contextlib.nullcontext()
        with installed, atpo_step_timer(self.steps):
            library = build = None
            # Set-ups and operations alternate, so that both sample the whole
            # run: the machine's speed drifts over tens of seconds.
            reps = self.workload.setup_reps
            op = 0
            for r in range(reps):
                self.phase(f"setup-{r}")
                warm_library, build = self._set_up()
                library = warm_library or library
                for _ in range((r + 1) * self.ops // reps - r * self.ops // reps):
                    self.phase(f"op-{op}")
                    op += 1
                    if self.workload.warm:
                        self._experiment(library, build, timed=True)
                    else:
                        library = self._cold_solve(build) or library
            self.phase("check")
            if library is not None:
                if not self.workload.warm:
                    self._experiment(library, build, timed=False)
                self._check_library(library, build)
                self._check_experiments(library, build)
        if self.void:
            self.failed = self.attempted
        self.failed = min(self.failed, self.attempted)

    def _count_cache(self, cache: CountingCache) -> None:
        self.cache["lookups"] += cache.lookups
        self.cache["hits"] += cache.hits
        self.cache["stores"] += cache.stores

    def _set_up(self):
        """One timed set-up; returns (library or None, build)."""
        w = self.workload
        cache = CountingCache(cache_dir(w, self.workdir)) if w.warm else None
        library = None
        started = time.perf_counter()
        build = build_domain(w)
        if w.warm:
            library = harness.prepare_library(build, cache=cache)
        self.setup_s.append(time.perf_counter() - started)
        self.models = build.size
        if w.warm:
            self._count_cache(cache)
            # A miss means the set-up solved silently, inside setup_s.
            hit = cache.hits == cache.lookups == build.size
            self.void |= not self.check("warm set-up finds every policy in the cache", hit)
        return library, build

    def _cold_solve(self, build):
        w = self.workload
        root = self.workdir / "cold" / w.name
        shutil.rmtree(root, ignore_errors=True)
        cache = CountingCache(root)
        self.attempted += build.size
        try:
            started = time.perf_counter()
            library = harness.prepare_library(build, cache=cache)
            self.op_s.append(time.perf_counter() - started)
        except Exception:
            traceback.print_exc()
            self.failed += build.size
            return None
        self._count_cache(cache)
        cold = cache.hits == 0 and cache.stores == build.size
        self.void |= not self.check("cold solve misses the empty cache", cold)
        for k, (model, policy) in enumerate(zip(library.models, library.policies)):
            values = np.asarray(policy.stage_values)
            self.solved["stages"] += len(values) - 1
            self.solved["vectors"] += len(policy)
            ok = self.check("stage values never decrease by more than 1e-9", bool(np.all(np.diff(values) >= -1e-9)))
            if w.b0_reference:
                gap = abs(values[-1] - w.b0_reference[k])
                ok &= self.check(f"b0 value within {w.b0_tolerance} of the reference", gap <= w.b0_tolerance)
            mdp_value = solvers.value_iteration(induced_mdp(model)).values
            ceiling = float(model.initial_belief @ mdp_value)
            ok &= self.check("b0 value at most the fully observable value", values[-1] <= ceiling + 1e-6)
            self.failed += not ok
        return library

    def _experiment(self, library, build, timed: bool) -> None:
        w = self.workload
        base_seed = int(self.rng.integers(2**31))
        trials = w.trials * len(ROSTER)
        self.attempted += trials
        try:
            started = time.perf_counter()
            result = harness.run_experiment(
                library, ROSTER, build.horizon, trials=w.trials, base_seed=base_seed, label=w.name
            )
            harness.emit_reports(result, self.workdir / "reports" / w.name)
            elapsed = time.perf_counter() - started
        except Exception:
            traceback.print_exc()
            self.failed += trials
            return
        if timed:
            self.op_s.append(elapsed)
        self.experiments.append(result)
        violations = sum(1 for t in result.agents["atpo"].trials if t.bound is None or not t.bound.satisfied)
        self.check("every ATPO trial within its loss bound", violations == 0)
        self.failed += violations

    def _check_library(self, library, build) -> None:
        identical = all(
            backup_matches_lookahead(model, policy, solvers.collect_beliefs(model, 8, build.horizon, self.rng))
            for model, policy in zip(library.models, library.policies)
        )
        self.void |= not self.check("backed-up value equals the lookahead value", identical)

    def _check_experiments(self, library, build) -> None:
        w = self.workload
        if not self.experiments:
            return
        first = self.experiments[0]
        for name in ROSTER:
            original = first.agents[name].trials[0]
            again = harness.run_trial(library, agents.make_agent(name, library), build.horizon, seed=original.seed)
            same = again.actions == original.actions and again.total_return == original.total_return
            self.failed += not self.check("a trial repeated with its seed plays the same", same)
        if w.min_atpo_score is not None:
            means = {
                name: statistics.fmean(t.total_return for r in self.experiments for t in r.agents[name].trials)
                for name in ROSTER
            }
            span = means["vi"] - means["random"]
            if span > 0:
                self.atpo_score = 100.0 * (means["atpo"] - means["random"]) / span
            passed = self.atpo_score is not None and self.atpo_score >= w.min_atpo_score
            if not self.check(f"ATPO normalized score at least {w.min_atpo_score}", passed):
                self.failed += w.trials * len(self.experiments)

    # -- results -------------------------------------------------------------

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(passed == checked for passed, checked in self.checks.values())

    def step_us(self, percentile: float) -> Optional[float]:
        return float(np.percentile(np.asarray(self.steps) * 1e6, percentile)) if self.steps else None

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "work_s": (statistics.median(self.op_s) if self.op_s else None, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self, s: dict, span_cost: float) -> dict:
        """Per-layer metrics from a tracer summary and the cost of one span."""
        total, calls = s["total_s"], s["calls"]

        def seconds(name):
            return total.get(name, 0.0)

        def per_call(name, scale):
            return scale * total[name] / calls[name] if calls.get(name) else 0.0

        out = {}
        for layer in spans.LAYERS:
            out[f"{layer}.total_s"] = (s["layer_total_s"][layer], "s")
            out[f"{layer}.self_s"] = (s["layer_self_s"][layer], "s")
        lookups = self.cache["lookups"]
        out.update(
            {
                "domains.build_s": (seconds("domains.build"), "s"),
                "modelio.model_digest_s": (seconds("modelio.model_digest"), "s"),
                "modelio.model_digest_calls": (calls.get("modelio.model_digest", 0), "count"),
                "solvers.point_backup_us": (per_call("solvers.point_backup", 1e6), "us"),
                "solvers.point_backup_calls": (calls.get("solvers.point_backup", 0), "count"),
                "solvers.stages": (self.solved["stages"], "count"),
                "solvers.vectors": (self.solved["vectors"], "count"),
                "solvers.collect_beliefs_s": (seconds("solvers.collect_beliefs"), "s"),
                "solvers.cache_io_s": (seconds("solvers.cache_load") + seconds("solvers.cache_store"), "s"),
                "solvers.cache_stores": (self.cache["stores"], "count"),
                "solvers.cache_hit_ratio": (self.cache["hits"] / lookups if lookups else 0.0, "ratio"),
                "solvers.loss_all_us": (per_call("solvers.loss_all", 1e6), "us"),
                "solvers.value_iteration_s": (seconds("solvers.value_iteration"), "s"),
                "pomdp.belief_update_us": (per_call("pomdp.belief_update", 1e6), "us"),
                "pomdp.belief_update_calls": (calls.get("pomdp.belief_update", 0), "count"),
                "pomdp.simulate_step_us": (per_call("pomdp.simulate_step", 1e6), "us"),
                "atpo.act_us": (per_call("atpo.act", 1e6), "us"),
                "atpo.update_us": (per_call("atpo.update", 1e6), "us"),
                "atpo.policy_loss_row_us": (per_call("atpo.policy_loss_row", 1e6), "us"),
                "harness.run_trial_ms": (per_call("harness.run_trial", 1e3), "ms"),
                "harness.emit_reports_s": (seconds("harness.emit_reports"), "s"),
                "tracing.overhead_s": (len(self.tracer.spans) * span_cost, "s"),
            }
        )
        return out
