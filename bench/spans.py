"""Span recording around calls into the adhocpo package, for the traced run.

A span is (name, start, end, parent, run id).  Spans are kept in memory
and written out when the run ends.  Calls are wrapped where their caller
looks the name up: several modules bind package functions with
``from ... import``, so wrapping only the defining module would miss
those calls.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import Counter, defaultdict

from adhocpo import agents, atpo, domains, harness, modelio, pomdp, solvers

LAYERS = ("domains", "modelio", "solvers", "pomdp", "atpo", "agents", "harness")

# (span name, objects whose attribute the callers read, attribute name)
FUNCTIONS = [
    ("domains.build", [domains], "build"),
    ("modelio.model_digest", [modelio, solvers], "model_digest"),
    ("solvers.solve_with_cache", [solvers, harness], "solve_with_cache"),
    ("solvers.perseus_solve", [solvers], "perseus_solve"),
    ("solvers.collect_beliefs", [solvers], "collect_beliefs"),
    ("solvers.point_backup", [solvers], "point_backup"),
    ("solvers.cache_load", [solvers.PolicyCache], "load"),
    ("solvers.cache_store", [solvers.PolicyCache], "store"),
    ("solvers.loss_all", [solvers, atpo], "loss_all"),
    ("solvers.value_iteration", [solvers, agents], "value_iteration"),
    ("pomdp.belief_update", [pomdp, solvers, atpo, agents], "belief_update"),
    ("pomdp.simulate_step", [pomdp, solvers, harness], "simulate_step"),
    ("atpo.act", [atpo], "act"),
    ("atpo.update", [atpo], "update"),
    ("atpo.policy_loss_row", [atpo], "policy_loss_row"),
    ("atpo.check_bound", [atpo], "check_bound"),
    ("agents.make_agent", [agents, harness], "make_agent"),
    ("harness.prepare_library", [harness], "prepare_library"),
    ("harness.run_experiment", [harness], "run_experiment"),
    ("harness.run_trial", [harness], "run_trial"),
    ("harness.emit_reports", [harness], "emit_reports"),
]

# Agent classes in the benchmark rosters; their own methods are wrapped.
AGENT_CLASSES = [agents.AtpoAgent, agents.OracleViAgent, agents.RandomAgent]
AGENT_METHODS = ("reset", "act", "observe")


class Tracer:
    """Collects spans; nesting comes from the stack of open spans."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.run_id = ""
        self._open: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [name, 0.0, 0.0, parent, self.run_id]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for name, owners, attr in FUNCTIONS:
                for owner in owners:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            for cls in AGENT_CLASSES:
                for attr in AGENT_METHODS:
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        saved.append((cls, attr, original))
                        setattr(cls, attr, self.wrap(f"agents.{cls.__name__}.{attr}", original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "run"])
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, run])

    def summary(self) -> dict:
        """Per-name calls, total and self seconds; per-layer total and self.

        Self time is a span's duration minus that of its direct children.
        A layer's total counts only its outermost spans, so a layer calling
        itself is not counted twice.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        layer_total: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            layer = name.split(".", 1)[0]
            ancestor = parent
            while ancestor >= 0 and not self.spans[ancestor][0].startswith(layer + "."):
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                layer_total[layer] += end - start
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "layer_total_s": {layer: layer_total[layer] for layer in LAYERS},
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
        }


def span_cost_s(samples: int = 20000, repeats: int = 5) -> float:
    """Median added cost of one span, from wrapping a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        costs.append((time.perf_counter() - started - bare) / samples)
    costs.sort()
    return costs[len(costs) // 2]
