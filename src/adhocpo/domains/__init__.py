"""Benchmark domain registry.

Each domain's builder makes the library of candidate models, which share
the action and observation interfaces; it takes only the keywords that
shape the models.  `build(name, **overrides)` is the one place that turns
a registry entry into a `DomainBuild`: it lays the overrides over the
entry's defaults, gives the solver keywords (`horizon`,
`belief_set_size`, `tolerance`, `solver_seed`) to `SolverSettings` and
the rest to the builder.  A keyword that neither takes is an error, so
`build("gridworld", size=3, tasks=2)` gives a scaled-down instance and
`build("overcooked", epsilon=0.1)` raises `ValueError`.
"""
from __future__ import annotations

import dataclasses
import inspect

from adhocpo.domains.gridworld import build_gridworld
from adhocpo.domains.mapnav import build_map_navigation
from adhocpo.domains.overcooked import build_overcooked
from adhocpo.domains.powerplant import build_power_plant
from adhocpo.domains.pursuit import build_pursuit
from adhocpo.solvers import SolverSettings


@dataclasses.dataclass
class DomainBuild:
    """A benchmark instance: candidate models plus the solver settings.

    models[k] describes the environment when candidate k is the one in
    play; solver holds the reference settings used to produce the
    per-model policies, and its horizon is the evaluation horizon too.
    """

    name: str
    models: list
    solver: SolverSettings

    @property
    def horizon(self) -> int:
        return self.solver.horizon

    @property
    def size(self) -> int:
        return len(self.models)


@dataclasses.dataclass
class DomainSpec:
    name: str
    builder: object
    defaults: dict


REGISTRY = {
    spec.name: spec
    for spec in [
        DomainSpec(
            "gridworld",
            build_gridworld,
            {"size": 5, "tasks": 2, "epsilon": 0.2, "horizon": 50, "belief_set_size": 5000},
        ),
        DomainSpec(
            "pursuit-task",
            build_pursuit,
            {"size": 5, "variant": "task", "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
        ),
        DomainSpec(
            "pursuit-teammate",
            build_pursuit,
            {"size": 5, "variant": "teammate", "epsilon": 0.15, "horizon": 85, "belief_set_size": 5000},
        ),
        DomainSpec(
            "pursuit-both",
            build_pursuit,
            {"size": 5, "variant": "both", "epsilon": 0.15, "horizon": 85, "belief_set_size": 5000},
        ),
        DomainSpec(
            "power-plant",
            build_power_plant,
            {"epsilon": 0.2, "horizon": 50, "belief_set_size": 2500},
        ),
        DomainSpec(
            "ntu",
            build_map_navigation,
            {"map_name": "ntu", "tasks": 4, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
        ),
        DomainSpec(
            "overcooked",
            build_overcooked,
            {"horizon": 50, "belief_set_size": 1800},
        ),
        DomainSpec(
            "isr",
            build_map_navigation,
            {"map_name": "isr", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
        ),
        DomainSpec(
            "mit",
            build_map_navigation,
            {"map_name": "mit", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
        ),
        DomainSpec(
            "pentagon",
            build_map_navigation,
            {"map_name": "pentagon", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
        ),
        DomainSpec(
            "cit",
            build_map_navigation,
            {"map_name": "cit", "tasks": 3, "epsilon": 0.1, "horizon": 85, "belief_set_size": 8000},
        ),
    ]
}

DOMAIN_NAMES = tuple(REGISTRY)

# Every discount is this unless overridden.
DISCOUNT = 0.95

# Every setting a domain spec file or a CLI flag can override, as
# (spec key, CLI flag, build() keyword, type, help).  The trial seed owns
# --seed, so the solver's seed is --solver-seed.
SETTINGS = (
    ("size", "--size", "size", int, "grid side length (square domains)"),
    ("tasks", "--tasks", "tasks", int, "library size for task-library domains"),
    ("variant", "--variant", "variant", str, "domain variant selector"),
    ("map", "--map", "map_name", str, "floor plan name (map domains)"),
    ("epsilon", "--epsilon", "epsilon", float, "action/sensor noise rate"),
    ("horizon", "--horizon", "horizon", int, "episode and solver horizon"),
    ("discount", "--discount", "discount", float, "discount factor"),
    ("beliefs", "--beliefs", "belief_set_size", int, "solver belief set size"),
    ("tolerance", "--tolerance", "tolerance", float, "solver stop tolerance"),
    ("seed", "--solver-seed", "solver_seed", int, "solver RNG seed"),
)

# The build() keywords that set up the solver, with their SolverSettings
# fields; every other keyword goes to the domain's builder.
_SOLVER_KEYWORDS = {
    "belief_set_size": "belief_set_size",
    "horizon": "horizon",
    "tolerance": "tolerance",
    "solver_seed": "seed",
}


def pop_solver_settings(kwargs: dict) -> SolverSettings:
    """SolverSettings from the solver keywords in `kwargs`, removing them there.

    A field that `kwargs` does not set keeps its SolverSettings default.
    """
    return SolverSettings(**{
        field: kwargs.pop(keyword)
        for keyword, field in _SOLVER_KEYWORDS.items()
        if keyword in kwargs
    })


def _spec(name: str) -> DomainSpec:
    if name not in REGISTRY:
        known = ", ".join(DOMAIN_NAMES)
        raise ValueError(f"unknown domain {name!r}; known domains: {known}")
    return REGISTRY[name]


def takes(name: str, keyword: str) -> bool:
    """Whether `build(name, ...)` accepts `keyword`."""
    return keyword in _SOLVER_KEYWORDS or keyword in inspect.signature(_spec(name).builder).parameters


def build(name: str, **overrides) -> DomainBuild:
    """Build a registered domain with its defaults plus any overrides.

    An `epsilon` outside [0, 1], a `discount` outside [0, 1), or a `tasks`
    count or `size` below 1 is a `ValueError`.
    """
    spec = _spec(name)
    for keyword in overrides:
        if not takes(name, keyword):
            raise ValueError(f"domain {name!r} does not take {keyword!r}")
    kwargs = {"discount": DISCOUNT, **spec.defaults, **overrides}
    epsilon, discount = kwargs.get("epsilon", 0.0), kwargs["discount"]
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {discount!r}")
    if kwargs.get("tasks", 1) < 1:
        raise ValueError(f"tasks must be at least 1, got {kwargs['tasks']!r}")
    if kwargs.get("size", 1) < 1:
        raise ValueError(f"size must be at least 1, got {kwargs['size']!r}")
    solver = pop_solver_settings(kwargs)
    built = spec.builder(**kwargs)
    label, models = built if isinstance(built, tuple) else (name, built)
    return DomainBuild(label, models, solver)


def parse_domain_spec(text: str) -> tuple:
    """Parse a domain spec: `key value` lines, '#' comments allowed.

    The `domain` key is required and names a registry entry; the other
    keys (the spec keys of SETTINGS) override that entry's defaults.  A key
    may appear once.  Returns (name, overrides), keyed by build() keyword.
    """
    keys = {key: (keyword, kind) for key, _, keyword, kind, _ in SETTINGS}
    name = None
    overrides = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"domain spec line {lineno}: expected 'key value'")
        key, value = parts
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"domain spec line {lineno}: repeated key {key!r}, first on line {first_line[key]}")
        if key == "domain":
            name = value.strip()
        elif key in keys:
            keyword, kind = keys[key]
            try:
                overrides[keyword] = kind(value.strip())
            except ValueError:
                raise ValueError(
                    f"domain spec line {lineno}: bad value {value.strip()!r} for {key}"
                ) from None
        else:
            known = ", ".join(["domain", *sorted(keys)])
            raise ValueError(f"domain spec line {lineno}: unknown key {key!r} (known: {known})")
    if name is None:
        raise ValueError("domain spec never sets 'domain'")
    return name, overrides


__all__ = [
    "DISCOUNT",
    "DomainBuild",
    "DomainSpec",
    "REGISTRY",
    "DOMAIN_NAMES",
    "SETTINGS",
    "build",
    "parse_domain_spec",
    "pop_solver_settings",
    "takes",
    "build_gridworld",
    "build_map_navigation",
    "build_overcooked",
    "build_power_plant",
    "build_pursuit",
]
