"""Benchmark domain registry.

Every domain builds a library of candidate models that share the action
and observation interfaces, together with the evaluation horizon, noise
rate and reference solver settings.  `build(name, **overrides)` calls
the domain's builder with its registered defaults; overrides must match
the builder's keyword arguments (for example `size` or `tasks` to get a
scaled-down instance for quick experiments).
"""
from __future__ import annotations

import dataclasses

from adhocpo.domains.base import DomainBuild
from adhocpo.domains.gridworld import build_gridworld
from adhocpo.domains.mapnav import build_map_navigation
from adhocpo.domains.overcooked import build_overcooked
from adhocpo.domains.powerplant import build_power_plant
from adhocpo.domains.pursuit import build_pursuit


@dataclasses.dataclass
class DomainSpec:
    name: str
    builder: object
    defaults: dict
    summary: str


REGISTRY = {
    spec.name: spec
    for spec in [
        DomainSpec(
            "gridworld",
            build_gridworld,
            {"size": 5, "tasks": 2, "epsilon": 0.2, "horizon": 50, "belief_set_size": 5000},
            "open 5x5 grid, rendezvous on an unknown goal pair",
        ),
        DomainSpec(
            "pursuit-task",
            build_pursuit,
            {"size": 5, "variant": "task", "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
            "toroidal pursuit, unknown capture configuration",
        ),
        DomainSpec(
            "pursuit-teammate",
            build_pursuit,
            {"size": 5, "variant": "teammate", "epsilon": 0.15, "horizon": 85, "belief_set_size": 5000},
            "toroidal pursuit, unknown teammate policy",
        ),
        DomainSpec(
            "pursuit-both",
            build_pursuit,
            {"size": 5, "variant": "both", "epsilon": 0.15, "horizon": 85, "belief_set_size": 5000},
            "toroidal pursuit, unknown configuration and teammate",
        ),
        DomainSpec(
            "power-plant",
            build_power_plant,
            {"epsilon": 0.2, "horizon": 50, "belief_set_size": 2500},
            "six-room plant, cleanup or survey task (distinct state spaces)",
        ),
        DomainSpec(
            "ntu",
            build_map_navigation,
            {"map_name": "ntu", "tasks": 4, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
            "ntu office map, rendezvous on an unknown goal pair",
        ),
        DomainSpec(
            "overcooked",
            build_overcooked,
            {"horizon": 50, "belief_set_size": 1800},
            "two-level kitchen, unknown cook policy",
        ),
        DomainSpec(
            "isr",
            build_map_navigation,
            {"map_name": "isr", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
            "isr office map, rendezvous on an unknown goal pair",
        ),
        DomainSpec(
            "mit",
            build_map_navigation,
            {"map_name": "mit", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
            "mit corridor map, rendezvous on an unknown goal pair",
        ),
        DomainSpec(
            "pentagon",
            build_map_navigation,
            {"map_name": "pentagon", "tasks": 3, "epsilon": 0.2, "horizon": 75, "belief_set_size": 5000},
            "pentagon office map, rendezvous on an unknown goal pair",
        ),
        DomainSpec(
            "cit",
            build_map_navigation,
            {"map_name": "cit", "tasks": 3, "epsilon": 0.1, "horizon": 85, "belief_set_size": 8000},
            "cit office map, rendezvous on an unknown goal pair",
        ),
    ]
}

DOMAIN_NAMES = tuple(REGISTRY)


def build(name: str, **overrides) -> DomainBuild:
    """Build a registered domain with its defaults plus any overrides."""
    if name not in REGISTRY:
        known = ", ".join(DOMAIN_NAMES)
        raise ValueError(f"unknown domain {name!r}; known domains: {known}")
    spec = REGISTRY[name]
    kwargs = dict(spec.defaults)
    kwargs.update(overrides)
    return spec.builder(**kwargs)


# Keys a domain spec file may set, mapped to builder keyword arguments.
_SPEC_KEYS = {
    "size": ("size", int),
    "tasks": ("tasks", int),
    "variant": ("variant", str),
    "map": ("map_name", str),
    "epsilon": ("epsilon", float),
    "horizon": ("horizon", int),
    "discount": ("discount", float),
    "beliefs": ("belief_set_size", int),
    "tolerance": ("tolerance", float),
    "seed": ("solver_seed", int),
}


def parse_domain_spec(text: str) -> tuple:
    """Parse a domain spec: `key value` lines, '#' comments allowed.

    The `domain` key is required and names a registry entry; the other
    keys override that entry's defaults.  Returns (name, overrides).
    """
    name = None
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"domain spec line {lineno}: expected 'key value'")
        key, value = parts
        if key == "domain":
            name = value.strip()
        elif key in _SPEC_KEYS:
            target, cast = _SPEC_KEYS[key]
            try:
                overrides[target] = cast(value.strip())
            except ValueError:
                raise ValueError(
                    f"domain spec line {lineno}: bad value {value.strip()!r} for {key}"
                ) from None
        else:
            known = ", ".join(["domain", *sorted(_SPEC_KEYS)])
            raise ValueError(f"domain spec line {lineno}: unknown key {key!r} (known: {known})")
    if name is None:
        raise ValueError("domain spec never sets 'domain'")
    return name, overrides


__all__ = [
    "DomainBuild",
    "DomainSpec",
    "REGISTRY",
    "DOMAIN_NAMES",
    "build",
    "parse_domain_spec",
    "build_gridworld",
    "build_map_navigation",
    "build_overcooked",
    "build_power_plant",
    "build_pursuit",
]
