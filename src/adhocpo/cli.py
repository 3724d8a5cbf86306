"""Command line interface.

Subcommands:
  solve     build models and store their point-based policies in the cache
  run       seeded trials for selected agents, with report files
  scale     sweep the library size on a task-library domain
  export    write compiled models in the text model format
  validate  check the stochastic structure of every model

The DOMAIN argument is either a registered domain name or a path to a
domain spec file (`key value` lines).  `solve` and `validate` also
accept a single model file in the text format.  The policy cache
location comes from --cache-dir, else the ADHOCPO_CACHE environment
variable, else ~/.cache/adhocpo.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from adhocpo import domains
from adhocpo.agents import AGENT_NAMES, CapabilityError, make_agent
from adhocpo.domains import DOMAIN_NAMES, DomainBuild
from adhocpo.harness import (
    emit_reports,
    prepare_library,
    run_experiment,
    run_library_scaling,
)
from adhocpo.modelio import FORMAT_TAG, dump_model, load_model, model_digest
from adhocpo.pomdp import validate as validate_model
from adhocpo.solvers import PolicyCache, SolverSettings, resolve_cache_dir, solve_many

DEFAULT_CACHE = Path.home() / ".cache" / "adhocpo"

_OVERRIDE_FLAGS = (
    ("--size", int, "grid side length (square domains)"),
    ("--tasks", int, "library size for task-library domains"),
    ("--variant", str, "domain variant selector"),
    ("--map", str, "floor plan name (map domains)"),
    ("--epsilon", float, "action/sensor noise rate"),
    ("--horizon", int, "episode and solver horizon"),
    ("--discount", float, "discount factor"),
    ("--beliefs", int, "solver belief set size"),
    ("--tolerance", float, "solver stop tolerance"),
    ("--solver-seed", int, "solver RNG seed"),
)

_FLAG_TO_KWARG = {
    "size": "size",
    "tasks": "tasks",
    "variant": "variant",
    "map": "map_name",
    "epsilon": "epsilon",
    "horizon": "horizon",
    "discount": "discount",
    "beliefs": "belief_set_size",
    "tolerance": "tolerance",
    "solver_seed": "solver_seed",
}


def _add_domain_arguments(parser: argparse.ArgumentParser, model_file_ok: bool = False):
    what = "domain name or domain spec file"
    if model_file_ok:
        what += " or model file"
    parser.add_argument("domain", help=f"{what} (domains: {', '.join(DOMAIN_NAMES)})")
    group = parser.add_argument_group("domain overrides")
    for flag, kind, help_text in _OVERRIDE_FLAGS:
        group.add_argument(flag, type=kind, default=None, help=help_text)


def _overrides(args) -> dict:
    out = {}
    for flag, kwarg in _FLAG_TO_KWARG.items():
        value = getattr(args, flag, None)
        if value is not None:
            out[kwarg] = value
    return out


def _is_model_file(path: Path) -> bool:
    try:
        with open(path) as fh:
            return fh.readline().strip() == FORMAT_TAG
    except OSError:
        return False


def _resolve_build(args) -> DomainBuild:
    """A registry name, or a spec file with flag overrides on top."""
    candidate = Path(args.domain)
    if candidate.is_file():
        name, spec_overrides = domains.parse_domain_spec(candidate.read_text())
        spec_overrides.update(_overrides(args))
        return domains.build(name, **spec_overrides)
    return domains.build(args.domain, **_overrides(args))


def _resolve_models(args):
    """(models, settings, label) from a model file or a domain."""
    candidate = Path(args.domain)
    if candidate.is_file() and _is_model_file(candidate):
        model = load_model(candidate)
        settings = SolverSettings(
            belief_set_size=args.beliefs or 500,
            horizon=args.horizon or 50,
            tolerance=args.tolerance or 0.01,
            seed=args.solver_seed or 0,
        )
        return [model], settings, model.label or candidate.stem
    build = _resolve_build(args)
    return build.models, build.solver, build.name


def _cache(args) -> PolicyCache:
    root = resolve_cache_dir(args.cache_dir) or DEFAULT_CACHE
    return PolicyCache(root)


def cmd_solve(args) -> int:
    models, settings, label = _resolve_models(args)
    cache = _cache(args)
    print(f"{label}: {len(models)} model(s), cache {cache.root}")
    for model, (policy, cached) in zip(models, solve_many(models, settings, cache=cache, progress=print)):
        origin = "cached" if cached else "solved"
        path = cache.path(policy.source_digest or model_digest(model), settings)
        print(f"  {model.label}: {origin} -> {path.name}")
    return 0


def cmd_run(args) -> int:
    build = _resolve_build(args)
    requested = AGENT_NAMES if args.agent == "all" else tuple(args.agent.split(","))
    for name in requested:
        if name not in AGENT_NAMES:
            print(f"unknown agent {name!r}; choices: {', '.join(AGENT_NAMES)}", file=sys.stderr)
            return 2

    cache = _cache(args)
    library = prepare_library(build, cache=cache, progress=print)

    names = []
    for name in requested:
        try:
            make_agent(name, library)
            names.append(name)
        except CapabilityError as err:
            if args.agent == "all":
                print(f"skipping {name}: {err}")
            else:
                print(f"cannot run {name}: {err}", file=sys.stderr)
                return 2

    horizon = args.horizon or build.horizon
    result = run_experiment(
        library,
        names,
        horizon=horizon,
        trials=args.trials,
        base_seed=args.seed,
        label=build.name,
        greedy=args.greedy,
        likelihood_floor=args.likelihood_floor,
        progress=print,
    )
    out = Path(args.out) if args.out else Path("results") / build.name
    emit_reports(result, out, traces=args.traces)
    print(f"reports in {out}")
    return 0


def cmd_scale(args) -> int:
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    if any(s < 1 for s in sizes):
        print("library sizes must be positive", file=sys.stderr)
        return 2
    overrides = _overrides(args)
    overrides["tasks"] = max(sizes)
    candidate = Path(args.domain)
    if candidate.is_file():
        name, spec_overrides = domains.parse_domain_spec(candidate.read_text())
        spec_overrides.update(overrides)
        overrides = spec_overrides
    else:
        name = args.domain
    try:
        build = domains.build(name, **overrides)
    except TypeError:
        print(f"domain {name!r} has no task-library size to sweep", file=sys.stderr)
        return 2

    cache = _cache(args)
    library = prepare_library(build, cache=cache, progress=print)
    # Task enumerations nest, so each smaller library is a prefix.
    libraries = {
        k: type(library)(library.models[:k], library.policies[:k]) for k in sizes
    }
    horizon = args.horizon or build.horizon
    results = run_library_scaling(
        libraries,
        horizon=horizon,
        trials=args.trials,
        base_seed=args.seed,
        label=build.name,
        progress=print,
    )

    out = Path(args.out) if args.out else Path("results") / f"{build.name}-scale"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scale.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["library_size", "agent", "mean_return", "std_return", "normalized_score"])
        for k in sizes:
            for agent_name, summary in results[k].agents.items():
                writer.writerow([
                    k,
                    agent_name,
                    repr(summary.mean),
                    repr(summary.std),
                    "" if summary.normalized is None else repr(summary.normalized),
                ])
    for k in sizes:
        emit_reports(results[k], out / f"K{k}")
    print(f"scale table in {out / 'scale.csv'}")
    return 0


def cmd_export(args) -> int:
    build = _resolve_build(args)
    out = Path(args.out) if args.out else Path("exported-models") / build.name
    out.mkdir(parents=True, exist_ok=True)
    for i, model in enumerate(build.models):
        path = out / f"{build.name}-{i:02d}.model"
        dump_model(model, path)
        print(f"wrote {path} ({model.num_states} states)")
    return 0


def cmd_validate(args) -> int:
    models, _, label = _resolve_models(args)
    bad = 0
    for model in models:
        issues = validate_model(model)
        if issues:
            bad += 1
            print(f"{model.label}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue}")
        else:
            print(f"{model.label}: ok")
    print(f"{label}: {len(models) - bad}/{len(models)} models valid")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocpo",
        description="Ad hoc teamwork under partial observability: solving and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve models into the policy cache")
    _add_domain_arguments(p_solve, model_file_ok=True)
    p_solve.add_argument("--cache-dir", default=None, help="policy cache directory")
    p_solve.set_defaults(func=cmd_solve)

    p_run = sub.add_parser("run", help="run seeded trials and write reports")
    _add_domain_arguments(p_run)
    p_run.add_argument("--agent", default="all",
                       help="agent name, comma list, or 'all' "
                            f"(choices: {', '.join(AGENT_NAMES)})")
    p_run.add_argument("--trials", type=int, default=32, help="trials per agent")
    p_run.add_argument("--seed", type=int, default=0, help="base trial seed")
    p_run.add_argument("--out", default=None, help="report directory")
    p_run.add_argument("--cache-dir", default=None, help="policy cache directory")
    p_run.add_argument("--traces", action="store_true", help="write per-trial posterior traces")
    p_run.add_argument("--greedy", action="store_true",
                       help="mixture argmax instead of sampling (atpo, bopa)")
    p_run.add_argument("--likelihood-floor", type=float, default=0.0,
                       help="keep zero-likelihood models alive at this evidence level (atpo)")
    p_run.set_defaults(func=cmd_run)

    p_scale = sub.add_parser("scale", help="sweep the library size")
    _add_domain_arguments(p_scale)
    p_scale.add_argument("--sizes", default="2,4,8", help="comma list of library sizes")
    p_scale.add_argument("--trials", type=int, default=32, help="trials per agent and size")
    p_scale.add_argument("--seed", type=int, default=0, help="base trial seed")
    p_scale.add_argument("--out", default=None, help="report directory")
    p_scale.add_argument("--cache-dir", default=None, help="policy cache directory")
    p_scale.set_defaults(func=cmd_scale)

    p_export = sub.add_parser("export", help="write models in the text format")
    _add_domain_arguments(p_export)
    p_export.add_argument("--out", default=None, help="output directory")
    p_export.set_defaults(func=cmd_export)

    p_validate = sub.add_parser("validate", help="check model structure")
    _add_domain_arguments(p_validate, model_file_ok=True)
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapabilityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
