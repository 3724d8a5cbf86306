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
import os
import sys
from pathlib import Path

from adhocpo import domains
from adhocpo.agents import AGENT_NAMES, CapabilityError, check_likelihood_floor, make_agent
from adhocpo.domains import DOMAIN_NAMES, DomainBuild
from adhocpo.harness import (
    check_agent_names,
    check_seed,
    check_trials,
    emit_reports,
    prepare_library,
    run_experiment,
    run_library_scaling,
)
from adhocpo.modelio import FORMAT_TAG, dump_model, load_model, read_text
from adhocpo.pomdp import validate as validate_model
from adhocpo.solvers import PolicyCache, solve_many

CACHE_ENV = "ADHOCPO_CACHE"
DEFAULT_CACHE = Path.home() / ".cache" / "adhocpo"

def _add_domain_arguments(parser: argparse.ArgumentParser, model_file_ok: bool = False):
    what = "domain name or domain spec file"
    if model_file_ok:
        what += " or model file"
    parser.add_argument("domain", help=f"{what} (domains: {', '.join(DOMAIN_NAMES)})")
    group = parser.add_argument_group("domain overrides")
    for _, flag, keyword, kind, help_text in domains.SETTINGS:
        metavar = flag[2:].upper().replace("-", "_")
        group.add_argument(flag, dest=keyword, metavar=metavar, type=kind, default=None, help=help_text)


def _overrides(args) -> dict:
    """The override flags given, keyed by build() keyword."""
    values = {keyword: getattr(args, keyword) for _, _, keyword, _, _ in domains.SETTINGS}
    return {keyword: value for keyword, value in values.items() if value is not None}


def _is_model_file(path: Path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.readline().strip() == FORMAT_TAG.encode()
    except OSError:
        return False


def _requested(args) -> tuple:
    """(registry name, overrides): a name or a spec file, with flag overrides on top."""
    candidate = Path(args.domain)
    if candidate.is_file():
        if _is_model_file(candidate):
            raise ValueError(f"{args.domain} is a model file; only solve and validate take model files")
        name, overrides = domains.parse_domain_spec(read_text(candidate, ValueError))
    else:
        name, overrides = args.domain, {}
    return name, {**overrides, **_overrides(args)}


def _resolve_build(args) -> DomainBuild:
    name, overrides = _requested(args)
    return domains.build(name, **overrides)


def _resolve_models(args):
    """(models, settings, label) from a model file or a domain."""
    candidate = Path(args.domain)
    if candidate.is_file() and _is_model_file(candidate):
        model = load_model(candidate)
        overrides = {"belief_set_size": 500, "horizon": 50, **_overrides(args)}
        settings = domains.pop_solver_settings(overrides)
        if overrides:
            raise ValueError(f"a model file does not take {', '.join(map(repr, overrides))}")
        return [model], settings, model.label or candidate.stem
    build = _resolve_build(args)
    return build.models, build.solver, build.name


def _cache(args) -> PolicyCache:
    return PolicyCache(args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE)


def cmd_solve(args) -> int:
    models, settings, label = _resolve_models(args)
    if _is_model_file(Path(args.domain)):
        # A model file is outside input: refuse what `validate` rejects
        # before anything is solved or cached.
        problems = validate_model(models[0])
        if problems:
            raise ValueError(f"{args.domain}: {problems[0]}")
    cache = _cache(args)
    print(f"{label}: {len(models)} model(s), cache {cache.root}")
    for model, (policy, cached) in zip(models, solve_many(models, settings, cache=cache, progress=print)):
        origin = "cached" if cached else "solved"
        path = cache.path(policy.source_digest, settings)
        print(f"  {model.label}: {origin} -> {path.name}")
    return 0


def cmd_run(args) -> int:
    build = _resolve_build(args)
    requested = AGENT_NAMES if args.agent == "all" else tuple(args.agent.split(","))
    # Refuse bad values before the library is solved, not after.
    check_agent_names(requested)
    check_trials(args.trials)
    check_seed(args.seed)
    if "atpo" in requested:
        check_likelihood_floor(args.likelihood_floor)

    cache = _cache(args)
    library = prepare_library(build, cache=cache, progress=print)

    names = []
    for name in requested:
        try:
            make_agent(name, library, greedy=args.greedy, likelihood_floor=args.likelihood_floor)
            names.append(name)
        except CapabilityError as err:
            if args.agent == "all":
                print(f"skipping {name}: {err}")
            else:
                print(f"cannot run {name}: {err}", file=sys.stderr)
                return 2

    result = run_experiment(
        library,
        names,
        horizon=build.horizon,
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
    if args.tasks is not None:
        raise ValueError("scale sweeps the library size: give it with --sizes, not --tasks")
    sizes = set()
    for text in args.sizes.split(","):
        try:
            sizes.add(int(text))
        except ValueError:
            raise ValueError(f"--sizes: {text!r} is not an integer") from None
    sizes = sorted(sizes)
    if sizes[0] < 1:
        raise ValueError(f"library sizes must be positive, got {sizes[0]}")
    name, overrides = _requested(args)
    if not domains.takes(name, "tasks"):
        raise ValueError(f"domain {args.domain!r} has no task-library size to sweep")
    check_trials(args.trials)
    check_seed(args.seed)
    build = domains.build(name, **{**overrides, "tasks": max(sizes)})

    cache = _cache(args)
    library = prepare_library(build, cache=cache, progress=print)
    # Task enumerations nest, so each smaller library is a prefix.
    libraries = {
        k: type(library)(library.models[:k], library.policies[:k]) for k in sizes
    }
    results = run_library_scaling(
        libraries,
        horizon=build.horizon,
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
    except (ValueError, CapabilityError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
