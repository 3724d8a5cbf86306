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
from adhocpo.agents import AGENT_NAMES, CapabilityError
from adhocpo.domains import DOMAIN_NAMES, DomainBuild
from adhocpo.domains.gridcommon import TooFewTasks
from adhocpo.harness import SCALING_AGENTS, emit_reports, plan_experiment, prepare_library
from adhocpo.modelio import FORMAT_TAG, dump_model, load_model, read_text
from adhocpo.pomdp import validate as validate_model
from adhocpo.solvers import PolicyCache, solve_many

CACHE_ENV = "ADHOCPO_CACHE"
DEFAULT_CACHE = Path.home() / ".cache" / "adhocpo"

def _add_domain_arguments(parser: argparse.ArgumentParser, model_files: bool = False):
    """The domain argument and its override flags; `model_files` says whether
    the command also takes a model file, for the help text and for `_build`."""
    what = "domain name or domain spec file" + (" or model file" if model_files else "")
    parser.add_argument("domain", help=f"{what} (domains: {', '.join(DOMAIN_NAMES)})")
    parser.set_defaults(model_files=model_files)
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


def _build(args) -> DomainBuild:
    """The build the domain argument names; where the command takes model files,
    a model file is a one-model build, by default with 500 beliefs and horizon 50."""
    candidate = Path(args.domain)
    if args.model_files and _is_model_file(candidate):
        model = load_model(candidate)
        overrides = {"belief_set_size": 500, "horizon": 50, **_overrides(args)}
        settings = domains.pop_solver_settings(overrides)
        if overrides:
            raise ValueError(f"a model file does not take {', '.join(map(repr, overrides))}")
        return DomainBuild(model.label or candidate.stem, [model], settings)
    name, overrides = _requested(args)
    return domains.build(name, **overrides)


def _cache(args) -> PolicyCache:
    return PolicyCache(args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE)


def cmd_solve(args) -> int:
    build = _build(args)
    # Refuse what `validate` rejects before anything is solved or cached.
    for model in build.models:
        if problems := validate_model(model):
            raise ValueError(f"{args.domain}: {problems[0]}")
    cache = _cache(args)
    print(f"{build.name}: {build.size} model(s), cache {cache.root}")
    solved = solve_many(build.models, build.solver, cache=cache, progress=print)
    for model, (policy, cached) in zip(build.models, solved):
        origin = "cached" if cached else "solved"
        path = cache.path(policy.source_digest, build.solver)
        print(f"  {model.label}: {origin} -> {path.name}")
    return 0


def cmd_run(args) -> int:
    build = _build(args)
    requested = AGENT_NAMES if args.agent == "all" else tuple(args.agent.split(","))
    # Refuse bad values and agents the models cannot serve before the
    # library is solved, not after; `all` skips those agents instead.
    skip = (lambda name, err: print(f"skipping {name}: {err}")) if args.agent == "all" else None
    plan = plan_experiment(
        requested, build.models, args.trials, args.seed, args.greedy, args.likelihood_floor, skip
    )

    library = prepare_library(build, cache=_cache(args), progress=print)
    result = plan.run(library, build.horizon, label=build.name, progress=print)
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
    try:
        build = domains.build(name, **{**overrides, "tasks": sizes[-1]})
    except TooFewTasks as err:
        raise ValueError(f"--sizes asks for a library of {sizes[-1]}, but the {err}") from None
    plan = plan_experiment(SCALING_AGENTS, build.models, args.trials, args.seed)

    library = prepare_library(build, cache=_cache(args), progress=print)
    # Task enumerations nest, so each smaller library is a prefix, and so are
    # its value-iteration tables: each model is solved once, here, before
    # any agent is made.
    libraries = {}
    for k in sizes:
        prefix = libraries[k] = type(library)(library.models[:k], library.policies[:k])
        prefix.state_greedy = library.state_greedy[:k]
    results = plan.run_scaling(libraries, build.horizon, label=build.name, progress=print)

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
    build = _build(args)
    out = Path(args.out) if args.out else Path("exported-models") / build.name
    out.mkdir(parents=True, exist_ok=True)
    for i, model in enumerate(build.models):
        path = out / f"{build.name}-{i:02d}.model"
        dump_model(model, path)
        print(f"wrote {path} ({model.num_states} states)")
    return 0


def cmd_validate(args) -> int:
    build = _build(args)
    bad = 0
    for model in build.models:
        issues = validate_model(model)
        if issues:
            bad += 1
            print(f"{model.label}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue}")
        else:
            print(f"{model.label}: ok")
    print(f"{build.name}: {build.size - bad}/{build.size} models valid")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocpo",
        description="Ad hoc teamwork under partial observability: solving and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve models into the policy cache")
    _add_domain_arguments(p_solve, model_files=True)
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
    _add_domain_arguments(p_validate, model_files=True)
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
