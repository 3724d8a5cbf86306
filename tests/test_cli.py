"""End-to-end checks of the command line interface (in-process), and what
importing it loads (in a fresh interpreter)."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import adhocpo
from adhocpo import cli, domains, modelio, solvers
from adhocpo.agents import AGENT_NAMES
from adhocpo.cli import _resolve_models, build_parser, main
from adhocpo.domains import DOMAIN_NAMES, build, parse_domain_spec, takes
from adhocpo.modelio import dump_model, load_model
from adhocpo.pomdp import TabularPomdp

from conftest import dense
from adhocpo.solvers import SolverSettings

DESK_SPEC = """\
# desk-scale instance for quick runs
domain gridworld
size 3
tasks 2
beliefs 200
horizon 20
"""


@pytest.fixture()
def desk_spec(tmp_path):
    path = tmp_path / "desk.domain"
    path.write_text(DESK_SPEC)
    return path


def test_domain_spec_parser_errors():
    name, overrides = parse_domain_spec(DESK_SPEC)
    assert name == "gridworld"
    assert overrides == {"size": 3, "tasks": 2, "belief_set_size": 200, "horizon": 20}
    with pytest.raises(ValueError, match="never sets 'domain'"):
        parse_domain_spec("size 3\n")
    with pytest.raises(ValueError, match="line 1: unknown key"):
        parse_domain_spec("flavour salty\n")
    with pytest.raises(ValueError, match="line 2: bad value"):
        parse_domain_spec("domain gridworld\nsize tiny\n")
    with pytest.raises(ValueError, match="expected 'key value'"):
        parse_domain_spec("domain\n")


def test_cli_validate_domain(capsys, desk_spec):
    assert main(["validate", str(desk_spec)]) == 0
    out = capsys.readouterr().out
    assert "2/2 models valid" in out


def test_cli_export_and_validate_model_file(tmp_path, capsys, desk_spec):
    out_dir = tmp_path / "models"
    assert main(["export", str(desk_spec), "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.model"))
    assert len(files) == 2
    model = load_model(files[0])
    assert model.num_states == 82

    assert main(["validate", str(files[0])]) == 0
    assert "1/1 models valid" in capsys.readouterr().out


def test_cli_solve_populates_cache(tmp_path, capsys, desk_spec):
    cache = tmp_path / "cache"
    assert main(["solve", str(desk_spec), "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert out.count("solved") == 2
    assert len(list(cache.glob("*.policy"))) == 2

    assert main(["solve", str(desk_spec), "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out.count("cached") == 2


def test_cli_solve_digests_each_model_once_warm(tmp_path, capsys, desk_spec, monkeypatch):
    # Cold misses may be solved in forked workers, so every process appends
    # its digests to one file; only this process may digest.
    digest = modelio.model_digest
    log = tmp_path / "digests.log"

    def counting_digest(model, tables=None):
        with open(log, "a") as fh:
            fh.write(model.label + "\n")
        return digest(model, tables)

    def calls():
        labels = log.read_text().splitlines()
        log.unlink()
        return labels

    monkeypatch.setattr(modelio, "model_digest", counting_digest)
    argv = ["solve", str(desk_spec), "--beliefs", "50", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("solved") == 2
    assert sorted(Counter(calls()).values()) == [1, 1]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("cached") == 2
    assert sorted(Counter(calls()).values()) == [1, 1]
    # The printed names are the entries on disk.
    names = sorted(p.name for p in (tmp_path / "cache").glob("*.policy"))
    assert sorted(line.rsplit(" ", 1)[1] for line in out.splitlines() if "->" in line) == names


def test_cli_solve_refuses_a_model_file_that_validate_rejects(tmp_path, capsys):
    model = build("gridworld", size=2, tasks=1).models[0]
    # A row that sums to 3, and one entry that reads nan (a row sum of nan
    # would pass a sum check).
    for name, value, problem in (("bad", 3.0, "sums to 3"), ("nan", np.nan, "non-finite entry")):
        transition = [dense(t) for t in model.transition]
        transition[0][0] *= value
        path = tmp_path / f"{name}.model"
        dump_model(TabularPomdp(
            transition, model.observation, model.reward, model.discount, model.initial_belief, label=name
        ), path)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"transition[0] row 0: {problem}\n" in out and "0/1 models valid" in out

        cache = tmp_path / "cache"
        assert main(["solve", str(path), "--cache-dir", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: transition[0] row 0: {problem}\n"
        assert captured.out == ""
        assert not list(cache.glob("*.policy"))


def test_cli_refuses_a_model_file_without_actions(tmp_path, capsys):
    # A file can declare no actions and list no entries; the parser names
    # the line of the count instead of the constructor failing later.
    path = tmp_path / "no-actions.model"
    path.write_text(
        "adhocpo-model v1\nlabel none\nstates 2\nactions 0\nobservations 1\ndiscount 0.9\n"
        "T 0\nO 0\nR 0\nb0 1\n0 1.0\nend\n"
    )
    cache = tmp_path / "cache"
    for argv in (["validate", str(path)], ["solve", str(path), "--cache-dir", str(cache)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 4: a model needs at least one action\n"
        assert captured.out == ""
    assert not cache.exists()


def test_cli_solve_cache_env_override(tmp_path, capsys, desk_spec, monkeypatch):
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("ADHOCPO_CACHE", str(env_cache))
    assert main(["solve", str(desk_spec)]) == 0
    capsys.readouterr()
    assert len(list(env_cache.glob("*.policy"))) == 2


def test_cli_run_selected_agents(tmp_path, capsys, desk_spec):
    out_dir = tmp_path / "results"
    code = main([
        "run", str(desk_spec),
        "--agent", "atpo,vi,random",
        "--trials", "3",
        "--seed", "0",
        "--out", str(out_dir),
        "--cache-dir", str(tmp_path / "cache"),
        "--traces",
    ])
    assert code == 0
    report = json.loads((out_dir / "summary.json").read_text())
    assert set(report["agents"]) == {"atpo", "vi", "random"}
    assert report["trials"] == 3
    assert (out_dir / "returns.csv").exists()
    assert len(list((out_dir / "traces").glob("atpo-*.csv"))) == 3


def test_cache_location_is_flag_over_env_over_default(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_CACHE", tmp_path / "default")
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    parse = build_parser().parse_args
    flag = ["--cache-dir", str(tmp_path / "flag")]
    assert cli._cache(parse(["solve", "gridworld"])).root == tmp_path / "default"
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "env"))
    assert cli._cache(parse(["solve", "gridworld"])).root == tmp_path / "env"
    assert cli._cache(parse(["solve", "gridworld", *flag])).root == tmp_path / "flag"


def test_cli_run_rejects_unknown_agent(capsys, desk_spec):
    assert main(["run", str(desk_spec), "--agent", "psychic"]) == 2
    assert "unknown agent" in capsys.readouterr().err


def test_cli_unknown_domain_is_an_error(capsys):
    assert main(["validate", "narnia"]) == 2
    assert "unknown domain" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["export", "overcooked", "--epsilon", "0.1"], "'epsilon'"),
    (["validate", "power-plant", "--variant", "x"], "'variant'"),
])
def test_cli_override_the_domain_does_not_take_is_an_error(capsys, argv, key):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("name", [name for name in DOMAIN_NAMES if takes(name, "epsilon")])
def test_cli_noise_rate_outside_the_unit_interval_is_an_error(capsys, name):
    for value in (1.5, -0.1):
        assert main(["validate", name, "--epsilon", str(value)]) == 2
        assert capsys.readouterr().err == f"error: epsilon must lie in [0, 1], got {value}\n"


@pytest.mark.parametrize("argv, size", [
    (["validate", "gridworld", "--size", "-2", "--tasks", "1"], -2),
    (["validate", "pursuit-task", "--size", "0"], 0),
])
def test_cli_size_below_one_is_an_error(capsys, argv, size):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: size must be at least 1, got {size}\n"
    assert "valid" not in captured.out


@pytest.mark.parametrize("name", ["pursuit-task", "pursuit-teammate", "pursuit-both"])
@pytest.mark.parametrize("size", [1, 2])
def test_cli_pursuit_below_its_minimum_size_is_an_error(capsys, name, size):
    assert main(["validate", name, "--size", str(size)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: pursuit needs size at least 3, got {size}\n"
    assert "valid" not in captured.out


def test_cli_solve_rejects_an_empty_belief_set(tmp_path, capsys, monkeypatch):
    loads = []
    load = solvers.PolicyCache.load
    monkeypatch.setattr(solvers.PolicyCache, "load", lambda self, *args: loads.append(args) or load(self, *args))
    for tasks in ("1", "2"):
        argv = ["solve", "gridworld", "--size", "3", "--tasks", tasks, "--beliefs", "0"]
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: belief set size must be at least 1, got 0\n"
    # An empty belief set, a horizon below 1, a negative or NaN tolerance
    # and a negative seed fail before any policy is solved, fetched or stored.
    argv = ["solve", "gridworld", "--size", "3", "--tasks", "1", "--cache-dir", str(tmp_path)]
    cases = [
        (["--horizon", "0"], "error: horizon must be at least 1, got 0\n"),
        (["--horizon", "-3"], "error: horizon must be at least 1, got -3\n"),
        (["--tolerance", "-1"], "error: solver tolerance must be non-negative, got -1.0\n"),
        (["--tolerance", "nan"], "error: solver tolerance must be non-negative, got nan\n"),
        (["--solver-seed", "-3"], "error: solver seed must be non-negative, got -3\n"),
    ]
    for flags, message in cases:
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert "policy for" not in captured.out
    assert not list(tmp_path.glob("*.policy"))
    assert loads == []


def test_cli_run_and_scale_refuse_empty_trial_blocks_and_bad_likelihood_floors(
    tmp_path, capsys, desk_spec
):
    # Each case fails before the library is solved: no policy is solved,
    # fetched or stored.
    common = [str(desk_spec), "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]
    trials = "error: need at least one trial per agent, got {}\n"
    floor = "error: likelihood floor must be finite and non-negative, got {}\n"
    unknown = f"error: unknown agent 'foo'; known agents: {', '.join(AGENT_NAMES)}\n"
    cases = [
        (["run", "--trials", "0"], trials.format(0)),
        (["run", "--trials", "-2"], trials.format(-2)),
        (["scale", "--sizes", "1", "--trials", "0"], trials.format(0)),
        (["run", "--agent", "atpo", "--likelihood-floor", "-1"], floor.format(-1.0)),
        (["run", "--agent", "atpo", "--likelihood-floor", "nan"], floor.format(float("nan"))),
        (["run", "--agent", "atpo", "--likelihood-floor", "inf"], floor.format(float("inf"))),
        (["run", "--horizon", "0"], "error: horizon must be at least 1, got 0\n"),
        (["run", "--horizon", "-3"], "error: horizon must be at least 1, got -3\n"),
        (["run", "--tolerance", "-1"], "error: solver tolerance must be non-negative, got -1.0\n"),
        (["scale", "--sizes", "1", "--horizon", "0"], "error: horizon must be at least 1, got 0\n"),
        (["scale", "--sizes", "1", "--tolerance", "nan"], "error: solver tolerance must be non-negative, got nan\n"),
        (["scale", "--sizes", "2,x"], "error: --sizes: 'x' is not an integer\n"),
        (["scale", "--sizes", "0,2"], "error: library sizes must be positive, got 0\n"),
        (["scale", "--sizes", "1,40"],
         "error: --sizes asks for a library of 40, but the grid of size 3 supports 36 tasks\n"),
        (["run", "--agent", "random,atpo,random"], "error: agent 'random' is named more than once\n"),
        # An unknown name is refused before a repeated one.
        (["run", "--agent", "foo"], unknown),
        (["run", "--agent", "random,random,foo"], unknown),
        (["scale", "--sizes", "1", "--tasks", "2"],
         "error: scale sweeps the library size: give it with --sizes, not --tasks\n"),
        (["run", "--seed", "-1"], "error: trial seed must be non-negative, got -1\n"),
        (["scale", "--sizes", "1", "--seed", "-1"], "error: trial seed must be non-negative, got -1\n"),
        (["run", "--solver-seed", "-3"], "error: solver seed must be non-negative, got -3\n"),
    ]
    for (command, *flags), message in cases:
        assert main([command, *common, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert "policy for" not in captured.out
    assert not (tmp_path / "out").exists()
    assert not list((tmp_path / "cache").glob("*.policy"))


def test_cli_refuses_or_skips_an_agent_the_models_cannot_serve_before_the_solve(tmp_path, capsys):
    # power-plant's two tasks have 97 and 105 states, so bopa cannot run.
    common = ["--beliefs", "50", "--trials", "1",
              "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]
    refusal = "bopa needs one shared state space; library has sizes 97, 105"
    assert main(["run", "power-plant", "--agent", "bopa", *common]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refusal}\n"
    assert captured.out == ""
    assert not list((tmp_path / "cache").glob("*.policy"))
    assert not (tmp_path / "out").exists()

    assert main(["run", "power-plant", "--agent", "all", *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    first_solve = next(i for i, line in enumerate(lines) if line.startswith("policy for"))
    assert lines.index(f"skipping bopa: {refusal}") < first_solve
    report = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(report["agents"]) == [name for name in AGENT_NAMES if name != "bopa"]


def test_cli_reports_a_path_it_cannot_use_without_a_traceback(tmp_path, capsys, desk_spec):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    # The export directory exists as a file; the cache directory lies under a file.
    for argv in (
        ["export", str(desk_spec), "--out", str(taken)],
        ["solve", str(desk_spec), "--cache-dir", str(taken / "sub")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_cli_run_scale_and_export_refuse_a_model_file(tmp_path, capsys):
    # These take a domain name or spec file; the message says which commands take model files.
    path = tmp_path / "one.model"
    dump_model(build("gridworld", size=2, tasks=1).models[0], path)
    for command in ("run", "scale", "export"):
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command != "export":
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} is a model file; only solve and validate take model files\n"
        assert captured.out == ""
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_cli_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    noise = tmp_path / "noise"
    data = b"domain gridworld\n" + np.random.default_rng(0).bytes(200)
    noise.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as raised:
        data.decode()
    at = raised.value.start
    line = data.count(b"\n", 0, at) + 1
    for argv in (["validate", str(noise)], ["run", str(noise), "--cache-dir", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {noise}: line {line}: not UTF-8 (byte {data[at]:#04x})\n"
    # A model file whose label line holds bytes that are not UTF-8.
    model = tmp_path / "label.model"
    dump_model(build("gridworld", size=2, tasks=1).models[0], model)
    model.write_bytes(model.read_bytes().replace(b"\nlabel ", b"\nlabel \xff\xfe", 1))
    for argv in (["validate", str(model)], ["solve", str(model), "--cache-dir", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {model}: line 2: not UTF-8 (byte 0xff)\n"
    assert not list(tmp_path.glob("*.policy"))


def test_resolve_models_reads_model_file_overrides(tmp_path):
    path = tmp_path / "one.model"
    dump_model(build("gridworld", size=3, tasks=1).models[0], path)
    parser = build_parser()

    def settings(*flags):
        return _resolve_models(parser.parse_args(["solve", str(path), *flags]))[1]

    assert settings() == SolverSettings(belief_set_size=500, horizon=50)
    zeros = ["--beliefs", "0", "--horizon", "0", "--tolerance", "0", "--solver-seed", "0"]
    assert settings(*zeros) == SolverSettings(belief_set_size=0, horizon=0, tolerance=0.0, seed=0)
    assert settings("--tolerance", "0.5", "--solver-seed", "7") == SolverSettings(
        belief_set_size=500, horizon=50, tolerance=0.5, seed=7
    )
    with pytest.raises(ValueError, match="a model file does not take 'epsilon'"):
        settings("--epsilon", "0.1")


def test_cli_scale_writes_table(tmp_path, capsys, desk_spec):
    out_dir = tmp_path / "scale"
    code = main([
        "scale", str(desk_spec),
        "--sizes", "1,2",
        "--trials", "2",
        "--out", str(out_dir),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 0
    lines = (out_dir / "scale.csv").read_text().strip().splitlines()
    assert lines[0] == "library_size,agent,mean_return,std_return,normalized_score"
    # three agents (atpo, vi, random) for each of the two sizes
    assert len(lines) == 1 + 2 * 3
    assert (out_dir / "K1" / "summary.json").exists()
    assert (out_dir / "K2" / "summary.json").exists()

    # The largest swept size overrides a spec file's own task count: the
    # two cached models are the whole library, nothing is solved.
    wide_spec = tmp_path / "wide.domain"
    wide_spec.write_text(DESK_SPEC.replace("tasks 2", "tasks 5"))
    capsys.readouterr()
    assert main([
        "scale", str(wide_spec),
        "--sizes", "2",
        "--trials", "1",
        "--out", str(tmp_path / "wide"),
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    policy_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("policy for")]
    assert len(policy_lines) == 2
    assert all(l.endswith(": cache") for l in policy_lines)

    # A spec file for a domain without a task library is refused.
    pursuit_spec = tmp_path / "pursuit.domain"
    pursuit_spec.write_text("domain pursuit-task\nsize 3\n")
    assert main(["scale", str(pursuit_spec), "--sizes", "1,2"]) == 2
    assert capsys.readouterr().err == f"error: domain {str(pursuit_spec)!r} has no task-library size to sweep\n"


def test_readme_settings_table_and_cache_location_match_the_cli():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Domain settings", 1)[1].split("\n#", 1)[0]
    rows = [
        tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [(key, flag, keyword) for key, flag, keyword, _, _ in domains.SETTINGS]
    sentence = next(s for s in " ".join(text.split()).split(". ") if "`--cache-dir`, else" in s)
    assert f"`${cli.CACHE_ENV}`" in sentence
    assert f"`~/{cli.DEFAULT_CACHE.relative_to(Path.home())}`" in sentence


def test_cli_import_leaves_the_heavy_scipy_modules_unloaded():
    # Loading scipy.sparse.csgraph (which loads scipy.sparse.linalg) adds
    # about 11 MB to every process's peak memory.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(adhocpo.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    heavy = ["scipy.sparse.csgraph", "scipy.sparse.linalg"]
    script = f"import sys, adhocpo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.strip()
    assert loaded == "[]", (
        f"importing adhocpo.cli loads {loaded}; import them inside the function that needs them"
    )


def test_csr_models_solve_and_play_without_loading_scipy_sparse():
    # The package's own CSR tables replace scipy.sparse, whose import adds
    # about 16 MB to every process: building CSR models, solving one and
    # playing an ATPO trial with its loss rows must not load it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(adhocpo.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    script = """
import sys
import adhocpo.cli
from adhocpo import harness, solvers
from adhocpo.agents import make_agent
from adhocpo.csr import CsrTable
from adhocpo.domains import build

grid = build("gridworld", size=4, tasks=2, belief_set_size=20)
pursuit = build("pursuit-both", belief_set_size=10)
assert isinstance(grid.models[0].transition[0], CsrTable)
assert isinstance(pursuit.models[0].observation[0], CsrTable)
solvers.perseus_solve(pursuit.models[0], pursuit.solver)
library = harness.prepare_library(grid)
trial = harness.run_trial(library, make_agent("atpo", library), horizon=5, seed=0)
assert trial.loss_rows.shape == (5, 2)
print(sorted(m for m in sys.modules if m == "scipy.sparse" or m.startswith("scipy.sparse.")))
"""
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", f"scipy.sparse was loaded: {run.stdout.strip()}"
