"""End-to-end checks of the command line interface (in-process)."""
import json
from collections import Counter

import pytest

from adhocpo import solvers
from adhocpo.cli import main
from adhocpo.domains import parse_domain_spec
from adhocpo.modelio import load_model

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
    # its digests to one file.
    digest = solvers.model_digest
    log = tmp_path / "digests.log"

    def counting_digest(model):
        with open(log, "a") as fh:
            fh.write(model.label + "\n")
        return digest(model)

    def calls():
        labels = log.read_text().splitlines()
        log.unlink()
        return labels

    monkeypatch.setattr(solvers, "model_digest", counting_digest)
    argv = ["solve", str(desk_spec), "--beliefs", "50", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("solved") == 2
    assert sorted(Counter(calls()).values()) == [2, 2]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("cached") == 2
    assert sorted(Counter(calls()).values()) == [1, 1]
    # The printed names are the entries on disk.
    names = sorted(p.name for p in (tmp_path / "cache").glob("*.policy"))
    assert sorted(line.rsplit(" ", 1)[1] for line in out.splitlines() if "->" in line) == names


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


def test_cli_run_rejects_unknown_agent(capsys, desk_spec):
    assert main(["run", str(desk_spec), "--agent", "psychic"]) == 2
    assert "unknown agent" in capsys.readouterr().err


def test_cli_unknown_domain_is_an_error(capsys):
    assert main(["validate", "narnia"]) == 2
    assert "unknown domain" in capsys.readouterr().err


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
