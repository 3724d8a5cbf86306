"""Self-test of the benchmark at toy sizes; about 20 s on 2 cores.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY_GRID = dict(size=3, tasks=2, belief_set_size=100, horizon=20)
TOY = {
    "solve-grid": Workload(
        name="solve-grid",
        domain="gridworld",
        build=TOY_GRID,
        warm=False,
        setup_reps=2,
        op_seconds=1.0,
        trials=4,
        b0_reference=(76.87212463405695, 76.70295932459182),
        b0_tolerance=1e-6,
    ),
    "online-grid": Workload(
        name="online-grid",
        domain="gridworld",
        build=TOY_GRID,
        warm=True,
        setup_reps=2,
        op_seconds=1.0,
        trials=4,
        min_atpo_score=-1e9,
    ),
    "map-isr": Workload(
        name="map-isr",
        domain="isr",
        build=dict(map_name="test3x3", tasks=2, belief_set_size=50, horizon=20),
        solver=dict(stage_cap=15),
        warm=True,
        setup_reps=2,
        op_seconds=1.0,
        trials=2,
    ),
}

COUNTS = (
    "modelio.model_digest_calls",
    "solvers.point_backup_calls",
    "solvers.stages",
    "pomdp.belief_update_calls",
)


def test_toy_workloads_mirror_the_real_ones():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(TOY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name, toy in TOY.items():
        real = workloads.WORKLOADS[name]
        assert (toy.domain, toy.warm) == (real.domain, real.warm)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    workloads.fill_caches(TOY.values(), workdir, log=lambda _: None)
    return {
        (name, trace): run.run_workload(toy, seed=3, seconds=1, trace=trace, workdir=workdir)
        for name, toy in TOY.items()
        for trace in (0, 1)
    } | {
        (name, "again"): run.run_workload(toy, seed=3, seconds=1, trace=1, workdir=workdir)
        for name, toy in TOY.items()
    }


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(reports, name, trace, key):
    result = reports[(name, trace)]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and value >= 0, metric
        if trace == 0 or entry["unit"] in ("s", "ms", "us"):
            assert value > 0, metric
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(TOY))
def test_checks_run_and_pass(reports, name):
    report = reports[(name, 0)]
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    checks = report["checks"]
    assert all(passed == checked > 0 for passed, checked in checks.values())
    expected = {"every ATPO trial within its loss bound", "a trial repeated with its seed plays the same",
                "backed-up value equals the lookahead value"}
    if TOY[name].warm:
        expected.add("warm set-up finds every policy in the cache")
    else:
        expected |= {"stage values never decrease by more than 1e-9", "b0 value at most the fully observable value"}
    if TOY[name].min_atpo_score is not None:
        expected.add(f"ATPO normalized score at least {TOY[name].min_atpo_score}")
    assert expected <= set(checks)


@pytest.mark.parametrize("name", list(TOY))
def test_counts_repeat_for_a_seed(reports, name):
    first = reports[(name, 1)]["result"]["metrics"]
    again = reports[(name, "again")]["result"]["metrics"]
    for count in COUNTS:
        assert first[count]["value"] == again[count]["value"], count


def test_warm_cache_hit_ratio_is_one(reports):
    for name, toy in TOY.items():
        ratio = reports[(name, 1)]["result"]["metrics"]["solvers.cache_hit_ratio"]["value"]
        assert ratio == (1.0 if toy.warm else 0.0)


def test_a_failed_check_marks_the_run(tmp_path):
    wrong = dataclasses.replace(TOY["solve-grid"], b0_reference=(0.0, 0.0), b0_tolerance=1.0)
    result = run.run_workload(wrong, seed=3, seconds=1, trace=0, workdir=tmp_path)["result"]
    assert not result["correct"] and result["failed"] >= 1


def test_machine_record():
    record = run.machine_record()
    assert record["nproc"] >= 1 and record["src_lines"] > 0
    assert record["blas_threads"] is None or 1 <= record["blas_threads"] <= record["nproc"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
