"""Self-check of the benchmark: ``pytest benchmarks/e2e`` (about a minute).

Outside ``testpaths``, so the tier-1 suite does not pay for it.  Runs the
smoke pass twice with one seed and checks what the benchmark promises
about itself: every declared metric is emitted, the layer table adds up,
nothing fails, counts repeat exactly and nothing is left running.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("etl_batch", "iter_apps", "plan_heavy", "serve_mix")
COUNTS = ("executor.atoms", "platforms.atoms.java", "platforms.atoms.spark",
          "platforms.atoms.postgres", "task_optimizer.candidates")


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _serve_processes() -> set:
    found = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"repro.cli\0serve" in fh.read():
                    found.add(pid)
        except OSError:
            pass  # the process ended while we looked
    return found


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _smoke(*extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "7",
         *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    before = (_serve_processes(), _shm())
    first = _smoke()
    second = _smoke("--trace", "1")
    after = (_serve_processes(), _shm())
    return first, second, before, after


def test_contract_shape():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(contract["per_layer"]) <= 128 and 1 <= contract["run_seconds"] <= 60


def test_every_declared_metric_is_emitted(smoke_runs):
    first = smoke_runs[0]
    contract = _contract()
    for workload in WORKLOADS:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            cell = first["metrics"][f"{workload}.{metric['name']}"]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], float)
        for metric in contract["end_to_end"]:
            assert first["metrics"][f"{workload}.{metric['name']}"]["value"] > 0


def test_nothing_fails_and_layers_add_up(smoke_runs):
    for run in smoke_runs[:2]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        for workload in WORKLOADS:
            metrics = run["metrics"]
            assert metrics[f"{workload}.failed_ops_share"]["value"] == 0
            assert metrics[f"{workload}.layers.unaccounted_pct"]["value"] <= 5.0


def test_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs[:2]
    for workload in WORKLOADS:
        for name in COUNTS:
            key = f"{workload}.{name}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_nothing_is_left_behind(smoke_runs):
    _, _, (procs_before, shm_before), (procs_after, shm_after) = smoke_runs
    assert procs_after <= procs_before, "a repro serve daemon is still alive"
    assert shm_after <= shm_before, "a shared-memory segment was leaked"


def test_bare_directory_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no program to measure."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "etl_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
