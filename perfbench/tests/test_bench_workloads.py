"""Reduced-size runs of every workload through the benchmark's own code path.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reduced(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        scene=dict(w.scene, num_points=min(w.scene["num_points"], 450)),
        matches=min(w.matches, 200),
        scenes_per_chunk=1,
        queries_per_scene=2,
        chunks=1,
        records_per_chunk=min(w.records_per_chunk, 60),
        record_scenes=min(w.record_scenes, 3),
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_reports_every_end_to_end_metric(name):
    result = run.run(name, 7, 0, False, workload=reduced(name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [m for m, _ in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_traced_run_repeats_its_counts(name):
    first = run.run(name, 7, 0, True, workload=reduced(name))
    second = run.run(name, 7, 0, True, workload=reduced(name))
    assert first["correct"] and second["correct"]
    assert [m for m, *_ in run.PER_LAYER] == list(first["metrics"])
    for metric, _, measure, _ in run.PER_LAYER:
        if measure in ("calls", "models", "rows", "iterations", "points", "useful_ratio"):
            assert first["metrics"][metric] == second["metrics"][metric], metric


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "eval-records", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
