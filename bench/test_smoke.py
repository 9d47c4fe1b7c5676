"""Smoke tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from ckgrec import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny_plans(monkeypatch):
    for name, plan in workloads.PLANS.items():
        small = dataclasses.replace(
            plan, users=60, items=40, setups=2, epochs=1, trains=1, evaluates=1, recommends=min(plan.recommends, 3)
        )
        monkeypatch.setitem(workloads.PLANS, name, small)


def measure(tmp_path, workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    return run.measure(args, tmp_path)


def test_spec_names_the_workloads_the_benchmark_runs():
    assert NAMES == list(workloads.PLANS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = measure(tmp_path, workload, trace=0)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    result = measure(tmp_path, workload, trace=1)
    assert (result["correct"], result["failed"]) == (True, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    layers = {name: m["value"] for name, m in result["metrics"].items() if name != "trace.overhead_s"}
    assert all(value > 0 for value in layers.values()), layers
    assert (tmp_path / f"trace-{workload}-s3.json").is_file()


def test_corrupted_recommend_output_counts_as_failure(tmp_path, monkeypatch):
    real = cli.topk_from_scores
    monkeypatch.setattr(cli, "topk_from_scores", lambda scores, k, exclude=None: real(scores, k, exclude)[::-1])
    result = measure(tmp_path, "serve_small", trace=0)
    assert result["correct"] is False
    assert result["failed"] == workloads.PLANS["serve_small"].recommends
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
