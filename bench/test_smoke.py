"""Smoke test of the benchmark at a tiny size.

    python -m pytest bench/test_smoke.py

Every workload, shrunk to a few frames and steps, must report each metric
that BENCHMARK.json names, with the same unit, and pass its own checks,
untraced and traced. Without the library sources the command must fail
without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    w = WORKLOADS[name]
    scene = replace(w.scene, object_count=min(w.scene.object_count, 8), length=30)
    return replace(w, scene=scene, k10_frames=4, shares={job: 0.0 for job in w.shares})


def _assert_reports(result: dict, section: str) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_present(name):
    _assert_reports(harness.measure_end_to_end(tiny(name), seed=3, seconds=0.0), "end_to_end")


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_layer_metrics_present(name):
    _assert_reports(harness.measure_layers(tiny(name), seed=3), "per_layer")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(SPEC["command"] + args, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
