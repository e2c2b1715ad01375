"""Smoke test of the benchmark itself: tiny pools, fixed seed.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
It is outside the tier-1 ``testpaths`` because it spends about two minutes
in subprocesses.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], doc


def units(doc):
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_errors(workload):
    text, doc = result(run(workload, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    error_ratio = [line.split() for line in text if line.split()[:1] == ["error_ratio"]]
    assert error_ratio == [["error_ratio", "0", "ratio"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_counts_repeat(workload):
    _, first = result(run(workload, 1))
    _, second = result(run(workload, 1))
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first).items() if unit == "count"]
    assert [first["metrics"][c]["value"] for c in counts] == \
        [second["metrics"][c]["value"] for c in counts]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
