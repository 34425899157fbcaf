"""Smoke tests for the benchmark harness: every workload, traced and
untraced, at tiny size, with all output checks and no timing bound.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])


def test_spec_matches_workloads():
    import run

    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "train-fd001", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_adjust():
    from environment import REF_NOMINAL_S, HostSpeed

    speed = HostSpeed()
    speed.samples = [REF_NOMINAL_S] * 3
    mark = speed.mark()
    speed.samples += [2 * REF_NOMINAL_S] * 4  # the host ran at half speed
    wall = 1.0 + 8 * REF_NOMINAL_S
    assert speed.adjust(wall, mark) == pytest.approx(0.5)
    assert speed.factor(mark) == pytest.approx(2.0)
    assert HostSpeed().factor() == 1.0
