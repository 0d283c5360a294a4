"""Checks of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(about two minutes: every test drives ``run.py`` end to end).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: Units of the exact work counts (as opposed to timings and ratios).
COUNT_UNITS = ("count", "B")


def _spec() -> Dict[str, Any]:
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, trace: int, seconds: str = "1",
         cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload",
                         [w["name"] for w in _spec()["workloads"]])
def test_traced_counts_repeat_for_a_seed(workload: str) -> None:
    first = _result(_run(workload, 7, trace=1))
    second = _result(_run(workload, 7, trace=1))
    names = [m["name"] for m in _spec()["per_layer"]]
    assert list(first["metrics"]) == names

    def counts(result: Dict[str, Any]) -> Dict[str, Any]:
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in COUNT_UNITS}

    assert counts(first) == counts(second)
    assert counts(first)["kernel.steps" if "fig" in workload
                         else "store.gets"] > 0


def test_second_seed_reports_the_same_metrics() -> None:
    names = [m["name"] for m in _spec()["end_to_end"]]
    for seed in (1, 2):
        result = _result(_run("fig6-rtc", seed, trace=0))
        assert sorted(result["metrics"]) == sorted(names)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program() -> None:
    bare = os.path.join(ROOT, ".perfbench-run", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    try:
        proc = _run("fig6-rtc", 1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
