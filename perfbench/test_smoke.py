"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced and checks that each metric
BENCHMARK.json names is printed with its unit, that no operation
failed, and that both runs wrote the same predictions. Takes about
half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_agrees_when_traced(workload):
    answers = []
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        record, result = parse(run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0 and result["correct"], record["problems"]
        assert result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        answers.append(record["answers"])
    assert answers[0] == answers[1]


def test_nan_energy_is_a_failure(tmp_path):
    pred = {
        "format": "svpose-pred",
        "version": 1,
        "diagnostics": {"total_energy": float("nan"), "sweeps_used": 1},
        "poses": [{"quat_wxyz": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 1.0]}] * 2,
    }
    path = tmp_path / "scene_000.json"
    path.write_text(json.dumps(pred))
    problems, _ = checks.check_prediction(path, 2)
    assert any("total_energy" in p for p in problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
