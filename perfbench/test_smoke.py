"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, reports every declared metric with its unit. No timing asserts.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_every_metric_has_a_unit_and_a_direction():
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCH[key]]
        assert len(names) == len(set(names)), key
        for m in BENCH[key]:
            assert m["unit"] and m["better"] in ("lower", "higher"), m
    assert "setup_s" in [m["name"] for m in BENCH["end_to_end"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        figure = result["metrics"][m["name"]]
        assert figure["unit"] == m["unit"]
        assert isinstance(figure["value"], (int, float))
    details = json.loads(details)
    assert details["environment"]["blas_threads"] in (1, None)
    outputs = {"failed_share"} | (set() if trace else {"stage1_loss", "test_weighted_f1"})
    assert set(details["outputs"]) == outputs
    assert all(o["unit"] and o["value"] is not None for o in details["outputs"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
