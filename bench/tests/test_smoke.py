"""Smoke test of the benchmark: every workload at its smallest size.

Not part of the tier-1 suite; run it from the repository root with

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    details = json.loads(lines[-2])["details"]
    assert details["op_fail_ratio"] == 0
    assert details["machine"]["blas_threads"] == 1
    return details, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    _, result = _result(workload, 0)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_schema(workload):
    _, result = _result(workload, 1)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    layer_totals = [v for name, v in values.items() if name.count(".") == 1 and name.endswith(".self_s")]
    assert len(layer_totals) == 9
    assert sum(layer_totals) <= values["traced_op_s"]
    assert values["trace_overhead_ratio"] > 0
    assert values["cli.main.calls"] == (0 if workload == "dense_api" else 1)
    assert values["frames.frame_operator.error_max"] <= 1e-9


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
