"""Self-test of the benchmark: every workload once at tiny sizes.

Each run must print every metric BENCHMARK.json names, with its unit, both
as a ``name = value unit`` line and in the final JSON object, and no
operation may fail.

    python3 -m pytest bench/test_bench_selftest.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_op_fails(workload, trace):
    lines = run_tiny(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
        assert any(re.match(pattern, line) for line in lines), m["name"]
    if trace == 0:
        assert any(re.match(r"^fail_ratio = 0 \(", line) for line in lines)
