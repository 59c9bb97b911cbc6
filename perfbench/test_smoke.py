"""Smoke test: every workload, tiny sizes, both modes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs the benchmark as its users do and checks that the result
line names every metric BENCHMARK.json lists for that mode, that no batch
or job failed, and that no output row was missing or wrong.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["bad_row_share"] == 0
    assert detail["failed_share"] == 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert len(result["metrics"]) == len(names)
    if trace:
        assert detail["replay_exact"] is True
