"""Smoke test: the benchmark's train-paper workload runs end to end at toy
sizes, and every op passes its output check."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_train_paper_toy_run_has_no_failed_ops():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "train-paper", "--size", "toy",
           "--seed", "7", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True
