"""Self-check of the benchmark harness at toy sizes; takes seconds.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at toy sizes and checks that each run
exits 0, passes all its output checks and reports exactly the metrics
BENCHMARK.json names, with their units. From the traced runs it checks the
layers that must stay idle (no backward or CRF gradient outside train-paper,
no network or crf at all on the scoring workloads). Last, it checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Layers that must record no calls on a workload (span or module -> workloads).
SCORING = ("score-corpus", "breakdown-corpus", "kg-corpus")
IDLE = {
    "network.emissions_backward.calls": ("tag-notes", *SCORING),
    "crf.nll_gradients.calls": ("tag-notes", *SCORING),
    "network.calls": SCORING,
    "crf.calls": SCORING,
}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        errors += [f"{where}: {k} is {v}" for k, v in values.items() if not v > 0]
    else:
        for metric, idle_on in IDLE.items():
            busy = values.get(metric, 0) > 0
            if busy == (workload in idle_on):
                errors.append(f"{where}: {metric} = {values.get(metric)}")
        if values.get("trace.missing_layers") != 0:
            errors.append(f"{where}: missing layers")
    return errors


def check_refuses_without_sources() -> list[str]:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    errors = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_run(w["name"], trace)
    errors += check_refuses_without_sources()
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
