"""Smoke test: every benchmark workload runs end to end at toy sizes, and
every op passes its output check. train-paper and tag-notes train, save, load
and predict with a checkpoint; the three scoring workloads check their results
against the errors planted in their inputs. One traced run goes through the
tracer's own counters, which read the corpus objects the package returns.
Also, every function the tracer wraps still exists in the package."""

import functools
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train-paper", "tag-notes", "score-corpus", "breakdown-corpus", "kg-corpus"])
def test_toy_run_has_no_failed_ops(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "toy",
           "--seed", "7", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True


def test_traced_toy_run_has_no_failed_ops_and_finds_every_layer():
    # The tracer's B-tag counter reads Sentence.tokens, a path no package code takes.
    cmd = [sys.executable, "perfbench/run.py", "--workload", "breakdown-corpus", "--size", "toy",
           "--seed", "7", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True
    assert result["metrics"]["trace.missing_layers"]["value"] == 0


def test_every_traced_layer_is_an_attribute_of_the_package():
    # The tracer counts a target it cannot find as trace.missing_layers and
    # goes on, so a renamed or deleted function would otherwise go unnoticed.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, (module, attr, *_) in tracing.TARGETS.items():
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(name)
    assert tracing.TARGETS and missing == []
