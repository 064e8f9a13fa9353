"""Each walkthrough in demos/ runs to the end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import imdner

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env={**os.environ, "PYTHONPATH": str(Path(imdner.__file__).resolve().parent.parent)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
