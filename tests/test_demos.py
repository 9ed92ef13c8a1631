"""Each demo prints exactly its golden output.

The goldens under tests/golden/ are the demos' stdout, one file per
demos/<name>.py, and change only when a demo's output is meant to change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted((ROOT / "tests" / "golden").glob("*.txt"))
    assert [p.stem for p in goldens] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, cwd=ROOT, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
