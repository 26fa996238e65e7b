"""The example scripts run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, f"scripts/{script}"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_leaf_atlas_demo():
    row = next(line for line in _run("leaf_atlas_demo.py").splitlines()
               if line.split()[:2] == ["D4", "diag-flip"])
    assert row.split()[4] == "7"
    assert "[6, 4, 4, 2, 2, 2, 0]" in row


def test_quadric_calibration():
    assert "distinct calibration ratios" in _run("quadric_calibration.py")
