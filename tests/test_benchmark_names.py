"""The benchmark's tracer wraps package functions and methods by name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_wrapped_name():
    # a renamed method or function makes `install` fail with AttributeError
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer, install; install(Tracer())")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
