"""Smoke test of the benchmark: every workload at tiny size, in both modes,
with the output schema checked against BENCHMARK.json.

    python -m pytest benchmark/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
