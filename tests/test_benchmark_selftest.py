"""The benchmark harness still runs against the library.

The self-test checks the output schema of every workload, timed and traced;
it asserts nothing about timings.  The tracer check catches a library change
that leaves a per-layer metric reading a function that no longer exists.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def test_benchmark_selftest():
    proc = run_python(["benchmarks/selftest.py"])
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]


def test_tracer_finds_every_target():
    script = (
        "import sys; sys.path[:0] = ['src', 'benchmarks']; "
        "import distillery.cli, tracer; print(tracer.Tracer().install(object()))"
    )
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
