"""Schema-only smoke test of the benchmark; it asserts nothing about timings.

Run from the repository root:  python3 benchmarks/selftest.py

For every workload in BENCHMARK.json it runs the runner in --quick mode (one
op per phase) with --trace 0 and --trace 1, and checks that the last stdout
line has exactly the result keys, that every op passed its output check, and
that the metrics are exactly the declared ones with their declared units.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_result(line: str, declared: dict) -> list[str]:
    problems = []
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(doc)}")
        return problems
    if doc["correct"] is not True or doc["failed"] != 0:
        problems.append(f"correct={doc['correct']} failed={doc['failed']}")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        problems.append(f"attempted={doc['attempted']!r}")
    metrics = doc["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from the declared set")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if name in declared and entry.get("unit") != declared[name]:
            problems.append(f"{name} unit {entry.get('unit')!r}, declared {declared[name]!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = {0: "end_to_end", 1: "per_layer"}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in sections.items():
            declared = {m["name"]: m["unit"] for m in bench[section]}
            cmd = bench["command"][1:] + [
                "--workload", workload, "--seed", "0",
                "--seconds", str(bench["run_seconds"]), "--trace", str(trace), "--quick",
            ]  # fmt: skip
            proc = subprocess.run(
                [sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check_result(lines[-1], declared)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
