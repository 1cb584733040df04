"""distillery benchmark runner (stdlib only, besides the library's own deps).

Run from the repository root:

    python3 benchmarks/run.py --workload hashing-sweep --seed 0 --seconds 30 --trace 0

One process drives the workload as a closed loop: it issues an op, waits for
it, checks its output, then issues the next, until --seconds have passed.
--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and then as many ops again with every layer wrapped, and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
environment and details.  Metric names and units come from BENCHMARK.json.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# Half run before the timed loop and half after, so that one slow spell of
# the machine does not move every sample together.
SETUP_PROBES = 8
# One BLAS thread: on a shared two-core machine, two lock-step BLAS threads
# slow down by up to 1.4x whenever the second core is busy elsewhere, which
# made carve-verify unsteady from run to run.
BLAS_THREADS = "1"
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 5


def load_library() -> None:
    """Import distillery from this checkout's src/, with BLAS_THREADS BLAS
    threads, or exit non-zero."""
    init = SRC / "distillery" / "__init__.py"
    if not init.is_file():
        sys.exit(f"benchmark: distillery sources not found at {init}")
    if "numpy" in sys.modules:
        sys.exit("benchmark: numpy was imported before the BLAS thread count was set")
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import distillery

    if Path(distillery.__file__).resolve() != init.resolve():
        sys.exit(f"benchmark: imported distillery from {distillery.__file__}, not {init}")


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
        "workloads": [w["name"] for w in doc["workloads"]],
    }


# --- environment -----------------------------------------------------------


def reference_loop() -> float:
    """Time a fixed pure-Python loop, to tell machine drift from code changes."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


# --- the closed loop -------------------------------------------------------


def closed_loop(workload, run, start: int, seconds: float | None = None, count: int | None = None):
    """Issue ops start, start+1, ... until ``seconds`` have passed (at least
    one op) or ``count`` ops are done.  Returns (latencies, infos, errors, wall)."""
    latencies, infos, errors = [], [], []
    i = start
    t0 = perf_counter()
    while True:
        done = i - start
        if count is not None and done >= count:
            break
        if count is None and done >= 1 and perf_counter() - t0 >= seconds:
            break
        issued = perf_counter()
        try:
            out = run(i)
            latencies.append(perf_counter() - issued)
            infos.append(workload.check(i, out))
        except Exception as exc:  # a failing op is counted and reported, not fatal
            if len(latencies) == done:
                latencies.append(perf_counter() - issued)
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        i += 1
    return latencies, infos, errors, perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def setup_probes(args, count: int) -> list[float]:
    """Start fresh processes that set up the workload and run its warm-up op;
    each sample runs from process start to the point the first timed op would
    be issued."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]  # fmt: skip
    samples = []
    for _ in range(count):
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


def timed_run(args, workload) -> tuple[dict, list[str], int, dict]:
    probes = 1 if args.quick else SETUP_PROBES
    setups = setup_probes(args, probes // 2)
    latencies, _, errors, wall = closed_loop(workload, workload.run, 0, seconds=args.seconds)
    attempted = len(latencies)
    percentile, tail_value = tail(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_probes(args, probes - probes // 2)
    values = {
        "ops_per_s": attempted / wall,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "op_success_ratio": (attempted - len(errors)) / attempted,
    }
    details = {
        "op_tail_percentile": percentile,
        "ops": attempted,
        "op_error_ratio": len(errors) / attempted,
        "wall_s": wall,
        "setup_samples_s": setups,
    }
    return values, errors, attempted, details


def traced_run(args, workload) -> tuple[dict, list[str], int, dict]:
    from tracer import SPAN_METRICS, Tracer

    plain, _, errors, plain_wall = closed_loop(
        workload, workload.run, 0, seconds=args.seconds / 2
    )
    ops = len(plain)
    tracer = Tracer()
    absent = tracer.install(workload)
    run = tracer.wrap("op", workload.run)
    _, infos, traced_errors, traced_wall = closed_loop(workload, run, ops, count=ops)
    errors += traced_errors

    values = {name: tracer.value(stat, spans) / ops for name, (stat, spans) in SPAN_METRICS.items()}
    trials = sum(info.get("trials", 0) for info in infos)
    decoded = sum(info.get("decoded", 0) for info in infos)
    values.update(
        {
            "qstate.max_dense_dim": tracer.max_dense_dim,
            "hashing.enumerate_cold_calls": len(tracer.enumeration_keys) / ops,
            "hashing.enumerate_visits": tracer.visits / ops,
            "hashing.candidates": tracer.candidates / ops,
            "hashing.decoded_share": decoded / trials if trials else 0.0,
            "hashing.fallback_share": (trials - decoded) / trials if trials else 0.0,
            "hashing.budget_exceeded": tracer.budget_exceeded / trials if trials else 0.0,
            "cli.output_bytes": sum(info.get("output_bytes", 0) for info in infos) / ops,
            "trace.ops": ops,
            "trace.overhead_s": (traced_wall - plain_wall) / ops,
            "trace.absent_targets": len(absent),
            "env.ref_loop_s": reference_loop(),
        }
    )
    details = {
        "traced_ops": ops,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "absent_targets": absent,
        "spans": {name: [s[0], round(s[1], 6), round(s[2], 6)] for name, s in tracer.stats.items()},
    }
    return values, errors, 2 * ops, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one op per phase: a smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0

    load_library()
    import workloads

    declared = declared_metrics()
    if args.workload not in workloads.WORKLOADS or args.workload not in declared["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {declared['workloads']}")

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    try:
        workload.warmup()
        if args.setup_probe:
            print(repr(time.time()), flush=True)
            return 0
        loop_before = reference_loop()
        mode = traced_run if args.trace else timed_run
        values, errors, attempted, details = mode(args, workload)
        loop_after = reference_loop()
    finally:
        for leftover in WORKDIR.glob(f"*-{os.getpid()}.*"):
            leftover.unlink()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    env = environment()
    env["ref_loop_s"] = [loop_before, loop_after]
    print(json.dumps({"env": env}))
    print(json.dumps({"details": details}))
    for error in errors[:MAX_REPORTED_ERRORS]:
        print(error, file=sys.stderr)

    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"benchmark: computed {sorted(values)}, declared {sorted(units)}")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise SystemExit(f"benchmark: metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
