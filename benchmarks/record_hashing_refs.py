"""Record the per-trial CSV digests that the hashing-sweep workload checks against.

Run from the repository root:  python3 benchmarks/record_hashing_refs.py

It runs every grid point of the workload once through the CLI, checks the
summary against its closed forms, and writes benchmarks/hashing_refs.json.
Seeded outputs are meant to stay byte-identical, so re-recording is only
right when a change to the hashing outputs is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import WORKDIR, load_library

load_library()

from click.testing import CliRunner  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    invoke = CliRunner().invoke
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        trials_out = Path(tmp) / "trials.csv"

        def digest(point: tuple[float, int, int]) -> str:
            out = wl.hashing_op(invoke, point, trials_out)
            if any(row[4] > 10**6 for row in wl.check_hashing_op(out)):
                raise SystemExit(f"{point} exceeds the default decoder budget")
            return wl.csv_digest(out["csv"])

        digests = []
        for k in range(wl.HASHING_GRID):
            digests.append(digest(wl.hashing_point(k)))
            if k % 64 == 0:
                print(f"{k}/{wl.HASHING_GRID}", file=sys.stderr)
        refs = {
            "n": wl.HASHING_N,
            "min_trials": wl.HASHING_MIN_TRIALS,
            "max_trials": wl.HASHING_MAX_TRIALS,
            "p0_range": list(wl.HASHING_P0_RANGE),
            "warmup": list(wl.HASHING_WARMUP),
            "warmup_csv_sha256_16": digest(wl.HASHING_WARMUP),
            "csv_sha256_16": digests,
        }
    wl.HASHING_REFS.write_text(json.dumps(refs, indent=0) + "\n")


if __name__ == "__main__":
    main()
