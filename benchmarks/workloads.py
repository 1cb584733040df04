"""The three benchmark workloads: inputs from a seed, one op, and its check.

Each workload splits an op into ``run(i)``, the timed call into distillery,
and ``check(i, out)``, which compares the output with a reference and raises
``CheckFailed`` on a mismatch.  Inputs are generated in ``__init__`` from the
seed; the library only ever sees those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from distillery import bell, cli, qstate, recurrence

HERE = Path(__file__).resolve().parent
HASHING_REFS = HERE / "hashing_refs.json"


class CheckFailed(Exception):
    """An op's output differs from its reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(a: float, b: float, tol: float, what: str) -> None:
    _expect(abs(float(a) - float(b)) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol})")


def _stride(size: int) -> int:
    """Step near size/phi that is coprime to size, so i -> (a + i*step) % size
    visits every index once per lap and any window of consecutive ops spreads
    evenly over the index range."""
    step = round(size / 1.618033988749895)
    while math.gcd(step, size) != 1:
        step += 1
    return step


def cli_call(invoke, args: list[str]):
    """Run ``distillery <args>`` through a CliRunner's invoke; non-zero exit fails."""
    result = invoke(cli.main, args)
    _expect(
        result.exit_code == 0,
        f"exit code {result.exit_code} for {' '.join(args)}: {result.output.strip()}",
    )
    return result


class _CliWorkload:
    """Ops that call the ``distillery`` command in-process through CliRunner."""

    def __init__(self):
        # Rebound by the tracer so the CLI call becomes a span.
        self.invoke = CliRunner().invoke


# --- hashing-sweep ---------------------------------------------------------
#
# Werner-type sources p = (p0, q, q, q), q = (1 - p0)/3, on a fixed grid of p0
# in [0.90, 0.945].  Below 0.90 the n=24 enumeration overflows the default
# 10^6-visit budget; above 0.945 the typical set shrinks to a few dozen
# strings.  Every grid point is a distinct enumeration key, so each op pays
# one cold typical-set enumeration, as a fresh CLI process does.
#
# Grid point k also fixes the CLI seed (k) and the trial count, 4 + k % 8.
# Ops of equal cost would put every op time in one of two narrow clusters on
# a machine that alternates between a fast and a slow state, and the median
# would jump between them from run to run; a spread of op costs keeps it steady.
# With 1..8 trials the median would sit between the 4- and 5-trial levels,
# 1.2x apart; with 4..11 it sits between the 7- and 8-trial levels, 1.1x apart.

HASHING_N = 24
HASHING_MIN_TRIALS = 4
HASHING_MAX_TRIALS = 11
HASHING_GRID = 1024
HASHING_P0_RANGE = (0.90, 0.945)
HASHING_WARMUP = (0.9475, 1, 0)  # p0, trials, CLI seed


def hashing_point(k: int) -> tuple[float, int, int]:
    """(p0, trials, CLI seed) of grid point k."""
    lo, hi = HASHING_P0_RANGE
    trials = HASHING_MIN_TRIALS + k % (HASHING_MAX_TRIALS - HASHING_MIN_TRIALS + 1)
    return round(lo + (hi - lo) * k / (HASHING_GRID - 1), 12), trials, k


def hashing_args(p0: float, trials: int, cli_seed: int, trials_out: Path) -> list[str]:
    q = repr((1.0 - p0) / 3.0)
    return [
        "hashing", "simulate", "--n", str(HASHING_N),
        "--p0", repr(p0), "--p1", q, "--p2", q, "--p3", q,
        "--trials", str(trials), "--seed", str(cli_seed),
        "--trials-out", str(trials_out),
    ]  # fmt: skip


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_WILSON_Z = 1.959963984540054


def expected_summary(p0: float, cli_seed: int, rows: list[list[int]]) -> dict:
    """Closed forms of the summary document from the source and the trial table."""
    q = (1.0 - p0) / 3.0
    raw = (p0, q, q, q)
    total = sum(raw)
    p = [v / total for v in raw]
    n, trials = HASHING_N, len(rows)
    h = -sum(v * math.log2(v) for v in p if v > 0.0)
    eps = (1.0 - h) / 4.0
    r = math.floor(n * (1.0 + h) / 2.0)
    failures = sum(1 for row in rows if row[1] == 0)
    q_hat = sum(1 for row in rows if row[2] == 0) / trials
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / trials
    center = (q_hat + z2 / (2 * trials)) / denom
    radius = _WILSON_Z * math.sqrt(q_hat * (1 - q_hat) / trials + z2 / (4 * trials**2)) / denom
    collision = 2.0 ** (n * (h + eps) - r)
    return {
        "n": n, "r": r, "m": n - r, "epsilon": eps, "h": h, "rate": (n - r) / n,
        "trials": trials, "seed": cli_seed, "failures": failures,
        "failure_rate": failures / trials, "q_hat": q_hat,
        "q_upper": min(1.0, center + radius), "collision_term": collision,
        "failure_bound": q_hat + collision,
    }  # fmt: skip


def check_summary(doc: dict, expected: dict) -> None:
    _expect(set(doc) == set(expected), f"summary keys {sorted(doc)}")
    for key, want in expected.items():
        got = doc[key]
        if isinstance(want, int):
            _expect(got == want, f"summary {key}: {got!r} vs {want!r}")
        else:
            _close(got, want, 1e-12 * max(1.0, abs(want)), f"summary {key}")


def parse_trials_csv(text: str) -> list[list[int]]:
    lines = text.strip().split("\n")
    _expect(
        lines[0] == "trial,success,typical,parities_matched,candidates_visited",
        f"trials CSV header {lines[0]!r}",
    )
    return [[int(v) for v in line.split(",")] for line in lines[1:]]


def hashing_op(invoke, point: tuple[float, int, int], trials_out: Path) -> dict:
    result = cli_call(invoke, hashing_args(*point, trials_out))
    return {"point": point, "stdout": result.stdout, "csv": trials_out.read_text()}


def check_hashing_op(out: dict) -> list[list[int]]:
    """Check the summary against its closed forms; return the trial table."""
    p0, trials, cli_seed = out["point"]
    rows = parse_trials_csv(out["csv"])
    _expect(len(rows) == trials, f"{len(rows)} trial rows for --trials {trials}")
    check_summary(json.loads(out["stdout"]), expected_summary(p0, cli_seed, rows))
    return rows


class HashingSweep(_CliWorkload):
    """``distillery hashing simulate --n 24``, one cold enumeration per op."""

    name = "hashing-sweep"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        refs = json.loads(HASHING_REFS.read_text())
        _expect(
            refs["n"] == HASHING_N
            and refs["min_trials"] == HASHING_MIN_TRIALS
            and refs["max_trials"] == HASHING_MAX_TRIALS
            and len(refs["csv_sha256_16"]) == HASHING_GRID,
            "hashing_refs.json does not match the workload parameters",
        )
        self.refs = refs["csv_sha256_16"]
        self.warmup_ref = refs["warmup_csv_sha256_16"]
        self.offset = int(np.random.default_rng([seed, 1]).integers(HASHING_GRID))
        self.step = _stride(HASHING_GRID)
        self.trials_out = workdir / f"trials-{os.getpid()}.csv"

    def _grid_index(self, i: int) -> int:
        return (self.offset + i * self.step) % HASHING_GRID

    def run(self, i: int) -> dict:
        point = hashing_point(self._grid_index(i)) if i >= 0 else HASHING_WARMUP
        return hashing_op(self.invoke, point, self.trials_out)

    def check(self, i: int, out: dict) -> dict:
        ref = self.refs[self._grid_index(i)] if i >= 0 else self.warmup_ref
        _expect(csv_digest(out["csv"]) == ref, f"trials CSV differs from reference at {out['point']}")
        rows = check_hashing_op(out)
        return {
            "trials": len(rows),
            "decoded": sum(1 for row in rows if row[3] > 0),
            "output_bytes": len(out["stdout"].encode()) + len(out["csv"].encode()),
        }

    def warmup(self) -> None:
        self.check(-1, self.run(-1))


# --- carve-verify ----------------------------------------------------------
#
# carve --verify builds a (d^2 x d^2) state and a product-form channel and
# validates both with dense eigensolves, so cost grows as d^6.  d = 64 is left
# out: it takes over 40 s per op at the commit that defined this benchmark.
#
# An op carves D and then its complement 48 - D.  One carve per op would give
# 17 cost levels about 1.25x apart, and the median would be whichever one or
# two ops sat on the middle level, moving with those ops' luck.  Pairing a
# small D with a large one puts the op costs within about 3x of each other,
# on levels about 1.1x apart near the median, so the median moves smoothly.

CARVE_DIMS = tuple(range(16, 33))
CARVE_OMEGAS = ("0.3", "0.5", "0.8")
CARVE_WARMUP = ((8, "0.5"),)


class CarveVerify(_CliWorkload):
    """``distillery carve --d D --omega W --verify`` for D and 48 - D, over
    every (D, W) pair."""

    name = "carve-verify"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        self.d_offset = int(rng.integers(len(CARVE_DIMS)))
        self.w_offset = int(rng.integers(len(CARVE_OMEGAS)))
        self.step = _stride(len(CARVE_DIMS))

    def _combos(self, i: int) -> tuple[tuple[int, str], ...]:
        """Any len(CARVE_DIMS) consecutive ops cover every D twice, once first
        and once as the complement, so the cost mix of a run barely depends on
        where it starts or stops; since 17 and 3 are coprime, every (D, W)
        pair comes up in both places within 51 ops."""
        if i < 0:
            return CARVE_WARMUP
        k = (self.d_offset + i * self.step) % len(CARVE_DIMS)
        w = self.w_offset + i
        return (
            (CARVE_DIMS[k], CARVE_OMEGAS[w % len(CARVE_OMEGAS)]),
            (CARVE_DIMS[-1 - k], CARVE_OMEGAS[(w + 1) % len(CARVE_OMEGAS)]),
        )

    def run(self, i: int) -> list[dict]:
        docs = []
        for d, omega in self._combos(i):
            args = ["carve", "--d", str(d), "--omega", omega, "--verify"]
            docs.append(json.loads(cli_call(self.invoke, args).stdout))
        return docs

    def check(self, i: int, docs: list[dict]) -> dict:
        combos = self._combos(i)
        _expect(len(docs) == len(combos), f"{len(docs)} carve reports for {len(combos)} calls")
        for (d, omega_text), doc in zip(combos, docs):
            check_carve(d, omega_text, doc)
        return {"output_bytes": sum(len(json.dumps(doc)) for doc in docs)}

    def warmup(self) -> None:
        self.check(-1, self.run(-1))


def check_carve(d: int, omega_text: str, doc: dict) -> None:
    omega = float(omega_text)
    n_pairs = math.floor(omega * math.log2(d))
    block = 2**n_pairs
    kappa = d // block
    prob = kappa * block / d
    _expect(
        (doc["d"], doc["omega"], doc["n_pairs"], doc["kappa"]) == (d, omega, n_pairs, kappa),
        f"carve report {doc} for d={d} omega={omega_text}",
    )
    _close(doc["success_prob"], prob, 1e-15, "success_prob")
    _close(doc["success_prob_lower_bound"], 1.0 - d ** (omega - 1.0), 1e-12, "lower bound")
    _close(doc["simulated_success_prob"], prob, 1e-12, "simulated_success_prob")
    _expect(doc["output_residual"] < 1e-9, f"output residual {doc['output_residual']}")


# --- small-exact -----------------------------------------------------------
#
# Library calls on 4x4 and 16x16 matrices, hundreds per op.  A change that
# speeds up large matrices but adds per-call cost shows here.

SMALL_POOL = 256
SMALL_TARGET = 0.99
# The projection search runs 1 + i % 16 trials in op i, which spreads op
# costs over more than 2x, as the trial count does in hashing-sweep.
SMALL_MAX_SEARCH_TRIALS = 16

_SQ2 = 1.0 / math.sqrt(2.0)
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) * _SQ2
# Magic basis: the maximally entangled two-qubit states are its real unit
# combinations, so the fully entangled fraction is a real top eigenvalue.
_MAGIC = np.array(
    [[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]], dtype=complex
).T * _SQ2


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ginibre_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def ref_fef(m: np.ndarray) -> float:
    in_magic = _MAGIC.conj().T @ m @ _MAGIC
    return float(np.linalg.eigvalsh((in_magic.real + in_magic.real.T) / 2).max())


def ref_ppt_min(m: np.ndarray, da: int, db: int) -> float:
    pt = m.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min())


def closed_form_step(f: float) -> tuple[float, float]:
    """Recurrence step on two Werner pairs: (output fidelity, success probability)."""
    norm = 8 * f * f - 4 * f + 5
    return (10 * f * f - 2 * f + 1) / norm, norm / 18.0


def small_input(rng: np.random.Generator, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """A two-qubit state with Phi+ weight at least lam and fully entangled
    fraction in (1/2, 0.985), hidden by a random local rotation, and a 3x3
    state near the maximally entangled one."""
    while True:
        m = lam * np.outer(_PHI_PLUS, _PHI_PLUS.conj()) + (1 - lam) * _ginibre_state(rng, 4)
        u = np.kron(_haar(rng, 2), _haar(rng, 2))
        m = u @ m @ u.conj().T
        if 0.5 + 1e-6 < ref_fef(m) < 0.985:
            break
    psi = np.zeros(9, dtype=complex)
    psi[::4] = 1.0 / math.sqrt(3.0)
    w = rng.uniform(0.4, 0.8)
    m9 = w * np.outer(psi, psi.conj()) + (1 - w) * _ginibre_state(rng, 9)
    return m, m9


class SmallExact:
    """Recurrence, twirl, diagnostics, JSON and projection search on small states."""

    name = "small-exact"

    def __init__(self, seed: int, workdir: Path):
        # The Phi+ weight sets how many recurrence steps an op schedules.  One
        # weight per stratum of [0.55, 0.9], visited in stride order, keeps the
        # cost mix of every run and every seed nearly the same.
        rng = np.random.default_rng([seed, 3])
        strata = (np.arange(SMALL_POOL) + rng.uniform(size=SMALL_POOL)) / SMALL_POOL
        step = _stride(SMALL_POOL)
        self.pool = [
            small_input(rng, 0.55 + 0.35 * strata[(k * step) % SMALL_POOL])
            for k in range(SMALL_POOL)
        ]
        self.warmup_input = small_input(np.random.default_rng([seed, 4]), 0.7)

    def _input(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.warmup_input if i < 0 else self.pool[i % SMALL_POOL]

    @staticmethod
    def _search_trials(i: int) -> int:
        return 1 + max(i, 0) % SMALL_MAX_SEARCH_TRIALS

    def run(self, i: int) -> dict:
        m, m9 = self._input(i)
        rho = qstate.DensityOperator.from_matrix(m, 2, 2)
        trace = recurrence.distill_two_qubit(rho, SMALL_TARGET)
        steps = [
            recurrence.purify_step_exact(recurrence.two_werner_pairs(f))
            for f in trace.fidelities[:-1]
        ]
        twirled = bell.twirl(rho)
        text = qstate.state_to_json(rho)
        back = qstate.state_from_json(text)
        return {
            "rho": rho,
            "trace": trace,
            "steps": steps,
            "twirled": twirled,
            "twirled_twice": bell.twirl(twirled),
            "diagnostics": bell.two_qubit_diagnostics(twirled),
            "json": text,
            "json_back": back,
            "json_again": qstate.state_to_json(back),
            "witness": bell.search_projection_witness(
                qstate.DensityOperator.from_matrix(m9, 3, 3),
                self._search_trials(i),
                seed=max(i, 0),
            ),
        }

    def check(self, i: int, out: dict) -> dict:
        m, m9 = self._input(i)
        tol = 1e-10
        trace = out["trace"]
        fids, probs = trace.fidelities, trace.step_probs
        _close(fids[0], ref_fef(m), tol, "fully entangled fraction")
        _expect(len(fids) == len(probs) + 1 >= 2, f"schedule {fids}")
        _expect(fids[-1] >= SMALL_TARGET > fids[-2], f"schedule stops at {fids[-2:]}")
        for k, (bp, p) in enumerate(out["steps"]):
            f_next, p_step = closed_form_step(fids[k])
            _close(fids[k + 1], f_next, tol, f"scheduled fidelity {k + 1}")
            _close(probs[k], p_step, tol, f"scheduled probability {k}")
            _close(bp.p[0], f_next, tol, f"exact step {k} fidelity")
            for v in bp.p[1:]:
                _close(v, (1.0 - f_next) / 3.0, tol, f"exact step {k} Werner weight")
            _close(p, p_step, tol, f"exact step {k} probability")

        f = float((_PHI_PLUS.conj() @ m @ _PHI_PLUS).real)
        weights = bell.bell_probs_from_density(out["twirled"]).p
        _close(weights[0], f, tol, "twirl keeps the Phi+ weight")
        for v in weights[1:]:
            _close(v, (1.0 - f) / 3.0, tol, "twirl spreads the rest evenly")
        # Twirling a Werner state returns it; exact up to last-bit roundoff of
        # the twelve-term average.
        residue = np.abs(out["twirled_twice"].matrix - out["twirled"].matrix).max()
        _expect(residue <= 1e-14, f"twirl not idempotent (residue {residue:.3e})")
        top = max(f, (1.0 - f) / 3.0)
        diag = out["diagnostics"]
        _close(diag.ppt_min_eigenvalue, 0.5 - top, tol, "Werner PPT minimum")
        _close(diag.fully_entangled_fraction, top, tol, "Werner fully entangled fraction")
        _expect(diag.entangled == (top > 0.5 + 1e-10), "Werner verdict")

        _expect(np.array_equal(out["json_back"].matrix, out["rho"].matrix), "JSON round trip")
        _expect(out["json_again"] == out["json"], "JSON re-serialization")

        wit = out["witness"]
        _expect(0 <= wit.trial_index < self._search_trials(i), f"witness trial {wit.trial_index}")
        isos = []
        for pi in (wit.pi_a, wit.pi_b):
            vals, vecs = np.linalg.eigh((pi + pi.conj().T) / 2)
            isos.append(vecs[:, vals > 0.5])
        k = np.kron(isos[0], isos[1]).conj().T
        compressed = k @ m9 @ k.conj().T
        weight = float(compressed.trace().real)
        _close(wit.success_prob, weight, tol, "witness probability")
        _close(wit.ppt_min_eigenvalue, ref_ppt_min(compressed / weight, 2, 2), tol, "witness PPT")
        return {}

    def warmup(self) -> None:
        self.check(-1, self.run(-1))


WORKLOADS = {cls.name: cls for cls in (HashingSweep, CarveVerify, SmallExact)}
