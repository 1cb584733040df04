"""Command line front end.

Every command is deterministic given its flags: the same invocation with the
same ``--seed`` produces byte-identical output.  JSON payloads carry reals
with 17 significant digits, CSV with 12; every JSON document, errors
included, is written by the library's one JSON writer, ``qstate._json_value``.
Failures exit non-zero after printing a single-line JSON object with an
``error_code`` field on stderr.
"""

from __future__ import annotations

import contextlib
import sys

import click
import numpy as np

from . import bell, hashing, locc, qstate, recurrence
from .errors import DistilleryError, FileAccessError, InvalidDistributionError

_CSV_SIG = 12


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise FileAccessError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None = None) -> None:
    """Print ``text``, or write it to the file ``out`` unless that is ``-``."""
    if out is None or out == "-":
        click.echo(text, file=sys.stdout)
    else:
        _write_file(out, text)


def _csv_real(x: float) -> str:
    return qstate.format_real(float(x), _CSV_SIG)


def _fail(code: str, message: str) -> None:
    line = qstate._json_value({"error_code": code, "message": message})
    click.echo(line, file=sys.stderr)
    sys.exit(1)


def _load_state(path: str) -> qstate.DensityOperator:
    return qstate.state_from_json(_read_file(path))


class _Main(click.Group):
    """The command group, where every failure is reported: a library error, a
    bad value and click's usage errors (an unknown option, a missing or
    malformed value) each print one JSON line and exit 1.  The group parses
    in ``make_context``; its subcommands parse and run inside ``invoke``."""

    def make_context(self, *args, **kwargs):
        with _failures():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _failures():
            return super().invoke(ctx)


@contextlib.contextmanager
def _failures():
    try:
        yield
    except DistilleryError as exc:
        _fail(exc.code, str(exc))
    except ValueError as exc:
        _fail("invalid_argument", str(exc))
    except click.UsageError as exc:
        # click >= 8.2 raises one for a group run bare, to print its help
        if type(exc).__name__ != "NoArgsIsHelpError":
            _fail("invalid_argument", exc.format_message())
        raise


@click.group(cls=_Main)
def main() -> None:
    """Exact two-qubit distillation toolkit: states, twirls, recurrence, hashing."""


@main.command("state")
@click.argument("kind", type=click.Choice(["bell", "werner", "psiplus", "file"]))
@click.option("--F", "fidelity", type=float, default=None, help="Werner fidelity.")
@click.option("--label", type=int, default=0, help="Bell label 0..3.")
@click.option("--d", "dim", type=int, default=2, help="Local dimension for psiplus.")
@click.option("--in", "path", type=str, default=None, help="State file to round-trip.")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def cmd_state(kind, fidelity, label, dim, path, out) -> None:
    """Emit a state as JSON: bell, werner, psiplus, or a re-serialized file."""
    if kind == "bell":
        rho = bell.bell_state(label).density()
    elif kind == "werner":
        if fidelity is None:
            raise ValueError("werner needs --F")
        rho = bell.werner(fidelity)
    elif kind == "psiplus":
        rho = qstate.max_entangled(dim).density()
    else:
        if path is None:
            raise ValueError("file needs --in")
        rho = _load_state(path)
    _emit(qstate.state_to_json(rho), out)


@main.command("check")
@click.option("--in", "path", type=str, required=True, help="State file to inspect.")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def cmd_check(path, out) -> None:
    """Entanglement diagnostics; two-qubit states also get fraction and verdict."""
    rho = _load_state(path)
    doc = {"dim_a": rho.dim_a, "dim_b": rho.dim_b}
    if (rho.dim_a, rho.dim_b) == (2, 2):
        diag = bell.two_qubit_diagnostics(rho)
        doc["ppt_min_eigenvalue"] = diag.ppt_min_eigenvalue
        doc["fully_entangled_fraction"] = diag.fully_entangled_fraction
        doc["entangled"] = diag.entangled
    else:
        doc["ppt_min_eigenvalue"] = bell.ppt_min_eigenvalue(rho)
        doc["fully_entangled_fraction"] = None
        doc["entangled"] = None
    _emit(qstate._json_value(doc), out)


@main.command("twirl")
@click.option("--in", "path", type=str, required=True)
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default="exact")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_twirl(path, out, mode, seed) -> None:
    """Twirl a two-qubit state to Werner form (or sample one protocol member)."""
    rho = _load_state(path)
    _emit(qstate.state_to_json(bell.twirl(rho, mode=mode, seed=seed)), out)


@main.command("recurrence")
@click.option("--F0", "f0", type=float, required=True)
@click.option("--F-target", "f_target", type=float, required=True)
@click.option("--max-steps", type=int, default=200, show_default=True)
@click.option("--out", type=str, default=None, help="CSV path (default stdout).")
def cmd_recurrence(f0, f_target, max_steps, out) -> None:
    """Closed-form recurrence schedule as CSV: step,F,p_step,p_cum_lower_bound."""
    trace = recurrence.iterate_to_target(f0, f_target, max_steps=max_steps)
    lines = ["step,F,p_step,p_cum_lower_bound"]
    cumulative = 1.0
    lines.append(f"0,{_csv_real(trace.fidelities[0])},{_csv_real(1.0)},{_csv_real(1.0)}")
    for k, p in enumerate(trace.step_probs, start=1):
        cumulative *= p
        lines.append(
            f"{k},{_csv_real(trace.fidelities[k])},{_csv_real(p)},{_csv_real(cumulative)}"
        )
    _emit("\n".join(lines), out)


@main.group("hashing")
def cmd_hashing() -> None:
    """Classical hashing-protocol simulation."""


@cmd_hashing.command("simulate")
@click.option("--n", type=int, required=True, help="Pairs per trial.")
@click.option("--p0", type=float, required=True)
@click.option("--p1", type=float, required=True)
@click.option("--p2", type=float, required=True)
@click.option("--p3", type=float, required=True)
@click.option("--epsilon", type=float, default=None, help="Override the window width.")
@click.option("--r", "rounds", type=int, default=None, help="Override the round count.")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--budget", type=int, default=hashing.DEFAULT_DECODER_BUDGET, show_default=True)
@click.option(
    "--out",
    "out_format",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="json: summary document; csv: per-trial table.",
)
@click.option("--trials-out", type=str, default=None, help="Also write the per-trial CSV here.")
def cmd_hashing_simulate(
    n, p0, p1, p2, p3, epsilon, rounds, trials, seed, budget, out_format, trials_out
) -> None:
    """Monte Carlo hashing runs with per-trial seeds derived from --seed."""
    raw = (p0, p1, p2, p3)
    if not np.isfinite(raw).all():
        raise InvalidDistributionError(f"non-finite probability in {raw}")
    total = sum(raw)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}; must be 1 within 1e-9")
    src = hashing.SourceDist(tuple(v / total for v in raw))
    plan = hashing.plan_yield(src, n, epsilon=epsilon, r=rounds)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    # The counts and the CSV text are kept, one block of lines per chunk of trials.
    seeds = ([seed, trial] for trial in range(trials))
    failures = misses = done = 0
    csv_blocks = ["trial,success,typical,parities_matched,candidates_visited"]
    for chunk in hashing._run_trials(src, plan, seeds, budget):
        failures += int(np.count_nonzero(~chunk.success))
        misses += int(np.count_nonzero(~chunk.typical))
        rows = zip(chunk.success.tolist(), chunk.typical.tolist(), chunk.parities_matched.tolist())
        visits = chunk.candidates_visited
        csv_blocks.append(
            "\n".join(f"{i},{s:d},{t:d},{m},{visits}" for i, (s, t, m) in enumerate(rows, done))
        )
        done += len(chunk.success)
    miss = hashing._wilson_estimate(misses, trials)
    bound = hashing.failure_bound(src, plan, miss.q_hat)

    csv_text = "\n".join(csv_blocks)
    if trials_out is not None:
        _write_file(trials_out, csv_text)

    summary = {
        "n": plan.n,
        "r": plan.r,
        "m": plan.m,
        "epsilon": plan.epsilon,
        "h": plan.h,
        "rate": plan.m / plan.n,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "failure_rate": failures / trials,
        "q_hat": miss.q_hat,
        "q_upper": miss.upper,
        "collision_term": bound.collision_term,
        "failure_bound": bound.total,
    }
    _emit(csv_text if out_format == "csv" else qstate._json_value(summary))


@main.command("carve")
@click.option("--d", "dim", type=int, required=True)
@click.option("--omega", type=float, required=True)
@click.option("--verify", is_flag=True, help="Also simulate the channel exactly.")
def cmd_carve(dim, omega, verify) -> None:
    """Carving report for the d x d maximally entangled state."""
    report = locc.carve_pairs(dim, omega)
    doc = {
        "d": report.d,
        "omega": report.omega,
        "n_pairs": report.n_pairs,
        "kappa": report.kappa,
        "success_prob": report.success_prob,
        "success_prob_lower_bound": 1.0 - float(report.d) ** (report.omega - 1.0),
    }
    if verify:
        outcome = locc.apply_selective(report.channel, qstate.max_entangled(report.d))
        target = qstate.max_entangled(2**report.n_pairs).density()
        residual = float(np.abs(outcome.normalized().matrix - target.matrix).max())
        doc["simulated_success_prob"] = outcome.probability
        doc["output_residual"] = residual
    _emit(qstate._json_value(doc))


@main.command("search-projection")
@click.option("--in", "path", type=str, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_search_projection(path, trials, seed) -> None:
    """Randomized local rank-2 projection search; reports the best witness."""
    rho = _load_state(path)
    witness = bell.search_projection_witness(rho, trials, seed=seed)
    doc = {
        "ppt_min_eigenvalue": witness.ppt_min_eigenvalue,
        "entangled": bell._entangled(witness.ppt_min_eigenvalue),
        "trial_index": witness.trial_index,
        "success_prob": witness.success_prob,
        "pi_a": witness.pi_a,
        "pi_b": witness.pi_b,
    }
    _emit(qstate._json_value(doc))


if __name__ == "__main__":
    main()
