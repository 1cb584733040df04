"""Command line behavior: payload formats, determinism, structured failures.

Commands are exercised through click's in-process runner; outputs are parsed
back and compared against the library they wrap.
"""

import gc
import hashlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from distillery import bell, locc, qstate, recurrence
from distillery.cli import main
from distillery.sampling import random_density_operator


@pytest.fixture
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result


def invoke_fail(runner, args, code):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    doc = json.loads(result.stderr.strip())
    assert doc["error_code"] == code
    assert doc["message"]
    return doc


def write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    path.write_text(qstate.state_to_json(rho) + "\n")
    return str(path)


def test_state_werner_round_trip(runner, tmp_path):
    f = tmp_path / "w.json"
    g = tmp_path / "w2.json"
    invoke_ok(runner, ["state", "werner", "--F", "0.7", "--out", str(f)])
    rho = qstate.state_from_json(f.read_text())
    assert np.array_equal(rho.matrix, bell.werner(0.7).matrix)

    # re-serializing a file reproduces it byte for byte
    invoke_ok(runner, ["state", "file", "--in", str(f), "--out", str(g)])
    assert g.read_bytes() == f.read_bytes()
    result = invoke_ok(runner, ["state", "file", "--in", str(f)])
    assert result.stdout == f.read_text()


def test_state_bell_and_psiplus(runner):
    result = invoke_ok(runner, ["state", "bell", "--label", "2"])
    rho = qstate.state_from_json(result.stdout)
    assert np.array_equal(rho.matrix, bell.bell_state(2).density().matrix)

    result = invoke_ok(runner, ["state", "psiplus", "--d", "4"])
    rho = qstate.state_from_json(result.stdout)
    assert (rho.dim_a, rho.dim_b) == (4, 4)
    assert np.array_equal(rho.matrix, qstate.max_entangled(4).density().matrix)


def test_state_argument_errors(runner):
    invoke_fail(runner, ["state", "werner"], "invalid_argument")  # missing --F
    invoke_fail(runner, ["state", "file"], "invalid_argument")  # missing --in
    invoke_fail(runner, ["state", "werner", "--F", "1.5"], "invalid_state")


def test_check_two_qubit_state(runner, tmp_path):
    path = write_state(tmp_path, bell.werner(0.7))
    doc = json.loads(invoke_ok(runner, ["check", "--in", path]).stdout)
    assert (doc["dim_a"], doc["dim_b"]) == (2, 2)
    assert abs(doc["ppt_min_eigenvalue"] - (0.5 - 0.7)) < 1e-12
    assert abs(doc["fully_entangled_fraction"] - 0.7) < 1e-12
    assert doc["entangled"] is True


def test_check_higher_dimensional_state(runner, tmp_path):
    path = write_state(tmp_path, qstate.max_entangled(4).density())
    doc = json.loads(invoke_ok(runner, ["check", "--in", path]).stdout)
    assert (doc["dim_a"], doc["dim_b"]) == (4, 4)
    assert abs(doc["ppt_min_eigenvalue"] + 0.25) < 1e-12
    # fraction and verdict are defined only for two qubits
    assert doc["fully_entangled_fraction"] is None
    assert doc["entangled"] is None


def test_twirl_command(runner, tmp_path):
    zz = qstate.DensityOperator.from_matrix(np.diag([1.0, 0, 0, 0]), 2, 2)
    path = write_state(tmp_path, zz)
    result = invoke_ok(runner, ["twirl", "--in", path])
    out = qstate.state_from_json(result.stdout)
    assert np.abs(out.matrix - bell.werner(0.5).matrix).max() < 1e-12

    # sampled mode is deterministic per seed
    a = invoke_ok(runner, ["twirl", "--in", path, "--mode", "sampled", "--seed", "5"])
    b = invoke_ok(runner, ["twirl", "--in", path, "--mode", "sampled", "--seed", "5"])
    assert a.stdout == b.stdout


def test_recurrence_csv_schedule(runner, tmp_path):
    result = invoke_ok(runner, ["recurrence", "--F0", "0.7", "--F-target", "0.99"])
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "step,F,p_step,p_cum_lower_bound"
    assert lines[1] == "0,0.7,1,1"
    rows = [line.split(",") for line in lines[1:]]
    fids = [float(r[1]) for r in rows]
    assert fids[-1] >= 0.99 - 1e-12
    cumulative = 1.0
    for prev, row in zip(fids, rows[1:]):
        f_next, p_step, p_cum = (float(v) for v in row[1:])
        assert abs(f_next - recurrence.purified_fidelity(prev)) < 1e-9
        assert abs(p_step - recurrence.step_success_prob(prev)) < 1e-9
        cumulative *= p_step
        assert abs(p_cum - cumulative) < 1e-9

    out = tmp_path / "sched.csv"
    invoke_ok(runner, ["recurrence", "--F0", "0.7", "--F-target", "0.99", "--out", str(out)])
    assert out.read_text() == result.stdout


def test_recurrence_errors(runner):
    invoke_fail(runner, ["recurrence", "--F0", "0.3", "--F-target", "0.9"], "not_distillable")
    invoke_fail(runner, ["recurrence", "--F0", "0.7", "--F-target", "0.5"], "unreachable_target")


def invoke_one_error_line(runner, args, code):
    """Exit code 1, nothing on stdout, exactly one JSON error line on stderr."""
    result = runner.invoke(main, args)
    assert result.exit_code == 1 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"error_code", "message"} and doc["error_code"] == code
    return doc["message"]


def test_non_finite_inputs_fail_with_one_json_line(runner):
    # a NaN target once passed every comparison and printed a zero-step
    # schedule; infinite weights summed to NaN and were reported normalized
    for value in ("nan", "inf", "-inf"):
        args = ["recurrence", "--F0", value, "--F-target", "0.9"]
        assert value in invoke_one_error_line(runner, args, "not_distillable")
        args = ["recurrence", "--F0", "0.7", "--F-target", value]
        assert value in invoke_one_error_line(runner, args, "unreachable_target")
        args = [
            "hashing", "simulate", "--n", "8",
            "--p0", "0.5", "--p1", value, "--p2", "0.25", "--p3", "0.25",
            "--trials", "2",
        ]  # fmt: skip
        message = invoke_one_error_line(runner, args, "invalid_distribution")
        assert message == f"non-finite probability in (0.5, {float(value)}, 0.25, 0.25)"
    args = [
        "hashing", "simulate", "--n", "8",
        "--p0", "0.5", "--p1", "inf", "--p2", "-inf", "--p3", "0.5", "--trials", "2",
    ]  # fmt: skip
    message = invoke_one_error_line(runner, args, "invalid_distribution")
    assert message == "non-finite probability in (0.5, inf, -inf, 0.5)"


def test_hashing_simulate_matches_the_pinned_refs(runner, tmp_path):
    # the benchmark's hashing-sweep pins one trials-CSV digest per grid point;
    # 16 points cover every trial count, and the warm-up point its own ref
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    refs = json.loads(workloads.HASHING_REFS.read_text())
    cases = [(workloads.HASHING_WARMUP, refs["warmup_csv_sha256_16"])]
    for k in range(0, workloads.HASHING_GRID, 65):
        cases.append((workloads.hashing_point(k), refs["csv_sha256_16"][k]))
    out = tmp_path / "trials.csv"
    for point, ref in cases:
        invoke_ok(runner, workloads.hashing_args(*point, out))
        assert workloads.csv_digest(out.read_text()) == ref, point


def test_hashing_simulate_summary(runner, tmp_path):
    csv_path = tmp_path / "trials.csv"
    args = [
        "hashing", "simulate", "--n", "8",
        "--p0", "1", "--p1", "0", "--p2", "0", "--p3", "0",
        "--trials", "5", "--seed", "9", "--trials-out", str(csv_path),
    ]
    result = invoke_ok(runner, args)
    doc = json.loads(result.stdout)
    assert (doc["n"], doc["r"], doc["m"]) == (8, 4, 4)
    assert doc["epsilon"] == 0.25 and doc["h"] == 0.0 and doc["rate"] == 0.5
    assert (doc["trials"], doc["seed"]) == (5, 9)
    # a zero-entropy source always decodes
    assert doc["failures"] == 0 and doc["failure_rate"] == 0.0
    assert doc["q_hat"] == 0.0 and 0.0 < doc["q_upper"] <= 1.0
    assert abs(doc["collision_term"] - 0.25) < 1e-15
    assert abs(doc["failure_bound"] - 0.25) < 1e-15

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,success,typical,parities_matched,candidates_visited"
    assert lines[1:] == [f"{i},1,1,1,9" for i in range(5)]

    # byte-identical rerun; csv output mode prints the per-trial table
    assert invoke_ok(runner, args).stdout == result.stdout
    table = invoke_ok(runner, args + ["--out", "csv"])
    assert table.stdout.strip().splitlines() == lines


# Per command: an unknown option, a missing required input and a malformed
# value.  ``check`` has only string options, so its malformed value is an
# option given no value; ``state`` requires an argument, not an option.
_HASHING = ["hashing", "simulate", "--n", "8", "--p0", "0.91", "--p1", "0.03", "--p2", "0.03"]
USAGE_ERRORS = {
    "state": (["state", "bell", "--bogus"], ["state"], ["state", "bell", "--label", "x"]),
    "check": (["check", "--in", "s.json", "--bogus"], ["check"], ["check", "--in"]),
    "twirl": (
        ["twirl", "--in", "s.json", "--bogus"],
        ["twirl", "--mode", "exact"],
        ["twirl", "--in", "s.json", "--seed", "x"],
    ),
    "recurrence": (
        ["recurrence", "--F0", "0.9", "--F-target", "0.99", "--bogus"],
        ["recurrence", "--F0", "0.9"],
        ["recurrence", "--F0", "abc", "--F-target", "0.99"],
    ),
    "hashing simulate": (
        _HASHING + ["--p3", "0.03", "--trials", "2", "--bogus"],
        _HASHING + ["--p3", "0.03"],
        _HASHING + ["--p3", "0.03", "--trials", "two"],
    ),
    "carve": (
        ["carve", "--d", "8", "--omega", "0.5", "--bogus"],
        ["carve", "--d", "8"],
        ["carve", "--d", "8.5", "--omega", "0.5"],
    ),
    "search-projection": (
        ["search-projection", "--in", "s.json", "--trials", "2", "--bogus"],
        ["search-projection", "--in", "s.json"],
        ["search-projection", "--in", "s.json", "--trials", "many"],
    ),
}


def test_usage_errors_fail_with_one_json_line(runner):
    # click's usage errors once exited 2 with its multi-line usage text
    for command, cases in USAGE_ERRORS.items():
        unknown, missing, malformed = cases
        assert "--bogus" in invoke_one_error_line(runner, unknown, "invalid_argument")
        assert "Missing" in invoke_one_error_line(runner, missing, "invalid_argument")
        message = invoke_one_error_line(runner, malformed, "invalid_argument")
        assert "Invalid value" in message or "requires an argument" in message, command
    message = invoke_one_error_line(runner, ["recurrence", "--f0", "0.9"], "invalid_argument")
    assert message == "No such option '--f0'. Did you mean '--F0'?"
    for args in (["--bogus"], ["hashing", "--bogus"], ["nonsense"]):
        invoke_one_error_line(runner, args, "invalid_argument")
    # help is printed as before, on --help and for a group run bare
    for command in USAGE_ERRORS:
        result = runner.invoke(main, command.split() + ["--help"])
        assert result.exit_code == 0 and result.stdout.startswith("Usage: ")
    for args in ([], ["hashing"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and result.stderr.startswith("Usage: ")


def test_hashing_simulate_rejects_a_negative_budget(runner):
    # budget -1 once exited 0 with a summary in which every trial failed
    args = _HASHING + ["--p3", "0.03", "--trials", "2"]
    message = invoke_one_error_line(runner, args + ["--budget", "-1"], "dimension_mismatch")
    assert "budget=-1" in message
    doc = json.loads(invoke_ok(runner, args + ["--budget", "0"]).stdout)
    assert (doc["trials"], doc["failures"]) == (2, 2)


def test_hashing_simulate_memory_is_bounded_by_the_chunk(runner, tmp_path):
    # every trial's result object was once kept until the summary printed,
    # ~1.2 KB a trial; now a call keeps its counts and the CSV text.  Traced,
    # each trial's generator construction costs ~0.1 ms, which sets the sizes.
    args = [
        "hashing", "simulate", "--n", "16",
        "--p0", "0.91", "--p1", "0.03", "--p2", "0.03", "--p3", "0.03",
        "--trials-out", str(tmp_path / "trials.csv"), "--trials",
    ]  # fmt: skip
    invoke_ok(runner, args + ["3"])

    def peak(trials):
        tracemalloc.start()
        try:
            invoke_ok(runner, args + [str(trials)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500), peak(5000)
    assert large - small <= 128 * 4500, (small, large)


def test_negative_seeds_are_usage_errors(runner):
    # a negative --seed once reached numpy, whose message names no option
    for args in (
        ["twirl", "--in", "s.json", "--seed", "-1"],
        _HASHING + ["--p3", "0.03", "--trials", "2", "--seed", "-1"],
        ["search-projection", "--in", "s.json", "--trials", "2", "--seed", "-3"],
    ):
        message = invoke_one_error_line(runner, args, "invalid_argument")
        assert "'--seed'" in message and "x>=0" in message, message


def test_hashing_simulate_long_strings_exhaust_the_budget(runner, tmp_path):
    # n = 1200 once ended in a RecursionError traceback from a depth-first
    # enumerator; now the visit budget runs out and the trial fails cleanly
    csv_path = tmp_path / "trials.csv"
    args = [
        "hashing", "simulate", "--n", "1200",
        "--p0", "0.91", "--p1", "0.03", "--p2", "0.03", "--p3", "0.03",
        "--trials", "1", "--budget", "5000", "--trials-out", str(csv_path),
    ]  # fmt: skip
    result = invoke_ok(runner, args)
    assert result.exception is None
    doc = json.loads(result.stdout)
    assert (doc["n"], doc["trials"], doc["failures"]) == (1200, 1, 1)
    row = csv_path.read_text().strip().splitlines()[1].split(",")
    assert (row[0], row[1], row[3], row[4]) == ("0", "0", "0", "5001")


def test_hashing_simulate_bad_probabilities(runner):
    args = [
        "hashing", "simulate", "--n", "8",
        "--p0", "0.5", "--p1", "0.2", "--p2", "0.2", "--p3", "0.2",
        "--trials", "2",
    ]
    invoke_fail(runner, args, "invalid_argument")


def test_carve_report(runner):
    doc = json.loads(invoke_ok(runner, ["carve", "--d", "5", "--omega", "0.5", "--verify"]).stdout)
    assert (doc["d"], doc["n_pairs"], doc["kappa"]) == (5, 1, 2)
    assert doc["omega"] == 0.5
    assert abs(doc["success_prob"] - 0.8) < 1e-15
    assert abs(doc["success_prob_lower_bound"] - (1 - 5**-0.5)) < 1e-15
    assert doc["success_prob"] >= doc["success_prob_lower_bound"]
    assert abs(doc["simulated_success_prob"] - 0.8) < 1e-12
    assert doc["output_residual"] < 1e-12

    invoke_fail(runner, ["carve", "--d", "2", "--omega", "0.5"], "nothing_to_carve")


def test_search_projection_on_two_qubits(runner, tmp_path):
    # on qubits every rank-2 projection is the identity, so the search
    # reproduces the plain PPT diagnostic on the first trial
    path = write_state(tmp_path, bell.werner(0.9))
    doc = json.loads(
        invoke_ok(runner, ["search-projection", "--in", path, "--trials", "3"]).stdout
    )
    assert abs(doc["ppt_min_eigenvalue"] - (0.5 - 0.9)) < 1e-10
    assert doc["entangled"] is True
    assert doc["trial_index"] == 0
    assert abs(doc["success_prob"] - 1.0) < 1e-12
    pi_a = np.array([[complex(re, im) for re, im in row] for row in doc["pi_a"]])
    assert np.abs(pi_a - np.eye(2)).max() < 1e-12

    invoke_fail(
        runner, ["search-projection", "--in", path, "--trials", "0"], "dimension_mismatch"
    )


def test_malformed_state_files(runner, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not a state")
    invoke_fail(runner, ["check", "--in", str(garbage)], "invalid_argument")

    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"dim_a": 2}')
    invoke_fail(runner, ["check", "--in", str(truncated)], "invalid_state")

    unphysical = tmp_path / "unphysical.json"
    doc = json.loads(qstate.state_to_json(bell.werner(0.7)))
    doc["matrix"][0][0] = [5.0, 0.0]  # breaks the unit trace
    unphysical.write_text(json.dumps(doc))
    invoke_fail(runner, ["check", "--in", str(unphysical)], "invalid_state")

    huge = tmp_path / "huge.json"
    huge.write_text('{"dim_a":1,"dim_b":1,"matrix":[[[' + "1" * 5000 + ",0]]]}")
    message = invoke_one_error_line(runner, ["check", "--in", str(huge)], "invalid_state")
    assert message == "matrix has a non-finite cell"


def test_state_dims_must_be_integers(runner, tmp_path):
    # non-finite or fractional dims once ended in a traceback or read as 1
    bad = tmp_path / "bad.json"
    good = qstate.state_to_json(bell.werner(0.7))
    # an integer too long for Python's int parser once failed as invalid_argument
    for value in ("Infinity", "-Infinity", "NaN", "1e400", "1.9", "true", '"2"', "1" * 5000):
        bad.write_text(good.replace('"dim_a":2', f'"dim_a":{value}'))
        result = runner.invoke(main, ["check", "--in", str(bad)])
        assert result.exit_code == 1 and result.stdout == ""
        assert "Traceback" not in result.output + result.stderr
        line = result.stderr.strip()
        assert "\n" not in line
        assert json.loads(line)["error_code"] == "invalid_state"


def test_out_dash_prints_to_stdout(runner, tmp_path, monkeypatch):
    # "--out -" means stdout on every command that takes --out; no file named "-"
    monkeypatch.chdir(tmp_path)
    path = write_state(tmp_path, bell.werner(0.7))
    for args in (
        ["check", "--in", path],
        ["twirl", "--in", path],
        ["state", "werner", "--F", "0.7"],
        ["recurrence", "--F0", "0.7", "--F-target", "0.9"],
    ):
        plain = invoke_ok(runner, args).stdout
        assert invoke_ok(runner, args + ["--out", "-"]).stdout == plain
    assert not (tmp_path / "-").exists()


def test_unreadable_and_unwritable_files(runner, tmp_path):
    missing = str(tmp_path / "missing.json")
    for args in (
        ["check", "--in", missing],
        ["twirl", "--in", missing],
        ["search-projection", "--in", missing, "--trials", "1"],
        ["state", "file", "--in", missing],
        ["check", "--in", str(tmp_path)],  # a directory, not a file
    ):
        doc = invoke_fail(runner, args, "file_access")
        assert "missing.json" in doc["message"] or str(tmp_path) in doc["message"]

    nowhere = str(tmp_path / "no-such-dir" / "out")
    path = write_state(tmp_path, bell.werner(0.7))
    invoke_fail(runner, ["state", "werner", "--F", "0.7", "--out", nowhere], "file_access")
    invoke_fail(runner, ["check", "--in", path, "--out", nowhere], "file_access")
    invoke_fail(
        runner, ["recurrence", "--F0", "0.7", "--F-target", "0.9", "--out", nowhere], "file_access"
    )
    args = [
        "hashing", "simulate", "--n", "8", "--p0", "1", "--p1", "0", "--p2", "0", "--p3", "0",
        "--trials", "40", "--trials-out", nowhere,
    ]  # fmt: skip
    invoke_one_error_line(runner, args, "file_access")  # nothing on stdout


def test_malformed_matrix_cells(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for matrix in ("[[1]]", "[[[1]]]", '[["1"]]', "[[null]]", "[[[NaN, 0]]]"):
        bad.write_text(f'{{"dim_a":1,"dim_b":1,"matrix":{matrix}}}')
        invoke_fail(runner, ["check", "--in", str(bad)], "invalid_state")


def test_hashing_simulate_nan_probability(runner):
    # NaN slips through the sum check (every comparison with it is false)
    # and is stopped by the source distribution itself
    args = [
        "hashing", "simulate", "--n", "8",
        "--p0", "nan", "--p1", "0.5", "--p2", "0.25", "--p3", "0.25",
        "--trials", "2",
    ]  # fmt: skip
    invoke_fail(runner, args, "invalid_distribution")


def test_hashing_simulate_non_finite_epsilon(runner):
    # NaN fails every comparison and inf passes the positivity check; the
    # summary would print either as a bare token, which is not JSON
    for value in ("nan", "inf", "-inf"):
        args = [
            "hashing", "simulate", "--n", "8",
            "--p0", "0.9", "--p1", "0.05", "--p2", "0.03", "--p3", "0.02",
            "--epsilon", value, "--trials", "2",
        ]  # fmt: skip
        doc = invoke_fail(runner, args, "invalid_distribution")
        assert "finite" in doc["message"]


def test_check_output_is_pinned(runner, tmp_path):
    # check prints exactly what it printed before it shared the PPT helper
    path = write_state(tmp_path, bell.werner(0.7))
    assert invoke_ok(runner, ["check", "--in", path]).stdout == (
        '{"dim_a":2,"dim_b":2,"ppt_min_eigenvalue":-0.19999999999999996,'
        '"fully_entangled_fraction":0.69999999999999973,"entangled":true}\n'
    )
    path = write_state(tmp_path, qstate.max_entangled(3).density())
    assert invoke_ok(runner, ["check", "--in", path]).stdout == (
        '{"dim_a":3,"dim_b":3,"ppt_min_eigenvalue":-0.33333333333333343,'
        '"fully_entangled_fraction":null,"entangled":null}\n'
    )


def test_carve_verify_at_the_dimension_cap(runner):
    args = ["carve", "--d", "64", "--omega", "0.8", "--verify"]
    doc = json.loads(invoke_ok(runner, args).stdout)
    assert (doc["d"], doc["n_pairs"], doc["kappa"]) == (64, 4, 4)
    assert doc["success_prob"] == 1.0
    assert abs(doc["simulated_success_prob"] - 1.0) < 1e-12
    assert doc["output_residual"] < 1e-12


def test_search_projection_output_is_pinned(runner, tmp_path):
    # the stacked trials print what the one-trial-at-a-time search printed
    noise = random_density_operator(3, 3, np.random.default_rng(17)).matrix
    m = 0.6 * qstate.max_entangled(3).density().matrix + 0.4 * noise
    path = write_state(tmp_path, qstate.DensityOperator.from_matrix(m, 3, 3))
    args = ["search-projection", "--in", path, "--trials", "40", "--seed", "7"]
    stdout = invoke_ok(runner, args).stdout
    assert stdout.startswith(
        '{"ppt_min_eigenvalue":-0.34555148750780601,"entangled":true,"trial_index":38,'
        '"success_prob":0.55168862137359187,"pi_a":[[[0.73505469301362947,'
    )
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "80f89054ec74d409cda513033423b87aab7ce646f10dbfae98e3dad5bb33ce18"
    )


def test_twirl_output_is_pinned(runner, tmp_path):
    # the stacked twelve-term twirl prints what the sum of twelve products printed
    path = write_state(tmp_path, random_density_operator(2, 2, np.random.default_rng(8)))
    assert invoke_ok(runner, ["twirl", "--in", path]).stdout == (
        '{"dim_a":2,"dim_b":2,"matrix":['
        "[[0.28179501900907233,2.6480530187999274e-18],[0,0],"
        "[1.1564823173178713e-18,1.1564823173178713e-18],[0.06359003801814489,0]],"
        "[[0,0],[0.21820498099092744,-1.0217497600716712e-18],"
        "[-1.3877787807814457e-17,2.8912057932946783e-19],[8.6736173798840355e-19,0]],"
        "[[1.1564823173178713e-18,0],[-1.1564823173178713e-17,2.8912057932946783e-19],"
        "[0.21820498099092744,-1.0217497600716712e-18],[0,0]],"
        "[[0.06359003801814489,0],[8.6736173798840355e-19,-1.1564823173178713e-18],"
        "[1.1564823173178713e-18,-1.1564823173178713e-18],"
        "[0.28179501900907233,2.6480530187999278e-18]]]}\n"
    )


# sha256 of ``carve --d D --omega W --verify`` stdout, recorded before the
# carving channel kept its factors; d = 5 at omega = 0.3 carves nothing
CARVE_VERIFY_SHA256 = {
    (5, "0.5"): "bffa40d5a9f9e7821c631f3889a2e03c61b1717b8140a6b029431de78854a83c",
    (5, "0.8"): "f71e3ac4c5683ca1c9f042e9fca4ae751c9f8155626c3614000d89053d1ece93",
    (16, "0.3"): "a1c5974951093dd144a4c46a6aae1809efa8ff8e206416f352079f0f827896dd",
    (16, "0.5"): "a752c49d5d96f380fbac8aae3be41691ab6705d1a0e413532d4ed05ecb717e41",
    (16, "0.8"): "18bb7bef7c1f7c6e5dc35bad95bc3b89c36b24472ef9ac5176962e2ba490feef",
    (24, "0.3"): "4ab54e12333205bea473e0fa4beb6e837ea23e44994c13613c644a60c0c5a2ac",
    (24, "0.5"): "ff51847d150ff38002c6d78630e7b8e95e49545d5ad64b765b686b9ee793f810",
    (24, "0.8"): "1792f7cf4c498069651baa770dae6c25d6dd9ac51b530cdeda435dfc9795612e",
    (32, "0.3"): "4ee87c07f136b58189d7c5f83f2dff7d94aed52fa55e7fc51f08fb1d92ef5605",
    (32, "0.5"): "0b44a03c2ac7c57da089ed44b1c56e75b7ba257b01e445e8852b5442b90a27b8",
    (32, "0.8"): "c5500f92f6e4f35711cccc75f755811dd37b9fb727a369346c36a8c10c321fe2",
    (64, "0.3"): "71d2053268d5400db6fa7d66ec70feae5d5a7957243e5d00677ada93a7c71d6f",
    (64, "0.5"): "49f30ea051e72556183fe8da4ddd355e5bf8b39fff608e9edcdff4af63220b00",
    (64, "0.8"): "a3c2ad613cfacc51e425f65ec6f8355cb81014eae7f3e8ca416b0b0694a5f191",
}


def test_carve_verify_output_is_pinned(runner):
    for d in (5, 16, 24, 32, 64):
        for omega in ("0.3", "0.5", "0.8"):
            args = ["carve", "--d", str(d), "--omega", omega, "--verify"]
            if (d, omega) == (5, "0.3"):
                invoke_fail(runner, args, "nothing_to_carve")
                continue
            digest = hashlib.sha256(invoke_ok(runner, args).stdout.encode()).hexdigest()
            assert digest == CARVE_VERIFY_SHA256[d, omega], (d, omega)


def test_carve_verify_forms_no_dense_kraus_operator(runner, monkeypatch):
    # the success branch comes from the factor pairs applied to the state
    # vector; no pi_j (x) pi_j is ever formed
    formed = []

    def spy(a, b):
        formed.append((a.shape, b.shape))
        return kron(a, b)

    kron = locc._kron
    monkeypatch.setattr(locc, "_kron", spy)
    for d, omega in ((5, "0.5"), (16, "0.8"), (33, "0.5"), (64, "0.8"), (64, "0.99")):
        invoke_ok(runner, ["carve", "--d", str(d), "--omega", omega, "--verify"])
    assert formed == []
    # while reading the operators of the same channel forms them
    assert len(locc.carve_pairs(16, 0.8).channel.kraus_ops) == 2 and len(formed) == 1


def test_carve_verify_memory_at_the_dimension_cap(runner):
    # d = 64, omega = 0.8 once held four dense 256 x 4096 Kraus operators and
    # their copies, a 128 MB peak; the factored branch needs a few MB
    args = ["carve", "--d", "64", "--omega", "0.8", "--verify"]
    invoke_ok(runner, args)
    tracemalloc.start()
    try:
        invoke_ok(runner, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def test_in_process_calls_leave_no_objects_behind(runner):
    # click caches a wrapper per stream it echoes to by default, and the
    # wrapper keeps its key alive, so each in-process call once left its
    # captured streams behind (about seven objects a call)
    calls = [
        (_HASHING + ["--p3", "0.03", "--trials", "3"], 0),
        (["carve", "--d", "8", "--omega", "0.5"], 0),
        (["carve", "--d", "8", "--omega", "7"], 1),
    ]

    def run(count):
        for i in range(count):
            args, code = calls[i % len(calls)]
            assert runner.invoke(main, args).exit_code == code

    run(30)
    gc.collect()
    before = len(gc.get_objects())
    run(300)
    gc.collect()
    assert len(gc.get_objects()) - before < 300


# --- the one JSON writer against the writers it replaced ---------------------


def reference_json_value(value):
    """The command line's writer before the library had one writer; complex
    matrices reached it as nested lists of [re, im] floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return qstate.format_real(float(value), 17)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{reference_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(reference_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_complex_matrix_doc(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def reference_matrix_to_json(m):
    rows = []
    for row in m:
        cells = ",".join(f"[{qstate.format_real(v.real)},{qstate.format_real(v.imag)}]" for v in row)
        rows.append(f"[{cells}]")
    return "[" + ",".join(rows) + "]"


def reference_channel_to_json(channel):
    ops = ",".join(reference_matrix_to_json(k) for k in channel.kraus_ops)
    factors = ",".join(f"[{a},{b}]" for a, b in channel.out_factors)
    flags = (
        f'"product_form":{str(channel.product_form).lower()},'
        f'"trace_preserving":{str(channel.trace_preserving).lower()}'
    )
    return (
        f'{{"in_dims":[{channel.in_dims[0]},{channel.in_dims[1]}],'
        f'"out_factors":[{factors}],{flags},"provenance":{json.dumps(channel.provenance)},'
        f'"kraus_ops":[{ops}]}}'
    )


def test_one_json_writer_matches_the_writers_it_replaced():
    rng = np.random.default_rng(45)
    signed_zeros = np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
    matrices = [signed_zeros, np.array([[complex(-0.0, -0.0)]])]
    matrices += [rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c)) for r, c in ((3, 3), (2, 5))]
    for m in matrices:
        want = reference_json_value(reference_complex_matrix_doc(m))
        assert qstate._json_value(m) == want == reference_matrix_to_json(m)
        doc = {"x": -0.0, "n": np.int64(3), "ok": True, "none": None, "s": 'a"b', "l": [1.5, 2]}
        assert qstate._json_value({**doc, "pi": m}) == reference_json_value(
            {**doc, "pi": reference_complex_matrix_doc(m)}
        )
    for rho in (random_density_operator(2, 3, rng), bell.werner(0.7), bell.bell_state(2).density()):
        want = f'{{"dim_a":{rho.dim_a},"dim_b":{rho.dim_b},"matrix":{reference_matrix_to_json(rho.matrix)}}}'
        assert qstate.state_to_json(rho) == want
    filt = locc.LocalFilter(-np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    for channel in (locc.carve_pairs(8, 0.7).channel, filt):
        assert locc.channel_to_json(channel) == reference_channel_to_json(channel)
