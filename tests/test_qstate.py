"""State container, metrics, and serialization checks.

Every expected number is either exact arithmetic written out in the test or
an independently computed spectrum; library calls are never compared against
themselves.
"""

import hashlib
import math

import numpy as np
import pytest

from distillery.bell import project_to_qubits, twirl, werner
from distillery.errors import (
    DimensionCapError,
    DimensionMismatchError,
    InvalidChannelError,
    InvalidFilterError,
    InvalidStateError,
)
from distillery.locc import KrausChannel, LocalFilter, apply_channel
from distillery.qstate import (
    HERMITICITY_TOL,
    DensityOperator,
    PureState,
    UnnormalizedOperator,
    fidelity_pure,
    max_entangled,
    max_side_dim,
    partial_trace,
    partial_transpose,
    state_from_json,
    state_to_json,
    tensor_product,
    trace_norm_distance,
    von_neumann_entropy,
)
from distillery.sampling import haar_unitary, random_density_operator, random_pure_state


def maximally_mixed(dim_a: int, dim_b: int) -> DensityOperator:
    d = dim_a * dim_b
    return DensityOperator.from_matrix(np.eye(d) / d, dim_a, dim_b)


def test_max_entangled_vector():
    psi = max_entangled(2)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1.0 / math.sqrt(2)
    assert np.abs(psi.amplitudes - expected).max() == 0.0
    # d = 4 amplitudes sit on the diagonal positions k*(d+1)
    psi4 = max_entangled(4)
    nz = np.flatnonzero(psi4.amplitudes)
    assert list(nz) == [0, 5, 10, 15]
    assert np.allclose(psi4.amplitudes[nz], 0.5)
    with pytest.raises(DimensionMismatchError):
        max_entangled(1)


def test_trace_distance_known_value():
    # eigenvalues of sigma+ - I/4 are {3/4, -1/4, -1/4, -1/4}; trace norm 3/2
    d = trace_norm_distance(max_entangled(2).density(), maximally_mixed(2, 2))
    assert abs(d - 1.5) < 1e-12


def test_trace_distance_orthogonal_pure_states():
    # on a trivial Alice factor: |0><0| vs |1><1| on Bob, distance 2
    zero = DensityOperator(((1, 2),), np.diag([1.0, 0.0]))
    one = DensityOperator(((1, 2),), np.diag([0.0, 1.0]))
    assert abs(trace_norm_distance(zero, one) - 2.0) < 1e-12
    with pytest.raises(DimensionMismatchError):
        trace_norm_distance(zero, maximally_mixed(2, 2))


def test_partial_transpose_pure_entangled():
    # PT of the projector onto (|00> + |11>)/sqrt(2) has spectrum {1/2 x3, -1/2}
    rho = max_entangled(2).density()
    eig = np.linalg.eigvalsh(partial_transpose(rho))
    expected = np.array([-0.5, 0.5, 0.5, 0.5])
    assert np.abs(np.sort(eig) - expected).max() < 1e-12


def test_partial_transpose_matches_reshape_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density_operator(2, 3, rng)
        pt = partial_transpose(rho)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        # independent route: swap Bob's row and column axes on the raw matrix
        manual = rho.matrix.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
        assert np.abs(pt - manual).max() == 0.0
        # transposing Bob twice is the identity
        assert np.abs(manual.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6) - rho.matrix).max() == 0.0


def test_partial_transpose_product_states_stay_positive():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_density_operator(2, 1, rng).matrix
        b = random_density_operator(1, 3, rng).matrix
        rho = DensityOperator.from_matrix(np.kron(a, b), 2, 3)
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() > -1e-10


def test_entropy_known_values():
    # spectrum of the F = 0.9 mixture is (0.9, 1/30, 1/30, 1/30)
    p = [0.9, 1 / 30, 1 / 30, 1 / 30]
    expected = -sum(v * math.log2(v) for v in p)
    assert abs(expected - 0.6274918436613969) < 1e-15
    from distillery.bell import werner

    assert abs(von_neumann_entropy(werner(0.9)) - expected) < 1e-12
    assert von_neumann_entropy(max_entangled(2).density()) < 1e-10
    assert abs(von_neumann_entropy(maximally_mixed(2, 2)) - 2.0) < 1e-12


def test_entropy_additive_over_tensor_products():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = random_density_operator(2, 2, rng)
        y = random_density_operator(2, 2, rng)
        joint = von_neumann_entropy(tensor_product(x, y))
        assert abs(joint - von_neumann_entropy(x) - von_neumann_entropy(y)) < 1e-8


def test_tensor_product_copy_major_layout():
    # joining two copies must reorder the raw Kronecker axes so that the
    # maximally entangled pair of pairs equals the d = 4 maximally entangled state
    phi = max_entangled(2)
    v = np.kron(phi.amplitudes, phi.amplitudes)  # order a1 b1 a2 b2
    v = v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)  # -> a1 a2 b1 b2
    assert np.abs(v - max_entangled(4).amplitudes).max() < 1e-15

    two = tensor_product(phi.density(), phi.density())
    assert two.factors == ((2, 2), (2, 2))
    assert np.abs(two.matrix - np.outer(v, v.conj())).max() < 1e-15


def test_tensor_product_fidelity_multiplies():
    from distillery.bell import werner

    pair = tensor_product(werner(0.7), werner(0.7))
    f = fidelity_pure(max_entangled(4), pair)
    assert abs(f - 0.49) < 1e-12


def test_partial_trace_recovers_factors():
    from distillery.bell import werner

    w = werner(0.6)
    joint = tensor_product(max_entangled(2).density(), w)
    left = partial_trace(joint, [0])
    right = partial_trace(joint, [1])
    assert left.factors == ((2, 2),)
    assert np.abs(left.matrix - max_entangled(2).density().matrix).max() < 1e-12
    assert np.abs(right.matrix - w.matrix).max() < 1e-12


def test_partial_trace_three_copies():
    rng = np.random.default_rng(14)
    x = random_density_operator(2, 2, rng)
    y = random_density_operator(2, 2, rng)
    z = random_density_operator(2, 2, rng)
    triple = tensor_product(tensor_product(x, y), z)
    kept = partial_trace(triple, [0, 2])
    assert kept.factors == ((2, 2), (2, 2))
    assert np.abs(kept.matrix - tensor_product(x, z).matrix).max() < 1e-10
    assert abs(np.trace(kept.matrix) - 1.0) < 1e-12
    with pytest.raises(DimensionMismatchError):
        partial_trace(triple, [])
    with pytest.raises(DimensionMismatchError):
        partial_trace(triple, [3])


def test_partial_trace_contracts_trace_distance():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = tensor_product(random_density_operator(2, 2, rng), random_density_operator(2, 2, rng))
        b = tensor_product(random_density_operator(2, 2, rng), random_density_operator(2, 2, rng))
        before = trace_norm_distance(a, b)
        after = trace_norm_distance(partial_trace(a, [0]), partial_trace(b, [0]))
        assert after <= before + 1e-8


def test_fidelity_trace_distance_inequalities():
    # 2(1 - F) <= ||rho - psi||_1 <= 2 sqrt(1 - F) with F the pure-state overlap
    rng = np.random.default_rng(16)
    for k in range(100):
        dim_a, dim_b = [(2, 2), (2, 3), (3, 3)][k % 3]
        rho = random_density_operator(dim_a, dim_b, rng)
        psi = random_pure_state(dim_a, dim_b, rng)
        f = fidelity_pure(psi, rho)
        d = trace_norm_distance(psi.density(), rho)
        assert 2.0 * (1.0 - f) <= d + 1e-8
        assert d <= 2.0 * math.sqrt(1.0 - f) + 1e-8


def test_fidelity_pure_domain():
    psi = max_entangled(2)
    assert abs(fidelity_pure(psi, psi.density()) - 1.0) < 1e-12
    assert abs(fidelity_pure(psi, maximally_mixed(2, 2)) - 0.25) < 1e-12
    with pytest.raises(DimensionMismatchError):
        fidelity_pure(psi, maximally_mixed(2, 3))


def test_unnormalized_operator_weight():
    op = UnnormalizedOperator(((2, 2),), 0.25 * max_entangled(2).density().matrix)
    assert abs(op.weight - 0.25) < 1e-12
    rho = op.normalized()
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    with pytest.raises(InvalidStateError):
        UnnormalizedOperator(((2, 2),), np.zeros((4, 4)))  # trace not positive


def test_validation_rejects_bad_matrices():
    good = np.eye(4) / 4
    with pytest.raises(InvalidStateError):
        DensityOperator.from_matrix(good + np.diag([0.1, 0, 0, 0]), 2, 2)  # trace 1.1
    skew = good.astype(complex).copy()
    skew[0, 1] = 1e-3
    with pytest.raises(InvalidStateError):
        DensityOperator.from_matrix(skew, 2, 2)  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator.from_matrix(np.diag([0.6, 0.6, -0.1, -0.1]), 2, 2)  # negative eigenvalue
    with pytest.raises(InvalidStateError):
        DensityOperator.from_matrix(np.eye(2) / 2, 2, 2)  # wrong shape
    with pytest.raises(DimensionMismatchError):
        DensityOperator((), np.eye(4) / 4)  # no factors
    with pytest.raises(InvalidStateError):
        PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))  # norm sqrt(2)


def test_matrices_are_frozen():
    rho = max_entangled(2).density()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_dimension_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("DISTILLERY_MAX_DIM", raising=False)
    assert max_side_dim() == 64
    with pytest.raises(DimensionCapError):
        max_entangled(65)
    monkeypatch.setenv("DISTILLERY_MAX_DIM", "4")
    assert max_side_dim() == 4
    with pytest.raises(DimensionCapError):
        max_entangled(5)
    max_entangled(4)  # at the cap is allowed
    monkeypatch.setenv("DISTILLERY_MAX_DIM", "not-a-number")
    with pytest.raises(DimensionCapError):
        max_side_dim()
    monkeypatch.setenv("DISTILLERY_MAX_DIM", "0")
    with pytest.raises(DimensionCapError):
        max_side_dim()


def test_dimension_cap_applies_to_tensor_products(monkeypatch):
    monkeypatch.setenv("DISTILLERY_MAX_DIM", "3")
    rho = max_entangled(2).density()
    with pytest.raises(DimensionCapError):
        tensor_product(rho, rho)


def test_json_roundtrip_is_bit_exact():
    rng = np.random.default_rng(18)
    for _ in range(5):
        rho = random_density_operator(2, 3, rng)
        text = state_to_json(rho)
        back = state_from_json(text)
        assert back.factors == ((2, 3),)
        assert np.array_equal(back.matrix, rho.matrix)  # 17 significant digits round-trip floats
        assert state_to_json(back) == text


def test_json_rejects_malformed_documents():
    with pytest.raises(InvalidStateError):
        state_from_json('{"dim_a":2,"matrix":[]}')
    with pytest.raises(InvalidStateError):
        state_from_json('{"dim_a":2,"dim_b":2,"matrix":[[[1,0]]]}')


def test_state_json_output_is_pinned():
    # strings written by the serializer before states and channels shared
    # one matrix codec; a signed zero is written as "-0"
    m = np.array([[0.75, complex(0.25, -0.1)], [complex(0.25, 0.1), complex(0.25, -0.0)]])
    text = state_to_json(DensityOperator.from_matrix(m, 1, 2))
    assert text == (
        '{"dim_a":1,"dim_b":2,"matrix":[[[0.75,0],[0.25,-0.10000000000000001]],'
        '[[0.25,0.10000000000000001],[0.25,-0]]]}'
    )
    # a float cell keeps its sign bit on the way in
    back = state_from_json(text.replace("-0]", "-0.0]"))
    assert np.array_equal(np.signbit(back.matrix.imag), np.signbit(m.imag))
    from distillery.bell import werner

    assert state_to_json(werner(0.7)) == (
        '{"dim_a":2,"dim_b":2,"matrix":[[[0.39999999999999991,0],[0,0],[0,0],'
        "[0.29999999999999993,0]],[[0,0],[0.10000000000000001,0],[-2.097635522744312e-18,0],"
        "[0,0]],[[0,0],[-2.097635522744312e-18,0],[0.10000000000000001,0],[0,0]],"
        "[[0.29999999999999993,0],[0,0],[0,0],[0.39999999999999991,0]]]}"
    )
    text = state_to_json(random_density_operator(2, 3, np.random.default_rng(5)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4c5cbae623ca11c87cf688966faadf6c7c1336b992b1ba2d1508e453631c370f"


@pytest.mark.parametrize(
    "matrix",
    [
        "[[1]]",  # a bare number where a [re, im] pair belongs
        "[[[1]]]",
        "[[[1, 0, 0]]]",
        '[[{"re": 1, "im": 0}]]',
        "[[null]]",
        "[[[NaN, 0]]]",
        "[[[1, Infinity]]]",
        "[[[1e400, 0]]]",
        "[[[1" + "0" * 400 + ", 0]]]",
        '[[["one", 0]]]',
        "[[[1, 0]], [[1, 0], [0, 0]]]",  # ragged rows
        "5",
        "[]",
    ],
)
def test_json_rejects_malformed_cells(matrix):
    with pytest.raises(InvalidStateError):
        state_from_json(f'{{"dim_a":1,"dim_b":1,"matrix":{matrix}}}')


def test_json_round_trip_keeps_signed_zeros():
    # format_real writes -0.0 as "-0"; the reader must not turn it into 0
    m = np.array(
        [[0.5, complex(-0.0, -0.0), 0.0], [complex(-0.0, 0.0), complex(0.25, -0.0), 0.0],
         [0.0, 0.0, complex(0.25, 0.0)]]
    )
    rho = DensityOperator.from_matrix(m, 1, 3)
    text = state_to_json(rho)
    assert "[-0,-0]" in text and "[0.25,-0]" in text
    back = state_from_json(text)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(back.matrix)), np.signbit(part(m)))
    assert np.array_equal(back.matrix.view(np.uint64), m.view(np.uint64))
    assert state_to_json(back) == text


def test_json_integer_fields_read_as_before():
    from distillery.qstate import _json_loads

    # every JSON number reads as a float, so -0 keeps its sign; the readers
    # turn integer-valued dims back into ints
    doc = _json_loads('{"dim_a": 2, "dim_b": -0, "big": 123456789012345678901234567890}')
    assert doc["dim_a"] == 2 and type(doc["dim_a"]) is float
    assert doc["dim_b"] == 0 and math.copysign(1.0, doc["dim_b"]) == -1.0
    assert doc["big"] == float(123456789012345678901234567890)
    rho = state_from_json('{"dim_a":1,"dim_b":1,"matrix":[[[1,-0]]]}')
    assert (type(rho.dim_a), type(rho.dim_b)) == (int, int)
    # a zero dimension fails the same way whether it is written 0 or -0
    messages = []
    for zero in ("0", "-0"):
        with pytest.raises(InvalidStateError) as exc:
            state_from_json(f'{{"dim_a":{zero},"dim_b":1,"matrix":[[[1,0]]]}}')
        messages.append(str(exc.value))
    assert messages == ["matrix is not 0 x 0"] * 2


def test_operators_record_their_dimensions_once():
    rho = tensor_product(maximally_mixed(2, 3), maximally_mixed(3, 1))
    assert (rho.dim_a, rho.dim_b, rho.dim) == (6, 3, 18)
    op = UnnormalizedOperator(((2, 2), (1, 2)), np.eye(8) / 4)
    assert (op.dim_a, op.dim_b, op.dim) == (2, 4, 8)
    # the cached dimensions are not dataclass fields: equality and repr are unchanged
    import dataclasses

    assert [f.name for f in dataclasses.fields(rho)] == ["factors", "matrix"]
    assert repr(rho).startswith("DensityOperator(factors=((2, 3), (3, 1)), matrix=array(")
    assert "_floor" not in repr(rho) and "dim" not in repr(rho)


# --- certified eigenvalue floors against the dense reference -----------------


def spectrum_state(rng, dim_a, dim_b, spectrum, local=False):
    """State with the given eigenvalues in a random basis, or in a random
    product basis (Ua (x) Ub) when ``local`` is set."""
    d = dim_a * dim_b
    if local:
        u = np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng))
    else:
        u = haar_unitary(d, rng)
    return DensityOperator.from_matrix((u * np.asarray(spectrum)) @ u.conj().T, dim_a, dim_b)


def near_floor_spectrum(rng, d, lowest, rank):
    """``rank`` positive eigenvalues, zeros, and one eigenvalue ``lowest``; trace 1."""
    spectrum = np.zeros(d)
    spectrum[:rank] = rng.uniform(0.2, 1.0, rank)
    spectrum[:rank] *= (1.0 - lowest) / spectrum[:rank].sum()
    spectrum[-1] += lowest
    return spectrum


_LOWEST = (0.0, -1e-14, -1e-11, -3e-11, -4.9e-11, -5.1e-11, -7e-11, -9e-11)


def test_state_floors_match_dense_validation(floor_oracle):
    from distillery.bell import BellProbs, bell_basis_matrix, density_from_bell_probs, twirl
    from distillery.recurrence import align_to_phi_plus

    rng = np.random.default_rng(41)
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        d = dim_a * dim_b
        for lowest in _LOWEST:
            rho = spectrum_state(rng, dim_a, dim_b, near_floor_spectrum(rng, d, lowest, 2))
            sigma = spectrum_state(rng, 2, 2, near_floor_spectrum(rng, 4, lowest, 1))
            # tensor products of near-floor states
            joint = tensor_product(rho, sigma)
            tensor_product(sigma, sigma)
            tensor_product(joint, sigma)
            # normalizing divides the floor by a weight from 1e-11 to 1; the
            # eigenvalue ``lowest`` stays put, so past -5e-11 * weight the
            # normalized state falls below the floor and is rejected
            u = haar_unitary(d, rng)
            for weight in (1e-11, 1e-9, 1e-6, 1e-2, 0.5, 1.0):
                spectrum = near_floor_spectrum(rng, d, 0.0, 2) * (weight - lowest)
                spectrum[-1] += lowest
                branch = UnnormalizedOperator(rho.factors, (u * spectrum) @ u.conj().T)
                try:
                    branch.normalized()
                except InvalidStateError:
                    pass
                UnnormalizedOperator(rho.factors, weight * rho.matrix).normalized()
            if (dim_a, dim_b) == (2, 2):
                twirl(rho)
                align_to_phi_plus(rho)
                align_to_phi_plus(sigma)
                # the twirl keeps the Phi+ weight, so put the negative eigenvalue there
                spectrum = near_floor_spectrum(rng, 4, lowest, 3)[::-1]
                bell = bell_basis_matrix()
                twirl(DensityOperator.from_matrix((bell * spectrum) @ bell.conj().T, 2, 2))
    for p in ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (1.0 + 1e-12, -1e-12, 0.0, 0.0)):
        density_from_bell_probs(BellProbs(p))
    for d in (2, 3, 8, 16):
        max_entangled(d).density()
        random_pure_state(d, 2, rng).density()
    counts = floor_oracle.check()
    assert counts["certified"] > 100
    assert counts["declined"] > 20
    assert counts["public"] > 20
    assert counts["rejected"] > 10


def test_library_results_run_no_dense_spectrum(dense_spectra):
    # a guard, not a timing test: results built inside the library carry a
    # certified floor, so these paths must not run the dense spectrum
    from click.testing import CliRunner

    from distillery.cli import main
    from distillery.recurrence import purify_step_exact, two_werner_pairs

    purify_step_exact(two_werner_pairs(0.8))
    assert dense_spectra.dense == 0
    rho = werner(0.8)
    for seed in range(12):
        twirl(rho, mode="sampled", seed=seed)
    u = np.kron(haar_unitary(2, np.random.default_rng(1)), np.eye(2))
    apply_channel(KrausChannel((u / 2, u * math.sqrt(0.75)), (2, 2), ((2, 2),), trace_preserving=True), rho)
    assert dense_spectra.dense == 0
    result = CliRunner().invoke(main, ["carve", "--d", "40", "--omega", "0.99", "--verify"])
    assert result.exit_code == 0
    assert dense_spectra.dense == 0
    DensityOperator.from_matrix(np.eye(4) / 4, 2, 2)
    assert dense_spectra.dense == 1


_NAN_MATRIX = np.eye(4, dtype=complex) / 4
_NAN_MATRIX[1, 2] = _NAN_MATRIX[2, 1] = np.nan
_NAN_FILTER = np.array([[np.nan, 0.0], [0.0, 1.0]])
_NAN_PROJECTOR = np.diag([1.0, 1.0, np.nan])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PureState(2, 2, [np.nan, 0, 0, 1]), InvalidStateError),
        (lambda: DensityOperator.from_matrix(_NAN_MATRIX, 2, 2), InvalidStateError),
        (lambda: UnnormalizedOperator(((2, 2),), _NAN_MATRIX), InvalidStateError),
        (lambda: KrausChannel((_NAN_MATRIX,), (2, 2), ((2, 2),)), InvalidChannelError),
        (lambda: LocalFilter(_NAN_FILTER, np.eye(2)), InvalidFilterError),
        (lambda: LocalFilter(np.eye(2), _NAN_FILTER, normalized=False), InvalidFilterError),
        (
            lambda: project_to_qubits(
                DensityOperator.from_matrix(np.eye(9) / 9, 3, 3), np.diag([1.0, 1.0, 0.0]), _NAN_PROJECTOR
            ),
            InvalidStateError,
        ),
    ],
)
def test_non_finite_input_raises_the_documented_error(build, error):
    with np.errstate(invalid="ignore"), pytest.raises(error):
        build()


# --- certified Hermiticity bounds against the dense residue ------------------


def reference_residue(m):
    """The residue the dense check computed before it could be skipped."""
    return np.abs(m - m.conj().T).max()


def skewed_matrix(rng, dim_a, dim_b, residue):
    """A random state's matrix plus an anti-Hermitian part whose residue is
    ``residue``."""
    d = dim_a * dim_b
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = a - a.conj().T
    return random_density_operator(dim_a, dim_b, rng).matrix + a * (residue / reference_residue(a))


def skewed_state(rng, dim_a, dim_b, residue):
    """``skewed_matrix`` through the public constructor, which measures it."""
    return DensityOperator.from_matrix(skewed_matrix(rng, dim_a, dim_b, residue), dim_a, dim_b)


def attempt(call, *args):
    """Run a call whose result may fail validation; the oracle checks the error."""
    try:
        return call(*args)
    except InvalidStateError:
        return None


_RESIDUES = (0.0, 1e-15, 1e-12, 3e-11, 6e-11, 9e-11)


def test_hermiticity_bounds_cover_the_residue(floor_oracle):
    # every bound an image helper carries over, certified or not, is at least
    # the residue of the matrix it built (the oracle checks each one)
    from distillery.bell import BellProbs, density_from_bell_probs, twirl
    from distillery.locc import KrausChannel, LocalFilter, apply_selective, carve_pairs
    from distillery.recurrence import align_to_phi_plus

    rng = np.random.default_rng(51)
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        for residue in _RESIDUES:
            rho = skewed_state(rng, dim_a, dim_b, residue)
            assert rho._herm == reference_residue(rho.matrix)  # public: measured
            sigma, clean = skewed_state(rng, 2, 2, residue), skewed_state(rng, 2, 2, 0.0)
            for x, y in ((rho, sigma), (rho, clean), (clean, rho)):  # tensor_product
                joint = attempt(tensor_product, x, y)
                if joint is not None:
                    attempt(tensor_product, joint, sigma)
            for weight in (1e-9, 1e-3, 0.5, 1.0):  # _quotient_image
                attempt(UnnormalizedOperator(rho.factors, weight * rho.matrix).normalized)
            filt = LocalFilter(haar_unitary(dim_a, rng)[:2], haar_unitary(dim_b, rng))
            for state in (rho, random_pure_state(dim_a, dim_b, rng)):  # _kraus_image, _outer_image
                branch = attempt(apply_selective, filt, state)
                if branch is not None:
                    attempt(branch.normalized)
            ops = [np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)) / 2 for _ in range(4)]
            mix = KrausChannel(tuple(ops), (dim_a, dim_b), ((dim_a, dim_b),), True, True)
            attempt(apply_selective, mix, rho)  # several Kraus terms
            if (dim_a, dim_b) == (2, 2):
                twirled = attempt(twirl, rho)  # divided stacked sum
                if twirled is not None:
                    attempt(twirl, twirled)
                attempt(align_to_phi_plus, rho)  # one product
    for p in ((1.0, 0.0, 0.0, 0.0), (0.25,) * 4, (1.0 + 1e-12, -1e-12, 0.0, 0.0)):
        density_from_bell_probs(BellProbs(p))  # _weighted_outer_image
    for d in (4, 9, 16):  # several outer products
        apply_selective(carve_pairs(d, 0.5).channel, max_entangled(d)).normalized()
    counts = floor_oracle.check()
    assert counts["herm_certified"] > 100
    assert counts["herm_declined"] > 30
    assert counts["public"] > 100


def test_direct_hermiticity_bounds_cover_each_residue():
    # weighted outer products of generic columns, which the Bell basis is not;
    # the stacked projection search shares one bound across a stack of
    # branches and another across their quotients by an array of weights
    from distillery.locc import _FILTER_NORM_SQ, _kron
    from distillery.qstate import (
        _kraus_image,
        _quotient_image,
        _spectral_norm_sq_bound,
        _weighted_outer_image,
    )

    rng = np.random.default_rng(52)
    for _ in range(50):
        columns = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        weights = rng.uniform(-0.5, 1.0, 4)
        image = _weighted_outer_image(columns, weights, _spectral_norm_sq_bound(columns))
        assert reference_residue(image.matrix) <= image.herm
    for residue in _RESIDUES:
        rho = skewed_state(rng, 3, 3, residue)
        a = np.stack([haar_unitary(3, rng)[:2] for _ in range(16)])
        b = np.stack([haar_unitary(3, rng)[:2] for _ in range(16)])
        branch = _kraus_image(
            rho, _kron(a, b)[:, None], norm_sq=_FILTER_NORM_SQ, frobenius_sq=9 * _FILTER_NORM_SQ
        )
        weights = np.trace(branch.matrix, axis1=-2, axis2=-1).real
        state = _quotient_image(branch, weights)
        for image in (branch, state):
            for k, m in enumerate(image.matrix):
                assert reference_residue(m) <= np.broadcast_to(image.herm, weights.shape)[k]


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_carve_verify_runs_no_dense_residue(monkeypatch):
    # the branch, the normalized state and the target all carry certified
    # bounds, so none of their 256 x 256 matrices is read for its residue
    from click.testing import CliRunner

    from distillery import qstate
    from distillery.cli import main

    residues = count_calls(monkeypatch, qstate, "_herm_residue")
    result = CliRunner().invoke(main, ["carve", "--d", "32", "--omega", "0.8", "--verify"])
    assert result.exit_code == 0 and residues == []
    DensityOperator.from_matrix(np.eye(4) / 4, 2, 2)
    assert len(residues) == 1


def test_uncertified_residues_raise_the_dense_error(monkeypatch):
    from conftest import reference_validate

    from distillery import qstate
    from distillery.qstate import _Image

    rng = np.random.default_rng(53)
    # public input: the dense residue decides and words the error
    m = random_density_operator(2, 2, rng).matrix + 1e-9j * np.eye(4)[::-1]
    with pytest.raises(InvalidStateError) as info:
        DensityOperator.from_matrix(m, 2, 2)
    assert str(info.value) == reference_validate(m, 4, True)[0]
    # a branch whose residue doubles when normalized: no certificate covers
    # it, and the dense check rejects it with the same message
    branch = UnnormalizedOperator(((2, 2),), 0.5 * skewed_matrix(rng, 2, 2, 1.6e-10))
    assert branch._herm <= HERMITICITY_TOL
    with pytest.raises(InvalidStateError, match="not Hermitian") as info:
        branch.normalized()
    assert str(info.value) == reference_validate(branch.matrix / branch.weight, 4, True)[0]
    # a non-finite or too large bound never certifies; one at half the
    # tolerance does
    residues = count_calls(monkeypatch, qstate, "_herm_residue")
    rho = random_density_operator(2, 2, rng)
    for bound, dense in ((math.nan, 1), (math.inf, 1), (0.6e-10, 1), (0.5e-10, 0), (0.0, 0)):
        before = len(residues)
        op = _Image(rho.matrix.copy(), 0.0, bound).build(DensityOperator, rho.factors)
        assert len(residues) - before == dense
        assert op._herm == (reference_residue(rho.matrix) if dense else bound)


def test_outer_image_adds_as_sum_from_zero():
    # in place, the terms add as Python's sum from 0 added them, which turns
    # a -0.0 of the first term into 0.0 (and 0.0 + -0.0 into 0.0)
    from distillery.qstate import _outer_image

    rng = np.random.default_rng(56)
    zeros = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
    for k in (1, 2, 3, 5):
        for d in (1, 2, 3, 7, 64):
            vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]
            for v in vectors:
                mask = rng.random(d) < 0.4
                v[mask] = rng.choice(zeros, mask.sum())
            if k == 1:
                want = np.outer(vectors[0], vectors[0].conj())
            else:
                want = sum(np.outer(v, v.conj()) for v in vectors)
            assert _outer_image(vectors).matrix.tobytes() == want.tobytes(), (k, d)


def test_herm_residue_gives_the_reference_bits():
    from distillery.qstate import _herm_residue

    rng = np.random.default_rng(54)
    for d in (4, 16, 64, 256, 1024):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for case in (m, m + m.conj().T, (m + m.conj().T) * (1 + 1e-13j), m.T):
            assert _herm_residue(case).tobytes() == reference_residue(case).tobytes()
    for bad in (math.nan, math.inf, complex(0, math.inf)):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        assert _herm_residue(m).tobytes() == reference_residue(m).tobytes()


def test_images_on_their_input_dimensions_skip_the_cap(monkeypatch):
    from distillery import qstate
    from distillery.bell import twirl

    rho = random_density_operator(2, 2, np.random.default_rng(55))
    reads = count_calls(monkeypatch, qstate, "max_side_dim")
    twirl(twirl(rho))
    UnnormalizedOperator(rho.factors, 0.5 * rho.matrix).normalized()
    assert len(reads) == 1  # the public UnnormalizedOperator only
    tensor_product(rho, rho)
    assert len(reads) == 2  # where dimensions enter
