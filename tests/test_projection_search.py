"""The stacked projection search and the stacked twirl against the per-call
paths they replace.

``reference_search`` is the one-trial-at-a-time loop the search ran before
its trials were stacked: a Haar draw per side, then ``project_to_qubits``,
with a vanishing projection weight skipped.  The stacked search must return
its witness bit for bit, raise what it raises, and send every pair its
certificates decline through ``project_to_qubits``.
"""

import math

import numpy as np
import pytest

from distillery import bell
from distillery.bell import (
    _SEARCH_CHUNK,
    _haar_projector_chunks,
    _project_stack,
    _search_projections,
    ProjectionWitness,
    project_to_qubits,
    search_projection_witness,
    twirl,
    twirl_unitaries,
    werner,
)
from distillery.errors import (
    DimensionMismatchError,
    DistilleryError,
    InvalidStateError,
    ZeroProbabilityError,
)
from distillery.locc import KrausChannel, apply_selective
from distillery.qstate import (
    EIGENVALUE_FLOOR,
    DensityOperator,
    max_entangled,
    tensor_product,
)
from distillery.sampling import random_density_operator

from conftest import reference_validate


def reference_haar(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def reference_scan(rho, pairs, first=0):
    best = None
    for trial, (pi_a, pi_b) in enumerate(pairs, start=first):
        try:
            outcome, diag = project_to_qubits(rho, pi_a, pi_b)
        except ZeroProbabilityError:
            continue
        if best is None or diag.ppt_min_eigenvalue < best.ppt_min_eigenvalue:
            best = ProjectionWitness(
                pi_a=pi_a,
                pi_b=pi_b,
                ppt_min_eigenvalue=diag.ppt_min_eigenvalue,
                trial_index=trial,
                success_prob=outcome.probability,
            )
    if best is None:
        raise ZeroProbabilityError("every trial projected onto a null subspace")
    return best


def reference_pairs(rho, trials, seed):
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        ua = reference_haar(rho.dim_a, rng)[:, :2]
        ub = reference_haar(rho.dim_b, rng)[:, :2]
        yield ua @ ua.conj().T, ub @ ub.conj().T


def reference_search(rho, trials, seed=0):
    return reference_scan(rho, reference_pairs(rho, trials, seed))


def assert_same_witness(got, want):
    for name in ("pi_a", "pi_b"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
    assert got.ppt_min_eigenvalue == want.ppt_min_eigenvalue
    assert got.success_prob == want.success_prob
    assert got.trial_index == want.trial_index


def outcome_of(fn, *args):
    """(result, None) or (None, (exception class, message))."""
    try:
        return fn(*args), None
    except DistilleryError as exc:
        return None, (type(exc), str(exc))


@pytest.fixture
def fallbacks(monkeypatch):
    """Records the trial pairs the stacked search sends to project_to_qubits."""
    calls = []

    def spy(rho, pi_a, pi_b):
        calls.append((pi_a, pi_b))
        return project_to_qubits(rho, pi_a, pi_b)

    monkeypatch.setattr(bell, "project_to_qubits", spy)
    return calls


def grid_state(dims, seed):
    if dims == (4, 4):
        return tensor_product(werner(0.6 + 0.1 * seed), werner(0.95 - 0.1 * seed))
    return random_density_operator(*dims, np.random.default_rng([*dims, seed]))


_TRIAL_COUNTS = (1, _SEARCH_CHUNK - 1, _SEARCH_CHUNK, _SEARCH_CHUNK + 1, 3 * _SEARCH_CHUNK + 5)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_stacked_search_matches_the_per_trial_loop(dims, fallbacks):
    for seed in (0, 1, 2):
        rho = grid_state(dims, seed)
        for trials in _TRIAL_COUNTS:
            got = search_projection_witness(rho, trials, seed=seed)
            assert_same_witness(got, reference_search(rho, trials, seed))
    # every Haar trial on these states is certified without a dense spectrum
    assert fallbacks == []


def test_chunks_bound_the_stacks():
    sizes = [
        (start, len(pi_a), len(pi_b))
        for start, pi_a, pi_b in _haar_projector_chunks(3, 4, 3 * _SEARCH_CHUNK + 5, 9)
    ]
    c = _SEARCH_CHUNK
    assert sizes == [(0, c, c), (c, c, c), (2 * c, c, c), (3 * c, 5, 5)]
    # the chunks draw what the per-trial loop draws, pair for pair
    chunks = _haar_projector_chunks(3, 4, c + 2, 9)
    stacked = [(a, b) for _, pa, pb in chunks for a, b in zip(pa, pb)]
    rho = random_density_operator(3, 4, np.random.default_rng(0))
    for (a, b), (ra, rb) in zip(stacked, reference_pairs(rho, c + 2, 9), strict=True):
        assert a.tobytes() == ra.tobytes() and b.tobytes() == rb.tobytes()


def diagonal_projector(*diag):
    return np.diag(np.array(diag, dtype=complex))


def product_state_00(d):
    m = np.zeros((d * d, d * d), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator.from_matrix(m, d, d)


def stacked(*projectors):
    return np.stack(projectors)


def test_vanishing_weights_are_skipped_in_the_stack(fallbacks):
    rho = product_state_00(3)
    null = diagonal_projector(0, 1, 1)  # orthogonal to |0>
    keep = diagonal_projector(1, 1, 0)
    pairs = [(null, keep), (keep, keep), (keep, null), (keep, keep)]
    chunk = (5, stacked(*(a for a, _ in pairs)), stacked(*(b for _, b in pairs)))
    got = _search_projections(rho, [chunk])
    assert_same_witness(got, reference_scan(rho, pairs, first=5))
    assert got.trial_index == 6
    assert fallbacks == []

    # every pair skipped: the search's own error, not a fallback's
    nulls = [(null, keep), (keep, null)]
    chunk = (0, stacked(null, keep), stacked(keep, null))
    got = outcome_of(_search_projections, rho, [chunk])
    assert got == outcome_of(reference_scan, rho, nulls)
    assert got[1][0] is ZeroProbabilityError
    assert fallbacks == []


def skewed():
    p = diagonal_projector(1, 0, 1)
    p[0, 1] = 0.5
    return p


@pytest.mark.parametrize(
    "pi_a, pi_b",
    [
        (skewed(), diagonal_projector(1, 0, 1)),  # pi_a not Hermitian
        (diagonal_projector(1, 0, 0.9), diagonal_projector(1, 0, 1)),  # pi_a not idempotent
        (diagonal_projector(1, 0, 1), diagonal_projector(1, 1, 1)),  # pi_b of rank 3
    ],
)
def test_declined_projectors_go_through_project_to_qubits(pi_a, pi_b, fallbacks):
    rho = random_density_operator(3, 3, np.random.default_rng(4))
    good = diagonal_projector(1, 0, 1)
    pairs = [(good, good), (pi_a, pi_b), (good, good)]
    chunk = (0, stacked(*(a for a, _ in pairs)), stacked(*(b for _, b in pairs)))
    got = outcome_of(_search_projections, rho, [chunk])
    assert got == outcome_of(reference_scan, rho, pairs)
    assert got[1][0] is InvalidStateError
    # only the declined pair went the per-pair way, and it raised there
    assert len(fallbacks) == 1
    assert np.array_equal(fallbacks[0][0], pi_a) and np.array_equal(fallbacks[0][1], pi_b)


def spectrum_state(rng, dim_a, dim_b, spectrum):
    """A state with the given spectrum in a Haar basis, through the public
    constructor, so its floor comes from the dense spectrum."""
    d = dim_a * dim_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    m = (u * spectrum) @ u.conj().T
    return DensityOperator.from_matrix((m + m.conj().T) / 2, dim_a, dim_b)


def near_floor_spectrum(rng, d, lowest):
    """A unit-trace spectrum whose smallest eigenvalue is ``lowest``."""
    spectrum = rng.uniform(0.1, 1.0, d)
    spectrum[0] = 0.0
    spectrum *= (1.0 - lowest) / spectrum.sum()
    spectrum[0] = lowest
    return spectrum


def test_uncertified_floors_go_through_project_to_qubits(fallbacks):
    # a state a hair above the eigenvalue floor carries a floor the branch
    # certificate cannot use, so every pair runs the per-pair dense check and
    # the search still gives the reference witness
    rng = np.random.default_rng(8)
    rho = spectrum_state(rng, 3, 3, near_floor_spectrum(rng, 9, -5.5e-11))
    assert rho._floor < 0.5 * EIGENVALUE_FLOOR
    assert_same_witness(search_projection_witness(rho, 7, seed=3), reference_search(rho, 7, 3))
    assert len(fallbacks) == 7


def test_stack_certificates_agree_with_dense_validation(floor_oracle):
    # a pair the stack certifies is one the per-pair path certifies too, with
    # the same floors (which the oracle checks against the dense spectrum) and
    # the same PPT minimum and probability
    rng = np.random.default_rng(12)
    certified_pairs = declined_pairs = 0
    for lowest in (0.0, -1e-14, -1e-11, -3e-11, -4.9e-11, -6e-11, -9e-11):
        rho = spectrum_state(rng, 3, 3, near_floor_spectrum(rng, 9, lowest))
        for _, pi_a, pi_b in _haar_projector_chunks(3, 3, _SEARCH_CHUNK + 8, 5):
            ppt, probability, kept, certified = _project_stack(rho, pi_a, pi_b)
            for k in np.flatnonzero(certified & kept):
                dense = floor_oracle.dense
                outcome, diag = project_to_qubits(rho, pi_a[k], pi_b[k])
                assert floor_oracle.dense == dense
                assert diag.ppt_min_eigenvalue == ppt[k]
                assert outcome.probability == probability[k]
            certified_pairs += int((certified & kept).sum())
            declined_pairs += int((~certified).sum())
    counts = floor_oracle.check()
    assert counts["certified"] == 2 * certified_pairs
    assert certified_pairs > 50
    assert declined_pairs > 50


# --- the stacked exact twirl ------------------------------------------------


def reference_twirl(m):
    return sum(k @ m @ k.conj().T for k in twirl_unitaries()) / 12.0


def twirl_inputs(rng):
    yield from (random_density_operator(2, 2, rng) for _ in range(20))
    yield from (werner(f) for f in np.linspace(0.0, 1.0, 11))
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        p[rng.integers(4)] = 0.0
        yield bell.density_from_bell_probs(bell.BellProbs(tuple(p / p.sum())))
    yield max_entangled(2).density()
    basis = bell.bell_basis_matrix()
    for lowest in (0.0, -1e-14, -1e-11, -3e-11, -4.9e-11, -5.1e-11, -7e-11, -9e-11):
        yield spectrum_state(rng, 2, 2, near_floor_spectrum(rng, 4, lowest))
        # the twirl keeps the Phi+ weight: put the negative eigenvalue there
        spectrum = near_floor_spectrum(rng, 4, lowest)
        m = (basis * spectrum) @ basis.conj().T
        yield DensityOperator.from_matrix((m + m.conj().T) / 2, 2, 2)


def test_stacked_twirl_is_the_twelve_term_sum(floor_oracle):
    rng = np.random.default_rng(31)
    inputs = list(twirl_inputs(rng))
    floor_oracle.check()
    for rho in inputs:
        want = reference_twirl(rho.matrix)
        got, error = outcome_of(twirl, rho)
        if error is not None:
            # the floor decided as the dense check: the reference rejects too
            assert reference_validate(want, 4, True)[0] == error[1]
            continue
        assert got.matrix.tobytes() == want.tobytes()
    counts = floor_oracle.check()
    assert counts["certified"] > 40
    assert counts["declined"] >= 6


def test_stacked_channel_sum_is_the_python_sum():
    # apply_selective sums a channel's Kraus images on the same stacked path
    rng = np.random.default_rng(32)
    twelve = tuple(v / math.sqrt(12.0) for v in twirl_unitaries())
    rho = random_density_operator(2, 2, rng)
    for ops in (twelve, twelve[:3], twelve[:1]):
        branch = apply_selective(KrausChannel(ops, (2, 2), ((2, 2),)), rho).unnormalized_state
        want = sum(k @ rho.matrix @ k.conj().T for k in ops)
        assert branch.matrix.tobytes() == want.tobytes()


def test_sampled_twirl_is_one_conjugation(floor_oracle):
    # the drawn unitary goes through the exact twirl's image path; the
    # reference is the conjugation through the public constructor
    rng = np.random.default_rng(33)
    inputs = list(twirl_inputs(rng))
    floor_oracle.check()
    unitaries = twirl_unitaries()
    for i, rho in enumerate(inputs * 3):
        seed = None if i < len(inputs) else i
        v = unitaries[int(np.random.default_rng(0 if seed is None else seed).integers(0, 12))]
        want = outcome_of(DensityOperator, rho.factors, v @ rho.matrix @ v.conj().T)
        got = outcome_of(twirl, rho, "sampled", seed)
        if want[1] is not None:
            assert got == want
            continue
        assert got[0].matrix.tobytes() == want[0].matrix.tobytes()
    counts = floor_oracle.check()
    assert counts["certified"] > 100


def reference_range_isometry(projector, dim, name):
    """The per-pair projector checks as they were written before they shared
    the stacked checks."""
    p = np.asarray(projector, dtype=complex)
    if p.shape != (dim, dim):
        raise DimensionMismatchError(f"{name} has shape {p.shape}, expected ({dim}, {dim})")
    if np.abs(p - p.conj().T).max() > 1e-9:
        raise InvalidStateError(f"{name} is not Hermitian")
    if np.abs(p @ p - p).max() > 1e-9:
        raise InvalidStateError(f"{name} is not idempotent within 1e-09")
    eigenvalues, vectors = np.linalg.eigh((p + p.conj().T) / 2)
    keep = eigenvalues > 0.5
    if int(keep.sum()) != 2:
        raise InvalidStateError(f"{name} must have rank 2, got rank {int(keep.sum())}")
    return vectors[:, keep]


def test_range_isometry_keeps_the_per_pair_checks():
    rng = np.random.default_rng(34)
    for t in range(300):
        d = 2 + t % 4
        u = reference_haar(d, rng)[:, :2]
        got = bell._range_isometry(u @ u.conj().T, d, "pi_a")
        want = reference_range_isometry(u @ u.conj().T, d, "pi_a")
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    failing = (
        np.eye(2),  # shape
        skewed(),  # not Hermitian
        skewed() + skewed().conj().T,  # Hermitian, not idempotent
        diagonal_projector(1, 0, 0.9),  # not idempotent
        diagonal_projector(1, 0, 0),  # rank 1
        diagonal_projector(1, 1, 1),  # rank 3
        diagonal_projector(0, 0, 0),  # rank 0
    )
    for p in failing:
        got = outcome_of(bell._range_isometry, p, 3, "pi_b")
        assert got[0] is None and got == outcome_of(reference_range_isometry, p, 3, "pi_b")
