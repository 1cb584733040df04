"""Bell-basis tooling for two-qubit states.

Bell labels follow the fixed order 0: Phi+, 1: Psi+, 2: Phi-, 3: Psi-, which
doubles as the bit-pair encoding used by the classical hashing layer.  The
twirl implemented here is the standard symmetrization to Werner form: a
uniformly random shared Pauli, a uniformly random shared axis rotation from a
three-element cyclic set, and a fixed basis correction conjugating the whole
protocol so the Phi+ overlap is the preserved figure of merit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError, ZeroProbabilityError
from .locc import (
    _FILTER_NORM_SQ,
    LocalFilter,
    SelectiveOutcome,
    _branch_probability,
    _filter_norm_certified,
    _kron,
    apply_selective,
)
from .qstate import (
    DensityOperator,
    PureState,
    _certified,
    _kraus_image,
    _partial_transpose,
    _quotient_image,
    _spectral_norm_sq_bound,
    _weighted_outer_image,
    partial_transpose,
    sym,
)
from .sampling import _haar_from_ginibre

__all__ = [
    "BELL_LABELS",
    "BellProbs",
    "TwoQubitDiagnostics",
    "ProjectionWitness",
    "bell_vector",
    "bell_state",
    "bell_basis_matrix",
    "magic_basis_matrix",
    "werner_probs",
    "werner",
    "twirl",
    "twirl_unitaries",
    "bell_probs_from_density",
    "density_from_bell_probs",
    "fully_entangled_fraction",
    "two_qubit_diagnostics",
    "project_to_qubits",
    "search_projection_witness",
]

BELL_LABELS = ("phi_plus", "psi_plus", "phi_minus", "psi_minus")

_SQ2 = 1.0 / math.sqrt(2.0)
_BELL_COLUMNS = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 1, 0, -1],
        [1, 0, -1, 0],
    ],
    dtype=complex,
) * _SQ2  # columns: Phi+, Psi+, Phi-, Psi-

BELL_DIAGONAL_TOL = 1e-8
ENTANGLEMENT_TOL = 1e-10
_PROJECTOR_TOL = 1e-9


def bell_basis_matrix() -> np.ndarray:
    """4 x 4 unitary whose columns are the Bell vectors in label order."""
    return _BELL_COLUMNS.copy()


def bell_vector(label: int) -> np.ndarray:
    if label not in (0, 1, 2, 3):
        raise DimensionMismatchError(f"Bell label must be 0..3, got {label}")
    return _BELL_COLUMNS[:, label].copy()


def bell_state(label: int) -> PureState:
    return PureState(2, 2, bell_vector(label))


_MAGIC = np.stack(
    [
        _BELL_COLUMNS[:, 0],
        1j * _BELL_COLUMNS[:, 2],
        1j * _BELL_COLUMNS[:, 1],
        _BELL_COLUMNS[:, 3],
    ],
    axis=1,
)
_MAGIC.setflags(write=False)
_MAGIC_ADJOINT = _MAGIC.conj().T


def magic_basis_matrix() -> np.ndarray:
    """Columns Phi+, i*Phi-, i*Psi+, Psi-: the basis in which maximally
    entangled states are exactly the real unit combinations."""
    return _MAGIC.copy()


def _magic_real_part(rho: DensityOperator) -> np.ndarray:
    """Symmetrized real part of the state in the magic basis, whose top
    eigenpair is the fully entangled fraction and its maximizer."""
    m = _MAGIC_ADJOINT @ rho.matrix @ _MAGIC
    return (m.real + m.real.T) / 2


@dataclass(frozen=True)
class BellProbs:
    """Probability weights over the four Bell states, in label order."""

    p: tuple[float, float, float, float]

    def __post_init__(self):
        values = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", values)
        if len(values) != 4:
            raise InvalidStateError(f"need four Bell weights, got {len(values)}")
        # accept form, so a NaN never passes
        if not all(math.isfinite(v) for v in values):
            raise InvalidStateError(f"non-finite Bell weight in {values}")
        if not min(values) >= -1e-12:
            raise InvalidStateError(f"negative Bell weight {min(values)}")
        total = sum(values)
        if not abs(total - 1.0) <= 1e-9:
            raise InvalidStateError(f"Bell weights sum to {total}, not 1")

    @property
    def fidelity(self) -> float:
        """Weight on Phi+."""
        return self.p[0]

    def as_array(self) -> np.ndarray:
        return np.array(self.p)


@dataclass(frozen=True)
class TwoQubitDiagnostics:
    ppt_min_eigenvalue: float
    fully_entangled_fraction: float
    entangled: bool


@dataclass(frozen=True)
class ProjectionWitness:
    """Best local rank-2 projection found by randomized search."""

    pi_a: np.ndarray
    pi_b: np.ndarray
    ppt_min_eigenvalue: float
    trial_index: int
    success_prob: float


def _require_two_qubit(rho: DensityOperator, what: str) -> None:
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError(
            f"{what} needs a two-qubit state, got ({rho.dim_a}, {rho.dim_b})"
        )


def werner_probs(fidelity: float) -> BellProbs:
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise InvalidStateError(f"Werner fidelity must lie in [0, 1], got {f}")
    rest = (1.0 - f) / 3.0
    return BellProbs((f, rest, rest, rest))


def werner(fidelity: float) -> DensityOperator:
    """Werner state: weight F on Phi+ and (1-F)/3 on each other Bell state."""
    return density_from_bell_probs(werner_probs(fidelity))


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)

# Three shared rotations generating a cyclic permutation of the non-singlet
# Bell states, and the four shared Paulis killing Bell off-diagonals.
_ETAS = (_I2, _PHASE @ _HAD, _Z @ _HAD @ _PHASE)
_PAULIS = (_I2, _X, _Y, _Z)
_CORRECTION = np.kron(_X, _Z)  # maps the singlet to Phi+ and back


def twirl_unitaries() -> tuple[np.ndarray, ...]:
    """The twelve product unitaries whose uniform mixture is the Werner twirl."""
    out = []
    for eta in _ETAS:
        for sigma in _PAULIS:
            v = _CORRECTION @ np.kron(eta, eta) @ np.kron(sigma, sigma) @ _CORRECTION
            v.setflags(write=False)
            out.append(v)
    return tuple(out)


# The twelve unitaries and their adjoints as frozen (12, 4, 4) stacks.
_TWIRL_UNITARIES = np.stack(twirl_unitaries())
_TWIRL_ADJOINTS = _TWIRL_UNITARIES.conj().swapaxes(-1, -2)
_TWIRL_UNITARIES.setflags(write=False)
_TWIRL_ADJOINTS.setflags(write=False)
# The twirl unitaries and the Bell basis are unitary only up to rounding;
# these bound their squared spectral norms.
_TWIRL_NORM_SQ = float(_spectral_norm_sq_bound(_TWIRL_UNITARIES).max())
_BELL_NORM_SQ = _spectral_norm_sq_bound(_BELL_COLUMNS)


def twirl(
    rho: DensityOperator, mode: str = "exact", seed: int | None = None
) -> DensityOperator:
    """Symmetrize a two-qubit state to Werner form.

    ``exact`` averages the twelve conjugations, producing the Bell-diagonal
    state with unchanged Phi+ overlap and the remaining weight spread evenly.
    ``sampled`` applies a single uniformly drawn member, which is what one
    round of the physical protocol does before averaging over randomness.
    """
    _require_two_qubit(rho, "twirl")
    if mode == "exact":
        # The average of twelve conjugations: Kraus operators v / sqrt(12).
        ops, adjoints, divisor = _TWIRL_UNITARIES, _TWIRL_ADJOINTS, 12.0
    elif mode == "sampled":
        k = int(np.random.default_rng(0 if seed is None else seed).integers(0, 12))
        ops, adjoints, divisor = _TWIRL_UNITARIES[k : k + 1], _TWIRL_ADJOINTS[k : k + 1], None
    else:
        raise InvalidStateError(f"twirl mode must be 'exact' or 'sampled', got {mode!r}")
    image = _kraus_image(
        rho,
        ops,
        norm_sq=_TWIRL_NORM_SQ,
        frobenius_sq=4 * _TWIRL_NORM_SQ,
        divisor=divisor,
        adjoints=adjoints,
    )
    return image.build(DensityOperator, rho.factors, capped=(rho.dim_a, rho.dim_b))


def bell_probs_from_density(rho: DensityOperator, project: bool = False) -> BellProbs:
    """Diagonal of the state in the Bell basis.

    Rejects states whose Bell off-diagonal part exceeds 1e-8 unless
    ``project`` is set, in which case the off-diagonal part is dropped.
    """
    _require_two_qubit(rho, "bell_probs_from_density")
    in_bell = _BELL_COLUMNS.conj().T @ rho.matrix @ _BELL_COLUMNS
    off = in_bell - np.diag(np.diag(in_bell))
    residue = np.abs(off).max()
    if residue > BELL_DIAGONAL_TOL and not project:
        raise InvalidStateError(
            f"state is not Bell diagonal (off-diagonal residue {residue:.3e}); "
            "pass project=True to drop the off-diagonal part"
        )
    diag = np.real(np.diag(in_bell))
    diag = np.clip(diag, 0.0, None)
    return BellProbs(tuple(diag / diag.sum()))


def density_from_bell_probs(bp: BellProbs) -> DensityOperator:
    image = _weighted_outer_image(_BELL_COLUMNS, np.asarray(bp.p), _BELL_NORM_SQ)
    return image.build(DensityOperator, ((2, 2),))


def fully_entangled_fraction(rho: DensityOperator) -> float:
    """Largest overlap with any maximally entangled state.

    Maximally entangled states are the real unit combinations of the magic
    basis, so the maximum is the top eigenvalue of the real part of the state
    expressed in that basis.
    """
    _require_two_qubit(rho, "fully_entangled_fraction")
    return float(np.linalg.eigvalsh(_magic_real_part(rho)).max())


def ppt_min_eigenvalue(rho: DensityOperator) -> float:
    """Smallest eigenvalue of the partial transpose; negative means entangled."""
    return float(np.linalg.eigvalsh(sym(partial_transpose(rho))).min())


def _entangled(ppt_min: float) -> bool:
    """The verdict on a PPT minimum eigenvalue."""
    return ppt_min < -ENTANGLEMENT_TOL


def two_qubit_diagnostics(rho: DensityOperator) -> TwoQubitDiagnostics:
    """PPT minimum eigenvalue, fully entangled fraction, and the verdict."""
    _require_two_qubit(rho, "two_qubit_diagnostics")
    pt_min = ppt_min_eigenvalue(rho)
    return TwoQubitDiagnostics(
        ppt_min_eigenvalue=pt_min,
        fully_entangled_fraction=fully_entangled_fraction(rho),
        entangled=_entangled(pt_min),
    )


def _range_isometry(projector: np.ndarray, dim: int, name: str) -> np.ndarray:
    """The dim x 2 isometry onto a rank-2 projector's range, or its first failed check's error."""
    p = np.asarray(projector, dtype=complex)
    if p.shape != (dim, dim):
        raise DimensionMismatchError(
            f"{name} has shape {p.shape}, expected ({dim}, {dim})"
        )
    vectors, _, (hermitian, idempotent, rank) = _range_isometries(p[None])
    if not hermitian[0]:
        raise InvalidStateError(f"{name} is not Hermitian")
    if not idempotent[0]:
        raise InvalidStateError(f"{name} is not idempotent within {_PROJECTOR_TOL}")
    if rank[0] != 2:
        raise InvalidStateError(f"{name} must have rank 2, got rank {rank[0]}")
    return vectors[0]


def project_to_qubits(
    rho: DensityOperator, pi_a: np.ndarray, pi_b: np.ndarray
) -> tuple[SelectiveOutcome, TwoQubitDiagnostics]:
    """Project both sides onto rank-2 subspaces and compress to a two-qubit state.

    The compressed state is expressed in orthonormal bases of the projector
    ranges; the outcome probability is the projection weight.
    """
    va = _range_isometry(pi_a, rho.dim_a, "pi_a")
    vb = _range_isometry(pi_b, rho.dim_b, "pi_b")
    filt = LocalFilter(va.conj().T, vb.conj().T)
    outcome = apply_selective(filt, rho)
    diagnostics = two_qubit_diagnostics(outcome.normalized())
    return outcome, diagnostics


def _range_isometries(projectors: np.ndarray):
    """For a stack of projectors: the isometries onto their ranges, which pass,
    and per projector whether it is Hermitian, whether idempotent, and its rank.
    Eigenvalues come in ascending order, so the last two eigenvectors span a
    rank-2 range."""
    residue = np.abs(projectors - projectors.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    hermitian = residue <= _PROJECTOR_TOL
    idempotent = np.abs(projectors @ projectors - projectors).max(axis=(-2, -1)) <= _PROJECTOR_TOL
    if not (hermitian & idempotent).all():  # eigh stops on a non-finite entry
        projectors = np.where((hermitian & idempotent)[..., None, None], projectors, 0.0)
    eigenvalues, vectors = np.linalg.eigh(sym(projectors))
    rank = (eigenvalues > 0.5).sum(axis=-1)
    passed = hermitian & idempotent & (rank == 2)
    return vectors[..., -2:], passed, (hermitian, idempotent, rank)


def _project_stack(rho: DensityOperator, pi_a: np.ndarray, pi_b: np.ndarray):
    """``project_to_qubits`` over stacks of projector pairs, in stacked calls.

    Returns, per pair, the PPT minimum of the compressed state, the outcome
    probability, whether that probability is kept (``_branch_probability``;
    the others are the pairs ``project_to_qubits`` ends with a
    ``ZeroProbabilityError``),
    and whether every check of the per-pair path passed on a certificate.
    The values of a pair that is not certified mean nothing: it must go
    through ``project_to_qubits``.
    """
    va, range_a, _ = _range_isometries(pi_a)
    vb, range_b, _ = _range_isometries(pi_b)
    a_ops, b_ops = va.conj().swapaxes(-1, -2), vb.conj().swapaxes(-1, -2)
    # LocalFilter's norm certificate on both sides; a pair that fails it goes
    # through LocalFilter itself, whose SVD decides and words the outcome.
    filter_ok = _filter_norm_certified(a_ops) & _filter_norm_certified(b_ops)
    kraus = _kron(a_ops, b_ops)[:, None]  # one Kraus operator per trial
    branch = _kraus_image(
        rho, kraus, norm_sq=_FILTER_NORM_SQ, frobenius_sq=rho.dim * _FILTER_NORM_SQ
    )
    # The probability is the branch trace itself, so SelectiveOutcome's
    # consistency check between the two holds by construction.
    probability = np.trace(branch.matrix, axis1=-2, axis2=-1).real
    nonzero, kept = _branch_probability(probability)
    state = _quotient_image(branch, np.where(kept, probability, 1.0))
    certified = (
        range_a
        & range_b
        & filter_ok
        & (~nonzero | _certified(branch, (2, 2), unit_trace=False))
        & (~kept | _certified(state, (2, 2), unit_trace=True))
    )
    pt = _partial_transpose(state.matrix, ((2, 2),))
    ppt = np.linalg.eigvalsh(sym(pt)).min(axis=-1)
    return ppt, probability, kept, certified


# Trials run as stacked calls over chunks of at most this many, so memory is
# bounded by the chunk whatever the trial count.
_SEARCH_CHUNK = 32


def _top_two_projectors(ginibre: np.ndarray) -> np.ndarray:
    """Projectors onto the first two columns of the Haar unitaries of a stack
    of Ginibre matrices."""
    u = _haar_from_ginibre(ginibre)[..., :2]
    return u @ u.conj().swapaxes(-1, -2)


def _haar_projector_chunks(dim_a: int, dim_b: int, trials: int, seed: int):
    """Yield (first trial, pi_a stack, pi_b stack) for each chunk of trials.

    Trial t draws from its own ``default_rng([seed, t])`` in the order of two
    ``haar_unitary`` calls: Alice's real and imaginary Ginibre parts, then
    Bob's.
    """
    size_a, size_b = dim_a * dim_a, dim_b * dim_b
    for start in range(0, trials, _SEARCH_CHUNK):
        draws = np.empty((min(_SEARCH_CHUNK, trials - start), 2 * (size_a + size_b)))
        for k, row in enumerate(draws):
            np.random.default_rng([seed, start + k]).standard_normal(out=row)
        re_a, im_a, re_b, im_b = np.split(
            draws, np.cumsum([size_a, size_a, size_b]), axis=1
        )
        g_a = re_a.reshape(-1, dim_a, dim_a) + 1j * im_a.reshape(-1, dim_a, dim_a)
        g_b = re_b.reshape(-1, dim_b, dim_b) + 1j * im_b.reshape(-1, dim_b, dim_b)
        yield start, _top_two_projectors(g_a), _top_two_projectors(g_b)


def _search_projections(rho: DensityOperator, chunks) -> ProjectionWitness:
    """The witness with the smallest PPT minimum, the first in trial order
    among equals, over chunks of (first trial, pi_a stack, pi_b stack).

    A pair that a certificate declines goes through ``project_to_qubits``, in
    trial order, which decides and words every error; pairs whose projection
    weight vanishes are skipped.
    """
    best: ProjectionWitness | None = None
    for start, pi_a, pi_b in chunks:
        ppt, probability, kept, certified = _project_stack(rho, pi_a, pi_b)
        for k in range(len(pi_a)):
            if certified[k]:
                if not kept[k]:
                    continue
                value, prob = float(ppt[k]), float(probability[k])
            else:
                try:
                    outcome, diag = project_to_qubits(rho, pi_a[k], pi_b[k])
                except ZeroProbabilityError:
                    continue
                value, prob = diag.ppt_min_eigenvalue, outcome.probability
            if best is None or value < best.ppt_min_eigenvalue:
                best = ProjectionWitness(
                    pi_a=pi_a[k].copy(),
                    pi_b=pi_b[k].copy(),
                    ppt_min_eigenvalue=value,
                    trial_index=start + k,
                    success_prob=prob,
                )
    if best is None:
        raise ZeroProbabilityError("every trial projected onto a null subspace")
    return best


def search_projection_witness(
    rho: DensityOperator, trials: int, seed: int = 0
) -> ProjectionWitness:
    """Randomized search for local rank-2 projections exposing entanglement.

    Each trial draws Haar unitaries per side (sub-seeded from (seed, trial),
    so results do not depend on how trials are partitioned across workers),
    projects onto the span of their first two columns, and keeps the
    projection minimizing the PPT minimum eigenvalue of the compressed state.
    Trials whose projection weight vanishes are skipped.  The trials run as
    stacked numpy calls over chunks of at most ``_SEARCH_CHUNK`` trials and
    give the witness the one-trial-at-a-time ``project_to_qubits`` loop gives,
    bit for bit.
    """
    trials = int(trials)
    if trials < 1:
        raise DimensionMismatchError(f"need at least one trial, got {trials}")
    if rho.dim_a < 2 or rho.dim_b < 2:
        raise DimensionMismatchError("both sides need dimension >= 2")
    chunks = _haar_projector_chunks(rho.dim_a, rho.dim_b, trials, seed)
    return _search_projections(rho, chunks)
