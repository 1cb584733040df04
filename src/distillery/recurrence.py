"""Recurrence purification: two Werner pairs in, one better Werner pair out.

Closed forms describe the step on Werner inputs; the exact path simulates the
same instrument on the full 16-dimensional two-copy state and must agree with
the closed forms to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    _MAGIC,
    BellProbs,
    _magic_real_part,
    bell_probs_from_density,
    bell_state,
    twirl,
    werner,
)
from .errors import (
    DimensionMismatchError,
    MaxStepsExceededError,
    NotDistillableError,
    UnreachableTargetError,
)
from .locc import LocalFilter, apply_selective
from .qstate import (
    DensityOperator,
    _kraus_image,
    _spectral_norm_sq_bound,
    fidelity_pure,
    tensor_product,
)

__all__ = [
    "MIN_STEP_SUCCESS_PROB",
    "RecurrenceTrace",
    "purified_fidelity",
    "step_success_prob",
    "purify_step_exact",
    "iterate_to_target",
    "distill_two_qubit",
    "align_to_phi_plus",
]

MIN_STEP_SUCCESS_PROB = 5.0 / 18.0


@dataclass(frozen=True)
class RecurrenceTrace:
    """Fidelity trajectory of an iterated recurrence run.

    ``fidelities`` has one more entry than ``step_probs``; consuming
    ``2**pairs_consumed_exponent`` input pairs per output pair succeeds with
    probability at least ``total_success_prob_lower_bound``.
    """

    fidelities: tuple[float, ...]
    step_probs: tuple[float, ...]
    pairs_consumed_exponent: int
    total_success_prob_lower_bound: float


def _check_fidelity_domain(fidelity: float) -> float:
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise DimensionMismatchError(f"fidelity must lie in [0, 1], got {f}")
    return f


def purified_fidelity(fidelity: float) -> float:
    """Fidelity after one successful step on two Werner pairs of fidelity F."""
    f = _check_fidelity_domain(fidelity)
    return (10 * f * f - 2 * f + 1) / (8 * f * f - 4 * f + 5)


def step_success_prob(fidelity: float) -> float:
    """Probability that one recurrence step on two Werner pairs succeeds."""
    f = _check_fidelity_domain(fidelity)
    return (8 * f * f - 4 * f + 5) / 18.0


# Each side maps its two qubits |00> -> |0>, |11> -> |1| and discards the rest.
_KEEP_EQUAL = np.zeros((2, 4), dtype=complex)
_KEEP_EQUAL[0, 0] = 1.0
_KEEP_EQUAL[1, 3] = 1.0
_KEEP_EQUAL_FILTER = LocalFilter(_KEEP_EQUAL, _KEEP_EQUAL)


def purify_step_exact(rho_two_pairs: DensityOperator) -> tuple[BellProbs, float]:
    """One recurrence step simulated exactly on a two-copy state.

    Both sides apply the single Kraus operator |0><00| + |1><11| to their two
    qubits, the surviving pair is renormalized and twirled, and the Bell
    weights of the result are returned together with the branch probability.
    """
    if rho_two_pairs.factors != ((2, 2), (2, 2)):
        raise DimensionMismatchError(
            f"need two explicit qubit-pair copies, got factors {rho_two_pairs.factors}"
        )
    outcome = apply_selective(_KEEP_EQUAL_FILTER, rho_two_pairs)
    twirled = twirl(outcome.normalized(), mode="exact")
    return bell_probs_from_density(twirled), outcome.probability


def iterate_to_target(
    f0: float, f_target: float, max_steps: int = 200
) -> RecurrenceTrace:
    """Iterate the closed-form step from f0 until the target is reached.

    Requires 1/2 < f0 < 1 and f0 <= f_target < 1; the fixed point at 1 is
    approached but never attained, so a target of exactly 1 is unreachable.
    """
    f0 = float(f0)
    f_target = float(f_target)
    if not 0.5 < f0 < 1.0:
        raise NotDistillableError(f"starting fidelity {f0} outside (1/2, 1)")
    if not f_target < 1.0:
        raise UnreachableTargetError(
            f"target {f_target} is not reachable: each step keeps fidelity below 1"
        )
    if f_target < f0:
        raise UnreachableTargetError(
            f"target {f_target} below the starting fidelity {f0}"
        )
    fidelities = [f0]
    step_probs: list[float] = []
    f = f0
    while f < f_target:
        if len(step_probs) >= int(max_steps):
            raise MaxStepsExceededError(
                f"target {f_target} not reached within {max_steps} steps "
                f"(achieved fidelity {f})",
                achieved_fidelity=f,
            )
        step_probs.append(step_success_prob(f))
        f = purified_fidelity(f)
        fidelities.append(f)
    return RecurrenceTrace(
        fidelities=tuple(fidelities),
        step_probs=tuple(step_probs),
        pairs_consumed_exponent=len(step_probs),
        total_success_prob_lower_bound=float(math.prod(step_probs)) if step_probs else 1.0,
    )


def align_to_phi_plus(rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Rotate local bases so the best maximally entangled overlap sits on Phi+.

    The maximizer is read off the top eigenvector of the state's real part in
    the magic basis; its amplitude matrix is unitary up to a factor sqrt(2),
    which directly gives Alice's correction while Bob stays untouched.
    Returns the rotated state and its fully entangled fraction.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError("alignment is defined for two-qubit states")
    # eigh, not the eigvalsh of fully_entangled_fraction: their top
    # eigenvalues can differ in the last bit.
    eigenvalues, vectors = np.linalg.eigh(_magic_real_part(rho))
    fef = float(eigenvalues[-1])
    best = _MAGIC @ vectors[:, -1].astype(complex)
    amp = best.reshape(2, 2)
    u_a = math.sqrt(2.0) * amp.conj().T
    rotation = np.kron(u_a, np.eye(2, dtype=complex))
    # u_a is unitary only up to rounding; ||u_a (x) I||_F^2 <= 2 * 2 ||u_a||^2.
    norm_sq = _spectral_norm_sq_bound(u_a)
    image = _kraus_image(rho, (rotation,), norm_sq=norm_sq, frobenius_sq=4 * norm_sq)
    rotated = image.build(DensityOperator, rho.factors, capped=(rho.dim_a, rho.dim_b))
    return rotated, fef


def distill_two_qubit(
    rho: DensityOperator, f_target: float, max_steps: int = 200
) -> RecurrenceTrace:
    """Recurrence schedule for an arbitrary two-qubit state.

    Rejects states whose fully entangled fraction is at most 1/2.  Otherwise
    the state is locally rotated so that fraction becomes the Phi+ overlap,
    twirled to Werner form, and iterated with the closed-form step.
    """
    rotated, fef = align_to_phi_plus(rho)
    if fef <= 0.5:
        raise NotDistillableError(
            f"fully entangled fraction {fef} is not above 1/2; "
            "the recurrence step cannot gain fidelity"
        )
    aligned_overlap = fidelity_pure(bell_state(0), rotated)
    if abs(aligned_overlap - fef) > 1e-8:
        raise NotDistillableError(
            f"alignment failed: rotated overlap {aligned_overlap} vs fraction {fef}"
        )
    return iterate_to_target(fef, f_target, max_steps=max_steps)


def two_werner_pairs(fidelity: float) -> DensityOperator:
    """Convenience: W_F tensor W_F with explicit copy structure."""
    w = werner(fidelity)
    return tensor_product(w, w)
