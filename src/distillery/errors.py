"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the command line
layer can emit structured failures without string matching.
"""

from __future__ import annotations

__all__ = [
    "DistilleryError",
    "DimensionMismatchError",
    "DimensionCapError",
    "InvalidStateError",
    "InvalidChannelError",
    "InvalidFilterError",
    "ZeroProbabilityError",
    "NotDistillableError",
    "UnreachableTargetError",
    "MaxStepsExceededError",
    "NothingToCarveError",
    "EntropyTooHighError",
    "DecoderBudgetError",
    "InvalidDistributionError",
    "FileAccessError",
]


class DistilleryError(Exception):
    """Base class for all library errors."""

    code = "error"


class DimensionMismatchError(DistilleryError):
    """Operands act on incompatible spaces."""

    code = "dimension_mismatch"


class DimensionCapError(DistilleryError):
    """A construction would exceed the configured per-side dimension cap."""

    code = "dimension_overflow"


class InvalidStateError(DistilleryError):
    """Matrix fails hermiticity, trace or positivity validation."""

    code = "invalid_state"


class InvalidChannelError(DistilleryError):
    """Kraus family fails completeness or a declared structural flag."""

    code = "invalid_channel"


class InvalidFilterError(DistilleryError):
    """Local filter violates its normalization or rank constraints."""

    code = "invalid_filter"


class ZeroProbabilityError(DistilleryError):
    """Selective outcome has numerically vanishing probability."""

    code = "zero_probability"


class NotDistillableError(DistilleryError):
    """State does not meet the entry condition of the recurrence protocol."""

    code = "not_distillable"


class UnreachableTargetError(DistilleryError):
    """Requested target fidelity lies outside the reachable open interval."""

    code = "unreachable_target"


class MaxStepsExceededError(DistilleryError):
    """Iteration budget exhausted before reaching the target.

    Attributes
    ----------
    achieved_fidelity : float
        Best fidelity reached when the budget ran out.
    """

    code = "max_steps_exceeded"

    def __init__(self, message: str, achieved_fidelity: float):
        super().__init__(message)
        self.achieved_fidelity = achieved_fidelity


class NothingToCarveError(DistilleryError):
    """Carving parameters yield zero extractable qubit pairs."""

    code = "nothing_to_carve"


class EntropyTooHighError(DistilleryError):
    """Source entropy is at or above one bit; the yield formulas give nothing."""

    code = "entropy_too_high"


class DecoderBudgetError(DistilleryError):
    """Typical-set decoder exceeded its candidate visit budget.

    Attributes
    ----------
    visits : int
        Number of candidate visits when the budget tripped.
    """

    code = "decoder_budget_exceeded"

    def __init__(self, message: str, visits: int):
        super().__init__(message)
        self.visits = visits


class InvalidDistributionError(DistilleryError):
    """Probability vector fails validation."""

    code = "invalid_distribution"


class FileAccessError(DistilleryError):
    """An input file cannot be read or an output file cannot be written."""

    code = "file_access"
