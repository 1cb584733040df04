"""Dense bipartite state representation and the linear-algebra primitives on it.

States are explicit complex matrices annotated with an ordered list of
``(alice_dim, bob_dim)`` factor pairs, so a multi-copy state remembers which
tensor factors belong to which copy.  The global basis ordering is copy-major:
every Alice factor comes first (in copy order), then every Bob factor.  With
this convention the maximally entangled state on d = 2^M equals M copies of
the two-qubit maximally entangled state, with no reshuffling.

All operations are pure functions of immutable inputs; matrices handed to a
constructor are copied and frozen.  Eigendecompositions always symmetrize
their argument first, so tiny anti-Hermitian residue cannot leak into
spectra.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionCapError,
    DimensionMismatchError,
    InvalidStateError,
)

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "DensityOperator",
    "UnnormalizedOperator",
    "PureState",
    "max_side_dim",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "trace_norm_distance",
    "fidelity_pure",
    "von_neumann_entropy",
    "max_entangled",
    "format_real",
    "state_to_json",
    "state_from_json",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-10

_DEFAULT_MAX_SIDE_DIM = 64
_MAX_DIM_ENV = "DISTILLERY_MAX_DIM"


def max_side_dim() -> int:
    """Per-side dimension cap; overridable via the DISTILLERY_MAX_DIM env var."""
    raw = os.environ.get(_MAX_DIM_ENV)
    if raw is None or raw == "":
        return _DEFAULT_MAX_SIDE_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"{_MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DimensionCapError(f"{_MAX_DIM_ENV} must be positive, got {value}")
    return value


def _check_cap(dim_a: int, dim_b: int) -> None:
    cap = max_side_dim()
    if dim_a > cap or dim_b > cap:
        raise DimensionCapError(
            f"local dimensions ({dim_a}, {dim_b}) exceed the per-side cap {cap}"
        )


def _normalize_factors(factors) -> tuple[tuple[int, int], ...]:
    out = []
    for pair in factors:
        a, b = int(pair[0]), int(pair[1])
        if a < 1 or b < 1:
            raise DimensionMismatchError(f"factor dimensions must be positive, got {(a, b)}")
        out.append((a, b))
    if not out:
        raise DimensionMismatchError("state needs at least one factor pair")
    return tuple(out)


def _frozen_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    m.setflags(write=False)
    return m


def sym(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, used before every eigendecomposition."""
    return (matrix + matrix.conj().T) / 2


def _validate_operator(matrix: np.ndarray, dim: int, *, unit_trace: bool) -> None:
    if matrix.shape != (dim, dim):
        raise InvalidStateError(
            f"matrix shape {matrix.shape} does not match declared dimension {dim}"
        )
    herm_residue = np.abs(matrix - matrix.conj().T).max()
    if herm_residue > HERMITICITY_TOL:
        raise InvalidStateError(f"matrix is not Hermitian (residue {herm_residue:.3e})")
    tr = matrix.trace()
    if unit_trace and abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"trace {tr} is not 1 within {TRACE_TOL}")
    if not unit_trace and tr.real <= 0.0:
        raise InvalidStateError(f"trace {tr} is not positive")
    eigenvalues = np.linalg.eigvalsh(sym(matrix))
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"matrix has eigenvalue {eigenvalues.min():.3e} below the floor {EIGENVALUE_FLOOR}"
        )


@dataclass(frozen=True)
class DensityOperator:
    """Bipartite density operator with explicit copy structure.

    ``factors[i] = (a_i, b_i)`` are the local dimensions of copy i; the matrix
    acts on the copy-major product space of total dimension
    ``prod(a_i) * prod(b_i)``.
    """

    factors: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "factors", _normalize_factors(self.factors))
        object.__setattr__(self, "matrix", _frozen_matrix(self.matrix))
        _check_cap(self.dim_a, self.dim_b)
        _validate_operator(self.matrix, self.dim, unit_trace=True)

    @property
    def dim_a(self) -> int:
        return math.prod(a for a, _ in self.factors)

    @property
    def dim_b(self) -> int:
        return math.prod(b for _, b in self.factors)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @classmethod
    def from_matrix(cls, matrix, dim_a: int, dim_b: int) -> "DensityOperator":
        """Wrap a matrix as a single-copy state on given local dimensions."""
        return cls(((int(dim_a), int(dim_b)),), matrix)

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityOperator":
        v = psi.amplitudes
        return cls(((psi.dim_a, psi.dim_b),), np.outer(v, v.conj()))


@dataclass(frozen=True)
class UnnormalizedOperator:
    """Positive operator whose trace is a weight rather than 1.

    Used for selective-channel branches; ``weight`` is the branch probability
    when the input was normalized.
    """

    factors: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "factors", _normalize_factors(self.factors))
        object.__setattr__(self, "matrix", _frozen_matrix(self.matrix))
        _check_cap(self.dim_a, self.dim_b)
        _validate_operator(self.matrix, self.dim, unit_trace=False)

    @property
    def dim_a(self) -> int:
        return math.prod(a for a, _ in self.factors)

    @property
    def dim_b(self) -> int:
        return math.prod(b for _, b in self.factors)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def weight(self) -> float:
        return float(self.matrix.trace().real)

    def normalized(self) -> DensityOperator:
        return DensityOperator(self.factors, self.matrix / self.weight)


_NORM_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """State vector on a single (dim_a, dim_b) bipartition, copy-major order."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen_matrix(self.amplitudes).reshape(-1))
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatchError("local dimensions must be positive")
        _check_cap(self.dim_a, self.dim_b)
        if self.amplitudes.shape != (self.dim_a * self.dim_b,):
            raise InvalidStateError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"expected {self.dim_a * self.dim_b}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidStateError(f"state vector norm {norm} is not 1 within {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def density(self) -> DensityOperator:
        return DensityOperator.from_pure(self)


def _subsystem_dims(factors) -> list[int]:
    # Copy-major axis layout: [a_1 .. a_k, b_1 .. b_k].
    return [a for a, _ in factors] + [b for _, b in factors]


def permute_subsystems(matrix: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a square matrix; perm maps new slot -> old slot."""
    n = len(dims)
    arr = matrix.reshape(list(dims) * 2)
    axes = list(perm) + [p + n for p in perm]
    total = math.prod(dims)
    return arr.transpose(axes).reshape(total, total)


def tensor_product(x: DensityOperator, y: DensityOperator) -> DensityOperator:
    """Join two states; the copies of x come before the copies of y.

    The raw Kronecker product interleaves Alice and Bob blocks, so the result
    is permuted back into copy-major order before wrapping.
    """
    factors = x.factors + y.factors
    dim_a = x.dim_a * y.dim_a
    dim_b = x.dim_b * y.dim_b
    _check_cap(dim_a, dim_b)
    m = np.kron(x.matrix, y.matrix)
    # kron layout: [A_x, B_x, A_y, B_y]  ->  [A_x, A_y, B_x, B_y]
    m = permute_subsystems(m, [x.dim_a, x.dim_b, y.dim_a, y.dim_b], (0, 2, 1, 3))
    return DensityOperator(factors, m)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out whole copies, keeping the factor pairs listed in ``keep``."""
    k = rho.num_factors
    keep_set = sorted(set(int(i) for i in keep))
    if not keep_set:
        raise DimensionMismatchError("must keep at least one factor pair")
    if keep_set[0] < 0 or keep_set[-1] >= k:
        raise DimensionMismatchError(f"keep indices {keep_set} out of range for {k} factors")
    drop = [i for i in range(k) if i not in keep_set]
    if not drop:
        return DensityOperator(rho.factors, rho.matrix)

    dims = _subsystem_dims(rho.factors)
    arr = rho.matrix.reshape(dims + dims)
    half = len(dims)
    axes = sorted([i for i in drop] + [k + i for i in drop], reverse=True)
    for ax in axes:
        arr = np.trace(arr, axis1=ax, axis2=ax + half)
        half -= 1
    new_factors = tuple(rho.factors[i] for i in keep_set)
    total = math.prod(a * b for a, b in new_factors)
    return DensityOperator(new_factors, arr.reshape(total, total))


def partial_transpose(rho: DensityOperator) -> np.ndarray:
    """Transpose on Bob's whole factor; returns the (possibly non-positive) matrix."""
    k = rho.num_factors
    dims = _subsystem_dims(rho.factors)
    n = len(dims)
    arr = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in range(k):
        bob_row, bob_col = k + i, n + k + i
        axes[bob_row], axes[bob_col] = bob_col, bob_row
    return arr.transpose(axes).reshape(rho.dim, rho.dim)


def trace_norm_distance(x: DensityOperator, y: DensityOperator) -> float:
    """Trace norm of the difference, computed from the spectrum of x - y."""
    if (x.dim_a, x.dim_b) != (y.dim_a, y.dim_b):
        raise DimensionMismatchError(
            f"states live on ({x.dim_a},{x.dim_b}) vs ({y.dim_a},{y.dim_b})"
        )
    eigenvalues = np.linalg.eigvalsh(sym(x.matrix - y.matrix))
    return float(np.abs(eigenvalues).sum())


def fidelity_pure(psi: PureState, rho: DensityOperator) -> float:
    """Overlap <psi|rho|psi> as a real number in [0, 1]."""
    if (psi.dim_a, psi.dim_b) != (rho.dim_a, rho.dim_b):
        raise DimensionMismatchError(
            f"pure state on ({psi.dim_a},{psi.dim_b}) vs operator on ({rho.dim_a},{rho.dim_b})"
        )
    value = psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes
    if abs(value.imag) > 1e-10:
        raise InvalidStateError(f"fidelity has imaginary residue {value.imag:.3e}")
    real = float(value.real)
    if real < -1e-10 or real > 1.0 + 1e-10:
        raise InvalidStateError(f"fidelity {real} outside [0, 1]")
    return min(max(real, 0.0), 1.0)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Base-2 entropy of the spectrum; eigenvalues are clamped into [1e-12, 1]."""
    eigenvalues = np.clip(np.linalg.eigvalsh(sym(rho.matrix)), 0.0, 1.0)
    logs = np.log2(np.clip(eigenvalues, 1e-12, 1.0))
    return float(-(eigenvalues * logs).sum())


def max_entangled(d: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_k |kk> on a d x d bipartition."""
    d = int(d)
    if d < 2:
        raise DimensionMismatchError(f"maximally entangled state needs d >= 2, got {d}")
    _check_cap(d, d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(d, d, v)


# --- JSON state format -----------------------------------------------------
#
# {"dim_a": int, "dim_b": int, "matrix": [[[re, im], ...], ...]}  row-major,
# reals with 17 significant digits so serialization round-trips bit-exactly.


def format_real(x: float, sig: int = 17) -> str:
    return format(float(x), f".{sig}g")


def _matrix_to_json(m: np.ndarray) -> str:
    """Row-major ``[[[re, im], ...], ...]`` with 17 significant digits."""
    rows = []
    for row in m:
        cells = ",".join(f"[{format_real(v.real)},{format_real(v.imag)}]" for v in row)
        rows.append(f"[{cells}]")
    return "[" + ",".join(rows) + "]"


def _matrix_from_json(raw, error: type[Exception]) -> np.ndarray:
    """Parse the cell layout ``_matrix_to_json`` writes into a complex matrix.

    Anything else (ragged rows, cells that are not ``[re, im]`` pairs of
    numbers, non-finite parts) raises ``error``.  The real and imaginary
    parts are stored bit for bit, signed zeros included.
    """
    try:
        cells = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"matrix is not a rectangular array of [re, im] cells: {exc}") from exc
    if cells.ndim != 3 or cells.shape[2] != 2:
        raise error(f"matrix is not a rectangular array of [re, im] cells (shape {cells.shape})")
    if not np.isfinite(cells).all():
        raise error("matrix has a non-finite cell")
    return np.ascontiguousarray(cells).view(complex)[..., 0]


def state_to_json(rho: DensityOperator) -> str:
    return f'{{"dim_a":{rho.dim_a},"dim_b":{rho.dim_b},"matrix":{_matrix_to_json(rho.matrix)}}}'


def state_from_json(text: str) -> DensityOperator:
    import json

    doc = json.loads(text)
    try:
        dim_a = int(doc["dim_a"])
        dim_b = int(doc["dim_b"])
        raw = doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise InvalidStateError(f"malformed state document: {exc}") from exc
    m = _matrix_from_json(raw, InvalidStateError)
    dim = dim_a * dim_b
    if m.shape != (dim, dim):
        raise InvalidStateError(f"matrix is not {dim} x {dim}")
    return DensityOperator.from_matrix(m, dim_a, dim_b)
