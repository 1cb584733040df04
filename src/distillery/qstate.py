"""Dense bipartite state representation and the linear-algebra primitives on it.

States are explicit complex matrices annotated with an ordered list of
``(alice_dim, bob_dim)`` factor pairs, so a multi-copy state remembers which
tensor factors belong to which copy.  The global basis ordering is copy-major:
every Alice factor comes first (in copy order), then every Bob factor.  With
this convention the maximally entangled state on d = 2^M equals M copies of
the two-qubit maximally entangled state, with no reshuffling.

All operations are pure functions of immutable inputs; matrices handed to a
constructor are copied and frozen, those the library computes frozen in place.
Eigendecompositions always symmetrize their argument first, so tiny
anti-Hermitian residue cannot leak into spectra.

Validation happens once, where data enters: the public constructors run the
full Hermiticity and spectrum checks.  Every operator keeps a lower bound on
the smallest eigenvalue of its Hermitian part (its floor) and an upper bound
on its Hermiticity residue max|M - M^dag|.  An operation that builds a new
operator from validated ones passes on rigorous bounds for the result, its
own rounding included; the result runs the dense residue or spectrum only
when its bound misses half the tolerance, so the dense checks still make, and
word, every decision the certificates cannot.

Every JSON document the package writes, states, channels and the command
line's output alike, goes through the one writer here, ``_json_value``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from typing import NamedTuple

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

_EPS = float(np.finfo(float).eps)

# Certificates only ever accept; whatever they cannot certify goes to the
# dense check, which decides and words the error.  They accept at half the
# tolerance so that an accepted quantity sits far enough inside it that the
# rounding of the dense computation could not have tipped it over.
_CERTIFICATE_SLACK = 0.5

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
    """Hermitian part (M + M†)/2 of a matrix or of each matrix in a stack,
    used before every eigendecomposition."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


def _herm_residue(matrix: np.ndarray):
    """``np.abs(matrix - matrix.conj().T).max()``, bit for bit, computed in
    place on one contiguous copy of M^T."""
    diff = matrix.T.copy()
    np.conjugate(diff, out=diff)
    np.subtract(matrix, diff, out=diff)
    return np.abs(diff).max()


# Accept-form predicates on a value or on each of an array: each says when a
# value passes, so NaN never does.  Certificates pass ``_CERTIFICATE_SLACK``.
def _hermitian(residue, slack=1.0):
    return residue <= slack * HERMITICITY_TOL


def _above_floor(lowest, slack=1.0):
    return lowest >= slack * EIGENVALUE_FLOOR


def _trace_accepted(tr, unit_trace: bool):
    return abs(tr - 1.0) <= TRACE_TOL if unit_trace else tr.real > 0.0


def _validate_operator(
    matrix: np.ndarray, dim: int, *, unit_trace: bool, floor=None, herm=None
) -> tuple[float, float]:
    """Check shape, Hermiticity, trace and positivity; return (floor, herm).

    ``floor`` and ``herm``, carried over from the operation that built the
    matrix, bound the smallest eigenvalue of ``sym(matrix)`` from below and
    max|M - M^dag| from above.  ``herm`` at most half of ``HERMITICITY_TOL``
    stands in for the dense residue, ``floor`` at least half of
    ``EIGENVALUE_FLOOR`` for ``eigvalsh``.  What the dense checks compute is
    returned instead: the residue, and the minimum less a rounding margin.
    A non-finite entry makes the residue NaN or inf, which is rejected.
    """
    if matrix.shape != (dim, dim):
        raise InvalidStateError(
            f"matrix shape {matrix.shape} does not match declared dimension {dim}"
        )
    if herm is None or not _hermitian(herm, _CERTIFICATE_SLACK):
        herm = _herm_residue(matrix)
        if not _hermitian(herm):
            raise InvalidStateError(f"matrix is not Hermitian (residue {herm:.3e})")
    tr = matrix.trace()
    if not _trace_accepted(tr, unit_trace):
        expected = f"1 within {TRACE_TOL}" if unit_trace else "positive"
        raise InvalidStateError(f"trace {tr} is not {expected}")
    if floor is not None and _above_floor(floor, _CERTIFICATE_SLACK):
        return floor, herm
    eigenvalues = np.linalg.eigvalsh(sym(matrix))
    if not _above_floor(eigenvalues.min()):
        raise InvalidStateError(
            f"matrix has eigenvalue {eigenvalues.min():.3e} below the floor {EIGENVALUE_FLOOR}"
        )
    lowest, highest = float(eigenvalues[0]), float(eigenvalues[-1])
    # A backward-stable eigensolver is off by a modest multiple of dim * eps * ||sym(matrix)||.
    return lowest - 2 * (dim + 1) * _EPS * max(-lowest, highest), herm


def _init_operator(op, *, unit_trace: bool) -> None:
    """Shared ``__post_init__`` of the two operator types.

    Normalizes and freezes the fields, records ``dim_a``, ``dim_b`` and
    ``dim`` once, validates, and keeps the bounds in ``_floor`` and ``_herm``.
    Only ``_Image.build`` sets them (and ``_capped``) before this runs.
    """
    factors = _normalize_factors(op.factors)
    object.__setattr__(op, "factors", factors)
    floor, herm = op.__dict__.get("_floor"), op.__dict__.get("_herm")
    if floor is None:
        object.__setattr__(op, "matrix", _frozen_matrix(op.matrix))
    dim_a = math.prod(a for a, _ in factors)
    dim_b = math.prod(b for _, b in factors)
    op.__dict__.update(dim_a=dim_a, dim_b=dim_b, dim=dim_a * dim_b)
    if op.__dict__.pop("_capped", None) != (dim_a, dim_b):
        _check_cap(dim_a, dim_b)
    op.__dict__["_floor"], op.__dict__["_herm"] = _validate_operator(
        op.matrix, dim_a * dim_b, unit_trace=unit_trace, floor=floor, herm=herm
    )


class _Image(NamedTuple):
    """A matrix the library just computed, with bounds proved on the smallest
    eigenvalue of its Hermitian part and on max|M - M^dag|, rounding included."""

    matrix: np.ndarray
    floor: float
    herm: float

    def build(self, cls, factors, capped=None):
        """The operator of type ``cls`` on the matrix, frozen in place, through
        the class's own ``__post_init__``: the dense checks run only where a
        bound is not certified, and the cap only unless the per-side
        dimensions are ``capped``, ones that passed it already (the input's)."""
        self.matrix.setflags(write=False)
        op = cls.__new__(cls)
        op.__dict__.update(factors=factors, matrix=self.matrix, _capped=capped)
        op.__dict__.update(_floor=self.floor, _herm=self.herm)
        op.__post_init__()
        return op


def _frobenius_bound(dim: int, floor: float, trace=1.0 + TRACE_TOL):
    """Upper bound on ||M||_F for a validated operator M of ``dim`` rows, eigenvalue
    floor ``floor`` and real trace at most ``trace`` (a float or an array).

    The Hermitian part's Frobenius norm is at most the sum of its absolute
    eigenvalues, trace + 2 * (the negative ones), and each entry of the
    anti-Hermitian part is at most HERMITICITY_TOL / 2.
    """
    return trace + dim * (2.0 * max(-floor, 0.0) + HERMITICITY_TOL / 2)


def _kraus_image(
    rho,
    ops,
    *,
    norm_sq: float,
    frobenius_sq: float,
    divisor: float | None = None,
    adjoints=None,
) -> _Image:
    """sum_k K_k rho K_k^dag over the Kraus axis (-3) of a stack of operators,
    divided by ``divisor`` if one is given.

    The products are formed in one stacked call.  A single product is not
    summed; several are reduced from 0.0, in order: the same additions as
    Python's ``sum``, signed zeros included.  Leading axes hold independent
    sums (one per trial, say) that share the bounds, so ``norm_sq`` and
    ``frobenius_sq`` must bound each of them.  ``adjoints`` may hold the
    stacked K_k^dag of a constant stack, computed once as
    ``K.conj().swapaxes(-1, -2)``.

    ``norm_sq`` bounds sum_k ||K_k||_2^2 and ``frobenius_sq`` bounds
    sum_k ||K_k||_F^2, both after any division.  If sym(rho) >= f then the
    exact result is at least min(f, 0) * norm_sq, and no entry of
    sum_k K_k (rho - rho^dag) K_k^dag exceeds norm_sq * n * max|rho - rho^dag|.
    Each product rounds by at most 2 (n + 2) eps |K_k| |rho| |K_k^dag|
    entrywise (complex dot products of length n), and the sum and the division
    add terms + 1 roundings: at most ``rounding`` in all, per entry and in norm.
    """
    ops = np.asarray(ops)
    if adjoints is None:
        adjoints = ops.conj().swapaxes(-1, -2)
    products = ops @ rho.matrix @ adjoints
    terms = ops.shape[-3]
    if terms == 1:
        out = products[..., 0, :, :]
    else:
        out = np.add.reduce(products, axis=-3, initial=0.0)
    if divisor is not None:
        out = out / divisor
    steps = 2 * (rho.dim + 2) + terms + 1
    rounding = steps * _EPS * frobenius_sq * _frobenius_bound(rho.dim, rho._floor)
    floor = min(rho._floor, 0.0) * norm_sq - rounding
    return _Image(out, floor, norm_sq * rho.dim * rho._herm + 2 * rounding)


def _quotient_image(image: _Image, weight) -> _Image:
    """The image divided by its real trace ``weight``, or a stack of images
    sharing their bounds divided by an array of weights.  Dividing scales
    the spectrum and the residue by 1 / weight and rounds each entry once,
    by at most eps times the Frobenius norm."""
    divisor = weight[..., None, None] if isinstance(weight, np.ndarray) else weight
    rounding = _EPS * _frobenius_bound(image.matrix.shape[-1], image.floor, weight)
    floor = (min(image.floor, 0.0) - rounding) / weight
    return _Image(image.matrix / divisor, floor, (image.herm + 2 * rounding) / weight)


def _certified(image: _Image, dims: tuple[int, int], *, unit_trace: bool) -> np.ndarray:
    """For each matrix of a stack, whether building it as an operator on local
    dimensions ``dims`` passes every check on its bounds alone: the cap, the
    trace check of ``_validate_operator``, and certified Hermiticity and
    floor bounds.  A matrix that is not certified is built the ordinary way,
    which decides and words the outcome; NaN bounds never certify."""
    tr = np.trace(image.matrix, axis1=-2, axis2=-1)
    slack = _CERTIFICATE_SLACK
    bounds = _hermitian(image.herm, slack) & _above_floor(image.floor, slack)
    return bounds & _trace_accepted(tr, unit_trace) & (max(dims) <= max_side_dim())


def _outer_image(vectors) -> _Image:
    """sum_k v_k v_k^dag over a sequence of vectors: a single product is not
    summed, several are added in place, in order: the additions of Python's
    ``sum`` from 0, signed zeros included.  The exact sum is Hermitian and
    positive; each entry of a term rounds by at most 2 eps |v_i| |v_j| and
    the sum adds one rounding a term.  Twice the trace bounds sum ||v_k||^2."""
    out = np.outer(vectors[0], vectors[0].conj())
    if len(vectors) > 1:
        out += 0.0  # as sum's 0 + v_0 v_0^dag, which turns -0.0 into 0.0
        term = np.empty_like(out)
        for v in vectors[1:]:
            out += np.outer(v, v.conj(), out=term)
    rounding = (len(vectors) + 2) * _EPS * 2 * float(np.trace(out).real)
    return _Image(out, -rounding, 2 * rounding)


def _weighted_outer_image(columns: np.ndarray, weights: np.ndarray, norm_sq: float) -> _Image:
    """sum_i w_i c_i c_i^dag over the columns c_i of C, formed as (C w) C^dag.

    ``norm_sq`` bounds ||C||_2^2, so for real w the exact result is Hermitian
    and at least min(w, 0) * norm_sq.  Scaling the columns rounds once and each
    length-n complex dot product by at most 2 (n + 2) eps, against the Frobenius
    norm of |C| |w| |C|^dag, which is at most max|w| * min(C.shape) * norm_sq.
    """
    out = (columns * weights) @ columns.conj().T
    n = len(weights)
    scale = float(np.abs(weights).max()) * min(columns.shape) * norm_sq
    rounding = (2 * (n + 2) + 1) * _EPS * scale
    return _Image(out, min(float(weights.min()), 0.0) * norm_sq - rounding, 2 * rounding)


def _spectral_norm_sq_bound(op: np.ndarray):
    """Upper bound on ||op||_2^2 without an SVD, for a matrix or for each
    matrix of a stack; inf for an empty matrix.

    Gershgorin bounds the top eigenvalue of the smaller gram G by the largest
    row sum of |G|.  The computed gram is off by at most (k + 2) eps
    |op| |op|^dag entrywise (k the inner dimension), whose row sums are at most
    the largest row sum times the largest column sum of |op|.
    """
    if op.size == 0:
        return math.inf
    rows, cols = op.shape[-2:]
    adjoint = op.conj().swapaxes(-1, -2)
    gram = op @ adjoint if rows <= cols else adjoint @ op
    mag = np.abs(op)
    rounding = (
        (max(rows, cols) + 2)
        * _EPS
        * mag.sum(axis=-1).max(axis=-1)
        * mag.sum(axis=-2).max(axis=-1)
    )
    bound = np.abs(gram).sum(axis=-1).max(axis=-1) * (1 + gram.shape[-1] * _EPS)
    return bound + rounding


@dataclass(frozen=True)
class DensityOperator:
    """Bipartite density operator with explicit copy structure.

    ``factors[i] = (a_i, b_i)`` are the local dimensions of copy i; the matrix
    acts on the copy-major product space of total dimension
    ``dim = dim_a * dim_b`` with ``dim_a = prod(a_i)`` and ``dim_b = prod(b_i)``,
    which are set once on construction.
    """

    factors: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        _init_operator(self, unit_trace=True)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @classmethod
    def from_matrix(cls, matrix, dim_a: int, dim_b: int) -> "DensityOperator":
        """Wrap a matrix as a single-copy state on given local dimensions."""
        return cls(((int(dim_a), int(dim_b)),), matrix)

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityOperator":
        dims = (psi.dim_a, psi.dim_b)
        return _outer_image([psi.amplitudes]).build(cls, (dims,), capped=dims)


@dataclass(frozen=True)
class UnnormalizedOperator:
    """Positive operator whose trace is a weight rather than 1.

    Used for selective-channel branches; ``weight`` is the branch probability
    when the input was normalized.  ``dim_a``, ``dim_b`` and ``dim`` are set on
    construction, as for ``DensityOperator``.
    """

    factors: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        _init_operator(self, unit_trace=False)

    @property
    def weight(self) -> float:
        return float(self.matrix.trace().real)

    def normalized(self) -> DensityOperator:
        image = _quotient_image(_Image(self.matrix, self._floor, self._herm), self.weight)
        return image.build(DensityOperator, self.factors, capped=(self.dim_a, self.dim_b))


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
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise InvalidStateError(f"state vector norm {norm} is not 1 within {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def density(self) -> DensityOperator:
        return DensityOperator.from_pure(self)


def _subsystem_dims(factors) -> list[int]:
    # Copy-major axis layout: [a_1 .. a_k, b_1 .. b_k].
    return [a for a, _ in factors] + [b for _, b in factors]


def tensor_product(x: DensityOperator, y: DensityOperator) -> DensityOperator:
    """Join two states; the copies of x come before the copies of y.

    The Kronecker product's entries are formed by one broadcast product laid
    out in copy-major order, [A_x, A_y, B_x, B_y], with no separate
    permutation.
    """
    factors = x.factors + y.factors
    dim_a = x.dim_a * y.dim_a
    dim_b = x.dim_b * y.dim_b
    _check_cap(dim_a, dim_b)
    mx = x.matrix.reshape(x.dim_a, 1, x.dim_b, 1, x.dim_a, 1, x.dim_b, 1)
    my = y.matrix.reshape(1, y.dim_a, 1, y.dim_b, 1, y.dim_a, 1, y.dim_b)
    m = (mx * my).reshape(x.dim * y.dim, x.dim * y.dim)
    # The spectrum of sym(X) (x) sym(Y) is the products of the two spectra,
    # and each side's largest eigenvalue is at most its trace + D |f|.
    # sym(X (x) Y) also holds the product of the two anti-Hermitian parts, and
    # every entry rounds once.  No entry of X or Y exceeds its Frobenius norm,
    # and X (x) Y - (X (x) Y)^dag = (X - X^dag) (x) Y + X^dag (x) (Y - Y^dag).
    fx, fy = min(x._floor, 0.0), min(y._floor, 0.0)
    bound_x, bound_y = _frobenius_bound(x.dim, x._floor), _frobenius_bound(y.dim, y._floor)
    rounding = 2 * _EPS * bound_x * bound_y
    floor = (
        fx * (1.0 + TRACE_TOL - y.dim * fy)
        + fy * (1.0 + TRACE_TOL - x.dim * fx)
        - x.dim * y.dim * (HERMITICITY_TOL / 2) ** 2
        - rounding
    )
    herm = x._herm * bound_y + y._herm * bound_x + 2 * rounding
    return _Image(m, floor, herm).build(DensityOperator, factors, capped=(dim_a, dim_b))


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
    return _partial_transpose(rho.matrix, rho.factors)


def _partial_transpose(matrix: np.ndarray, factors) -> np.ndarray:
    """Bob-side transpose of a matrix, or of each matrix in a stack, on ``factors``."""
    k = len(factors)
    dims = _subsystem_dims(factors)
    n = len(dims)
    lead = matrix.ndim - 2
    arr = matrix.reshape(matrix.shape[:lead] + tuple(dims) * 2)
    axes = list(range(lead + 2 * n))
    for i in range(k):
        bob_row, bob_col = lead + k + i, lead + n + k + i
        axes[bob_row], axes[bob_col] = bob_col, bob_row
    return arr.transpose(axes).reshape(matrix.shape)


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


def _json_loads(text: str):
    """Parse a state or channel document, every number as a float: ``-0``, as
    ``format_real`` writes -0.0, keeps its sign, and an overlong integer reads
    as inf, which the readers reject."""
    return json.loads(text, parse_int=float)


def _integer(value, error: type[Exception]) -> int:
    """A dimension: an integer, or a float with an integer value (JSON
    numbers read as floats); anything else, booleans, strings and
    non-finite numbers included, raises ``error``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"dimension {value!r} is not an integer")


def _json_value(value) -> str:
    """The library's one JSON writer: reals with 17 significant digits, and a
    complex matrix as row-major ``[[[re, im], ...], ...]`` cells."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "c" and value.ndim == 2:
        rows = []
        for row in value.tolist():  # Python complex numbers: the same doubles, read faster
            cells = ",".join(f"[{format_real(v.real)},{format_real(v.imag)}]" for v in row)
            rows.append(f"[{cells}]")
        return "[" + ",".join(rows) + "]"
    if isinstance(value, str):
        return _json_string(value)
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_real(value)
    if isinstance(value, dict):
        items = ",".join(f"{_json_string(str(k))}:{_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _matrix_from_json(raw, error: type[Exception]) -> np.ndarray:
    """Parse the cell layout ``_json_value`` writes into a complex matrix.

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
    return _json_value({"dim_a": rho.dim_a, "dim_b": rho.dim_b, "matrix": rho.matrix})


def state_from_json(text: str) -> DensityOperator:
    doc = _json_loads(text)
    try:
        dim_a = _integer(doc["dim_a"], InvalidStateError)
        dim_b = _integer(doc["dim_b"], InvalidStateError)
        raw = doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise InvalidStateError(f"malformed state document: {exc}") from exc
    m = _matrix_from_json(raw, InvalidStateError)
    dim = dim_a * dim_b
    if m.shape != (dim, dim):
        raise InvalidStateError(f"matrix is not {dim} x {dim}")
    return DensityOperator.from_matrix(m, dim_a, dim_b)
