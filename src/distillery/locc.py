"""Local operations: Kraus channels, two-sided filters, and selective outcomes.

Operator-sum maps here are always understood as products of an Alice part and
a Bob part acting on the copy-major global ordering.  Channels record a short
``provenance`` note saying how they were built from local instruments, since
membership in the local-operations class is asserted by construction rather
than decided algorithmically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidFilterError,
    InvalidStateError,
    NothingToCarveError,
    ZeroProbabilityError,
)
from .qstate import (
    _CERTIFICATE_SLACK,
    _EPS,
    DensityOperator,
    PureState,
    UnnormalizedOperator,
    _frozen_matrix,
    _Image,
    _integer,
    _json_loads,
    _json_value,
    _kraus_image,
    _matrix_from_json,
    _outer_image,
    _spectral_norm_sq_bound,
    max_side_dim,
)

__all__ = [
    "COMPLETENESS_TOL",
    "PRODUCT_FORM_TOL",
    "ZERO_PROBABILITY_TOL",
    "KrausChannel",
    "LocalFilter",
    "SelectiveOutcome",
    "CarveReport",
    "apply_channel",
    "apply_selective",
    "postselect_compose",
    "support_projector",
    "carve_pairs",
    "product_factor_singular_values",
    "channel_to_json",
    "channel_from_json",
]

COMPLETENESS_TOL = 1e-9
PRODUCT_FORM_TOL = 1e-8
ZERO_PROBABILITY_TOL = 1e-12
_SUPPORT_RANK_TOL = 1e-8


def product_factor_singular_values(
    op: np.ndarray, in_dims: tuple[int, int], out_dims: tuple[int, int]
) -> np.ndarray:
    """Singular values of the operator rearranged so rank one means A tensor B.

    The operator maps (a_in * b_in) -> (a_out * b_out) in copy-major order;
    grouping (Alice out, Alice in) against (Bob out, Bob in) turns a product
    operator into a rank-one matrix.
    """
    return np.linalg.svd(_rearranged(op, in_dims, out_dims), compute_uv=False)


def _rearranged(op, in_dims, out_dims) -> np.ndarray:
    a_in, b_in = in_dims
    a_out, b_out = out_dims
    arr = op.reshape(a_out, b_out, a_in, b_in).transpose(0, 2, 1, 3)
    return arr.reshape(a_out * a_in, b_out * b_in)


def _product_factors(op, in_dims, out_dims):
    """Factors (A, B) and ||op - A (x) B||_F, or None if op is not product.

    The singular values of the rearranged operator M decide product form
    exactly as ``product_factor_singular_values`` does (second singular value
    below ``PRODUCT_FORM_TOL``).  The factors are M's largest column a and
    b = a^dag M / |a|^2, and the measured ||M - a b^T||_F is the error.
    """
    m = _rearranged(op, in_dims, out_dims)
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) > 1 and not s[1] < PRODUCT_FORM_TOL:
        return None
    a = m[:, np.argmax(np.linalg.norm(m, axis=0))]
    b = a.conj() @ m / (np.vdot(a, a).real or 1.0)
    error = float(np.linalg.norm(m - np.outer(a, b)))
    return a.reshape(out_dims[0], in_dims[0]), b.reshape(out_dims[1], in_dims[1]), error


# Bounds on ||K||_2^2 that validation proves: each side of a normalized filter
# has norm at most 1 + tol (up to the rounding of its check), and every Kraus
# operator of a channel at most the completeness bound 1 + tol.
_FILTER_NORM_SQ = (1.0 + 2 * COMPLETENESS_TOL) ** 4
_KRAUS_NORM_SQ = 1.0 + 2 * COMPLETENESS_TOL


def _filter_norm_certified(op):
    """Whether a filter side, or each of a stack, has a bound proving norm <= 1 + tol/2."""
    return _spectral_norm_sq_bound(op) <= 1.0 + COMPLETENESS_TOL


def _branch_probability(p, floor=ZERO_PROBABILITY_TOL):
    """Whether a probability, or each of an array, exceeds ``floor`` (which branches
    ``apply_selective`` builds), and whether it is also at most 1 + tol (which it keeps)."""
    above = p > floor
    return above, above & (p <= 1.0 + COMPLETENESS_TOL)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product, bit for bit; of
    two stacks of matrices, the Kronecker product of each pair."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (ra * rb, ca * cb))


def _completeness_certified(a, b, errors) -> bool:
    """Certify max eig sum_k K_k^dag K_k <= 1 + tol from the (K, ., .) stacks
    A and B of the factors of K_k and their factoring errors ||E_k||_F.

    With P_k = A_k (x) B_k, Gershgorin on sum_k (A_k^dag A_k) (x) (B_k^dag B_k)
    bounds its top eigenvalue g by the largest sum_k rA_k[a] rB_k[b], where
    rA_k and rB_k are the row sums of |A_k^dag A_k| and |B_k^dag B_k|: O(K d^2)
    work instead of an eigensolve of the d^2 x d^2 sum.  The errors
    E_k = K_k - P_k add at most their joint norm e: for a unit vector x,
    sqrt(sum_k |K_k x|^2) <= sqrt(g) + sqrt(sum_k ||E_k||_F^2).
    """
    row_sums_a = np.abs(a.conj().swapaxes(-1, -2) @ a).sum(axis=-1)
    row_sums_b = np.abs(b.conj().swapaxes(-1, -2) @ b).sum(axis=-1)
    gershgorin = float((row_sums_a.T @ row_sums_b).max())
    bound = (math.sqrt(gershgorin) + float(np.linalg.norm(errors))) ** 2
    return bound <= 1.0 + _CERTIFICATE_SLACK * COMPLETENESS_TOL


@dataclass(frozen=True)
class KrausChannel:
    """Operator-sum map with declared input bipartition and output copy layout.

    ``trace_preserving`` distinguishes full channels from selective branches
    (completeness sum at most the identity).  ``product_form`` declares every
    Kraus operator to factor as an Alice part tensor a Bob part; the claim is
    verified numerically on construction.  A product channel built inside the
    library from its local factors (``_product_channel``, ``LocalFilter``)
    keeps just their stacks in ``_pairs`` and forms its ``kraus_ops`` on their
    first read; one given as dense operators gets its factors at the boundary.
    Completeness is first certified from the factors; the eigensolve of the
    completeness sum runs only where that fails.
    """

    kraus_ops: tuple[np.ndarray, ...]
    in_dims: tuple[int, int]
    out_factors: tuple[tuple[int, int], ...]
    product_form: bool = False
    trace_preserving: bool = False
    provenance: str = ""

    # Validation proves ||K||_2^2 <= _norm_sq for each Kraus operator.
    _norm_sq = _KRAUS_NORM_SQ
    _noun = "channel"  # in error messages

    def __post_init__(self):
        pairs = self.__dict__.get("_pairs")
        if pairs is None:
            ops = tuple(_frozen_matrix(k) for k in self.kraus_ops)
            object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "in_dims", _channel_dims(self.in_dims))
        object.__setattr__(
            self, "out_factors", tuple(_channel_dims(pair) for pair in self.out_factors)
        )
        if len(ops if pairs is None else pairs[0]) == 0:
            raise InvalidChannelError("channel needs at least one Kraus operator")
        din = self.in_dim
        dout = self.out_dim
        if pairs is None:
            for op in ops:
                if op.shape != (dout, din):
                    raise InvalidChannelError(
                        f"Kraus operator shape {op.shape} does not match ({dout}, {din})"
                    )
                if not np.isfinite(op).all():
                    raise InvalidChannelError("Kraus operator has a non-finite entry")
        else:
            sides = tuple((len(pairs[0]), o, i) for o, i in zip(self.out_dims, self.in_dims))
            if tuple(side.shape for side in pairs) != sides:
                raise InvalidChannelError(f"factor stacks do not have the shapes {sides}")
        # Completeness is certified from the factors first; the dense test
        # runs only where the certificate fails, and it alone rejects.
        factors, certified = None, False
        if pairs is not None:
            # ``_kron`` rounds each entry of A (x) B once.
            norms = [np.linalg.norm(side, axis=(1, 2)) for side in pairs]
            certified = _completeness_certified(*pairs, 2 * _EPS * norms[0] * norms[1])
        elif self.product_form:
            factors = [_product_factors(op, self.in_dims, self.out_dims) for op in ops]
            if None not in factors:
                certified = _completeness_certified(*map(np.array, zip(*factors)))
        if self.trace_preserving or not certified:
            gram = sum(op.conj().T @ op for op in self.kraus_ops)
            eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            if eigenvalues.max() > 1.0 + COMPLETENESS_TOL:
                raise InvalidChannelError(
                    "completeness sum exceeds the identity "
                    f"(max eigenvalue {eigenvalues.max():.12f})"
                )
            if self.trace_preserving:
                residue = np.abs(gram - np.eye(din)).max()
                if residue > COMPLETENESS_TOL:
                    raise InvalidChannelError(
                        f"declared trace preserving but completeness residue is {residue:.3e}"
                    )
        if factors is not None and None in factors:
            raise InvalidChannelError(
                f"Kraus operator {factors.index(None)} is not a product of local operators"
            )

    def __getattr__(self, name):
        # Only reached for attributes not in the instance dict: the dense
        # Kraus operators of a channel kept as factors, on their first read.
        pairs = self.__dict__.get("_pairs")
        if name != "kraus_ops" or pairs is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = _kron(*pairs)
        ops.setflags(write=False)
        self.__dict__["kraus_ops"] = tuple(ops)
        return self.kraus_ops

    @property
    def in_dim(self) -> int:
        return self.in_dims[0] * self.in_dims[1]

    @property
    def out_dims(self) -> tuple[int, int]:
        return (
            math.prod(a for a, _ in self.out_factors),
            math.prod(b for _, b in self.out_factors),
        )

    @property
    def out_dim(self) -> int:
        a, b = self.out_dims
        return a * b


def _channel_dims(pair) -> tuple[int, int]:
    return _integer(pair[0], InvalidChannelError), _integer(pair[1], InvalidChannelError)


def _product_channel(a_ops, b_ops, **fields) -> KrausChannel:
    """The product channel with Kraus operators A_k (x) B_k, kept as frozen
    copies of the (K, ., .) stacks ``a_ops`` and ``b_ops`` of its factors:
    product form holds by construction, completeness is certified from the
    factors, and no A_k (x) B_k is formed unless ``kraus_ops`` is read.
    ``fields`` are the other ``KrausChannel`` fields."""
    pairs = (_frozen_matrix(a_ops), _frozen_matrix(b_ops))
    channel = KrausChannel.__new__(KrausChannel)
    channel.__dict__.update(product_form=True, _pairs=pairs, **fields)
    channel.__post_init__()
    return channel


@dataclass(frozen=True)
class LocalFilter(KrausChannel):
    """One Kraus operator per side: rho -> (A tensor B) rho (A tensor B)†.

    The product sub-channel of the single operator A tensor B, kept as its
    two sides: A tensor B is formed when ``kraus_ops`` is first read, as by
    applying the filter.  Normalized filters have spectral norm at most one
    per side, so the filter trace reads as a probability.  Set
    ``normalized=False`` to carry analysis operators that are only used
    structurally (e.g. for support projectors); those cannot be applied.
    """

    # The channel fields are derived from a_op and b_op, not passed.
    kraus_ops: tuple[np.ndarray, ...] = field(init=False, repr=False)
    in_dims: tuple[int, int] = field(init=False, repr=False)
    out_factors: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    product_form: bool = field(default=True, init=False, repr=False)
    trace_preserving: bool = field(default=False, init=False, repr=False)
    provenance: str = field(default="", init=False, repr=False)
    a_op: np.ndarray
    b_op: np.ndarray
    normalized: bool = True

    _noun = "filter"

    def __post_init__(self):
        # Validates on its own, not through KrausChannel: the norm check is
        # per side, so 2 I (x) I / 2 is rejected although its product is I.
        a, b = _frozen_matrix(self.a_op), _frozen_matrix(self.b_op)
        if a.ndim != 2 or b.ndim != 2:
            raise InvalidFilterError("filter operators must be matrices")
        self.__dict__.update(
            a_op=a,
            b_op=b,
            _pairs=(a[None], b[None]),
            in_dims=(a.shape[1], b.shape[1]),
            out_factors=((a.shape[0], b.shape[0]),),
            _norm_sq=_FILTER_NORM_SQ if self.normalized else None,
        )
        for name, op in (("a_op", a), ("b_op", b)):
            # Where the certificate fails the SVD decides and words the error.
            if self.normalized and _filter_norm_certified(op):
                continue
            if not np.isfinite(op).all():
                raise InvalidFilterError(f"{name} has a non-finite entry")
            norm = np.linalg.norm(op, 2) if self.normalized else 0.0
            if norm > 1.0 + COMPLETENESS_TOL:
                raise InvalidFilterError(
                    f"{name} has spectral norm {norm:.12f} > 1; "
                    "flag the filter as unnormalized if this is intended"
                )


@dataclass(frozen=True)
class SelectiveOutcome:
    """One branch of a selective map: unnormalized state plus its probability."""

    unnormalized_state: UnnormalizedOperator
    probability: float

    def __post_init__(self):
        p = float(self.probability)
        object.__setattr__(self, "probability", p)
        if not _branch_probability(p, 0.0)[1]:
            raise ZeroProbabilityError(f"outcome probability {p} outside (0, 1]")
        if abs(p - self.unnormalized_state.weight) > TRACE_CONSISTENCY_TOL:
            raise InvalidStateError(
                f"probability {p} inconsistent with branch trace "
                f"{self.unnormalized_state.weight}"
            )

    def normalized(self) -> DensityOperator:
        return self.unnormalized_state.normalized()


TRACE_CONSISTENCY_TOL = 1e-9


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply a trace-preserving channel and rewrap with its output copy layout."""
    if not channel.trace_preserving:
        raise InvalidChannelError(
            "apply_channel needs a trace-preserving channel; use apply_selective for branches"
        )
    image = _branch_image(channel, rho)
    np.add(image.matrix, 0.0, out=image.matrix)  # as sum() from 0: a single term's -0.0 reads 0.0
    return image.build(DensityOperator, channel.out_factors, capped=(rho.dim_a, rho.dim_b))


def apply_selective(op: KrausChannel, rho: DensityOperator | PureState) -> SelectiveOutcome:
    """Apply a sub-channel branch, a ``LocalFilter`` included, keeping the
    outcome weight.

    Raises ZeroProbabilityError when the branch weight falls below 1e-12, so
    callers never divide by a numerically vanished trace.
    """
    if not isinstance(op, KrausChannel):
        raise TypeError(f"expected LocalFilter or KrausChannel, got {type(op)!r}")
    if op._norm_sq is None:
        raise InvalidFilterError(
            "selective application needs a normalized filter; "
            "the trace of an unnormalized branch is not a probability"
        )
    image = _branch_image(op, rho)
    probability = float(np.trace(image.matrix).real)
    if not _branch_probability(probability)[0]:
        raise ZeroProbabilityError(
            f"selective branch has probability {probability:.3e} <= {ZERO_PROBABILITY_TOL}"
        )
    branch = image.build(UnnormalizedOperator, op.out_factors, capped=(rho.dim_a, rho.dim_b))
    return SelectiveOutcome(branch, probability)


def _branch_image(op: KrausChannel, rho: DensityOperator | PureState) -> _Image:
    """sum_k K_k rho K_k^dag, with the floor proved from the ||K_k||^2 bound
    that the channel's class carries.

    A ``PureState`` input is never expanded to its density matrix: the branch
    is sum_k |K_k psi><K_k psi|, summed in Kraus order like the density route.
    A channel kept as factors forms each K_k psi = vec(A_k Psi B_k^T), with
    Psi the amplitudes as a dim_a x dim_b matrix, and no K_k; a filter
    applies its A tensor B, so its branches keep their bits.
    """
    if op.in_dims != (rho.dim_a, rho.dim_b):
        raise DimensionMismatchError(
            f"{op._noun} input {op.in_dims} does not match state ({rho.dim_a}, {rho.dim_b})"
        )
    if not isinstance(rho, PureState):
        ops, norm_sq = op.kraus_ops, op._norm_sq
        return _kraus_image(rho, ops, norm_sq=len(ops) * norm_sq, frobenius_sq=rho.dim * norm_sq)
    pairs = None if isinstance(op, LocalFilter) else op.__dict__.get("_pairs")
    if pairs is None:
        return _outer_image([k @ rho.amplitudes for k in op.kraus_ops])
    a, b = pairs
    psi = rho.amplitudes.reshape(rho.dim_a, rho.dim_b)
    return _outer_image(list((a @ psi @ b.swapaxes(-1, -2)).reshape(len(a), -1)))


def postselect_compose(
    p: float, rho_prime: DensityOperator, tau: DensityOperator, n: int
) -> DensityOperator:
    """Mix the postselected output with a failure state over n attempts.

    Returns (1 - (1-p)^n) rho_prime + (1-p)^n tau: the channel that keeps the
    first success among n tries and falls back to tau when every try fails.
    """
    p = float(p)
    n = int(n)
    if not 0.0 < p <= 1.0:
        raise ZeroProbabilityError(f"success probability {p} outside (0, 1]")
    if n < 1:
        raise DimensionMismatchError(f"attempt count must be >= 1, got {n}")
    if (rho_prime.dim_a, rho_prime.dim_b) != (tau.dim_a, tau.dim_b):
        raise DimensionMismatchError(
            f"success and failure states live on ({rho_prime.dim_a},{rho_prime.dim_b}) "
            f"vs ({tau.dim_a},{tau.dim_b})"
        )
    fail = (1.0 - p) ** n
    mixed = (1.0 - fail) * rho_prime.matrix + fail * tau.matrix
    return DensityOperator(rho_prime.factors, mixed)


def support_projector(f: LocalFilter) -> tuple[np.ndarray, np.ndarray]:
    """Row-space projectors (Pi_a, Pi_b) of a filter with per-side rank <= 2.

    Satisfies (A tensor B)(Pi_a tensor Pi_b) = A tensor B; rank above two is
    rejected because the downstream compression step expects qubit ranges.
    """
    projectors = []
    for name, op in (("a_op", f.a_op), ("b_op", f.b_op)):
        _, singulars, vh = np.linalg.svd(op)
        rank = int((singulars > _SUPPORT_RANK_TOL).sum())
        if rank > 2:
            raise InvalidFilterError(
                f"{name} has numerical rank {rank} > 2; it does not map onto a qubit space"
            )
        rows = vh[:rank]
        projectors.append(rows.conj().T @ rows)
    return projectors[0], projectors[1]


@dataclass(frozen=True)
class CarveReport:
    """Result of carving qubit pairs out of a d x d maximally entangled state."""

    d: int
    omega: float
    n_pairs: int
    kappa: int
    success_prob: float
    channel: KrausChannel = field(repr=False)


def carve_pairs(d: int, omega: float) -> CarveReport:
    """Selective map cutting floor(omega * log2 d) qubit pairs from dimension d.

    Both sides project onto aligned blocks of size 2^{n_pairs}; outcomes with
    coinciding block index j < kappa form the success branch.  The channel
    keeps the pairs (pi_j, pi_j) of block isometries, sliced from the
    identity, and forms no pi_j tensor pi_j.  On the d x d maximally entangled
    input the success branch has probability kappa * 2^{n_pairs} / d and
    yields n_pairs perfect qubit pairs.
    """
    d = int(d)
    omega = float(omega)
    if d < 2:
        raise DimensionMismatchError(f"carving needs d >= 2, got {d}")
    if d > max_side_dim():
        raise DimensionMismatchError(
            f"d = {d} exceeds the per-side dimension cap {max_side_dim()}"
        )
    if not 0.0 < omega < 1.0:
        raise DimensionMismatchError(f"omega must lie in (0, 1), got {omega}")
    n_pairs = math.floor(omega * math.log2(d))
    if n_pairs == 0:
        raise NothingToCarveError(
            f"floor(omega * log2 d) = 0 for d={d}, omega={omega}: nothing to carve"
        )
    block = 2**n_pairs
    kappa = d // block
    success_prob = kappa * block / d
    pis = np.eye(d, dtype=complex)[: kappa * block].reshape(kappa, block, d)
    channel = _product_channel(
        pis,
        pis,
        in_dims=(d, d),
        out_factors=((2, 2),) * n_pairs,
        provenance="aligned local block projections, coinciding outcomes kept",
    )
    return CarveReport(
        d=d,
        omega=omega,
        n_pairs=n_pairs,
        kappa=kappa,
        success_prob=success_prob,
        channel=channel,
    )


# --- JSON channel format ---------------------------------------------------


def channel_to_json(channel: KrausChannel) -> str:
    names = ("in_dims", "out_factors", "product_form", "trace_preserving", "provenance")
    doc = {name: getattr(channel, name) for name in names}
    return _json_value({**doc, "kraus_ops": channel.kraus_ops})


def channel_from_json(text: str) -> KrausChannel:
    doc = _json_loads(text)
    try:
        raw_ops = list(doc["kraus_ops"])
        a_in, b_in = doc["in_dims"]
        out_factors = tuple((a, b) for a, b in doc["out_factors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidChannelError(f"malformed channel document: {exc}") from exc
    return KrausChannel(
        kraus_ops=tuple(_matrix_from_json(raw, InvalidChannelError) for raw in raw_ops),
        in_dims=(a_in, b_in),
        out_factors=out_factors,
        product_form=bool(doc.get("product_form", False)),
        trace_preserving=bool(doc.get("trace_preserving", False)),
        provenance=str(doc.get("provenance", "")),
    )
