"""Channel, filter, postselection, and carving checks.

Selective maps are cross-checked against dense (A tensor B) rho (A tensor B)†
arithmetic done inline, and carving against the block-projector definition.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from distillery import locc

from distillery.errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidFilterError,
    InvalidStateError,
    NothingToCarveError,
    ZeroProbabilityError,
)
from distillery.locc import (
    COMPLETENESS_TOL,
    PRODUCT_FORM_TOL,
    CarveReport,
    KrausChannel,
    LocalFilter,
    SelectiveOutcome,
    apply_channel,
    apply_selective,
    carve_pairs,
    channel_from_json,
    channel_to_json,
    postselect_compose,
    product_factor_singular_values,
    support_projector,
)
from distillery.qstate import (
    DensityOperator,
    PureState,
    UnnormalizedOperator,
    _outer_image,
    max_entangled,
    partial_trace,
    partial_transpose,
    tensor_product,
    trace_norm_distance,
)
from distillery.sampling import (
    haar_unitary,
    random_density_operator,
    random_pure_state,
    random_separable,
)


def maximally_mixed(dim_a: int, dim_b: int) -> DensityOperator:
    d = dim_a * dim_b
    return DensityOperator.from_matrix(np.eye(d) / d, dim_a, dim_b)


def test_product_factor_singular_values():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = product_factor_singular_values(np.kron(a, b), (2, 3), (2, 3))
    assert s[1] < 1e-12  # product operators are rank one in the paired grouping
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    s = product_factor_singular_values(swap, (2, 2), (2, 2))
    assert s[1] > 0.5  # the two-side swap is not a local product
    # the one SVD that decides product form also gives the factors
    fa, fb, error = locc._product_factors(np.kron(a, b), (2, 3), (2, 3))
    assert error < 1e-12 and np.abs(np.kron(fa, fb) - np.kron(a, b)).max() < 1e-12
    assert locc._product_factors(swap, (2, 2), (2, 2)) is None


def test_channel_validation():
    iden = KrausChannel((np.eye(4),), (2, 2), ((2, 2),), trace_preserving=True)
    assert iden.in_dim == 4 and iden.out_dim == 4
    with pytest.raises(InvalidChannelError):
        KrausChannel((), (2, 2), ((2, 2),))
    with pytest.raises(InvalidChannelError):
        KrausChannel((np.eye(3),), (2, 2), ((2, 2),))  # shape mismatch
    with pytest.raises(InvalidChannelError):
        KrausChannel((1.5 * np.eye(4),), (2, 2), ((2, 2),))  # completeness above I
    with pytest.raises(InvalidChannelError):
        KrausChannel((0.5 * np.eye(4),), (2, 2), ((2, 2),), trace_preserving=True)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    with pytest.raises(InvalidChannelError):
        KrausChannel((swap,), (2, 2), ((2, 2),), product_form=True, trace_preserving=True)


def test_apply_channel_identity_and_unitary():
    rng = np.random.default_rng(22)
    rho = random_density_operator(2, 2, rng)
    iden = KrausChannel((np.eye(4),), (2, 2), ((2, 2),), trace_preserving=True)
    assert np.abs(apply_channel(iden, rho).matrix - rho.matrix).max() == 0.0

    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    chan = KrausChannel((u,), (2, 2), ((2, 2),), product_form=True, trace_preserving=True)
    out = apply_channel(chan, rho)
    assert np.abs(out.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-14

    branch = KrausChannel((0.5 * np.eye(4),), (2, 2), ((2, 2),))
    with pytest.raises(InvalidChannelError):
        apply_channel(branch, rho)  # selective branches are not full channels
    with pytest.raises(DimensionMismatchError):
        apply_channel(iden, maximally_mixed(2, 3))


def test_apply_channel_matches_twirl():
    # the twelve-unitary mixture, written as a channel, must agree with the
    # dedicated twirl implementation
    from distillery.bell import twirl, twirl_unitaries

    ops = tuple(v / math.sqrt(12.0) for v in twirl_unitaries())
    chan = KrausChannel(ops, (2, 2), ((2, 2),), product_form=True, trace_preserving=True)
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_density_operator(2, 2, rng)
        assert np.abs(apply_channel(chan, rho).matrix - twirl(rho).matrix).max() < 1e-12


def test_apply_channel_traces_out_a_copy():
    # Kraus family {I (x) <ka| (x) I (x) <kb|} implements the partial trace
    # over the second copy; compare with the dedicated implementation
    e = np.eye(2)
    ops = []
    for ka in range(2):
        for kb in range(2):
            ops.append(np.kron(np.kron(e, e[ka : ka + 1]), np.kron(e, e[kb : kb + 1])))
    chan = KrausChannel(tuple(ops), (4, 4), ((2, 2),), trace_preserving=True)
    rng = np.random.default_rng(24)
    for _ in range(5):
        pair = tensor_product(random_density_operator(2, 2, rng), random_density_operator(2, 2, rng))
        out = apply_channel(chan, pair)
        ref = partial_trace(pair, [0])
        assert np.abs(out.matrix - ref.matrix).max() < 1e-13


def reference_apply_channel(channel, rho):
    """``apply_channel`` as it was written before it shared the branch path:
    Python's sum of the Kraus images, through the public constructor."""
    out = sum(op @ rho.matrix @ op.conj().T for op in channel.kraus_ops)
    return DensityOperator(channel.out_factors, out)


def test_apply_channel_is_the_python_sum(floor_oracle):
    rng = np.random.default_rng(25)
    cases = []
    for t in range(300):  # 1 to 4 Kraus operators on 2 x 2: blocks of an isometry
        k = 1 + t % 4
        v = haar_unitary(4 * k, rng)[:, :4]
        ops = tuple(v[4 * i : 4 * i + 4] for i in range(k))
        channel = KrausChannel(ops, (2, 2), ((2, 2),), trace_preserving=True)
        cases.append((channel, random_density_operator(2, 2, rng)))
    # real unitaries on states with zero entries, where signed zeros can arise
    reals = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))
    diagonal = [DensityOperator.from_matrix(np.diag(p), 2, 2) for p in ([1, 0, 0, 0], [0.5, 0, 0.5, 0])]
    for a in reals:
        for b in reals:
            u = np.kron(a, b)
            for ops in ((u,), (u / math.sqrt(2), np.eye(4) / math.sqrt(2))):
                channel = KrausChannel(ops, (2, 2), ((2, 2),), trace_preserving=True)
                cases += [(channel, rho) for rho in diagonal]
    e = np.eye(2)  # partial trace over the second copy: the dimensions change
    ops = [np.kron(np.kron(e, e[i : i + 1]), np.kron(e, e[j : j + 1])) for i in (0, 1) for j in (0, 1)]
    trace_out = KrausChannel(tuple(ops), (4, 4), ((2, 2),), trace_preserving=True)
    for _ in range(5):
        pair = tensor_product(random_density_operator(2, 2, rng), random_density_operator(2, 2, rng))
        cases.append((trace_out, pair))
    floor_oracle.check()
    for channel, rho in cases:
        got, want = apply_channel(channel, rho), reference_apply_channel(channel, rho)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.factors == want.factors
    counts = floor_oracle.check()
    assert counts["certified"] == len(cases)


def test_local_filter_validation():
    LocalFilter(np.eye(2), np.eye(2))
    with pytest.raises(InvalidFilterError):
        LocalFilter(2.0 * np.eye(2), np.eye(2))  # spectral norm 2 while normalized
    LocalFilter(2.0 * np.eye(2), np.eye(2), normalized=False)
    with pytest.raises(InvalidFilterError):
        LocalFilter(np.ones(2), np.eye(2))  # not a matrix


def test_local_filter_is_a_one_pair_product_channel():
    rng = np.random.default_rng(26)
    f = LocalFilter(np.eye(2), np.eye(3))
    assert isinstance(f, KrausChannel)
    assert f.product_form and not f.trace_preserving
    assert f.in_dims == (2, 3) and f.out_factors == ((2, 3),)
    assert np.array_equal(f.kraus_ops[0], np.eye(6))
    # per-side norms: 2 I (x) I/2 is the valid channel operator I, not a filter
    KrausChannel((np.eye(4),), (2, 2), ((2, 2),), product_form=True)
    with pytest.raises(InvalidFilterError):
        LocalFilter(2.0 * np.eye(2), 0.5 * np.eye(2))
    for dim_a, dim_b in ((2, 2), (3, 2), (2, 4)):
        for _ in range(4):
            a = random_op(rng, 2, dim_a)
            b = random_op(rng, 2, dim_b)
            a, b = 0.9 * a / np.linalg.norm(a, 2), b / np.linalg.norm(b, 2)
            filt = LocalFilter(a, b)
            chan = KrausChannel((np.kron(a, b),), (dim_a, dim_b), ((2, 2),), product_form=True)
            for state in (
                random_density_operator(dim_a, dim_b, rng),
                random_pure_state(dim_a, dim_b, rng),
            ):
                # the same branch, bit for bit; only the floors differ, as
                # each class proves its own bound on ||K||^2
                x = apply_selective(filt, state).unnormalized_state
                y = apply_selective(chan, state).unnormalized_state
                assert x.matrix.tobytes() == y.matrix.tobytes()
                assert x.factors == y.factors


def test_apply_selective_matches_dense_route():
    rng = np.random.default_rng(25)
    for _ in range(10):
        rho = random_density_operator(2, 2, rng)
        a = haar_unitary(2, rng) @ np.diag([1.0, 0.3]) @ haar_unitary(2, rng)
        b = haar_unitary(2, rng) @ np.diag([0.8, 0.5]) @ haar_unitary(2, rng)
        f = LocalFilter(a, b)
        outcome = apply_selective(f, rho)
        m = np.kron(a, b)
        expected = m @ rho.matrix @ m.conj().T
        assert abs(outcome.probability - np.trace(expected).real) < 1e-12
        assert np.abs(outcome.unnormalized_state.matrix - expected).max() < 1e-12
        norm = outcome.normalized()
        assert abs(np.trace(norm.matrix) - 1.0) < 1e-12


def test_apply_selective_keep_equal_probability():
    # keep-equal filter on two F = 0.7 pairs: success probability
    # (8 F^2 - 4 F + 5)/18 = 6.12/18 = 0.34
    from distillery.bell import werner

    keep = np.zeros((2, 4))
    keep[0, 0] = keep[1, 3] = 1.0
    pair = tensor_product(werner(0.7), werner(0.7))
    outcome = apply_selective(LocalFilter(keep, keep), pair)
    assert abs(outcome.probability - 0.34) < 1e-12
    assert outcome.unnormalized_state.factors == ((2, 2),)


def test_apply_selective_zero_probability():
    rho = DensityOperator.from_matrix(np.diag([1.0, 0, 0, 0]), 2, 2)  # |00><00|
    kill = np.diag([0.0, 1.0])  # projects Alice onto |1>
    with pytest.raises(ZeroProbabilityError):
        apply_selective(LocalFilter(kill, np.eye(2)), rho)
    with pytest.raises(InvalidFilterError):
        apply_selective(LocalFilter(2.0 * np.eye(2), np.eye(2), normalized=False), rho)
    with pytest.raises(DimensionMismatchError):
        apply_selective(LocalFilter(np.eye(3), np.eye(2)), rho)


def test_selective_outcome_consistency():
    op = UnnormalizedOperator(((2, 2),), 0.25 * max_entangled(2).density().matrix)
    SelectiveOutcome(op, 0.25)
    with pytest.raises(InvalidStateError):
        SelectiveOutcome(op, 0.5)  # probability disagrees with the branch trace
    with pytest.raises(ZeroProbabilityError):
        SelectiveOutcome(op, 0.0)


def test_postselect_compose_exact_formula():
    rho = max_entangled(2).density()
    tau = maximally_mixed(2, 2)
    base = trace_norm_distance(tau, rho)
    assert abs(base - 1.5) < 1e-12
    # p = 1/2, n = 3: distance (1/2)^3 * 3/2 = 0.1875
    out = postselect_compose(0.5, rho, tau, 3)
    assert abs(trace_norm_distance(out, rho) - 0.1875) < 1e-12
    # the mixture differs from the target by exactly (1-p)^n (tau - rho)
    for p in (1.0, 0.9, 0.5, 0.3, 0.05):
        for n in (1, 2, 5, 10):
            out = postselect_compose(p, rho, tau, n)
            fail = (1.0 - p) ** n
            assert np.abs(out.matrix - rho.matrix - fail * (tau.matrix - rho.matrix)).max() < 1e-15
            assert abs(trace_norm_distance(out, rho) - fail * base) < 1e-12
    assert np.abs(postselect_compose(1.0, rho, tau, 4).matrix - rho.matrix).max() == 0.0


def test_postselect_compose_domain():
    rho = max_entangled(2).density()
    tau = maximally_mixed(2, 2)
    with pytest.raises(ZeroProbabilityError):
        postselect_compose(0.0, rho, tau, 2)
    with pytest.raises(ZeroProbabilityError):
        postselect_compose(1.5, rho, tau, 2)
    with pytest.raises(DimensionMismatchError):
        postselect_compose(0.5, rho, tau, 0)
    with pytest.raises(DimensionMismatchError):
        postselect_compose(0.5, rho, maximally_mixed(2, 3), 2)


def test_support_projector():
    rng = np.random.default_rng(26)
    # rank-2 operators with generic (non-axis-aligned) 2-dim row spaces in dim 3
    a = haar_unitary(2, rng) @ np.diag([1.0, 0.4]) @ haar_unitary(3, rng)[:, :2].conj().T
    b = haar_unitary(2, rng) @ np.diag([0.9, 0.2]) @ haar_unitary(3, rng)[:, :2].conj().T
    f = LocalFilter(a, b, normalized=False)
    pa, pb = support_projector(f)
    for p in (pa, pb):
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.abs(p @ p - p).max() < 1e-10
        assert abs(np.trace(p).real - 2.0) < 1e-10
    # (A (x) B)(Pi_a (x) Pi_b) = A (x) B
    m = np.kron(f.a_op, f.b_op)
    assert np.abs(m @ np.kron(pa, pb) - m).max() < 1e-10

    with pytest.raises(InvalidFilterError):
        support_projector(LocalFilter(np.eye(3), np.eye(3), normalized=False))  # rank 3


def test_carve_small_examples():
    # d = 4, omega = 0.99: one pair, kappa = 2, success probability 1
    rep = carve_pairs(4, 0.99)
    assert (rep.n_pairs, rep.kappa) == (1, 2)
    assert abs(rep.success_prob - 1.0) < 1e-12
    outcome = apply_selective(rep.channel, max_entangled(4).density())
    assert abs(outcome.probability - 1.0) < 1e-12
    assert np.abs(outcome.normalized().matrix - max_entangled(2).density().matrix).max() < 1e-12

    # d = 5, omega = 0.5: floor(0.5 log2 5) = 1 pair, kappa = 2, probability 4/5
    rep = carve_pairs(5, 0.5)
    assert (rep.n_pairs, rep.kappa) == (1, 2)
    assert abs(rep.success_prob - 0.8) < 1e-12
    outcome = apply_selective(rep.channel, max_entangled(5).density())
    assert abs(outcome.probability - 0.8) < 1e-12
    assert np.abs(outcome.normalized().matrix - max_entangled(2).density().matrix).max() < 1e-12

    # d = 16, omega = 0.5: two pairs, whole space used, output two perfect pairs
    rep = carve_pairs(16, 0.5)
    assert (rep.n_pairs, rep.kappa) == (2, 4)
    assert abs(rep.success_prob - 1.0) < 1e-12
    outcome = apply_selective(rep.channel, max_entangled(16).density())
    two = tensor_product(max_entangled(2).density(), max_entangled(2).density())
    assert outcome.unnormalized_state.factors == ((2, 2), (2, 2))
    assert np.abs(outcome.normalized().matrix - two.matrix).max() < 1e-12

    with pytest.raises(NothingToCarveError):
        carve_pairs(2, 0.3)  # floor(0.3 * 1) = 0
    with pytest.raises(DimensionMismatchError):
        carve_pairs(1, 0.5)
    with pytest.raises(DimensionMismatchError):
        carve_pairs(4, 1.0)
    with pytest.raises(DimensionMismatchError):
        carve_pairs(65, 0.5)  # above the per-side cap


def test_carve_probability_lower_bound():
    # kappa 2^M / d >= 1 - d^(omega - 1) whenever M >= 1; pure arithmetic up
    # to the dimension cap, and the constructed reports agree everywhere
    for d in range(2, 65):
        for omega in (0.3, 0.5, 0.8):
            pairs = math.floor(omega * math.log2(d))
            if pairs == 0:
                continue
            block = 2**pairs
            kappa = d // block
            assert kappa * block / d >= 1.0 - d ** (omega - 1.0) - 1e-12
            rep = carve_pairs(d, omega)
            assert rep.n_pairs == pairs
            assert rep.kappa == kappa
            assert abs(rep.success_prob - kappa * block / d) < 1e-12


def test_carve_pairs_runs_no_svd_or_eigensolve(monkeypatch):
    # carving channels carry their factors, so the grid up to the dimension
    # cap is checked from them alone
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    built = 0
    for d in range(2, 65):
        for omega in (0.3, 0.5, 0.8):
            if math.floor(omega * math.log2(d)) > 0:
                carve_pairs(d, omega)
                built += 1
    assert built > 150 and calls == []
    # while the same operators handed over dense get their factors by SVD
    chan = carve_pairs(12, 0.5).channel
    KrausChannel(chan.kraus_ops, chan.in_dims, chan.out_factors, product_form=True)
    assert calls == ["svd"] * len(chan.kraus_ops)


def test_product_channel_decides_from_its_factors():
    # a channel built from factor pairs is checked on those pairs, and
    # decides and words every outcome as the dense check does
    rng = np.random.default_rng(27)
    outcomes = []
    for top in (0.5, 1.0, 1.0 + 3e-9, 1.7):
        pairs = [(haar_unitary(2, rng), math.sqrt(top / 2) * haar_unitary(3, rng))]
        pairs.append((np.diag([1.0, 0.0]), math.sqrt(top / 2) * haar_unitary(3, rng)))
        ops = [np.kron(a, b) for a, b in pairs]
        expected = dense_channel_check(ops, (2, 3), ((2, 3),), True, False)
        try:
            a_ops, b_ops = (np.array(side) for side in zip(*pairs))
            chan = locc._product_channel(a_ops, b_ops, in_dims=(2, 3), out_factors=((2, 3),))
        except InvalidChannelError as exc:
            assert expected == (type(exc), str(exc))
            outcomes.append(False)
        else:
            assert expected is None
            assert all(np.array_equal(k, op) for k, op in zip(chan.kraus_ops, ops))
            outcomes.append(True)
    assert outcomes == [True, True, False, False]
    # shapes are checked on the factor stacks, before any operator is formed
    with pytest.raises(InvalidChannelError, match="factor stacks"):
        locc._product_channel(
            np.eye(2)[None], np.eye(3)[None], in_dims=(2, 2), out_factors=((2, 2),)
        )


def test_carve_channel_structure():
    rep = carve_pairs(6, 0.5)
    chan = rep.channel
    assert chan.product_form and not chan.trace_preserving
    assert chan.in_dims == (6, 6)
    assert chan.out_factors == ((2, 2),)
    # the channel keeps its factor pairs; the dense operators are formed on
    # their first read, frozen, and kept
    assert "kraus_ops" not in vars(chan)
    ops = chan.kraus_ops
    assert chan.kraus_ops is ops and len(ops) == 3
    # each Kraus operator is pi_j (x) pi_j with pi_j the aligned block isometry
    for j, op in enumerate(ops):
        pi = np.zeros((2, 6))
        pi[0, 2 * j] = pi[1, 2 * j + 1] = 1.0
        assert op.dtype == complex and not op.flags.writeable
        assert op.tobytes() == np.kron(pi, pi).astype(complex).tobytes()
    for d, omega in ((16, 0.8), (33, 0.5), (64, 0.5)):
        rep = carve_pairs(d, omega)
        block = 2**rep.n_pairs
        ops = rep.channel.kraus_ops
        assert len(ops) == rep.kappa
        for j, op in enumerate(ops):
            pi = np.eye(d)[j * block : (j + 1) * block]
            assert np.array_equal(op, np.kron(pi, pi))


def test_product_filters_cannot_create_entanglement():
    rng = np.random.default_rng(27)
    for _ in range(20):
        rho = random_separable(2, 2, rng)
        a = 0.8 * haar_unitary(2, rng) @ np.diag([1.0, rng.uniform(0.2, 1.0)])
        b = 0.8 * haar_unitary(2, rng) @ np.diag([1.0, rng.uniform(0.2, 1.0)])
        # scale into contractions
        a = a / max(1.0, np.linalg.norm(a, 2))
        b = b / max(1.0, np.linalg.norm(b, 2))
        out = apply_selective(LocalFilter(a, b), rho).normalized()
        assert np.linalg.eigvalsh(partial_transpose(out)).min() > -1e-8


def test_channel_json_roundtrip():
    chan = carve_pairs(5, 0.5).channel
    text = channel_to_json(chan)
    back = channel_from_json(text)
    assert back.in_dims == chan.in_dims
    assert back.out_factors == chan.out_factors
    assert back.product_form == chan.product_form
    assert back.trace_preserving == chan.trace_preserving
    assert back.provenance == chan.provenance
    assert len(back.kraus_ops) == len(chan.kraus_ops)
    for x, y in zip(back.kraus_ops, chan.kraus_ops):
        assert np.array_equal(x, y)
    assert channel_to_json(back) == text


# --- certified channel checks against the dense reference -------------------


def dense_channel_check(ops, in_dims, out_factors, product_form, trace_preserving):
    """The dense validation KrausChannel ran before it certified product
    channels: d^2 x d^2 completeness eigensolve, then the SVD per operator.
    Returns None on acceptance, else (exception class, message)."""
    a_out = math.prod(a for a, _ in out_factors)
    b_out = math.prod(b for _, b in out_factors)
    ops = [np.array(k, dtype=complex) for k in ops]
    gram = sum(op.conj().T @ op for op in ops)
    eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    if eigenvalues.max() > 1.0 + COMPLETENESS_TOL:
        return InvalidChannelError, (
            f"completeness sum exceeds the identity (max eigenvalue {eigenvalues.max():.12f})"
        )
    if trace_preserving:
        residue = np.abs(gram - np.eye(gram.shape[0])).max()
        if residue > COMPLETENESS_TOL:
            return InvalidChannelError, (
                f"declared trace preserving but completeness residue is {residue:.3e}"
            )
    if product_form:
        for i, op in enumerate(ops):
            arr = op.reshape(a_out, b_out, *in_dims).transpose(0, 2, 1, 3)
            s = np.linalg.svd(arr.reshape(a_out * in_dims[0], -1), compute_uv=False)
            if not (len(s) < 2 or s[1] < PRODUCT_FORM_TOL):
                return InvalidChannelError, (
                    f"Kraus operator {i} is not a product of local operators"
                )
    return None


def assert_matches_dense(ops, in_dims, out_factors, product_form=True, trace_preserving=False):
    expected = dense_channel_check(ops, in_dims, out_factors, product_form, trace_preserving)
    try:
        KrausChannel(tuple(ops), in_dims, out_factors, product_form, trace_preserving)
    except InvalidChannelError as exc:
        assert expected == (type(exc), str(exc))
        return False
    assert expected is None
    return True


def random_op(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def block_projection_channel(d, block, scales):
    """Carving-style operators pi_j (x) pi_j with pi_j the j-th aligned block."""
    ops = []
    for j, c in enumerate(scales):
        pi = np.zeros((block, d))
        pi[np.arange(block), j * block + np.arange(block)] = 1.0
        ops.append(c * np.kron(pi, pi))
    return ops


def scaled_to(ops, top):
    gram = sum(k.conj().T @ k for k in ops)
    scale = math.sqrt(top / np.linalg.eigvalsh(gram).max())
    return [scale * k for k in ops]


def test_product_certificates_match_dense_checks():
    rng = np.random.default_rng(31)
    outcomes = []
    # random product channels under and over the completeness bound; their
    # Gershgorin bound is loose, so the dense check decides
    for dims in (((2, 3), (2, 2)), ((3, 3), (2, 3)), ((4, 2), (1, 3))):
        (a_in, b_in), (a_out, b_out) = dims
        for count in (1, 2, 5):
            ops = [
                np.kron(random_op(rng, a_out, a_in), random_op(rng, b_out, b_in))
                for _ in range(count)
            ]
            for top in (0.2, 0.999, 1.0, 1.0 + 5e-10, 1.0 + 3e-9, 1.7):
                scaled = scaled_to(ops, top)
                outcomes.append(assert_matches_dense(scaled, (a_in, b_in), ((a_out, b_out),)))
    # block projections: the certificate is tight, so it decides these, up to
    # scales whose bound sits between half the tolerance and the tolerance
    for d, block in ((4, 2), (6, 2), (8, 4), (9, 2)):
        kappa = d // block
        for c in (0.5, 1.0, 1.0 + 1e-10, 1.0 + 4e-10, 1.0 + 2e-9, 1.3):
            ops = block_projection_channel(d, block, [c] * kappa)
            outcomes.append(assert_matches_dense(ops, (d, d), ((block, block),)))
        ops = block_projection_channel(d, block, [1.0] * (kappa - 1) + [1.2])
        outcomes.append(assert_matches_dense(ops, (d, d), ((block, block),)))
    assert True in outcomes and False in outcomes
    # certified product within its factoring error, and that error alone
    # lifts the completeness sum to 1 + 4e-9: the certificate must count it
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = np.eye(4) + 2e-9 * np.kron(x, x)
    assert locc._product_factors(op, (2, 2), (2, 2)) is not None
    assert not assert_matches_dense([op], (2, 2), ((2, 2),))


def test_non_product_operators_match_dense_checks():
    rng = np.random.default_rng(32)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    assert not assert_matches_dense([swap], (2, 2), ((2, 2),), trace_preserving=True)
    assert not assert_matches_dense([0.5 * swap], (2, 2), ((2, 2),))
    assert not assert_matches_dense([2.0 * swap], (2, 2), ((2, 2),))  # completeness first
    for noise in (1e-13, 4e-9, 9e-9, 2e-8, 1e-6, 0.3):
        for bad in (0, 1, 2):
            ops = []
            for i in range(3):
                op = np.kron(random_op(rng, 2, 3), random_op(rng, 2, 2))
                if i == bad:
                    perturbation = random_op(rng, 4, 6)
                    perturbation = perturbation / np.linalg.norm(perturbation)
                    op = op / np.linalg.norm(op, 2) + noise * perturbation
                ops.append(op)
            assert_matches_dense(scaled_to(ops, 0.9), (3, 2), ((2, 2),))
    # a near-product operator that the dense SVD accepts
    op = np.kron(np.eye(2), np.eye(2)) / 2
    op = op + 7e-9 * np.kron(np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))
    assert assert_matches_dense([op], (2, 2), ((2, 2),))


def test_trace_preserving_channels_match_dense_checks():
    rng = np.random.default_rng(33)
    from distillery.bell import twirl_unitaries

    twirl_ops = [v / math.sqrt(12.0) for v in twirl_unitaries()]
    assert assert_matches_dense(twirl_ops, (2, 2), ((2, 2),), trace_preserving=True)
    halved = [0.5 * v for v in twirl_ops]
    assert not assert_matches_dense(halved, (2, 2), ((2, 2),), trace_preserving=True)
    for _ in range(5):
        ops = [np.kron(haar_unitary(3, rng), haar_unitary(2, rng)) / math.sqrt(3) for _ in range(3)]
        assert assert_matches_dense(ops, (3, 2), ((3, 2),), trace_preserving=True)
        assert not assert_matches_dense(ops[:2], (3, 2), ((3, 2),), trace_preserving=True)
        ops[1] = ops[1] * (1.0 + 1e-6)
        assert not assert_matches_dense(ops, (3, 2), ((3, 2),), trace_preserving=True)


def test_completeness_fallback_when_gershgorin_is_loose():
    # A = diag(1, 1/2) U has top singular value 1, so the channel {A (x) I}
    # is complete to within rounding; |A^dag A| has row sums above 1 for a
    # generic U, so the certificate fails and the dense eigensolve accepts
    rng = np.random.default_rng(34)
    a = np.diag([1.0, 0.5]) @ haar_unitary(2, rng)
    op = np.kron(a, np.eye(3))
    certified = [locc._product_factors(op, (2, 3), (2, 3))]
    assert certified[0] is not None
    assert not locc._completeness_certified(*map(np.array, zip(*certified)))
    assert assert_matches_dense([op], (2, 3), ((2, 3),))
    assert not assert_matches_dense([1.01 * op], (2, 3), ((2, 3),))
    # while carving channels pass on the certificate alone
    chan = carve_pairs(12, 0.5).channel
    certified = [locc._product_factors(k, chan.in_dims, chan.out_dims) for k in chan.kraus_ops]
    assert locc._completeness_certified(*map(np.array, zip(*certified)))


def test_factored_carve_branch_matches_dense_operators():
    # the branch from the factor pairs is the branch the dense operators gave,
    # K_k psi summed as outer products: bit for bit, probability and floor too
    for d in range(2, 65):
        psi = max_entangled(d)
        for omega in (0.3, 0.5, 0.8, 0.99):
            if math.floor(omega * math.log2(d)) == 0:
                continue
            chan = carve_pairs(d, omega).channel
            outcome = apply_selective(chan, psi)
            vectors = [locc._kron(a, b) @ psi.amplitudes for a, b in zip(*chan._pairs)]
            image = _outer_image(vectors)
            dense = image.build(UnnormalizedOperator, chan.out_factors)
            branch = outcome.unnormalized_state
            assert branch.matrix.tobytes() == dense.matrix.tobytes(), (d, omega)
            assert outcome.probability == float(np.trace(image.matrix).real)
            assert branch._floor == dense._floor
            assert "kraus_ops" not in vars(chan)


def test_unnormalized_filter_forms_no_product_operator():
    rng = np.random.default_rng(36)
    a = haar_unitary(32, rng)[:, :2] @ random_op(rng, 2, 32)
    b = haar_unitary(32, rng)[:, :2] @ random_op(rng, 2, 32)
    f = LocalFilter(a, b, normalized=False)
    pi_a, pi_b = support_projector(f)
    assert np.abs(a @ pi_a - a).max() < 1e-10 and np.abs(b @ pi_b - b).max() < 1e-10
    assert "kraus_ops" not in vars(f)
    with pytest.raises(InvalidFilterError):
        apply_selective(f, max_entangled(32))
    # reading the operator forms A (x) B as before
    assert f.kraus_ops[0].tobytes() == locc._kron(f.a_op, f.b_op).tobytes()


def test_apply_selective_pure_state_matches_density_route():
    rng = np.random.default_rng(35)
    for dim_a, dim_b in ((2, 2), (3, 2), (2, 4)):
        for _ in range(5):
            psi = random_pure_state(dim_a, dim_b, rng)
            a = random_op(rng, 2, dim_a)
            b = random_op(rng, 2, dim_b)
            f = LocalFilter(a / np.linalg.norm(a, 2), b / np.linalg.norm(b, 2))
            ops = [np.kron(random_op(rng, 2, dim_a), random_op(rng, 1, dim_b)) for _ in range(3)]
            ops = scaled_to(ops, 0.8)
            chan = KrausChannel(tuple(ops), (dim_a, dim_b), ((2, 1),), product_form=True)
            for op in (f, chan):
                pure = apply_selective(op, psi)
                dense = apply_selective(op, psi.density())
                assert abs(pure.probability - dense.probability) < 1e-12
                assert pure.unnormalized_state.factors == dense.unnormalized_state.factors
                diff = pure.unnormalized_state.matrix - dense.unnormalized_state.matrix
                assert np.abs(diff).max() < 1e-12
    for d, omega in ((5, 0.5), (16, 0.5), (12, 0.8)):
        rep = carve_pairs(d, omega)
        pure = apply_selective(rep.channel, max_entangled(d))
        dense = apply_selective(rep.channel, max_entangled(d).density())
        assert abs(pure.probability - dense.probability) < 1e-12
        diff = pure.unnormalized_state.matrix - dense.unnormalized_state.matrix
        assert np.abs(diff).max() < 1e-12
    with pytest.raises(DimensionMismatchError):
        apply_selective(carve_pairs(5, 0.5).channel, max_entangled(4))
    with pytest.raises(DimensionMismatchError):
        apply_selective(LocalFilter(np.eye(3), np.eye(2)), max_entangled(2))
    zero = PureState(2, 2, np.array([1.0, 0, 0, 0]))
    with pytest.raises(ZeroProbabilityError):
        apply_selective(LocalFilter(np.diag([0.0, 1.0]), np.eye(2)), zero)


def test_channel_json_output_is_pinned():
    # strings written before states and channels shared one matrix codec
    u = haar_unitary(2, np.random.default_rng(6))
    chan = KrausChannel(
        (u / math.sqrt(2), np.diag([1, -1]) / math.sqrt(2)),
        (1, 2),
        ((1, 2),),
        trace_preserving=True,
        provenance='a "quoted" note',
    )
    assert channel_to_json(chan) == (
        '{"in_dims":[1,2],"out_factors":[[1,2]],"product_form":false,"trace_preserving":true,'
        '"provenance":"a \\"quoted\\" note","kraus_ops":'
        "[[[[0.24707935270020326,0.23783628185354005],[0.31720163191263151,0.53081900984732588]],"
        "[[-0.59904686831707943,0.1533901759006483],"
        "[0.34291003666261516,0.0051971388967187414]]],[[[0.70710678118654746,0],[0,0]],"
        "[[0,0],[-0.70710678118654746,0]]]]}"
    )
    text = channel_to_json(carve_pairs(6, 0.5).channel)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "839cd3d956e6b1001cb8bf90b453b264ff5db5b9a7713e9916f0baedb90c0b12"


def test_channel_json_rejects_malformed_documents():
    good = json.loads(channel_to_json(carve_pairs(4, 0.5).channel))
    for cells in ([[1]], [[[1]]], [[[1, 0, 0]]], [[None]], [[["x", 0]]], [[[1, 0]], []], 5):
        doc = dict(good, kraus_ops=[cells])
        with pytest.raises(InvalidChannelError):
            channel_from_json(json.dumps(doc))
    with pytest.raises(InvalidChannelError):
        channel_from_json(json.dumps(dict(good, kraus_ops=[[[[float("nan"), 0]]]])))
    with pytest.raises(InvalidChannelError, match="non-finite cell"):
        channel_from_json(json.dumps(dict(good, kraus_ops=[[[["HUGE", 0]]]])).replace('"HUGE"', "7" * 5000))
    broken = {"in_dims": [4], "out_factors": [[2]], "kraus_ops": 3}
    for key, value in list(broken.items()) + [("in_dims", None)]:
        with pytest.raises(InvalidChannelError):
            channel_from_json(json.dumps(dict(good, **{key: value})))
    doc = dict(good)
    del doc["kraus_ops"]
    with pytest.raises(InvalidChannelError):
        channel_from_json(json.dumps(doc))


def test_channel_dims_must_be_integers():
    good = json.loads(channel_to_json(carve_pairs(4, 0.5).channel))
    for bad in ("Infinity", "-Infinity", "NaN", "1e400", "4.7", "true", '"4"', "4" * 5000):
        for key, template in (("in_dims", "[{}, 4]"), ("out_factors", "[[2, {}]]")):
            doc = json.dumps(dict(good, **{key: None})).replace("null", template.format(bad))
            with pytest.raises(InvalidChannelError, match="is not an integer"):
                channel_from_json(doc)
    op = np.eye(4)
    bad_dims = (((4.7, 1), ((4, 1),)), ((True, 4), ((1, 4),)), ((4, 1), ((0, 4),)))
    for in_dims, out_factors in bad_dims:
        with pytest.raises(InvalidChannelError):
            KrausChannel((op,), in_dims, out_factors)
    chan = KrausChannel((op,), (np.int64(2), 2.0), ((2, np.int32(2)),))
    assert chan.in_dims == (2, 2) and type(chan.out_factors[0][1]) is int


def test_channel_json_round_trip_keeps_signed_zeros():
    op = np.array([[1.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), complex(-0.0, 0.0)]])
    chan = KrausChannel((op,), (2, 1), ((2, 1),))
    text = channel_to_json(chan)
    back = channel_from_json(text)
    assert np.array_equal(back.kraus_ops[0].view(np.uint64), op.view(np.uint64))
    assert channel_to_json(back) == text


# --- certified eigenvalue floors of library-built branches -------------------


def first_level_state(rng, dim_a, dim_b, weight, lowest):
    """State whose Alice level 0 (in a random local basis Ua (x) Ub) carries
    ``weight``, with a zero and the eigenvalue ``lowest`` inside that level.
    Returns the state and the local bases."""
    ua, ub = haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)
    spectrum = np.zeros(dim_a * dim_b)
    spectrum[0] = weight - lowest
    spectrum[dim_b - 1] += lowest
    rest = rng.uniform(0.2, 1.0, dim_a * dim_b - dim_b)
    rest[-1] = 0.0  # rank deficient outside the branch as well
    spectrum[dim_b:] = rest * (1.0 - weight) / rest.sum()
    u = np.kron(ua, ub)
    rho = DensityOperator.from_matrix((u * spectrum) @ u.conj().T, dim_a, dim_b)
    return rho, ua, ub


def test_selective_floors_match_dense_validation(floor_oracle):
    rng = np.random.default_rng(42)
    weights = (1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.3)
    for dim_a, dim_b in ((2, 2), (3, 2), (3, 3)):
        for lowest in (0.0, -1e-14, -1e-11, -3e-11, -6e-11, -9e-11):
            for weight in weights:
                rho, ua, ub = first_level_state(rng, dim_a, dim_b, weight, lowest)
                # the filter keeps Alice's level 0 onto a qubit whose other level stays empty
                a = np.zeros((2, dim_a), dtype=complex)
                a[0] = ua[:, 0].conj()
                filt = LocalFilter(a, ub.conj().T)
                # a pure state with the same branch weight, for the pure route
                phi = random_pure_state(1, dim_b, rng).amplitudes
                chi = random_pure_state(dim_a - 1, dim_b, rng).amplitudes
                v = math.sqrt(weight) * np.kron(ua[:, 0], ub @ phi)
                v = v + math.sqrt(1.0 - weight) * np.kron(ua[:, 1:], ub) @ chi
                psi = PureState(dim_a, dim_b, v)
                for state in (rho, psi):
                    try:
                        apply_selective(filt, state).normalized()
                    except InvalidStateError:
                        pass
            # a product sub-channel branch, and a mixture of two local unitaries
            # on a near-floor state
            rho = random_density_operator(dim_a, dim_b, rng)
            op = np.kron(random_op(rng, 2, dim_a), random_op(rng, 1, dim_b))
            chan = KrausChannel(
                tuple(scaled_to([op], 0.9)), (dim_a, dim_b), ((2, 1),), product_form=True
            )
            apply_selective(chan, rho).normalized()
            apply_selective(chan, random_pure_state(dim_a, dim_b, rng)).normalized()
            near, _, _ = first_level_state(rng, dim_a, dim_b, 0.5, -4e-11)
            tp = [np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)) / math.sqrt(2)]
            tp.append(np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)) / math.sqrt(2))
            unitary_mix = KrausChannel(tuple(tp), (dim_a, dim_b), ((dim_a, dim_b),), True, True)
            apply_selective(unitary_mix, near).normalized()
            # one local unitary twice, up to a phase: the branch keeps the
            # input's negative eigenvalue, so its floor must carry the input's
            deep, _, _ = first_level_state(rng, dim_a, dim_b, 0.5, -7e-11)
            u = np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)) / math.sqrt(2)
            twice = KrausChannel((u, 1j * u), (dim_a, dim_b), ((dim_a, dim_b),), True, True)
            apply_selective(twice, deep).normalized()
    # carving branches on the maximally entangled state, pure and dense routes
    for d, omega in ((4, 0.5), (6, 0.5), (9, 0.8), (16, 0.5), (16, 0.99), (24, 0.8)):
        report = carve_pairs(d, omega)
        apply_selective(report.channel, max_entangled(d)).normalized()
        if d <= 9:
            apply_selective(report.channel, max_entangled(d).density()).normalized()
    counts = floor_oracle.check()
    assert counts["certified"] > 200
    assert counts["declined"] > 20
    assert counts["rejected"] > 5


def reference_filter_error(a, b):
    """The norm check LocalFilter ran before it certified norms: one SVD per side."""
    for name, op in (("a_op", a), ("b_op", b)):
        norm = np.linalg.norm(op, 2)
        if norm > 1.0 + COMPLETENESS_TOL:
            return (
                f"{name} has spectral norm {norm:.12f} > 1; "
                "flag the filter as unnormalized if this is intended"
            )
    return None


def test_filter_norm_certificate_matches_svd():
    from distillery.qstate import _spectral_norm_sq_bound

    rng = np.random.default_rng(44)
    tol = COMPLETENESS_TOL
    excesses = (-0.3, -tol, 0.0, 0.25 * tol, 0.45 * tol, 0.5 * tol, 0.55 * tol, 0.9 * tol,
                tol, 1.1 * tol, 2 * tol, 1e-3)
    certified = declined = rejected = 0
    for rows, cols in ((2, 2), (2, 3), (3, 2), (4, 4), (1, 3), (3, 1), (2, 9)):
        isometry = haar_unitary(max(rows, cols), rng)[:rows, :cols]
        diagonal = np.zeros((rows, cols))
        k = min(rows, cols)
        diagonal[np.arange(k), np.arange(k)] = rng.uniform(0.1, 1.0, k)
        diagonal[0, 0] = 1.0
        for op in (isometry, diagonal, random_op(rng, rows, cols)):
            op = op / np.linalg.norm(op, 2)
            for excess in excesses:
                scaled = op * (1.0 + excess)
                bound = _spectral_norm_sq_bound(scaled)
                assert bound >= np.linalg.norm(scaled, 2) ** 2
                if bound <= 1.0 + tol:
                    certified += 1
                    assert np.linalg.norm(scaled, 2) <= 1.0 + tol / 2
                else:
                    declined += 1
                other = haar_unitary(2, rng)
                for a, b in ((scaled, other), (other, scaled), (scaled, scaled)):
                    expected = reference_filter_error(a, b)
                    try:
                        LocalFilter(a, b)
                    except InvalidFilterError as exc:
                        rejected += 1
                        assert str(exc) == expected
                    else:
                        assert expected is None
    assert certified > 20 and declined > 20 and rejected > 20
