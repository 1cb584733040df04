"""Classical hashing layer: entropy, typicality, measurement rounds, decoding.

The typical-set enumerator is checked against exhaustive membership testing;
the round map against hand-worked instances, the parity contract, and GF(2)
linearity; the decoder against direct Monte Carlo.  The library's compiled
rounds, raw-word reader, nibble-table parity match and level-wise
enumeration are checked against the slow paths they replaced, kept here as
reference implementations: the per-vector round, the basis-vector parity and
final-state matrices, one generator call per round string, the byte-sliced
matcher, the round-by-round replay and the recursive depth-first enumerator.
The lock-step round map of a chunk's trials is checked against the per-trial
int loop, and the chunk's row typicality against ``is_typical``.  The
type-class enumeration is checked against the library's level-wise tree
search, which keys near a test's edge still run, and the Wilson interval of
the miss estimate against the exact miss probability summed over types.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from distillery import cli, hashing
from distillery.bell import BellProbs
from distillery.errors import (
    DecoderBudgetError,
    DimensionMismatchError,
    EntropyTooHighError,
    InvalidDistributionError,
    InvalidStateError,
)
from distillery.hashing import (
    BellIndexVector,
    SourceDist,
    enumerate_typical,
    failure_bound,
    is_typical,
    net_rate,
    parity,
    plan_yield,
    round_update,
    run_hashing_trial,
    shannon_entropy,
    typicality_miss_estimate,
)

from conftest import compile_rounds

SKEWED = (0.9, 1 / 30, 1 / 30, 1 / 30)
SKEWED_H = 0.6274918436613969


def draw_nonzero_bits(rng, length):
    while True:
        s = rng.integers(0, 2, size=length, dtype=np.uint8)
        if s.any():
            return s


def draw_round_strings(rng, n, r):
    """The r round strings of a trial on n pairs, one Generator call per attempt at
    each, and the number of all-zero attempts redrawn."""
    strings, redraws = [], 0
    for k in range(r):
        while not (s := rng.integers(0, 2, size=2 * (n - k), dtype=np.uint8)).any():
            redraws += 1
        strings.append(s.tolist())
    return strings, redraws


def cached_tables(src, n, epsilon):
    """The nibble tables that the enumeration of this key left in the cache."""
    return hashing._TYPICAL_CACHE[(src.p, n, float(epsilon))].tables


def ref_matching(packed, count, t_matrix, parity_bits):
    """Byte-sliced match: ``packed`` holds the flat-bit rows of the candidates
    eight to a byte; one XOR-reduce of the selected rows per round."""
    mismatch = np.zeros(packed.shape[1], dtype=np.uint8)
    for row, t in zip(t_matrix.astype(bool), parity_bits):
        predicted = np.bitwise_xor.reduce(packed[row], axis=0)
        mismatch |= ~predicted if t else predicted
    return np.flatnonzero(np.unpackbits(mismatch, count=count) == 0)


def ref_subset_tables(bits):
    """tables[g, v]: the XOR of the packed flat-bit rows 4g + b over the bits b of v."""
    count, width = bits.shape
    words = -(-count // 64)
    rows = np.zeros((width + -width % 4, 8 * words), dtype=np.uint8)
    rows[:width, : -(-count // 8)] = np.packbits(bits.T, axis=1, bitorder="little")
    tables = np.zeros((rows.shape[0] // 4, 16, words), dtype=np.uint64)
    for g in range(tables.shape[0]):
        for v in range(16):
            for b in range(4):
                if v >> b & 1:
                    tables[g, v] ^= rows[4 * g + b].view(np.uint64)
    return tables


def ref_round_update(s, x):
    """One round on one vector, pair by pair."""
    m = len(x)
    sa = np.asarray(s, dtype=np.uint8).reshape(-1)
    assert sa.size == 2 * m and sa.any()
    bits = x.to_bits()
    hi = bits[0::2].astype(np.uint8)  # phase bits
    lo = bits[1::2].astype(np.uint8)  # amplitude bits
    s_hi = sa[0::2]
    s_lo = sa[1::2]
    selected = (s_hi | s_lo).astype(bool)

    swap = (s_hi == 1) & (s_lo == 0)
    hi[swap], lo[swap] = lo[swap].copy(), hi[swap].copy()
    both = (s_hi == 1) & (s_lo == 1)
    lo[both] ^= hi[both]

    chosen = np.flatnonzero(selected)
    i0 = int(chosen[0])
    others = chosen[1:]
    lo[i0] ^= np.bitwise_xor.reduce(lo[others]) if others.size else 0
    hi[others] ^= hi[i0]
    t = int(lo[i0])

    keep = np.ones(m, dtype=bool)
    keep[i0] = False
    remaining = tuple(int(2 * h + l) for h, l in zip(hi[keep], lo[keep]))
    return t, BellIndexVector(remaining)


def ref_chain(s_list, x):
    bits = []
    for s in s_list:
        t, x = ref_round_update(s, x)
        bits.append(t)
    return bits, x


def ref_parity_matrix(s_list, n):
    """Column j holds the parities revealed for the j-th flat basis bit."""
    t_matrix = np.zeros((len(s_list), 2 * n), dtype=np.uint8)
    for j in range(2 * n):
        basis = np.zeros(2 * n, dtype=np.uint8)
        basis[j] = 1
        t_matrix[:, j] = ref_chain(s_list, BellIndexVector.from_bits(basis))[0]
    return t_matrix


def ref_final_matrix(s_list, n):
    """Column j holds the final flat bits of the j-th flat basis bit."""
    f_matrix = np.zeros((2 * (n - len(s_list)), 2 * n), dtype=np.uint8)
    for j in range(2 * n):
        basis = np.zeros(2 * n, dtype=np.uint8)
        basis[j] = 1
        f_matrix[:, j] = ref_chain(s_list, BellIndexVector.from_bits(basis))[1].to_bits()
    return f_matrix


def ref_enumerate_typical(src, n, epsilon, budget=hashing.DEFAULT_DECODER_BUDGET):
    """Pruned recursive depth-first search, uncached."""
    surprisal = src.surprisals()
    symbols = [k for k in range(4) if not math.isinf(surprisal[k])]
    finite = [surprisal[k] for k in symbols]
    min_s, max_s = min(finite), max(finite)
    lo = n * (src.h - epsilon)
    hi = n * (src.h + epsilon)
    out = []
    visits = 0
    prefix = [0] * n

    def descend(depth, total):
        nonlocal visits
        visits += 1
        if visits > budget:
            raise DecoderBudgetError(f"exceeded {budget} visits", visits=visits)
        remaining = n - depth
        if total + remaining * max_s < lo - 1e-9:
            return
        if total + remaining * min_s > hi + 1e-9:
            return
        if depth == n:
            if abs(total / n - src.h) <= epsilon:
                out.append(tuple(prefix))
            return
        for k in symbols:
            prefix[depth] = k
            descend(depth + 1, total + surprisal[k])

    descend(0, 0.0)
    syms = np.array(out, dtype=np.uint8).reshape(len(out), n)
    bits = np.empty((len(out), 2 * n), dtype=np.uint8)
    bits[:, 0::2] = syms >> 1
    bits[:, 1::2] = syms & 1
    return syms, bits, visits


def ref_run_hashing_trial(src, plan, seed, budget=hashing.DEFAULT_DECODER_BUDGET):
    """A trial replayed vector by vector, decoded with an integer matmul."""
    n, r = plan.n, plan.r
    rng = np.random.default_rng(seed)
    sampled = tuple(int(v) for v in rng.choice(4, size=n, p=np.asarray(src.p)))
    x0 = BellIndexVector(sampled)
    s_list = [draw_nonzero_bits(rng, 2 * (n - k)) for k in range(r)]
    parity_bits, true_final = ref_chain(s_list, x0)

    budget_exceeded = False
    try:
        _, cand_bits, visits = ref_enumerate_typical(src, n, plan.epsilon, budget=budget)
    except DecoderBudgetError as exc:
        cand_bits = np.empty((0, 2 * n), dtype=np.uint8)
        visits = exc.visits
        budget_exceeded = True

    survivors = []
    if cand_bits.shape[0]:
        t_matrix = ref_parity_matrix(s_list, n)
        predicted = (cand_bits.astype(np.int64) @ t_matrix.T.astype(np.int64)) & 1
        target = np.asarray(parity_bits, dtype=np.int64)
        survivors = list(np.flatnonzero((predicted == target).all(axis=1)))

    if survivors:
        finals = [ref_chain(s_list, BellIndexVector.from_bits(cand_bits[i]))[1] for i in survivors]
        decoded_final = finals[0]
        success = all(f == true_final for f in finals)
    else:
        best = max(range(4), key=lambda k: (src.p[k], -k))
        _, decoded_final = ref_chain(s_list, BellIndexVector((best,) * n))
        success = decoded_final == true_final and not budget_exceeded

    return hashing.HashingTrialResult(
        sampled=sampled,
        parity_bits=tuple(parity_bits),
        true_final=true_final,
        decoded_final=decoded_final,
        success=success,
        typical=is_typical(x0, src, plan.epsilon),
        parities_matched=len(survivors),
        candidates_visited=visits,
        budget_exceeded=budget_exceeded,
    )


def test_shannon_entropy_examples():
    assert shannon_entropy((1.0, 0.0, 0.0, 0.0)) == 0.0
    assert abs(shannon_entropy((0.25,) * 4) - 2.0) < 1e-15
    assert abs(shannon_entropy((0.5, 0.5, 0.0, 0.0)) - 1.0) < 1e-15
    expected = -sum(v * math.log2(v) for v in SKEWED)
    assert abs(shannon_entropy(SKEWED) - expected) < 1e-15
    assert abs(expected - SKEWED_H) < 1e-15
    with pytest.raises(InvalidDistributionError):
        shannon_entropy((0.5, 0.6, 0.0, 0.0))
    with pytest.raises(InvalidDistributionError):
        shannon_entropy((1.1, -0.1, 0.0, 0.0))


def test_source_dist_caches_entropy():
    src = SourceDist(SKEWED)
    assert abs(src.h - SKEWED_H) < 1e-15
    s = src.surprisals()
    assert abs(s[0] + math.log2(0.9)) < 1e-15
    assert math.isinf(SourceDist((1.0, 0.0, 0.0, 0.0)).surprisals()[1])


def test_bell_index_vector_bits():
    x = BellIndexVector((3, 1))
    # pair i occupies flat bits (2i, 2i+1), high bit first: 3 -> 11, 1 -> 01
    assert list(x.to_bits()) == [1, 1, 0, 1]
    assert BellIndexVector.from_bits([1, 1, 0, 1]).entries == (3, 1)
    assert len(x) == 2 and x[0] == 3
    assert (x ^ BellIndexVector((1, 1))).entries == (2, 0)
    with pytest.raises(ValueError):
        BellIndexVector((4,))
    with pytest.raises(ValueError):
        BellIndexVector.from_bits([1, 0, 1])


def test_parity_matches_naive_loop():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        s = rng.integers(0, 2, size=n)
        x = rng.integers(0, 2, size=n)
        naive = sum(int(a) * int(b) for a, b in zip(s, x)) % 2
        assert parity(s, x) == naive
    with pytest.raises(DimensionMismatchError):
        parity([1, 0], [1, 0, 1])


def test_parity_and_round_update_take_only_0_and_1():
    # parity once read 2 as 0 while round_update selected its pair, so the
    # revealed bit was not parity(s, x); -1 reached numpy as an OverflowError
    x = BellIndexVector((1, 2))
    for s in ([2, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0.5, 0], np.array([0, 0, 3, 1])):
        with pytest.raises(ValueError, match="only 0 and 1"):
            parity(s, x.to_bits())
        with pytest.raises(ValueError, match="only 0 and 1"):
            round_update(s, x)
    with pytest.raises(ValueError, match="only 0 and 1"):
        parity([1], [2])
    for s in ([True, False, False, True], np.array([1.0, 0.0, 0.0, 1.0])):
        assert round_update(s, x) == round_update([1, 0, 0, 1], x)
        assert parity(s, x.to_bits()) == round_update(s, x)[0]


def test_round_update_worked_examples():
    # x = (2, 3): bits 10 11.  s = 10 11 selects both pairs: the first is
    # rotated (swap), the second folded (lo ^= hi), amplitudes accumulate on
    # pair 0, whose phase spreads to pair 1; read t = 1, delete pair 0.
    t, rest = round_update((1, 0, 1, 1), BellIndexVector((2, 3)))
    assert t == 1
    assert rest.entries == (2,)

    # x = (1, 2, 3) with s = 00 01 10: pair 0 untouched, amplitude of pair 1
    # and (swapped) pair 2 combine on pair 1; survivors are pairs 0 and 2.
    t, rest = round_update((0, 0, 0, 1, 1, 0), BellIndexVector((1, 2, 3)))
    assert t == 1
    assert rest.entries == (1, 1)

    with pytest.raises(ValueError):
        round_update((0, 0, 0, 0), BellIndexVector((1, 2)))
    with pytest.raises(DimensionMismatchError):
        round_update((1, 0), BellIndexVector((1, 2)))


def test_round_update_reveals_exact_parity():
    # exhaustive over three pairs: the revealed bit is the s-parity of the input
    rng = np.random.default_rng(62)
    strings = [draw_nonzero_bits(rng, 6) for _ in range(30)]
    for code in range(64):
        x = BellIndexVector(((code >> 4) & 3, (code >> 2) & 3, code & 3))
        for s in strings:
            t, rest = round_update(s, x)
            assert t == parity(s, x.to_bits())
            assert len(rest) == 2


def test_round_update_is_gf2_linear():
    rng = np.random.default_rng(63)
    for _ in range(20):
        s = draw_nonzero_bits(rng, 6)
        for xa in range(16):
            for xb in range(16):
                x = BellIndexVector(((xa >> 2) & 3, xa & 3, 2))
                y = BellIndexVector(((xb >> 2) & 3, xb & 3, 1))
                tx, rx = round_update(s, x)
                ty, ry = round_update(s, y)
                tz, rz = round_update(s, x ^ y)
                assert tz == tx ^ ty
                assert rz.entries == (rx ^ ry).entries


def test_round_update_matches_reference():
    rng = np.random.default_rng(66)
    for _ in range(400):
        m = int(rng.integers(1, 13))
        x = BellIndexVector(tuple(int(v) for v in rng.integers(0, 4, size=m)))
        s = draw_nonzero_bits(rng, 2 * m)
        t, rest = round_update(s, x)
        assert (t, rest) == ref_round_update(s, x)
        assert type(t) is int


def test_compile_rounds_matches_reference():
    # 2n crosses the 64-bit word boundary between n = 32 and n = 33; the
    # rounds are drawn as a trial draws them, after the sampled string
    src = SourceDist(SKEWED)
    for n in (4, 5, 24, 32, 33, 40):
        rng = np.random.default_rng([67, n])
        rng.choice(4, size=n, p=np.asarray(src.p))
        s_list = [draw_nonzero_bits(rng, 2 * (n - k)) for k in range(plan_yield(src, n).r)]
        t_matrix, f_matrix = compile_rounds(s_list, n)
        assert t_matrix.dtype == f_matrix.dtype == np.uint8
        assert np.array_equal(t_matrix, ref_parity_matrix(s_list, n))
        assert np.array_equal(f_matrix, ref_final_matrix(s_list, n))


def test_read_trials_match_sequential_draws():
    # one read of a chunk's raw words gives each trial the symbols of
    # Generator.choice and the strings of one Generator call per attempt at
    # a round, all-zero ones redrawn, zero past each round's 2(n - k) bits
    src = SourceDist(SKEWED)
    cdf = hashing._choice_cdf(src.p)
    redraws = 0
    for n in range(4, 41):
        for r in sorted({1, n // 2, n - 1}):
            seeds = [[68, n, r, trial] for trial in range(12)]
            symbols, strings = hashing._read_trials(seeds, cdf, n, r)
            assert strings.shape == (r, len(seeds), 2 * n) and strings.dtype == np.uint8
            for row, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                assert np.array_equal(symbols[row], rng.choice(4, size=n, p=np.asarray(src.p)))
                want, redrawn = draw_round_strings(rng, n, r)
                assert strings[:, row].tolist() == [s + [0] * (2 * n - len(s)) for s in want]
                redraws += redrawn
    assert redraws > 0


def test_numpy_draw_model():
    # the two facts of numpy's bit layout that the reader rests on, and the
    # bits that a 0/1 uint8 draw takes from its uint32 words
    for seed in range(20):
        raw = np.random.PCG64(seed).random_raw(16)
        rng = np.random.default_rng(seed)
        # a double is the top 53 bits of one raw word
        assert rng.random(10).tolist() == ((raw[:10] >> 11) * 2.0**-53).tolist()
        # uint32 words are the low and then the high half of a raw word, and an
        # odd-sized call leaves the high half to start the next one
        halves = np.stack((raw[10:14] & 0xFFFFFFFF, raw[10:14] >> 32), axis=1).reshape(-1)
        odd = rng.integers(0, 2**32, size=2 * (seed % 4) + 1, dtype=np.uint32)
        rest = rng.integers(0, 2**32, size=8 - odd.size, dtype=np.uint32)
        assert np.concatenate((odd, rest)).tolist() == halves.tolist()
        # a 0/1 uint8 draw of length L takes bit 7 of the first L bytes of
        # ceil(L / 4) uint32 words
        bits = rng.integers(0, 2, size=6, dtype=np.uint8)
        assert bits.tolist() == (raw[14:15].astype("<u8").view(np.uint8)[:6] >> 7).tolist()
        assert rng.bit_generator.random_raw() == raw[15]


def test_nibble_matcher_matches_byte_sliced_reference():
    sources = ((SourceDist(SKEWED), None), (SourceDist((0.95, 0.05, 0.0, 0.0)), 0.15))
    cases = [(sources[0], n) for n in (4, 8, 16, 24)] + [(sources[1], 40)]  # 2n > 64
    survivors = 0
    for (src, epsilon), n in cases:
        plan = plan_yield(src, n, epsilon=epsilon)
        _, bits, _ = enumerate_typical(src, n, plan.epsilon)
        tables = cached_tables(src, n, plan.epsilon)
        packed = np.packbits(bits.T, axis=1)
        rng = np.random.default_rng([69, n])
        width = -(-2 * n // 64)  # uint64 words a mask takes
        stacked_masks, stacked_bits, wanted = [], [], []
        for trial in range(20):
            s_list, _ = draw_round_strings(rng, n, plan.r)
            int_masks = hashing._round_masks(s_list, n)
            t_masks, f_masks = (hashing._mask_words(m, width) for m in int_masks)
            t_matrix, f_matrix = compile_rounds([np.array(s) for s in s_list], n)
            # parities of every candidate under each mask
            for masks, matrix in ((t_masks, t_matrix), (f_masks, f_matrix)):
                words = hashing._predicted(tables, masks)
                got = np.unpackbits(words.view(np.uint8), axis=1, count=len(bits), bitorder="little")
                assert np.array_equal(got, (matrix @ bits.T) & 1)
            # revealed bits of a candidate (so something survives) or at random
            if len(bits) and trial % 2 == 0:
                parity_bits = ((t_matrix @ bits[rng.integers(len(bits))]) & 1).tolist()
            else:
                parity_bits = rng.integers(0, 2, size=plan.r).tolist()
            stacked_masks.append(t_masks)
            stacked_bits.append(parity_bits)
            wanted.append(ref_matching(packed, len(bits), t_matrix, parity_bits))
        # the trials of a chunk are matched in one call
        stacked_bits = np.array(stacked_bits, dtype=np.uint8)
        stacked_masks = np.array(stacked_masks)
        rows = hashing._predicted(tables, stacked_masks.reshape(-1, width))
        rows = rows.reshape(stacked_masks.shape[:2] + (-1,))
        trial, got = hashing._matching(rows, len(bits), stacked_bits)
        assert np.array_equal(trial, np.repeat(np.arange(20), [w.size for w in wanted]))
        want = np.concatenate(wanted)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        survivors += got.size
    assert survivors > 0


def test_plan_yield_examples():
    # zero-entropy source, n = 10: r = floor(10 * 1 / 2) = 5 rounds, m = 5
    pure = SourceDist((1.0, 0.0, 0.0, 0.0))
    plan = plan_yield(pure, 10)
    assert (plan.r, plan.m) == (5, 5)
    assert plan.epsilon == 0.25
    assert plan.rate_guarantee == 0.5

    src = SourceDist(SKEWED)
    plan = plan_yield(src, 16)
    assert (plan.r, plan.m) == (13, 3)
    assert abs(plan.epsilon - (1 - SKEWED_H) / 4) < 1e-15
    assert abs(plan.delta - ((1 - SKEWED_H) / 2 - plan.epsilon)) < 1e-15

    plan = plan_yield(src, 100)
    assert (plan.r, plan.m) == (81, 19)

    plan = plan_yield(src, 24)
    assert (plan.r, plan.m) == (19, 5)

    # explicit overrides are honored
    plan = plan_yield(src, 16, epsilon=0.05, r=11)
    assert plan.epsilon == 0.05 and plan.r == 11 and plan.m == 5

    with pytest.raises(DimensionMismatchError):
        plan_yield(src, 3)
    for bad in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidDistributionError):
            plan_yield(src, 16, epsilon=bad)
    with pytest.raises(EntropyTooHighError):
        plan_yield(SourceDist((0.25,) * 4), 16)  # two bits of entropy


def test_entry_points_reject_bad_epsilon():
    # nan once enumerated an empty set (and cached it) and estimated no
    # misses; inf enumerated all 4^n strings
    src = SourceDist(SKEWED)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.1):
        with pytest.raises(InvalidDistributionError, match="finite and positive"):
            enumerate_typical(src, 8, bad)
        with pytest.raises(InvalidDistributionError, match="finite and positive"):
            typicality_miss_estimate(src, 8, bad, trials=100)
        with pytest.raises(InvalidDistributionError, match="finite and positive"):
            is_typical(BellIndexVector((0,) * 8), src, bad)
    assert not any(math.isnan(key[2]) for key in hashing._TYPICAL_CACHE)


def test_entry_points_reject_empty_strings_and_negative_budgets():
    # n = -2 once raised a bare UnboundLocalError, n = 0 returned an empty set
    # after a divide-by-zero warning and estimated no misses; a negative
    # budget failed every trial instead of raising
    src = SourceDist(SKEWED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (-2, 0):
            with pytest.raises(DimensionMismatchError, match=f"n={n}"):
                enumerate_typical(src, n, 0.1)
            with pytest.raises(DimensionMismatchError, match=f"n={n}"):
                typicality_miss_estimate(src, n, 0.1, trials=10)
        with pytest.raises(DimensionMismatchError, match="budget=-1"):
            enumerate_typical(src, 8, 0.1, budget=-1)
        plan = plan_yield(src, 8)
        with pytest.raises(DimensionMismatchError, match="budget=-1"):
            run_hashing_trial(src, plan, [0, 1], budget=-1)
    # the smallest length and a zero budget stay valid
    assert enumerate_typical(src, 1, 0.5)[0].shape == (1, 1)
    assert typicality_miss_estimate(src, 1, 0.5, trials=10).trials == 10
    assert run_hashing_trial(src, plan, [0, 1], budget=0).budget_exceeded


def test_is_typical_examples():
    pure = SourceDist((1.0, 0.0, 0.0, 0.0))
    assert is_typical(BellIndexVector((0, 0, 0, 0)), pure, 0.25)
    # zero-probability symbols exclude a string outright
    assert not is_typical(BellIndexVector((0, 1, 0, 0)), pure, 0.25)

    uniform = SourceDist((0.25,) * 4)
    rng = np.random.default_rng(64)
    for _ in range(10):
        x = BellIndexVector(tuple(rng.integers(0, 4, size=8)))
        assert is_typical(x, uniform, 1e-6)  # every string sits exactly at h = 2

    src = SourceDist(SKEWED)
    all_zero = BellIndexVector((0,) * 4)
    # the all-zero surprisal rate is -log2(0.9) = 0.152, far below h = 0.627
    assert not is_typical(all_zero, src, 0.1)
    assert is_typical(all_zero, src, 0.5)
    with pytest.raises(InvalidDistributionError):
        is_typical(all_zero, src, 0.0)


def test_is_typical_rejects_symbols_outside_0_to_3():
    # -1 once read symbol 3's surprisal and 4 raised a bare IndexError
    src = SourceDist((0.9, 0.05, 0.05, 0.0))
    for x in ([-1] * 8, [4] * 8, [0] * 7 + [7], np.full(8, -1)):
        with pytest.raises(ValueError, match="0..3"):
            is_typical(x, src, 0.5)
    assert is_typical(np.zeros(8, dtype=np.int64), src, 0.5)
    assert not is_typical([0] * 7 + [3], src, 0.5)  # a zero-weight symbol


def vectorized_membership(src, n, epsilon):
    """Exhaustive typicality mask over all 4^n strings.

    Accumulates surprisals column by column, reproducing the sequential
    left-to-right float additions of the membership test so strings exactly
    on the closed window boundary are classified identically.
    """
    digits = (np.arange(4**n)[:, None] >> (2 * np.arange(n)[::-1])) & 3
    surprisal = np.array([-math.log2(v) if v > 0 else np.inf for v in src.p])
    acc = np.zeros(4**n)
    for i in range(n):
        acc = acc + surprisal[digits[:, i]]
    with np.errstate(invalid="ignore"):
        mask = np.abs(acc / n - src.h) <= epsilon
    return digits, mask & np.isfinite(acc)


def test_enumerate_typical_against_exhaustive_search():
    sources = [SourceDist(SKEWED), SourceDist((0.7, 0.1, 0.1, 0.1)), SourceDist((0.4, 0.3, 0.2, 0.1))]
    rng = np.random.default_rng(65)
    for src in sources:
        for n in (4, 6, 8, 10):
            symbols, bits, visits = enumerate_typical(src, n, 0.1)
            digits, mask = vectorized_membership(src, n, 0.1)
            expected = {tuple(int(v) for v in digits[i]) for i in np.flatnonzero(mask)}
            got = {tuple(int(v) for v in row) for row in symbols}
            assert got == expected
            assert len(symbols) <= 2.0 ** (n * (src.h + 0.1))
            assert visits >= len(symbols)
            # flattened bit rows match the symbol rows
            for row, brow in zip(symbols[:50], bits[:50]):
                assert np.array_equal(BellIndexVector(tuple(row)).to_bits(), brow)
            # spot-check the vectorized membership against the scalar test
            for i in rng.choice(4**n, size=200, replace=False):
                x = BellIndexVector(tuple(int(v) for v in digits[i]))
                assert is_typical(x, src, 0.1) == bool(mask[i])


def test_enumerate_typical_budget():
    src = SourceDist((0.4, 0.3, 0.2, 0.1))
    # an undersized budget interrupts the search even when a larger cached
    # enumeration exists; the visit counter rides along on the error
    with pytest.raises(DecoderBudgetError) as info:
        enumerate_typical(src, 10, 0.1, budget=500)
    assert info.value.visits == 501
    symbols, _, visits = enumerate_typical(src, 10, 0.1)
    assert visits > 500
    assert len(symbols) == 141307


def test_enumerate_typical_matches_reference():
    sources = [
        SourceDist(SKEWED),
        SourceDist((0.4, 0.3, 0.2, 0.1)),
        SourceDist((0.5, 0.5, 0.0, 0.0)),  # zero-probability symbols are skipped
        SourceDist((0.0, 0.0, 1.0, 0.0)),
    ]
    cases = [(src, n, eps) for src in sources for n, eps in ((1, 0.3), (5, 0.1), (9, 0.05), (8, 0.2))]
    for src in (SourceDist(SKEWED), SourceDist((0.92,) + ((1 - 0.92) / 3,) * 3)):
        cases.append((src, 24, plan_yield(src, 24).epsilon))
    for src, n, epsilon in cases:
        symbols, bits, visits = enumerate_typical(src, n, epsilon)
        ref_symbols, ref_bits, ref_visits = ref_enumerate_typical(src, n, epsilon)
        assert symbols.dtype == ref_symbols.dtype and bits.dtype == ref_bits.dtype
        assert symbols.shape == ref_symbols.shape and bits.shape == ref_bits.shape
        # same strings, same order
        assert symbols.tobytes() == ref_symbols.tobytes()
        assert bits.tobytes() == ref_bits.tobytes()
        assert visits == ref_visits
        assert np.array_equal(cached_tables(src, n, epsilon), ref_subset_tables(ref_bits))
        if n < 24:
            # the budget trips exactly when the whole tree does not fit in it
            assert enumerate_typical(src, n, epsilon, budget=visits)[2] == visits
            for budget in (visits - 1, visits // 3, 0):
                with pytest.raises(DecoderBudgetError) as info:
                    enumerate_typical(src, n, epsilon, budget=budget)
                with pytest.raises(DecoderBudgetError) as ref_info:
                    ref_enumerate_typical(src, n, epsilon, budget=budget)
                assert info.value.visits == ref_info.value.visits == budget + 1


def test_enumerate_typical_has_no_depth_limit():
    # n = 1200 is deeper than Python's default recursion limit, which the
    # depth-first search it replaced ran into; only the visit budget stops it
    symbols, bits, visits = enumerate_typical(SourceDist((1.0, 0.0, 0.0, 0.0)), 1200, 0.25)
    assert symbols.shape == (1, 1200) and not symbols.any() and not bits.any()
    assert visits == 1201  # root plus one chain of 1200 symbols
    with pytest.raises(DecoderBudgetError) as info:
        enumerate_typical(SourceDist(SKEWED), 1200, 0.1, budget=10**4)
    assert info.value.visits == 10**4 + 1


def test_exceeded_budgets_are_cached_like_the_uncached_path(monkeypatch):
    # a key remembers the largest budget it exceeded, and raises the uncached
    # path's error for any budget at or below it without walking again
    src = SourceDist(SKEWED)
    plan = plan_yield(src, 16)
    n, epsilon = 16, plan.epsilon
    visits = ref_enumerate_typical(src, n, epsilon)[2]
    budgets = [visits // 2, visits // 4, visits // 2, visits - 1, 0, visits, visits - 1, 10 * visits]

    def outcome(budget):
        try:
            symbols, bits, count = enumerate_typical(src, n, epsilon, budget=budget)
            return symbols.tobytes(), bits.tobytes(), count
        except DecoderBudgetError as exc:
            return str(exc), exc.visits

    uncached = []
    for budget in budgets:
        hashing._TYPICAL_CACHE.clear()
        uncached.append(outcome(budget))
    walks = []
    surprisals = SourceDist.surprisals
    monkeypatch.setattr(SourceDist, "surprisals", lambda self: walks.append(1) or surprisals(self))
    hashing._TYPICAL_CACHE.clear()
    assert [outcome(budget) for budget in budgets] == uncached
    assert len(walks) == 3  # visits // 2 and visits - 1 fail, visits succeeds
    monkeypatch.undo()
    # whole trials, over budget or not, as with an empty cache each time
    for budget in (visits // 2, visits):
        hashing._TYPICAL_CACHE.clear()
        cached = [run_hashing_trial(src, plan, [70, t], budget=budget) for t in range(6)]
        for t, result in enumerate(cached):
            hashing._TYPICAL_CACHE.clear()
            assert run_hashing_trial(src, plan, [70, t], budget=budget) == result
            assert result.budget_exceeded == (budget < visits)


def sweep_source(k):
    """Grid point k of 1024 of the hashing-sweep benchmark: p = (p0, q, q, q) normalised
    as the command line normalises it."""
    p0 = round(0.90 + 0.045 * k / 1023, 12)
    q = (1.0 - p0) / 3.0
    raw = (p0, q, q, q)
    return SourceDist(tuple(v / sum(raw) for v in raw))


def assert_same_set(src, n, epsilon, walk, visits):
    """``enumerate_typical`` (cold) holds the (n, C) symbols ``walk`` of the tree search."""
    hashing._TYPICAL_CACHE.clear()
    symbols, bits, got_visits = enumerate_typical(src, n, epsilon, budget=10**7)
    assert got_visits == visits
    assert symbols.dtype == np.uint8 and symbols.shape == walk.T.shape
    assert symbols.tobytes() == np.ascontiguousarray(walk.T).tobytes()
    assert cached_tables(src, n, epsilon).tobytes() == hashing._subset_tables(walk).tobytes()


def test_type_classes_match_the_tree_on_the_sweep_grid():
    # The type classes give the tree's visits and strings, in its order, with
    # no key of the benchmark grid (every 4th one here) near a test's edge.
    for k in range(0, 1024, 4):
        src = sweep_source(k)
        epsilon = plan_yield(src, 24).epsilon
        steps = src.surprisals()
        budget = hashing.DEFAULT_DECODER_BUDGET
        found = hashing._by_types(steps, src.h, 24, epsilon, budget)
        assert found is not None, k
        visits, walk = hashing._level_search(steps, src.h, 24, epsilon, budget)
        assert found[0] == visits
        assert found[1].shape == walk.shape and found[1].tobytes() == walk.tobytes(), k
        assert_same_set(src, 24, epsilon, walk, visits)


def test_keys_near_a_test_edge_run_the_tree_search():
    # Dyadic weights put every total on an integer and the window's edges on
    # integers; (0.8, 0.1, 0.05, 0.05) at n = 16 puts a class on the upper edge
    # in exact arithmetic.  Both run the tree search, which the reference checks.
    for p, n, epsilon in (((0.5, 0.25, 0.125, 0.125), 8, 0.25), ((0.8, 0.1, 0.05, 0.05), 16, 0.05)):
        src = SourceDist(p)
        steps = src.surprisals()
        assert hashing._by_types(steps, src.h, n, epsilon, 10**7) is None
        hashing._TYPICAL_CACHE.clear()
        typical_set = enumerate_typical(src, n, epsilon)
        ref_symbols, ref_bits, ref_visits = ref_enumerate_typical(src, n, epsilon)
        assert typical_set[2] == ref_visits
        assert typical_set[0].tobytes() == ref_symbols.tobytes()
        assert typical_set[1].tobytes() == ref_bits.tobytes()
        assert np.array_equal(cached_tables(src, n, epsilon), ref_subset_tables(ref_bits))


def test_type_classes_keep_the_pruning_slack():
    # The tree keeps a node whose completions miss the window by less than
    # its 1e-9 slack.  Here the greatest completion of 15 zeros (a final 1)
    # falls 5e-10 short of the window, and the least completion of three 1s
    # (13 zeros) passes it by 5e-10.  That is far outside rounding, so the
    # type classes decide these nodes, and count their children as the tree does.
    src = SourceDist(SKEWED)
    steps = src.surprisals()
    for string, side in (([0] * 15 + [1], -1), ([1, 1, 1] + [0] * 13, 1)):
        total = 0.0
        for v in string:
            total += steps[v]
        epsilon = side * ((total - side * 5e-10) / 16 - src.h)
        found = hashing._by_types(steps, src.h, 16, epsilon, 10**6)
        visits, walk = hashing._level_search(steps, src.h, 16, epsilon, 10**6)
        assert found is not None and found[0] == visits
        assert found[1].shape == walk.shape and found[1].tobytes() == walk.tobytes()


def test_type_classes_match_the_reference_beyond_one_word():
    # n = 1 is the shortest key, n = 33 and 40 take two words a key, and the
    # pure source's n = 1200 takes 38
    cases = [
        (SourceDist(SKEWED), 1, 0.3),
        (SourceDist((0.4, 0.3, 0.2, 0.1)), 1, 0.3),
        (SourceDist((0.97, 0.01, 0.01, 0.01)), 33, None),
        (SourceDist((0.98, 0.02, 0.0, 0.0)), 40, None),
        (SourceDist((0.02, 0.0, 0.98, 0.0)), 33, None),  # the background is symbol 2
        (SourceDist((0.05, 0.0, 0.95, 0.0)), 40, 0.1),
    ]
    for src, n, epsilon in cases:
        epsilon = plan_yield(src, n).epsilon if epsilon is None else epsilon
        assert hashing._by_types(src.surprisals(), src.h, n, epsilon, 10**6) is not None
        hashing._TYPICAL_CACHE.clear()
        symbols, bits, visits = enumerate_typical(src, n, epsilon)
        ref_symbols, ref_bits, ref_visits = ref_enumerate_typical(src, n, epsilon)
        assert visits == ref_visits and (len(symbols) > 0 or n == 1)
        assert symbols.shape == ref_symbols.shape and symbols.tobytes() == ref_symbols.tobytes()
        assert bits.tobytes() == ref_bits.tobytes()
    pure = SourceDist((1.0, 0.0, 0.0, 0.0))
    found = hashing._by_types(pure.surprisals(), pure.h, 1200, 0.25, 10**6)
    assert found[0] == 1201 and found[1].shape == (1200, 1) and not found[1].any()


def test_type_class_budget_verdicts_at_n_26():
    # The visits are counted before any string is built: n = 26 exceeds the
    # default budget at once, and fits in 10^7 with the tree's strings.
    src = SourceDist(SKEWED)
    epsilon = plan_yield(src, 26).epsilon
    hashing._TYPICAL_CACHE.clear()
    with pytest.raises(DecoderBudgetError) as info:
        enumerate_typical(src, 26, epsilon)
    assert info.value.visits == hashing.DEFAULT_DECODER_BUDGET + 1
    steps = src.surprisals()
    visits, walk = hashing._level_search(steps, src.h, 26, epsilon, 10**7)
    assert (visits, walk.shape) == (1_711_897, (26, 70_200))
    assert_same_set(src, 26, epsilon, walk, visits)
    # a partial count already past the budget is the verdict
    partial, none = hashing._by_types(steps, src.h, 26, epsilon, hashing.DEFAULT_DECODER_BUDGET)
    assert none is None and hashing.DEFAULT_DECODER_BUDGET < partial <= visits


def test_type_classes_match_the_tree_on_random_keys():
    # Random weights (zero weights, ties and dyadic values included), lengths,
    # windows and budgets: where the type classes answer, they give the tree's
    # visits, budget verdict and strings; dyadic keys make some fall back.
    rng = np.random.default_rng(77)
    answered = fallbacks = refused = 0
    while answered < 300:
        p = rng.dirichlet(np.ones(4) * rng.choice([0.3, 1.0, 5.0])) * (rng.random(4) < 0.8)
        if rng.random() < 0.25:
            p = np.round(p * 8) / 8
        if p.sum() == 0:
            continue
        src = SourceDist(tuple(p / p.sum()))
        n = int(rng.integers(1, 13))
        epsilon = float(rng.choice([rng.uniform(1e-3, 0.5), 0.25, 0.125]))
        budget = int(rng.choice([10**6, rng.integers(0, 2000)]))
        steps = src.surprisals()
        found = hashing._by_types(steps, src.h, n, epsilon, budget)
        if found is None:
            fallbacks += 1
            continue
        visits, walk = hashing._level_search(steps, src.h, n, epsilon, budget)
        assert (found[1] is None) == (walk is None)
        if walk is None:
            refused += 1
            assert found[0] > budget and visits > budget
            continue
        answered += 1
        assert found[0] == visits
        assert found[1].shape == walk.shape and found[1].tobytes() == walk.tobytes()
    assert fallbacks > 0 and refused > 0


def test_typical_cache_is_bounded():
    sources = [SourceDist((p0, 1.0 - p0, 0.0, 0.0)) for p0 in (0.6, 0.65, 0.7, 0.75, 0.8, 0.85)]
    cache, key = hashing._TYPICAL_CACHE, (sources[0].p, 8, 0.1)
    first = enumerate_typical(sources[0], 8, 0.1)
    entry = cache[key]
    for src in sources[1:]:
        enumerate_typical(src, 8, 0.1)
        assert len(cache) <= hashing._TYPICAL_CACHE_SIZE
    assert key not in cache  # evicted
    again = enumerate_typical(sources[0], 8, 0.1)  # so enumerated afresh
    assert cache[key] is not entry
    entry = cache[key]
    enumerate_typical(sources[1], 8, 0.1)
    enumerate_typical(sources[0], 8, 0.1)  # a hit keeps the entry and moves it to the end
    assert cache[key] is entry and list(cache)[-1] == key
    assert all(np.array_equal(a, b) for a, b in zip(again[:2], first[:2]))
    assert again[2] == first[2]
    assert type(again) is tuple


def test_run_hashing_trial_matches_reference():
    paths = {"decoded": 0, "fallback": 0, "budget": 0}
    for n in (4, 8, 13, 16, 21, 24):
        for p0 in (0.9, 0.95, 0.99):
            q = (1.0 - p0) / 3.0
            src = SourceDist((p0, q, q, q))
            plan = plan_yield(src, n)
            for seed in range(3):
                for budget in (hashing.DEFAULT_DECODER_BUDGET, 40):
                    res = run_hashing_trial(src, plan, [seed, n], budget=budget)
                    ref = ref_run_hashing_trial(src, plan, [seed, n], budget=budget)
                    for field in dataclasses.fields(res):
                        got, want = getattr(res, field.name), getattr(ref, field.name)
                        assert got == want and type(got) is type(want), field.name
                    for values in (res.sampled, res.parity_bits):
                        assert all(type(v) is int for v in values)
                    if res.budget_exceeded:
                        paths["budget"] += 1
                    else:
                        paths["decoded" if res.parities_matched else "fallback"] += 1
    # the grid covers decoding, the fallback of an empty typical set (or no
    # match) and the budget-exceeded path
    assert min(paths.values()) > 0, paths


def stacked_results(src, plan, seeds, budget):
    """Every trial of one stacked call as a ``HashingTrialResult``."""
    return [
        hashing._result(trials, k)
        for trials in hashing._run_trials(src, plan, seeds, budget)
        for k in range(len(trials.success))
    ]


def test_stacked_trials_match_the_one_trial_reference(monkeypatch):
    # One call runs its trials in chunks; trial counts around the chunk size
    # put the decoded, fallback, empty-set and budget-exceeded paths across a
    # chunk boundary.  The reference enumerates once per key, not per trial.
    memo, enumerate_ref = {}, ref_enumerate_typical

    def enumerate_once(src, n, epsilon, budget=hashing.DEFAULT_DECODER_BUDGET):
        key = (src.p, n, epsilon, budget)
        if key not in memo:
            try:
                memo[key] = enumerate_ref(src, n, epsilon, budget)
            except DecoderBudgetError as exc:
                memo[key] = exc
        if isinstance(memo[key], DecoderBudgetError):
            raise memo[key]
        return memo[key]

    monkeypatch.setitem(globals(), "ref_enumerate_typical", enumerate_once)
    chunk = hashing._TRIAL_CHUNK
    zero_weight = SourceDist((0.9, 0.05, 0.05, 0.0))
    cases = [(SourceDist(SKEWED), n) for n in (4, 8, 16, 24)] + [(zero_weight, n) for n in (8, 16)]
    paths = {"decoded": 0, "fallback": 0, "empty": 0, "budget": 0}
    for src, n in cases:
        plan = plan_yield(src, n)
        for budget in (hashing.DEFAULT_DECODER_BUDGET, 40):
            seeds = [[71, n, trial] for trial in range(chunk + 1)]
            results = stacked_results(src, plan, seeds, budget)
            for res, seed in zip(results, seeds):
                ref = ref_run_hashing_trial(src, plan, seed, budget=budget)
                for field in dataclasses.fields(res):
                    assert getattr(res, field.name) == getattr(ref, field.name), field.name
            for count in (chunk - 1, chunk):
                assert stacked_results(src, plan, seeds[:count], budget) == results[:count]
            for res in results[chunk - 1 : chunk + 1]:
                if res.budget_exceeded:
                    paths["budget"] += 1
                elif res.parities_matched:
                    paths["decoded"] += 1
                else:
                    empty = len(enumerate_typical(src, n, plan.epsilon)[0]) == 0
                    paths["empty" if empty else "fallback"] += 1
    assert min(paths.values()) > 0, paths


def test_lockstep_masks_match_the_int_loop():
    # Both round maps run on one read: the lock step over a chunk's trials and
    # _apply_round per trial on int masks.  At n = 4 and 5 all-zero strings,
    # and so redraws, are common.
    src = SourceDist(SKEWED)
    cdf = hashing._choice_cdf(src.p)
    redraws = 0
    for n in (4, 5, 8, 24, 32):
        for r in sorted({1, plan_yield(src, n).r, n - 1}):
            for size in (1, 31, 32):
                seeds = [[74, n, r, size, trial] for trial in range(size)]
                symbols, strings = hashing._read_trials(seeds, cdf, n, r)
                t_masks, f_masks = hashing._lockstep_masks(strings)
                assert t_masks.dtype == f_masks.dtype == np.uint64
                for row in range(size):
                    want = hashing._round_masks(strings[:, row].tolist(), n)
                    assert (t_masks[row].tolist(), f_masks[row].tolist()) == want, (n, r, size)
                # the int loop reads each trial alone, as the chunk read it
                got = hashing._int_loop_chunk(seeds, cdf, n, r, 1)
                for a, b in zip(got, (symbols, t_masks[..., None], f_masks[..., None])):
                    assert a.shape == b.shape and np.array_equal(a, b), (n, r, size)
                for seed in seeds:
                    rng = np.random.default_rng(seed)
                    rng.random(n)
                    redraws += draw_round_strings(rng, n, r)[1]
    assert redraws > 0


def test_wide_masks_share_the_readout():
    # 2n > 64 runs the int loop per trial, then the chunk readout of the
    # one-word masks on two words a mask
    paths = {"decoded": 0, "fallback": 0, "budget": 0}
    for p, n in (((0.97, 0.01, 0.01, 0.01), 33), ((0.98, 0.02, 0.0, 0.0), 40)):
        src = SourceDist(p)
        plan = plan_yield(src, n)
        for budget in (hashing.DEFAULT_DECODER_BUDGET, 40):
            seeds = [[75, n, trial] for trial in range(5)]
            for res, seed in zip(stacked_results(src, plan, seeds, budget), seeds):
                assert res == ref_run_hashing_trial(src, plan, seed, budget=budget)
                if res.budget_exceeded:
                    paths["budget"] += 1
                else:
                    paths["decoded" if res.parities_matched else "fallback"] += 1
    assert min(paths.values()) > 0, paths


def test_row_typicality_is_is_typical():
    # A chunk's typicality adds each row's surprisals with cumsum, in
    # is_typical's order, so strings on the window's edge fall the same way;
    # numpy's pairwise sum rounds differently for some of them.
    rng = np.random.default_rng(76)
    zero_weight = SourceDist((0.9, 0.05, 0.05, 0.0))
    reordered = 0
    for src in (SourceDist(SKEWED), SourceDist((0.4, 0.3, 0.2, 0.1)), zero_weight):
        surprisal = np.array(src.surprisals())
        for n in (4, 24, 33):
            symbols = rng.integers(0, 4, size=(60, n))
            epsilon = plan_yield(src, n).epsilon if src.h < 1 else 0.1
            want = [is_typical(row, src, epsilon) for row in symbols]
            assert hashing._typical_rows(symbols, src, epsilon).tolist() == want
            for row in symbols:
                total = 0.0
                for v in row:
                    total += surprisal[v]
                edge = abs(total / n - src.h)  # the row sits on the window's edge
                if not math.isfinite(edge):
                    assert not hashing._typical_rows(row[None], src, 0.5)[0]
                    continue
                reordered += abs(surprisal[row].sum() / n - src.h) != edge
                for eps in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)):
                    got = hashing._typical_rows(row[None], src, eps)
                    assert got.tolist() == [is_typical(row, src, eps)]
    assert reordered > 0


def test_simulate_csv_is_the_one_trial_loop():
    raw = ("0.9", "0.0333", "0.0333", "0.0334")
    floats = [float(v) for v in raw]
    src = SourceDist(tuple(v / sum(floats) for v in floats))
    plan = plan_yield(src, 24)
    chunk = hashing._TRIAL_CHUNK
    for trials in (chunk - 1, chunk, chunk + 1):
        args = ["hashing", "simulate", "--n", "24", "--p0", raw[0], "--p1", raw[1]]
        args += ["--p2", raw[2], "--p3", raw[3], "--trials", str(trials), "--seed", "72"]
        result = CliRunner().invoke(cli.main, args + ["--out", "csv"])
        assert result.exit_code == 0, result.output
        lines = ["trial,success,typical,parities_matched,candidates_visited"]
        for i in range(trials):
            t = run_hashing_trial(src, plan, [72, i])
            row = (i, int(t.success), int(t.typical), t.parities_matched, t.candidates_visited)
            lines.append(",".join(map(str, row)))
        assert result.stdout == "\n".join(lines) + "\n"


def test_draw_symbols_is_rng_choice():
    # the same symbols and the same generator state as Generator.choice
    weights = [
        SKEWED, (0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.3, 0.7, 0.0), (0.25,) * 4, (0.0, 0.0, 0.0, 1.0),
    ]  # fmt: skip
    rng = np.random.default_rng(73)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4)) * (rng.random(4) < 0.7)
        if p.sum() > 0:
            weights.append(tuple(p / p.sum()))
    for k, p in enumerate(weights):
        cdf = hashing._choice_cdf(p)
        for n in (1, 5, 24, 100):
            ours = np.random.default_rng([73, k, n])
            theirs = np.random.default_rng([73, k, n])
            got = hashing._draw_symbols(ours, cdf, n)
            want = theirs.choice(4, size=n, p=np.asarray(p))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not np.isin(want, np.flatnonzero(np.asarray(p) == 0)).any()
            draw = (0, 2**32, 7)
            assert np.array_equal(ours.integers(*draw, dtype=np.uint32), theirs.integers(*draw, dtype=np.uint32))


def test_run_hashing_trial_pure_source():
    pure = SourceDist((1.0, 0.0, 0.0, 0.0))
    plan = plan_yield(pure, 8)
    assert (plan.r, plan.m) == (4, 4)
    res = run_hashing_trial(pure, plan, seed=1)
    assert res.success and res.typical and not res.budget_exceeded
    assert res.sampled == (0,) * 8
    assert res.parity_bits == (0, 0, 0, 0)
    assert res.true_final.entries == (0, 0, 0, 0)
    assert res.decoded_final.entries == (0, 0, 0, 0)
    assert res.parities_matched == 1
    assert res.candidates_visited == 9  # root plus one chain of eight symbols


def test_run_hashing_trial_is_deterministic():
    src = SourceDist(SKEWED)
    plan = plan_yield(src, 16)
    a = run_hashing_trial(src, plan, seed=[123, 0])
    b = run_hashing_trial(src, plan, seed=[123, 0])
    assert a == b
    c = run_hashing_trial(src, plan, seed=[123, 1])
    assert c.sampled != a.sampled
    with pytest.raises(DimensionMismatchError):
        run_hashing_trial(SourceDist((0.7, 0.1, 0.1, 0.1)), plan, seed=0)  # plan from other source


def test_run_hashing_trial_decodable_regime():
    # n = 24 keeps the typical set small enough to decode every typical draw
    src = SourceDist(SKEWED)
    plan = plan_yield(src, 24)
    assert (plan.r, plan.m) == (19, 5)
    symbols, _, _ = enumerate_typical(src, 24, plan.epsilon)
    assert len(symbols) == 2484

    typical = successes = typical_successes = 0
    for trial in range(120):
        res = run_hashing_trial(src, plan, seed=[777, trial])
        assert not res.budget_exceeded
        successes += res.success
        if res.typical:
            typical += 1
            typical_successes += res.success
    assert typical == 37
    assert typical_successes == 37  # no typical draw was ever misdecoded
    assert successes == 58  # atypical draws occasionally match by luck


def test_failure_bound_arithmetic():
    src = SourceDist(SKEWED)
    plan = plan_yield(src, 16)
    fb = failure_bound(src, plan, 0.25)
    expected_collision = 2.0 ** (16 * (SKEWED_H + plan.epsilon) - 13)
    assert abs(fb.collision_term - expected_collision) < 1e-15
    assert abs(fb.collision_term - 0.36095780976348657) < 1e-12
    assert abs(fb.total - (0.25 + fb.collision_term)) < 1e-15
    with pytest.raises(InvalidDistributionError):
        failure_bound(src, plan, 1.5)


def test_round_collision_rate_is_bounded():
    # unequal random strings pushed through the same rounds collide on every
    # revealed parity with probability about 2^-r
    n, r, reps = 6, 3, 10**4
    collisions = 0
    for rep in range(reps):
        rng = np.random.default_rng([31337, n, r, rep])
        x = BellIndexVector(tuple(int(v) for v in rng.integers(0, 4, size=n)))
        y = BellIndexVector(tuple(int(v) for v in rng.integers(0, 4, size=n)))
        if x.entries == y.entries:
            continue
        agree = True
        for _ in range(r):
            s = draw_nonzero_bits(rng, 2 * len(x))
            tx, x = round_update(s, x)
            ty, y = round_update(s, y)
            if tx != ty:
                agree = False
                break
        collisions += agree
    rate = collisions / reps
    sigma = math.sqrt(rate * (1 - rate) / reps)
    assert rate <= 2.0**-r + 3 * sigma


def test_typicality_miss_estimate_monotone():
    src = SourceDist(SKEWED)
    estimates = [typicality_miss_estimate(src, n, 0.1, trials=4000, seed=11) for n in (8, 16, 32, 64)]
    q_hats = [e.q_hat for e in estimates]
    assert q_hats == [1.0, 1.0, 0.765, 0.6775]
    for e in estimates:
        assert 0.0 <= e.lower <= e.q_hat <= e.upper <= 1.0
        assert e.trials == 4000
    # longer strings miss the window no more often, within the interval widths
    for a, b in zip(estimates, estimates[1:]):
        assert b.lower <= a.upper + 1e-12
    with pytest.raises(DimensionMismatchError):
        typicality_miss_estimate(src, 8, 0.1, trials=0)


def test_typicality_miss_estimate_memory_does_not_grow_with_trials():
    # The strings are drawn and tested a block of rows at a time, as the rows
    # of one Generator.choice call; that call's (trials, n) draws once held
    # ~20 MB for 20,000 trials at n = 64.
    src = SourceDist(SKEWED)
    block = hashing._MISS_BLOCK
    for n, trials in ((64, 1), (64, block), (16, block + 1), (24, 2 * block + 77)):
        draws = np.random.default_rng(n).choice(4, size=(trials, n), p=np.asarray(src.p))
        misses = trials - sum(is_typical(row, src, 0.1) for row in draws)
        want = hashing._wilson_estimate(misses, trials)
        assert typicality_miss_estimate(src, n, 0.1, trials, seed=n) == want

    def peak(trials):
        tracemalloc.start()
        try:
            typicality_miss_estimate(src, 64, 0.1, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * block), peak(10 * block)
    assert large - small <= 64 * 1024, (small, large)


def test_typicality_miss_estimate_decides_edge_strings_as_is_typical():
    # Each one-trial estimate draws one string; with epsilon on that string's
    # edge (its surprisals added left to right, as is_typical adds them) the
    # estimate must call it typical.  numpy's pairwise sum rounds some of these
    # edges the other way, which an estimate that used it would count as misses.
    src = SourceDist((0.7, 0.1, 0.15, 0.05))
    surprisal = np.array(src.surprisals())
    x = [0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 3, 0, 0]
    assert is_typical(x, src, 0.16063659694382149)
    assert abs(surprisal[x].sum() / 24 - src.h) > 0.16063659694382149
    pairwise = 0
    for seed in range(300):
        draw = np.random.default_rng(seed).choice(4, size=(1, 24), p=np.asarray(src.p))[0]
        total = 0.0
        for v in draw:
            total += surprisal[v]
        edge = abs(total / 24 - src.h)
        assert is_typical(draw, src, edge)
        assert typicality_miss_estimate(src, 24, edge, trials=1, seed=seed).q_hat == 0.0
        pairwise += abs(surprisal[draw].sum() / 24 - src.h) > edge
    assert pairwise > 0


def exact_miss_probability(src, n, epsilon):
    """1 - P(typical), summed over the types k = (k0..k3) of length-n strings as
    M(k) prod p_i^k_i; every type lies clear of the window's edges."""
    surprisal = src.surprisals()
    inside = 0.0
    for k0 in range(n + 1):
        for k1 in range(n + 1 - k0):
            for k2 in range(n + 1 - k0 - k1):
                counts = (k0, k1, k2, n - k0 - k1 - k2)
                if any(c and math.isinf(s) for c, s in zip(counts, surprisal)):
                    continue
                mean = sum(c * s for c, s in zip(counts, surprisal) if c) / n
                assert abs(abs(mean - src.h) - epsilon) > 1e-9, counts  # no ties
                if abs(mean - src.h) <= epsilon:
                    arrangements = math.factorial(n) // math.prod(map(math.factorial, counts))
                    inside += arrangements * math.prod(p**c for p, c in zip(src.p, counts))
    return 1.0 - inside


def test_wilson_interval_covers_the_exact_miss_probability():
    # The exact q by the method of types agrees with exhaustive enumeration,
    # and the 95% interval covers it in about 95% of seeded estimates.
    src = SourceDist((0.4, 0.3, 0.2, 0.1))
    digits, mask = vectorized_membership(src, 6, 0.1)
    weights = np.prod(np.asarray(src.p)[digits], axis=1)
    q = exact_miss_probability(src, 6, 0.1)
    assert math.isclose(q, 1.0 - weights[mask].sum(), abs_tol=1e-12)
    runs = 200
    for src, n, epsilon in (
        (SourceDist((0.7, 0.1, 0.15, 0.05)), 24, 0.15),
        (SourceDist(SKEWED), 32, 0.1),
        (SourceDist((0.4, 0.3, 0.2, 0.1)), 12, 0.1),
        (SourceDist((0.9, 0.05, 0.05, 0.0)), 20, 0.1),  # a zero-weight symbol
    ):
        q = exact_miss_probability(src, n, epsilon)
        assert 0.1 < q < 0.9
        covered = 0
        for seed in range(runs):
            est = typicality_miss_estimate(src, n, epsilon, trials=200, seed=[78, seed])
            covered += est.lower <= q <= est.upper
        # 95% nominal, within three binomial standard deviations over the runs
        assert abs(covered / runs - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / runs), (q, covered)


def test_wilson_interval_closed_form():
    # spot-check the 95% interval at 3060 misses out of 4000
    est = typicality_miss_estimate(SourceDist(SKEWED), 32, 0.1, trials=4000, seed=11)
    k, trials = 3060, 4000
    assert est.q_hat == k / trials
    z = 1.959963984540054
    denom = 1 + z * z / trials
    center = (est.q_hat + z * z / (2 * trials)) / denom
    radius = z * math.sqrt(est.q_hat * (1 - est.q_hat) / trials + z * z / (4 * trials**2)) / denom
    assert abs(est.lower - (center - radius)) < 1e-12
    assert abs(est.upper - (center + radius)) < 1e-12


def test_net_rate():
    # each distilled pair costs N raw copies, scaling the guaranteed rate 1/N
    assert net_rate(1, SKEWED_H) == (1 - SKEWED_H) / 2
    assert net_rate(3, SKEWED_H) == (1 - SKEWED_H) / 6
    assert abs(net_rate(3, SKEWED_H) - 0.062084692723100521) < 1e-12
    assert net_rate(2, 0.0) == 0.25
    with pytest.raises(EntropyTooHighError):
        net_rate(2, 1.0)
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidDistributionError):
            net_rate(2, bad)
    with pytest.raises(DimensionMismatchError):
        net_rate(0, 0.5)


def test_source_dist_rejects_non_finite_weights():
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(4):
            p = [0.25, 0.25, 0.25, 0.25]
            p[slot] = bad
            with pytest.raises(InvalidDistributionError):
                SourceDist(tuple(p))


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bell_weights_and_entropy_reject_non_finite_values(slot, bad):
    p = [0.5, 0.5, 0.0, 0.0]
    p[slot] = bad
    with pytest.raises(InvalidStateError):
        BellProbs(tuple(p))
    with pytest.raises(InvalidDistributionError):
        shannon_entropy(p)
