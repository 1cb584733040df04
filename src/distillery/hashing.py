"""Classical Monte Carlo for hashing-style distillation of Bell-diagonal states.

A Bell-diagonal n-copy state is represented by its index vector: one symbol
from {0, 1, 2, 3} per pair, in the fixed Bell label order.  Symbols are
encoded as bit pairs (high bit first, so pair i occupies flat bits 2i and
2i+1); the low bit of a pair is the one read out by a measurement round, and
we call it the amplitude bit.  Each round consumes one pair and reveals one
parity of the surviving description, exactly the linear-algebra shadow of the
bilateral-CNOT measurement network.

A trial draws its n symbols and then its r parity strings, each in one
generator call.  The round map is GF(2)-linear, so it runs once on Python-int
masks, each pair's bits held as the set of input flat bits they are the XOR
of; the revealed and final bits of the truth, every candidate and the
fallback are products with the masks.

Decoding enumerates the closed typicality window
|-(1/n) sum_j log2 P(x_j) - H| <= epsilon level by level with
log-probability pruning, then keeps candidates whose parities match every
revealed bit: for each four flat bits the typical set stores the XORs of
their 16 subsets, 64 candidates to a word, so one lookup per nibble of a
mask gives its parities.  A trial succeeds when every surviving candidate
agrees with the truth about the final (unmeasured) pairs; when nothing
survives, an arbitrary fallback sequence is decoded and almost always counts
as failure.

The trials of one call run as stacked numpy calls over chunks of a fixed
number of trials, so memory is bounded by the chunk whatever the trial count.
Each trial draws from its own generator and runs the round map on its own
masks; the parity match, the readout of the survivors' final bits and the
success test run once per chunk.  No outcome depends on the chunking.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecoderBudgetError,
    DimensionMismatchError,
    EntropyTooHighError,
    InvalidDistributionError,
)

__all__ = [
    "DEFAULT_DECODER_BUDGET",
    "SourceDist",
    "BellIndexVector",
    "YieldPlan",
    "HashingTrialResult",
    "FailureBound",
    "MissEstimate",
    "shannon_entropy",
    "is_typical",
    "parity",
    "round_update",
    "plan_yield",
    "run_hashing_trial",
    "failure_bound",
    "typicality_miss_estimate",
    "net_rate",
    "enumerate_typical",
]

DEFAULT_DECODER_BUDGET = 10**6
_SUM_TOL = 1e-12


def shannon_entropy(p) -> float:
    """Base-2 entropy of a probability vector; zero entries contribute zero."""
    values = [float(v) for v in p]
    # accept form, so a NaN never passes
    if not all(math.isfinite(v) for v in values):
        raise InvalidDistributionError(f"non-finite probability in {values}")
    if not min(values) >= -_SUM_TOL:
        raise InvalidDistributionError(f"negative probability {min(values)}")
    total = sum(values)
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidDistributionError(f"probabilities sum to {total}, not 1")
    acc = 0.0
    for v in values:
        if v > 0.0:
            acc -= v * math.log2(v)
    return acc


@dataclass(frozen=True)
class SourceDist:
    """Bell-index source: i.i.d. symbols from {0,1,2,3} with weights p.

    The entropy is computed once at construction and cached on ``h``.
    """

    p: tuple[float, float, float, float]
    h: float = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self):
        values = tuple(float(v) for v in self.p)
        if len(values) != 4:
            raise InvalidDistributionError(f"need four symbol weights, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise InvalidDistributionError(f"non-finite probability in {values}")
        if min(values) < 0.0:
            raise InvalidDistributionError(f"negative probability {min(values)}")
        if abs(sum(values) - 1.0) > _SUM_TOL:
            raise InvalidDistributionError(
                f"probabilities sum to {sum(values)}, not 1 within {_SUM_TOL}"
            )
        object.__setattr__(self, "p", values)
        object.__setattr__(self, "h", shannon_entropy(values))

    def surprisals(self) -> tuple[float, float, float, float]:
        """-log2 p per symbol; infinite for zero-probability symbols."""
        return tuple(-math.log2(v) if v > 0.0 else math.inf for v in self.p)


@dataclass(frozen=True)
class BellIndexVector:
    """Immutable vector of Bell indices with the bit-pair flattening attached."""

    entries: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(v) for v in self.entries)
        for v in values:
            if v not in (0, 1, 2, 3):
                raise ValueError(f"Bell index must be in 0..3, got {v}")
        object.__setattr__(self, "entries", values)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __xor__(self, other: "BellIndexVector") -> "BellIndexVector":
        if len(other) != len(self):
            raise DimensionMismatchError("XOR needs equal-length vectors")
        return BellIndexVector(tuple(a ^ b for a, b in zip(self.entries, other.entries)))

    def to_bits(self) -> np.ndarray:
        """Flat 2m bit string; pair i occupies bits (2i, 2i+1), high bit first."""
        return _flat_bits(np.array(self.entries, dtype=np.uint8))

    @classmethod
    def from_bits(cls, bits) -> "BellIndexVector":
        arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if arr.size % 2 != 0:
            raise ValueError(f"bit string length {arr.size} is odd")
        return cls(tuple((2 * arr[0::2] + arr[1::2]).tolist()))


def _flat_bits(symbols: np.ndarray) -> np.ndarray:
    """Bit flattening of the last axis: symbol i -> bits (2i, 2i+1), high bit first."""
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    bits[..., 0::2] = symbols >> 1
    bits[..., 1::2] = symbols & 1
    return bits


def parity(s, x) -> int:
    """GF(2) inner product of two equal-length bit strings."""
    sa = np.asarray(s, dtype=np.uint8).reshape(-1)
    xa = np.asarray(x, dtype=np.uint8).reshape(-1)
    if sa.shape != xa.shape:
        raise DimensionMismatchError(f"bit strings of length {sa.size} vs {xa.size}")
    return int((sa & xa).sum() & 1)


def round_update(s, x: BellIndexVector) -> tuple[int, BellIndexVector]:
    """One measurement round: reveal the parity s.x and drop one pair.

    Interpreting s pairwise, a pair is selected when its s-pair is non-zero;
    the selected combination (amplitude bit, phase bit, or their XOR) is
    rotated into the amplitude slot, all selected amplitude bits accumulate
    into the lowest selected pair (whose phase spreads back onto the other
    selected phases), that amplitude bit is read out as the parity, and the
    read pair is deleted.  The map is linear over GF(2) and revealed bits
    equal parity(s, x) exactly.
    """
    m = len(x)
    sa = np.asarray(s, dtype=np.uint8).reshape(-1)
    if sa.size != 2 * m:
        raise DimensionMismatchError(f"need {2 * m} parity bits, got {sa.size}")
    bits = sa.tolist()
    if not any(bits):
        raise ValueError("all-zero parity string selects nothing; caller must resample")
    phase = [v >> 1 for v in x.entries]
    amp = [v & 1 for v in x.entries]
    t = _apply_round(bits, phase, amp)
    return t, BellIndexVector(tuple(2 * p + a for p, a in zip(phase, amp)))


def _apply_round(s: list[int], phase: list[int], amp: list[int]) -> int:
    """The round map on pairs whose phase bits are ``phase`` and amplitude
    bits ``amp``; ``s`` is the flat parity string, two entries per pair.

    The map is bitwise, so an entry may equally be an int mask holding one
    bit per input.  Both lists are updated in place and lose the read pair.
    Returns the revealed bit (or mask).
    """
    t = 0
    i0 = -1
    for i, s_hi, s_lo in zip(range(len(phase)), s[0::2], s[1::2]):
        # Rotate each selected pair so the selected bit sits in the amplitude slot.
        if s_lo:
            if s_hi:
                amp[i] ^= phase[i]
        elif s_hi:
            phase[i], amp[i] = amp[i], phase[i]
        else:
            continue
        # Amplitudes accumulate on the lowest selected pair, which is read and
        # dropped; its phase spreads back onto the other selected pairs.
        t ^= amp[i]
        if i0 < 0:
            i0 = i
        else:
            phase[i] ^= phase[i0]
    del phase[i0], amp[i0]
    return t


def _round_masks(s_list: list[list[int]], n: int) -> tuple[list[int], list[int]]:
    """Int masks over the 2n input flat bits of the r revealed and 2m final flat
    bits: the round map is linear, so it runs once on masks (bit j = input bit j)."""
    phase = [1 << (2 * i) for i in range(n)]
    amp = [2 << (2 * i) for i in range(n)]
    t_masks = [_apply_round(s, phase, amp) for s in s_list]
    return t_masks, [mask for pair in zip(phase, amp) for mask in pair]


@dataclass(frozen=True)
class YieldPlan:
    """Round count and typicality window for a hashing run of n pairs."""

    n: int
    epsilon: float
    r: int
    m: int
    h: float
    delta: float
    rate_guarantee: float


def plan_yield(
    src: SourceDist, n: int, epsilon: float | None = None, r: int | None = None
) -> YieldPlan:
    """Default schedule: r = floor(n(1+h)/2) rounds, epsilon = (1-h)/4.

    Keeps m = n - r >= n(1-h)/2 output pairs, so the guaranteed rate m/n is
    at least half the entropy defect.  Sources with h >= 1 are rejected.
    """
    n = int(n)
    if n < 4:
        raise DimensionMismatchError(f"need n >= 4 pairs, got {n}")
    h = src.h
    if h >= 1.0:
        raise EntropyTooHighError(
            f"source entropy {h} >= 1 bit: the yield formulas give nothing"
        )
    epsilon = _window((1.0 - h) / 4.0 if epsilon is None else epsilon)
    if r is None:
        r = math.floor(n * (1.0 + h) / 2.0)
    r = int(r)
    if not 1 <= r <= n - 1:
        raise DimensionMismatchError(f"round count r={r} outside [1, {n - 1}]")
    m = n - r
    return YieldPlan(
        n=n,
        epsilon=epsilon,
        r=r,
        m=m,
        h=h,
        delta=(1.0 - h) / 2.0 - epsilon,
        rate_guarantee=m / n,
    )


def _window(epsilon) -> float:
    """The typicality window half-width as a float; it must be finite and positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidDistributionError(f"epsilon must be finite and positive, got {epsilon}")
    return epsilon


def is_typical(x, src: SourceDist, epsilon: float) -> bool:
    """Closed typicality window on the empirical mean surprisal.

    A string containing a zero-probability symbol is never typical.
    """
    epsilon = _window(epsilon)
    entries = x.entries if isinstance(x, BellIndexVector) else tuple(int(v) for v in x)
    n = len(entries)
    if n == 0:
        raise DimensionMismatchError("typicality needs at least one symbol")
    surprisal = src.surprisals()
    total = 0.0
    for v in entries:
        s = surprisal[v]
        if math.isinf(s):
            return False
        total += s
    return abs(total / n - src.h) <= epsilon


class _TypicalSet(tuple):
    """(symbols, bits, visits) with ``tables``: ``tables[g, v]`` packs, 64 to a word, the
    XOR over each candidate's flat bits 4g + b for the bits b set in v."""

    tables: np.ndarray


def _subset_tables(walk: np.ndarray) -> np.ndarray:
    """``_TypicalSet.tables`` of the columns of ``walk`` (n x C symbols), by doublings."""
    n, count = walk.shape
    rows = np.zeros((4 * ((n + 1) // 2), count + -count % 64), dtype=np.uint8)
    rows[0 : 2 * n : 2, :count] = walk >> 1
    rows[1 : 2 * n : 2, :count] = walk & 1
    words = np.packbits(rows, axis=1, bitorder="little").view(np.uint64)
    tables = np.zeros((len(rows) // 4, 1, words.shape[1]), dtype=np.uint64)
    for b in range(4):
        tables = np.concatenate((tables, tables ^ words[b::4, None]), axis=1)
    return tables


# Recent enumerations only: a sweep over many sources would otherwise keep
# every one for the life of the process (~240 KB each at n = 24).  A key holds
# its typical set, or the largest budget that it exceeded.
_TYPICAL_CACHE_SIZE = 4
_TYPICAL_CACHE: OrderedDict[tuple, _TypicalSet | int] = OrderedDict()


def _remember(key, entry) -> None:
    _TYPICAL_CACHE[key] = entry  # a key already held was moved to the end on lookup
    if len(_TYPICAL_CACHE) > _TYPICAL_CACHE_SIZE:
        _TYPICAL_CACHE.popitem(last=False)


def _over_budget(budget: int) -> DecoderBudgetError:
    message = f"typical-set enumeration exceeded {budget} visits"
    return DecoderBudgetError(message, visits=budget + 1)


def enumerate_typical(
    src: SourceDist, n: int, epsilon: float, budget: int = DEFAULT_DECODER_BUDGET
) -> tuple[np.ndarray, np.ndarray, int]:
    """All typical index strings of length n, by pruned level-wise search.

    Returns (symbols, bits, visits): a (C, n) symbol matrix in lexicographic
    order, its (C, 2n) bit flattening, and the number of search-tree nodes
    visited.  The tree is expanded one depth at a time, children in symbol
    order; memory stays O(visits) whatever n is.  Exceeding the visit budget
    raises.  The visits do not depend on the budget, so a search exceeds
    every budget below its visits and none above; recent outcomes, sets and
    exceeded budgets alike, are cached per (source, n, epsilon).
    """
    n = int(n)
    if n < 1 or budget < 0:
        raise DimensionMismatchError(f"need n >= 1 and budget >= 0, got n={n}, budget={budget}")
    epsilon = _window(epsilon)
    key = (src.p, n, epsilon)
    cached = _TYPICAL_CACHE.get(key)
    if cached is not None:
        _TYPICAL_CACHE.move_to_end(key)
        if isinstance(cached, _TypicalSet) and cached[2] <= budget:
            return cached
        if isinstance(cached, _TypicalSet) or budget <= cached:
            raise _over_budget(budget)

    # Every node has four child slots, one per symbol; a zero-weight symbol's
    # slot has an infinite total, so it is never alive and never visited.
    steps = np.array(src.surprisals())
    finite = steps[np.isfinite(steps)]
    min_s, max_s = float(finite.min()), float(finite.max())
    lo = n * (src.h - epsilon)
    hi = n * (src.h + epsilon)
    totals = np.zeros(1)  # surprisal sums of the current level, left to right
    expanded: list[np.ndarray] = []  # per depth: the nodes whose children form the next level
    visits = 1
    for depth in range(n + 1):
        if visits > budget:
            _remember(key, budget)
            raise _over_budget(budget)
        remaining = n - depth
        # Prune nodes that cannot land inside the window (small slack so
        # roundoff never drops a boundary string; leaves recheck exactly).
        alive = totals + remaining * max_s >= lo - 1e-9
        alive &= totals + remaining * min_s <= hi + 1e-9
        if depth == n:
            break
        expanded.append(alive.nonzero()[0])
        visits += expanded[-1].size * finite.size
        if visits <= budget:  # never allocate a level the budget does not cover
            totals = (totals[expanded[-1], None] + steps).reshape(-1)

    # Slot j of a level descends from node j >> 2 of the level above through
    # symbol j & 3; walk the leaves back to the root.
    node = np.flatnonzero(alive & (np.abs(totals / n - src.h) <= epsilon))
    walk = np.empty((n, node.size), dtype=np.uint8)
    for depth in range(n - 1, -1, -1):
        walk[depth] = node & 3
        node = expanded[depth][node >> 2]
    syms = np.ascontiguousarray(walk.T)
    result = _TypicalSet((syms, _flat_bits(syms), visits))
    result.tables = _subset_tables(walk)
    _remember(key, result)
    return result


@dataclass(frozen=True)
class HashingTrialResult:
    """Outcome of one simulated hashing run."""

    sampled: tuple[int, ...]
    parity_bits: tuple[int, ...]
    true_final: BellIndexVector
    decoded_final: BellIndexVector
    success: bool
    typical: bool
    parities_matched: int
    candidates_visited: int
    budget_exceeded: bool


# The trials of one call run as stacked calls over chunks of at most this many,
# so memory is bounded by the chunk whatever the trial count.
_TRIAL_CHUNK = 32


def _round_strings(rng: np.random.Generator, n: int, r: int) -> list[list[int]]:
    """The 0/1 parity strings of r rounds on n pairs, all-zero ones redrawn, with the
    bits (and final generator state) of one ``rng.integers(0, 2, size=L, dtype=np.uint8)``
    call each: that call never rejects and takes bit 7 of each byte, low byte first, of
    ceil(L/4) fresh 32-bit words, so one uint32 draw holds every string in its own chunk."""
    chunks = [(n - k + 1) // 2 for k in range(r)]
    bits, strings, at = [], [], 0
    for k, chunk in enumerate(chunks):
        while len(strings) == k:
            if at + 4 * chunk > len(bits):  # first, and after a redraw: what is left to draw
                size = sum(chunks[k:]) - (len(bits) - at) // 4
                words = rng.integers(0, 2**32, size=size, dtype=np.uint32).astype("<u4", copy=False)
                bits += (words.view(np.uint8) >> 7).tolist()
            s = bits[at : at + 2 * (n - k)]
            at += 4 * chunk
            if any(s):
                strings.append(s)
    return strings


def _choice_cdf(p) -> np.ndarray:
    """The cdf that ``Generator.choice`` forms from the weights ``p``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_symbols(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``rng.choice(len(cdf), size=n, p=p)`` for the weights p of ``cdf = _choice_cdf(p)``:
    choice draws n doubles and looks each up in that cdf, so this gives the same symbols
    and generator state without choice's per-call checks of p."""
    return cdf.searchsorted(rng.random(n), side="right")


def _predicted(tables: np.ndarray, masks: list[int]) -> np.ndarray:
    """Packed parity rows: bit c of row k is masks[k] . candidate c, by nibble lookups.

    One gather per group of four flat bits, XORed into the rows, so the work
    holds one row per mask at a time."""
    groups = len(tables)
    raw = np.frombuffer(b"".join(v.to_bytes(groups, "little") for v in masks), np.uint8)
    nibbles = np.stack((raw & 15, raw >> 4), axis=-1).reshape(len(masks), -1)[:, :groups]
    index = nibbles + 16 * np.arange(groups)
    lookup = tables.reshape(16 * groups, -1)
    rows = lookup[index[:, 0]]
    for g in range(1, groups):
        rows ^= lookup[index[:, g]]
    return rows


def _matching(
    tables: np.ndarray, count: int, t_masks: list[list[int]], parity_bits: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """(trial, candidate) index pairs, in order, of the candidates whose parities under
    each trial's round masks are its revealed bits; one list of each per trial."""
    flips = -np.array(parity_bits, dtype=np.uint64)[..., None]  # all ones where a bit is 1
    predicted = _predicted(tables, [mask for masks in t_masks for mask in masks])
    predicted = predicted.reshape(flips.shape[:2] + (-1,))
    predicted ^= flips
    mismatch = np.bitwise_or.reduce(predicted, axis=1).view(np.uint8)
    return np.nonzero(np.unpackbits(mismatch, axis=1, count=count, bitorder="little") == 0)


def _flat_ints(symbols: np.ndarray) -> list[int]:
    """Each row of a symbol matrix as an int whose bit j is flat bit j of the row."""
    packed = np.packbits(_flat_bits(symbols), axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _parities(masks: list[int], x: int) -> list[int]:
    """GF(2) products of each mask with the flat bit string held in the int ``x``."""
    return [(mask & x).bit_count() & 1 for mask in masks]


def _run_trials(
    src: SourceDist, plan: YieldPlan, seeds: list, budget: int = DEFAULT_DECODER_BUDGET
) -> list[HashingTrialResult]:
    """One ``run_hashing_trial`` per seed, in order, as stacked calls over chunks of
    at most ``_TRIAL_CHUNK`` trials.

    Each trial draws from its own ``default_rng(seed)`` in one order, the
    symbols and then the round strings, and runs the round map on its own
    masks; the parity match against the typical set's tables, the final
    readout of the survivors and the success test run once per chunk, so no
    outcome depends on the chunking.
    """
    if abs(plan.h - src.h) > 1e-12:
        raise DimensionMismatchError(
            f"plan entropy {plan.h} does not match source entropy {src.h}"
        )
    n, r = plan.n, plan.r
    typical_set = None
    try:
        typical_set = enumerate_typical(src, n, plan.epsilon, budget=budget)
    except DecoderBudgetError as exc:
        visits = exc.visits
    else:
        visits = typical_set[2]
    cdf = _choice_cdf(src.p)
    # Nothing matched (or nothing was typical): decode an arbitrary sequence,
    # which only counts as success by coincidence.
    best = max(range(4), key=lambda k: (src.p[k], -k))
    fallback = _flat_ints(np.full((1, n), best))[0]

    results = []
    for start in range(0, len(seeds), _TRIAL_CHUNK):
        chunk = seeds[start : start + _TRIAL_CHUNK]
        symbols = np.empty((len(chunk), n), dtype=np.intp)
        rounds = []
        for row, seed in zip(symbols, chunk):
            rng = np.random.default_rng(seed)
            row[:] = _draw_symbols(rng, cdf, n)
            rounds.append(_round_masks(_round_strings(rng, n, r), n))
        revealed, finals = [], []
        for (t_masks, f_masks), x in zip(rounds, _flat_ints(symbols)):
            revealed.append(_parities(t_masks, x))
            finals.append(_parities(f_masks, x))

        trial = candidate = np.empty(0, dtype=np.intp)
        if typical_set is not None:
            trial, candidate = _matching(
                typical_set.tables, len(typical_set[0]), [t for t, _ in rounds], revealed
            )
        matched = np.bincount(trial, minlength=len(chunk))
        first = np.searchsorted(trial, np.arange(len(chunk)))
        if trial.size:
            # each survivor's final bits, read off the packed rows of its trial's masks
            f_rows = _predicted(typical_set.tables, [m for _, f in rounds for m in f])
            f_rows = f_rows.reshape(len(chunk), -1, f_rows.shape[-1])
            words = f_rows[trial, :, candidate >> 6]
            survivor_finals = (words >> (candidate & 63).astype(np.uint64)[:, None]) & 1
            wrong = (survivor_finals != np.array(finals)[trial]).any(axis=1)
            misdecoded = np.bincount(trial[wrong], minlength=len(chunk))

        for k in range(len(chunk)):
            sampled = tuple(symbols[k].tolist())
            if matched[k]:
                decoded_final = survivor_finals[first[k]]
                success = not misdecoded[k]
            else:
                decoded_final = _parities(rounds[k][1], fallback)
                success = decoded_final == finals[k] and typical_set is not None
            results.append(
                HashingTrialResult(
                    sampled=sampled,
                    parity_bits=tuple(revealed[k]),
                    true_final=BellIndexVector.from_bits(finals[k]),
                    decoded_final=BellIndexVector.from_bits(decoded_final),
                    success=success,
                    typical=is_typical(sampled, src, plan.epsilon),
                    parities_matched=int(matched[k]),
                    candidates_visited=visits,
                    budget_exceeded=typical_set is None,
                )
            )
    return results


def run_hashing_trial(
    src: SourceDist,
    plan: YieldPlan,
    seed,
    budget: int = DEFAULT_DECODER_BUDGET,
) -> HashingTrialResult:
    """Sample one index string, run the measurement rounds, decode, compare.

    ``seed`` feeds a fresh generator; derive per-trial seeds as
    (master_seed, trial_index) sequences so partitioning trials across
    workers cannot change any individual outcome.
    """
    return _run_trials(src, plan, [seed], budget)[0]


@dataclass(frozen=True)
class FailureBound:
    """Decoding failure bound: typicality miss plus the parity collision term."""

    total: float
    collision_term: float
    q_estimate: float


def failure_bound(src: SourceDist, plan: YieldPlan, q_estimate: float) -> FailureBound:
    """q + 2^(n h + n epsilon - r): miss the window, or collide on all parities."""
    q = float(q_estimate)
    if not 0.0 <= q <= 1.0:
        raise InvalidDistributionError(f"q estimate {q} outside [0, 1]")
    collision = 2.0 ** (plan.n * (plan.h + plan.epsilon) - plan.r)
    return FailureBound(total=q + collision, collision_term=collision, q_estimate=q)


@dataclass(frozen=True)
class MissEstimate:
    """Monte Carlo estimate of the typicality miss probability with Wilson CI."""

    q_hat: float
    lower: float
    upper: float
    trials: int


_WILSON_Z = 1.959963984540054  # two-sided 95%


def typicality_miss_estimate(
    src: SourceDist, n: int, epsilon: float, trials: int, seed: int = 0
) -> MissEstimate:
    """Sample strings from the source and count those outside the window."""
    trials, n = int(trials), int(n)
    if trials < 1 or n < 1:
        raise DimensionMismatchError(f"need n >= 1 and a trial, got n={n}, trials={trials}")
    epsilon = _window(epsilon)
    rng = np.random.default_rng(seed)
    surprisal = np.array(src.surprisals())
    draws = rng.choice(4, size=(trials, n), p=np.asarray(src.p))
    means = surprisal[draws].sum(axis=1) / float(n)
    misses = int((np.abs(means - src.h) > epsilon).sum())
    return _wilson_estimate(misses, trials)


def _wilson_estimate(misses: int, trials: int) -> MissEstimate:
    """Miss rate misses / trials with its two-sided 95% Wilson interval."""
    q_hat = misses / trials
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / trials
    center = (q_hat + z2 / (2 * trials)) / denom
    # ** 0.5 rather than math.sqrt: the two differ in the last bit for some
    # counts, and the CLI summary that prints this bound is byte-stable.
    radius = _WILSON_Z * ((q_hat * (1 - q_hat) / trials + z2 / (4 * trials**2)) ** 0.5) / denom
    return MissEstimate(
        q_hat=q_hat,
        lower=max(0.0, center - radius),
        upper=min(1.0, center + radius),
        trials=trials,
    )


def net_rate(copies_per_pair: int, entropy: float) -> float:
    """Guaranteed rate (1 - h) / (2 N) when each input pair costs N raw copies."""
    n = int(copies_per_pair)
    if n < 1:
        raise DimensionMismatchError(f"copies per pair must be >= 1, got {n}")
    h = float(entropy)
    if not (math.isfinite(h) and h >= 0.0):
        raise InvalidDistributionError(f"entropy must be finite and non-negative, got {h}")
    if h >= 1.0:
        raise EntropyTooHighError(f"entropy {h} >= 1 bit gives rate zero")
    return (1.0 - h) / (2.0 * n)
