"""Classical Monte Carlo for hashing-style distillation of Bell-diagonal states.

A Bell-diagonal n-copy state is represented by its index vector: one symbol
from {0, 1, 2, 3} per pair, in the fixed Bell label order.  Symbols are
encoded as bit pairs (high bit first, so pair i occupies flat bits 2i and
2i+1); the low bit of a pair is the one read out by a measurement round, and
we call it the amplitude bit.  Each round consumes one pair and reveals one
parity of the surviving description, exactly the linear-algebra shadow of the
bilateral-CNOT measurement network.

A trial draws its n symbols and then its r parity strings from its own
generator.  The round map is GF(2)-linear, so it runs once on masks, each
pair's bits held as the set of input flat bits they are the XOR of; the
revealed and final bits of the truth, every candidate and the fallback are
products with the masks.

Decoding keeps the strings in the closed typicality window
|-(1/n) sum_j log2 P(x_j) - H| <= epsilon that a search tree pruned by
log-probability reaches, then keeps candidates whose parities match every
revealed bit: for each four flat bits the typical set stores the XORs of
their 16 subsets, 64 candidates to a word, so one lookup per nibble of a
mask gives its parities.  A trial succeeds when every surviving candidate
agrees with the truth about the final (unmeasured) pairs; when nothing
survives, an arbitrary fallback sequence is decoded and almost always counts
as failure.

The typical set is built by type classes (the method of types): whether a
node of the tree is alive depends only on its depth and its counts of the
symbols other than the most likely one, so the visits are a sum of
binomials times multinomials, known before any string is built, and the
strings are built class by class and sorted, in memory O(C n) for C
strings.  Each test the tree makes is checked against a bound on the
rounding of its sum; a key with a class within that bound of a test's edge
runs the level-by-level tree search itself.

The trials of one call run as stacked numpy calls over chunks of a fixed
number of trials, so memory is bounded by the chunk whatever the trial count.
One reader reads each trial's draws from its generator's raw words, and both
round maps run on its output.  When 2n <= 64 a mask is one uint64 word, and
the trials of a chunk share one lock-step round map on (trials, pairs)
arrays, a few whole-array calls a round.  Wider masks, and a chunk of one
trial, run the scalar round map ``_apply_round`` per trial on Python ints,
as ``round_update`` does: a multi-word lock-step, which touches every word of
every pair each round, ran about four times slower than this int loop on 2
trials at n = 2000, and the lock-step's setup costs more than one trial.
Both feed one readout: the parity match on the revealed masks, the true and
surviving final bits, typicality and the success test run once per chunk, as
arrays.  No outcome depends on the chunking.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

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


def _bit_string(s) -> np.ndarray:
    """``s`` flattened to a uint8 array; any entry other than 0 or 1 is a ValueError."""
    bits = np.asarray(s).reshape(-1)
    wrong = set(bits.tolist()) - {0, 1}  # a set: several times cheaper than ufuncs on short strings
    if wrong:
        raise ValueError(f"bit strings hold only 0 and 1, got {wrong.pop()}")
    return bits.astype(np.uint8)


def parity(s, x) -> int:
    """GF(2) inner product of two equal-length bit strings."""
    sa, xa = _bit_string(s), _bit_string(x)
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
    sa = _bit_string(s)
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
    entries = (x if isinstance(x, BellIndexVector) else BellIndexVector(x)).entries
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


class _Candidates(NamedTuple):
    """A cached typical set: its (C, n) symbol matrix, the search-tree nodes visited, and
    ``tables[g, v]``, which packs, 64 to a word, the XOR over each candidate's flat bits
    4g + b for the bits b set in v."""

    symbols: np.ndarray
    visits: int
    tables: np.ndarray


def _subset_tables(walk: np.ndarray) -> np.ndarray:
    """``_Candidates.tables`` of the columns of ``walk`` (n x C symbols), by doublings."""
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
# every one for the life of the process (~120 KB each at n = 24).  A key holds
# its typical set, or the largest budget that it exceeded.
_TYPICAL_CACHE_SIZE = 4
_TYPICAL_CACHE: OrderedDict[tuple, _Candidates | int] = OrderedDict()


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
    """All typical index strings of length n that a pruned search tree reaches.

    Returns (symbols, bits, visits): a (C, n) symbol matrix in lexicographic
    order, its (C, 2n) bit flattening, and the number of nodes of the search
    tree, expanded depth by depth with children in symbol order.  The visits
    are counted by type classes before any string is built, and the strings
    are built class by class, in memory O(C n) whatever n is; a key with a
    class within rounding of a test's edge runs the tree search itself.
    Exceeding the visit budget raises.  The visits do not depend on the
    budget, so a search exceeds every budget below its visits and none
    above; recent outcomes, sets and exceeded budgets alike, are cached per
    (source, n, epsilon).
    """
    found = _typical_set(src, n, epsilon, budget)
    return found.symbols, _flat_bits(found.symbols), found.visits


def _typical_set(src: SourceDist, n: int, epsilon: float, budget: int) -> _Candidates:
    """``enumerate_typical`` without the bit flattening, which only its callers read."""
    n = int(n)
    if n < 1 or budget < 0:
        raise DimensionMismatchError(f"need n >= 1 and budget >= 0, got n={n}, budget={budget}")
    epsilon = _window(epsilon)
    key = (src.p, n, epsilon)
    cached = _TYPICAL_CACHE.get(key)
    if cached is not None:
        _TYPICAL_CACHE.move_to_end(key)
        if isinstance(cached, _Candidates) and cached.visits <= budget:
            return cached
        if isinstance(cached, _Candidates) or budget <= cached:
            raise _over_budget(budget)

    steps = src.surprisals()
    found = _by_types(steps, src.h, n, epsilon, budget)
    if found is None:  # some class lies within rounding of a test's edge
        found = _level_search(steps, src.h, n, epsilon, budget)
    visits, walk = found
    if walk is None:
        _remember(key, budget)
        raise _over_budget(budget)
    result = _Candidates(np.ascontiguousarray(walk.T), visits, _subset_tables(walk))
    _remember(key, result)
    return result


def _level_search(
    steps: tuple, h: float, n: int, epsilon: float, budget: int
) -> tuple[int, np.ndarray | None]:
    """The typical set's visits and its (n, C) symbols, column by column in
    lexicographic order, by pruned level-wise search; no symbols when the
    visits pass ``budget``, only visits that do."""
    # Every node has four child slots, one per symbol; a zero-weight symbol's
    # slot has an infinite total, so it is never alive and never visited.
    steps = np.array(steps)
    finite = steps[np.isfinite(steps)]
    min_s, max_s = float(finite.min()), float(finite.max())
    lo = n * (h - epsilon)
    hi = n * (h + epsilon)
    totals = np.zeros(1)  # surprisal sums of the current level, left to right
    expanded: list[np.ndarray] = []  # per depth: the nodes whose children form the next level
    visits = 1
    for depth in range(n + 1):
        if visits > budget:
            return visits, None
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
    node = np.flatnonzero(alive & (np.abs(totals / n - h) <= epsilon))
    walk = np.empty((n, node.size), dtype=np.uint8)
    for depth in range(n - 1, -1, -1):
        np.bitwise_and(node, 3, out=walk[depth], casting="unsafe")
        node = expanded[depth].take(node >> 2)
    return visits, walk


def _by_types(
    steps: tuple, h: float, n: int, epsilon: float, budget: int
) -> tuple[int, np.ndarray | None] | None:
    """``_level_search`` by type classes, or None when a class lies within
    rounding of the edge of a test that the search makes.

    Call the most likely symbol the background.  A node of the search is a
    prefix, and whether it is alive depends, up to rounding, only on its
    depth d and the counts of its j other symbols: the least total of its
    completions does not depend on d, and the greatest falls as d grows, so
    the prefixes of a type are alive at exactly the depths j..top.  A type
    of M arrangements thus has M * C(d, j) alive nodes at depth d, and
    M * C(min(top, n - 1) + 1, j + 1) expanded ones in all.  Both tests are
    monotone in the counts, so a type is alive only if every type under it
    is, and the loop over j stops at the first level with no alive type.
    The search sums its totals along each path, so each value below is
    checked against a bound on the rounding of both its sum and this one.
    """
    finite = [k for k in range(4) if math.isfinite(steps[k])]
    min_s = min(steps[k] for k in finite)
    max_s = max(steps[k] for k in finite)
    background = min(finite, key=lambda k: steps[k])
    others = [k for k in finite if k != background]
    low = n * (h - epsilon) - 1e-9
    high = n * (h + epsilon) + 1e-9
    slack = (n + 8) * 2.0**-52 * max_s  # rounding of a mean; n times that of a total
    weights = [steps[k] for k in others]
    visits, levels, types = 1, [], [(0,) * len(others)]
    for j in range(n + 1):
        alive, typical = [], []
        for counts in types:
            fixed = sum(c * s for c, s in zip(counts, weights)) - j * min_s
            least = fixed + n * min_s  # the least total of a completion
            if abs(least - high) <= n * slack:
                return None
            if least > high:
                continue
            # the greatest total of a completion at depth d is fixed + d min_s + (n - d) max_s
            if max_s == min_s:
                top = n if fixed + n * max_s >= low else j - 1
            else:
                top = math.floor((fixed + n * max_s - low) / (max_s - min_s))
                top = max(j - 1, min(n, top))
            for d in (top, top + 1):
                most = fixed + d * min_s + (n - d) * max_s
                if j <= d <= n and (abs(most - low) <= n * slack or (most >= low) != (d == top)):
                    return None
            if top < j:
                continue
            alive.append(counts)
            arrangements = math.factorial(j) // math.prod(map(math.factorial, counts))
            visits += len(finite) * arrangements * math.comb(min(top, n - 1) + 1, j + 1)
            miss = abs(least / n - h)
            if top == n and abs(miss - epsilon) <= slack:
                return None
            typical.append(top == n and miss <= epsilon)
        if not alive:
            break
        levels.append((alive, typical))
        if visits > budget:
            return visits, None
        # the tree tests only the children of alive nodes
        types = list(dict.fromkeys(child for counts in alive for child in _children(counts)))
    return visits, _class_strings(levels, n, background, others)


def _children(counts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The types one symbol longer than ``counts``, one per symbol counted."""
    return [counts[:i] + (c + 1,) + counts[i + 1 :] for i, c in enumerate(counts)]


def _class_strings(levels: list, n: int, background: int, others: list[int]) -> np.ndarray:
    """The (n, C) symbols of the typical types, column by column in lexicographic order.

    ``levels[j]`` lists the alive types with j symbols other than the
    background, as counts of ``others``, and flags the typical ones.  The
    arrangements of those j symbols grow by one symbol a level, keeping
    those of alive types (a prefix of an arrangement of an alive type is one
    of an alive type), and each typical one is placed on every j-subset of
    the n positions.  A string is a key of 2-bit digits, symbol 0 most
    significant, in ``words`` uint64s, so sorting the keys sorts the strings.
    """
    words = -(-n // 32)
    # Symbol i is shifted by place[i, w] into word w: into its own word i // 32,
    # and by 64, which numpy's shifts turn into 0, into every other word.
    place = np.full((n, words), 64, dtype=np.uint64)
    place[np.arange(n), np.arange(n) // 32] = 62 - 2 * (np.arange(n) % 32)
    blank = np.bitwise_or.reduce(np.uint64(background) << place)
    arranged = [((), 0)]  # (symbols XOR background, index of the type in its level)
    keys = [np.empty((0, words), dtype=np.uint64)]
    for j, (alive, typical) in enumerate(levels):
        if j:
            index = {counts: k for k, counts in enumerate(alive)}
            parents, grown = levels[j - 1][0], []
            for prefix, k in arranged:
                for symbol, child in zip(others, _children(parents[k])):
                    if child in index:
                        grown.append((prefix + (symbol ^ background,), index[child]))
            arranged = grown
        chosen = [prefix for prefix, k in arranged if typical[k]]
        if not chosen:
            continue
        chosen = np.array(chosen, dtype=np.uint64).reshape(len(chosen), j)
        size = math.comb(n, j)
        at = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), j)),
            dtype=np.intp,
            count=size * j,
        ).reshape(size, j)
        part = blank
        for i, column in zip(at.T, chosen.T):
            part = part ^ (column[:, None] << place[i, None])
        keys.append(np.broadcast_to(part, (size, len(chosen), words)).reshape(-1, words))
    keys = np.concatenate(keys)
    keys = np.sort(keys, axis=0) if words == 1 else keys[np.lexsort(keys.T[::-1])]
    # four symbols a byte, most significant first
    packed = np.ascontiguousarray(keys.astype(">u8").view(np.uint8).T)[:, None]
    packed = packed >> np.arange(6, -1, -2, dtype=np.uint8)[:, None]
    return (packed & 3).reshape(32 * words, len(keys))[:n]


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


class _Trials(NamedTuple):
    """The trials of one chunk in the fields of ``HashingTrialResult``, row k for trial
    k: symbols (T, n), revealed bits (T, r), true and decoded final flat bits (T, 2m),
    flags and match counts (T,); the visits and the budget verdict are the call's."""

    sampled: np.ndarray
    parity_bits: np.ndarray
    true_final: np.ndarray
    decoded_final: np.ndarray
    success: np.ndarray
    typical: np.ndarray
    parities_matched: np.ndarray
    candidates_visited: int
    budget_exceeded: bool


def _choice_cdf(p) -> np.ndarray:
    """The cdf that ``Generator.choice`` forms from the weights ``p``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_symbols(rng: np.random.Generator, cdf: np.ndarray, shape) -> np.ndarray:
    """``rng.choice(len(cdf), size=shape, p=p)`` for the weights p of ``cdf = _choice_cdf(p)``:
    choice draws one double per symbol and looks each up in that cdf, so this gives the
    same symbols and generator state without choice's per-call checks of p."""
    return cdf.searchsorted(rng.random(shape), side="right")


@functools.lru_cache(maxsize=4)
def _string_layout(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For r round strings on n pairs: the 32-bit words an attempt at each takes, its
    uint16 index (r, 1) in a trial's raw words when none is redrawn, and the offset
    (r, 1, n) of each pair from there.  Past round k's n - k pairs the offset is the
    int32 maximum, beyond any chunk's draws, which the clipped gather reads as the
    zero word at their end; int32 halves what the cache holds."""
    chunks = np.array([(n - k + 1) // 2 for k in range(r)])
    starts = 4 * n + 2 * (np.cumsum(chunks) - chunks)
    pairs = np.arange(n, dtype=np.int32)
    pairs = np.where(pairs < n - np.arange(r)[:, None], pairs, np.iinfo(np.int32).max)
    layout = chunks, starts[:, None], pairs[:, None]
    for shared in layout:  # every caller of the cache gets these arrays
        shared.flags.writeable = False
    return layout


def _read_trials(seeds: list, cdf: np.ndarray, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Symbols (T, n) and round strings (r, T, 2n), zero past round k's 2(n - k) bits,
    of a chunk's trials, read from the raw words of each trial's ``PCG64(seed)``.

    They are what ``default_rng(seed)`` draws with ``choice`` and then one
    ``integers(0, 2, size=2(n - k), dtype=np.uint8)`` call per attempt at
    round k until the string is not all zero.  A double is the top 53 bits
    of one raw word, so the symbols take the first n.  That call takes bit 7
    of each byte, low byte first, of ceil((n - k) / 2) uint32 words: the low
    and then the high half of the raw words that follow, the spare half kept
    between calls.  So an attempt reads the next words of that stream, and an
    all-zero string retries on the words after it.
    """
    chunks, starts, pairs = _string_layout(n, r)
    raw = np.zeros((len(seeds), 1), dtype="<u8")
    while True:
        width = -(-(starts[-1].max() + 2 * chunks[-1]) // 4)  # the raw words to read
        if width >= raw.shape[1]:  # draw them (again, after a redraw), and a zero word
            raw = np.zeros((len(seeds), width + 1), dtype="<u8")
            for row, seed in zip(raw, seeds):
                row[:width] = np.random.PCG64(seed).random_raw(width)
        at = starts + 4 * raw.shape[1] * np.arange(len(seeds))  # (r, T) in raw's uint16s
        strings = raw.view("<u2").take(at[..., None] + pairs, mode="clip").view(np.uint8) >> 7
        live = strings.any(axis=2)
        if live.all():
            break
        # each trial's first all-zero string retries on the words after it
        first = live.argmin(axis=0)
        later = (np.arange(r)[:, None] >= first) & ~live.all(axis=0)
        starts = starts + 2 * chunks[first] * later
    symbols = cdf.searchsorted((raw[:, :n] >> 11) * 2.0**-53, side="right")
    return symbols, strings


def _lockstep_masks(strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_round_masks`` of T trials at once: (T, r) revealed and (T, 2m) final masks.

    ``strings`` (r, T, 2n) holds each round string, zero past the round's
    2(n - k) bits; none is all zero.  The phase and amplitude masks of a
    trial's pairs are rows of a (2, T, n) array, whose entries past the live
    pairs are never selected.  One gather a round drops the pair that the
    last round read and swaps the planes of the pairs whose phase bit this
    round selects; the rest of the round is a few calls with all-ones
    selection words.
    """
    hi, lo = strings[..., 0::2], strings[..., 1::2]  # the bits of each pair
    r, trials, n = hi.shape
    selected = hi | lo
    fold = np.negative(hi & lo, dtype=np.uint64)  # XOR selected: fold phase onto amplitude
    on = np.negative(selected, dtype=np.uint64)
    first = selected.argmax(axis=2)  # (r, T): the lowest selected pair, read and dropped
    # Round k (and k = r, the final drop) gathers entry i of plane c from entry
    # i of plane c ^ swap in the previous round, or i + 1 past the read pair.
    pairs = np.arange(n)
    skipped = np.concatenate((np.full((1, trials), n), first))[..., None]
    flat = np.arange(0, trials * n, n)[:, None] + pairs + (pairs >= skipped)
    swap = np.zeros((r + 1, 1, trials, n), dtype=np.intp)
    swap[:r, 0] = hi > lo  # the phase bit is selected: rotate it into the amplitude slot
    gather = flat[:, None] + (np.arange(2)[:, None, None] ^ swap) * (trials * n)
    read = (first + np.arange(0, trials * n, n))[..., None]  # (r, T, 1) in plane 0
    state = np.empty((2, trials, n), dtype=np.uint64)
    state[0] = np.left_shift(1, np.arange(0, 2 * n, 2, dtype=np.uint64))
    state[1] = state[0] << 1
    revealed = np.empty((r, trials, n), dtype=np.uint64)  # the selected amplitudes
    for g, f, o, i, t in zip(gather, fold, on, read, revealed):
        state = state.take(g, mode="clip")  # an entry past the live pairs reads anything
        phase, amp = state
        amp ^= phase & f
        np.bitwise_and(amp, o, out=t)
        phase ^= phase.take(i) & o
    state = state.take(gather[r, :, :, : n - r])
    t_masks = np.bitwise_xor.reduce(revealed, axis=2).T
    return t_masks, state.transpose(1, 2, 0).reshape(trials, -1)


def _int_loop_chunk(
    seeds: list, cdf: np.ndarray, n: int, r: int, words: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_lockstep_masks`` for masks of any width, and the symbols: each trial read alone
    runs ``_apply_round`` on Python-int masks, written out as ``words`` uint64s each."""
    symbols = np.empty((len(seeds), n), dtype=np.intp)
    t_masks = np.empty((len(seeds), r, words), dtype="<u8")
    f_masks = np.empty((len(seeds), 2 * (n - r), words), dtype="<u8")
    for row, seed in enumerate(seeds):
        symbols[row : row + 1], strings = _read_trials([seed], cdf, n, r)
        for out, masks in zip((t_masks, f_masks), _round_masks(strings[:, 0].tolist(), n)):
            out[row] = _mask_words(masks, words)
    return symbols, t_masks, f_masks


def _mask_words(masks: list[int], words: int) -> np.ndarray:
    """Int masks as rows of ``words`` little-endian uint64s, bit j at bit j % 64 of
    word j // 64."""
    raw = b"".join(v.to_bytes(8 * words, "little") for v in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words)


def _flat_words(symbols: np.ndarray, words: int) -> np.ndarray:
    """The flat bits of each row of a symbol array as ``words`` little-endian uint64s."""
    packed = np.packbits(_flat_bits(symbols), axis=-1, bitorder="little")
    out = np.zeros(symbols.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def _parities(masks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """GF(2) products, as uint8, of multi-word masks (..., words) with the flat bit
    strings ``x`` in the same words, broadcast against them."""
    return np.bitwise_count(np.bitwise_xor.reduce(masks & x, axis=-1)) & 1


def _predicted(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Packed parity rows: bit c of row k is masks[k] . candidate c, by nibble lookups
    on the (K, words) uint64 masks.

    One gather per group of four flat bits, XORed into the rows, so the work
    holds one row per mask at a time."""
    groups = len(tables)
    raw = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    nibbles = np.stack((raw & 15, raw >> 4), axis=-1).reshape(len(raw), -1)[:, :groups]
    index = nibbles + 16 * np.arange(groups)
    lookup = tables.reshape(16 * groups, -1)
    rows = lookup[index[:, 0]]
    for g in range(1, groups):
        rows ^= lookup[index[:, g]]
    return rows


def _matching(
    rows: np.ndarray, count: int, parity_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(trial, candidate) index pairs, in order, of the candidates whose packed parity
    rows (T, r, words) under each trial's round masks are its revealed bits (T, r).

    Only the words holding a match are unpacked."""
    flips = -parity_bits.astype(np.uint64)[..., None]  # all ones where a bit is 1
    hits = ~np.bitwise_or.reduce(rows ^ flips, axis=1)
    if count % 64:  # the padding past the last candidate never matches
        hits[:, -1] &= np.uint64(2 ** (count % 64) - 1)
    trial, word = np.nonzero(hits)
    bits = np.unpackbits(hits[trial, word, None].view(np.uint8), axis=1, bitorder="little")
    match, bit = np.nonzero(bits)
    return trial[match], 64 * word[match] + bit


def _typical_rows(symbols: np.ndarray, src: SourceDist, epsilon: float) -> np.ndarray:
    """``is_typical`` of each row of a (T, n) symbol matrix, bit for bit: ``cumsum``
    adds a row's surprisals in sequence, as its loop does."""
    totals = np.array(src.surprisals())[symbols]
    np.cumsum(totals, axis=1, out=totals)  # in place: no second (T, n) array
    return np.abs(totals[:, -1] / symbols.shape[1] - src.h) <= epsilon


def _run_trials(
    src: SourceDist, plan: YieldPlan, seeds: Iterable, budget: int = DEFAULT_DECODER_BUDGET
) -> Iterator[_Trials]:
    """``run_hashing_trial`` for each seed, in order, as one ``_Trials`` per chunk of at
    most ``_TRIAL_CHUNK`` trials; ``seeds`` is read a chunk at a time.

    Each trial reads its symbols and then its round strings from the raw
    words of its own ``PCG64(seed)``, as ``default_rng(seed)`` would draw
    them (``_read_trials``).  One-word masks run the round map of a chunk's
    trials in lock step; wider ones, and a chunk of one trial, run it per
    trial.  The parity match, the readout of the true and surviving final
    bits, the typicality and the success test run once per chunk, so no
    outcome depends on the chunking.
    """
    if abs(plan.h - src.h) > 1e-12:
        raise DimensionMismatchError(
            f"plan entropy {plan.h} does not match source entropy {src.h}"
        )
    n, r = plan.n, plan.r
    found = None
    try:
        found = _typical_set(src, n, plan.epsilon, budget)
    except DecoderBudgetError as exc:
        visits = exc.visits
    else:
        visits = found.visits
    words = -(-2 * n // 64)
    cdf = _choice_cdf(src.p)
    # Nothing matched (or nothing was typical): decode an arbitrary sequence,
    # which only counts as success by coincidence.
    best = max(range(4), key=lambda k: (src.p[k], -k))
    fallback = _flat_words(np.full(n, best), words)

    seeds = iter(seeds)
    while chunk := list(itertools.islice(seeds, _TRIAL_CHUNK)):
        if words == 1 and len(chunk) > 1:  # one trial: the lock-step's setup costs more
            symbols, strings = _read_trials(chunk, cdf, n, r)
            t_masks, f_masks = (masks[..., None] for masks in _lockstep_masks(strings))
        else:
            symbols, t_masks, f_masks = _int_loop_chunk(chunk, cdf, n, r, words)
        x = _flat_words(symbols, words)[:, None]
        revealed, finals = _parities(t_masks, x), _parities(f_masks, x)
        decoded = _parities(f_masks, fallback)
        success = (decoded == finals).all(axis=1) & (found is not None)
        typical = _typical_rows(symbols, src, plan.epsilon)

        matched = np.zeros(len(chunk), dtype=np.intp)
        if found is not None and len(found.symbols):  # an empty set matches nothing
            rows = _predicted(found.tables, t_masks.reshape(-1, words))
            rows = rows.reshape(t_masks.shape[:2] + (-1,))
            trial, candidate = _matching(rows, len(found.symbols), revealed)
            matched = np.bincount(trial, minlength=len(chunk))
        hit = np.flatnonzero(matched)
        if hit.size:
            # each survivor's final bits under its trial's masks
            held = _flat_words(found.symbols[candidate], words)[:, None]
            survivors = _parities(f_masks[trial], held)
            wrong = (survivors != finals[trial]).any(axis=1)
            decoded[hit] = survivors[np.searchsorted(trial, hit)]
            success[hit] = np.bincount(trial[wrong], minlength=len(chunk))[hit] == 0
        yield _Trials(
            symbols, revealed, finals, decoded, success, typical, matched, visits, found is None
        )


def _result(trials: _Trials, k: int) -> HashingTrialResult:
    """Trial k of a chunk as a ``HashingTrialResult``."""
    return HashingTrialResult(
        sampled=tuple(trials.sampled[k].tolist()),
        parity_bits=tuple(trials.parity_bits[k].tolist()),
        true_final=BellIndexVector.from_bits(trials.true_final[k]),
        decoded_final=BellIndexVector.from_bits(trials.decoded_final[k]),
        success=bool(trials.success[k]),
        typical=bool(trials.typical[k]),
        parities_matched=int(trials.parities_matched[k]),
        candidates_visited=trials.candidates_visited,
        budget_exceeded=trials.budget_exceeded,
    )


def run_hashing_trial(
    src: SourceDist,
    plan: YieldPlan,
    seed,
    budget: int = DEFAULT_DECODER_BUDGET,
) -> HashingTrialResult:
    """Sample one index string, run the measurement rounds, decode, compare.

    ``seed`` seeds the ``PCG64`` that ``default_rng(seed)`` would wrap; derive
    per-trial seeds as (master_seed, trial_index) sequences so partitioning
    trials across workers cannot change any individual outcome.
    """
    return _result(next(_run_trials(src, plan, [seed], budget)), 0)


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
_MISS_BLOCK = 4096  # strings drawn and tested at a time: memory does not grow with trials


def typicality_miss_estimate(
    src: SourceDist, n: int, epsilon: float, trials: int, seed: int = 0
) -> MissEstimate:
    """Sample strings from the source, the rows of ``default_rng(seed).choice(4,
    size=(trials, n), p=src.p)`` a block at a time, and count those outside the window."""
    trials, n = int(trials), int(n)
    if trials < 1 or n < 1:
        raise DimensionMismatchError(f"need n >= 1 and a trial, got n={n}, trials={trials}")
    epsilon = _window(epsilon)
    rng, cdf = np.random.default_rng(seed), _choice_cdf(src.p)
    typical = 0
    for done in range(0, trials, _MISS_BLOCK):
        rows = _draw_symbols(rng, cdf, (min(_MISS_BLOCK, trials - done), n))
        typical += int(np.count_nonzero(_typical_rows(rows, src, epsilon)))
    return _wilson_estimate(trials - typical, trials)


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
