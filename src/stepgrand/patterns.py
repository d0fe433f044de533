"""Test-error-pattern streams and reliability bookkeeping.

A pattern is the ascending tuple of its 1-based reliability ranks (rank 1 =
least reliable position), so its flip count is its length. Streams are lazy
generators of such tuples in a fixed, documented order:

- subsets: weight 1, then 2, ..., weight w over the gamma_w least reliable
  ranks, each weight in lexicographic order of ascending tuples. A stepped
  schedule shrinks gamma_w as w grows; the hard-input search takes
  gamma_w = n for every weight, so its ranks are plain channel positions;
- logistic-weight ordered: ascending sum of ranks, one level at a time, each
  level emitting partitions into distinct parts, fewer parts first.

Lexicographic order on ascending tuples fixes the lowest rank first, which is
also the order the composite-syndrome hardware sweep visits patterns, so the
first stream hit and the first hardware hit coincide.

Each stream also has one array form for the engines and the cycle model,
(parent, top), built in numpy without walking the generator: per stream
position, the int32 row of the pattern minus its top rank (-1 for the
empty pattern), and that 0-based top rank. `grown_table` grows every
stream; orbgrand then sorts its sets into stream order. `chain_ranks`
walks a pattern's ranks back down its parents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import BitWord, word_from_indices


@dataclass(frozen=True)
class StepSchedule:
    """Shrinking-subset weight schedule: weight w is searched over the
    gammas[w - 1] least reliable ranks, and gamma never grows with w."""

    gammas: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < b for a, b in zip(self.gammas, self.gammas[1:])):
            raise ValueError(f"subset sizes {self.gammas} grow with the weight")
        for w, gamma in enumerate(self.gammas, start=1):
            if gamma < w:
                raise ValueError(
                    f"subset size {gamma} is smaller than weight {w}; "
                    f"increase beta (beta >= p_max keeps every entry feasible)"
                )

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """(gamma, w) per weight w = 1, 2, ..."""
        return tuple(zip(self.gammas, range(1, len(self.gammas) + 1)))


def build_step_schedule(
    alpha: int, beta: int, p_max: int, n: int | None = None
) -> StepSchedule:
    """Build the schedule of the stepped-subset decoder.

    The p_max weights are split into alpha segments of p_max/alpha weights.
    Segment i (1-based) starts at gamma = T(alpha-i+1) * (p_max/alpha) * beta,
    where T(j) = j(j+1)/2, and shrinks by (alpha-i+1)*beta per weight.

    If n is given, the largest subset must fit the block length (gamma_1 <= n).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if p_max % alpha != 0:
        raise ValueError(f"alpha={alpha} does not divide p_max={p_max}")
    if n is not None and p_max > n:
        # gamma_1 >= p_max, so refused before p_max subset sizes are built
        raise ValueError(f"p_max={p_max} exceeds block length n={n}")
    per_segment = p_max // alpha
    gammas: list[int] = []
    for seg in range(alpha, 0, -1):
        top = (seg * (seg + 1) // 2) * per_segment * beta
        gammas.extend(range(top, top - per_segment * seg * beta, -seg * beta))
    schedule = StepSchedule(tuple(gammas))
    if n is not None and gammas[0] > n:
        raise ValueError(f"largest subset {gammas[0]} exceeds block length n={n}")
    return schedule


def grown_table(p: int, room: Callable[[int, np.ndarray | None], int | np.ndarray],
                sums: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Sets of at most p 0-based ranks as (parent, top), grown from the
    empty set (row -1): a (k+1)-set is a k-set, its parent, plus one higher
    rank below room(k, rank_sums), until p ranks or no set grows.
    rank_sums holds the k-sets' 1-based rank sums, int64, if sums is set,
    and is None otherwise, so a room that reads no sums costs none. Rows
    come in blocks of growing weight, each in lexicographic order, so
    parent ascends."""
    parents, tops = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    top = np.full(1, -1, dtype=np.int32)  # the empty set, whose children start at 0
    rank_sums = np.zeros(1, dtype=np.int64) if sums else None
    base, lo = -1, 0  # the k-sets are rows base..lo - 1; the empty set is -1
    for k in range(p):
        counts = np.maximum(room(k, rank_sums) - top - 1, 0)
        if not counts.any():
            break
        # each k-set's children take the ranks above its top in turn
        first = (top + 1 - np.cumsum(counts) + counts).astype(np.int32)
        top = np.arange(counts.sum(), dtype=np.int32) + np.repeat(first, counts)
        if sums:
            rank_sums = np.repeat(rank_sums, counts) + top + 1
        parents.append(np.repeat(np.arange(base, lo, dtype=np.int32), counts))
        tops.append(top)
        base, lo = lo, lo + len(top)
    return np.concatenate(parents), np.concatenate(tops)


def chain_ranks(parent: np.ndarray, top: np.ndarray, rows, n: int) -> Iterator[np.ndarray]:
    """The 0-based ranks of the patterns at rows, top first: one array per
    step down their parent chains until the longest ends, padded with n
    once a chain reaches -1, the empty pattern, which has no ranks."""
    rows = np.asarray(rows)
    while (live := rows >= 0).any():
        yield np.where(live, top[rows], n)
        rows = np.where(live, parent[rows], -1)


def grown_levels(parent: np.ndarray) -> Iterator[tuple[int, int]]:
    """grown_table's weight levels as row ranges (lo, hi): parents ascend,
    so the rows whose parents lie below lo are the level starting at lo."""
    lo = 0
    while lo < len(parent):
        hi = int(np.searchsorted(parent, lo))
        yield lo, hi
        lo = hi


def subset_teps(gammas: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Weights 1, 2, ..., len(gammas) in turn: weight w over the gammas[w - 1]
    least reliable ranks, each weight in lexicographic order."""
    for w, gamma in enumerate(gammas, start=1):
        yield from itertools.combinations(range(1, gamma + 1), w)


def subset_table(gammas: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """subset_teps(gammas) as grown_table's (parent, top): weight k + 1
    grows within gammas[k]."""
    return grown_table(len(gammas), lambda k, sums: gammas[k])


def subset_count(gammas: Sequence[int]) -> int:
    """Length of subset_teps(gammas)."""
    return sum(math.comb(gamma, w) for w, gamma in enumerate(gammas, start=1))


def max_logistic_weight(n: int) -> int:
    """Largest possible rank sum: the all-positions pattern, n(n+1)/2."""
    return n * (n + 1) // 2


def distinct_partitions(total: int, n_parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into exactly n_parts distinct parts in [1, max_part],
    as ascending tuples in colexicographic order (smallest largest-part first)."""
    if n_parts == 0:
        if total == 0:
            yield ()
        return
    if n_parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for big in range(n_parts, max_part + 1):
        rest = total - big
        if rest < (n_parts - 1) * n_parts // 2:
            break
        if rest > (n_parts - 1) * (2 * big - n_parts) // 2:
            continue
        for sub in distinct_partitions(rest, n_parts - 1, big - 1):
            yield sub + (big,)


def _orbgrand_bounds(n: int, lw_max: int | None, p_max: int | None
                     ) -> tuple[int, int]:
    """The checked bounds of an orbgrand stream; None leaves one unbounded."""
    lw_max = max_logistic_weight(n) if lw_max is None else lw_max
    # more than n distinct ranks in [1, n] is no pattern at all
    p_max = n if p_max is None else min(p_max, n)
    if not 0 <= lw_max <= max_logistic_weight(n):
        raise ValueError(
            f"lw_max must be in [0, {max_logistic_weight(n)}], got {lw_max}"
        )
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    return lw_max, p_max


def orbgrand_count(n: int, lw_max: int | None, p_max: int | None) -> int:
    """Length of orbgrand_teps(n, lw_max, p_max) without walking the stream,
    and the same ValueError: the sets of at most p_max distinct ranks in
    [1, n] whose sum is at most lw_max, exact at any size."""
    lw_max, p = _orbgrand_bounds(n, lw_max, p_max)
    # k distinct ranks sum to at least k(k+1)/2, so larger sets never fit
    p = min(p, (math.isqrt(8 * lw_max + 1) - 1) // 2)
    sizes = [math.comb(n, k) for k in range(1, p + 1)]
    if lw_max >= p * n - p * (p - 1) // 2:
        # even the p largest ranks fit the bound, so every set of <= p does
        return sum(sizes)
    # g[d]: sets of k distinct ranks in [1, n] with rank sum k(k+1)/2 + d,
    # the coefficients of the Gaussian binomial [n choose k]_q, from
    # [n choose k-1]_q (1 - q^(n-k+1)) / (1 - q^k), truncated at the degree
    # that still fits lw_max; the division is a stride-k prefix sum. No
    # coefficient, nor the total, exceeds sum(sizes) in magnitude
    dtype = np.int64 if sum(sizes) < 1 << 63 else object
    g = np.zeros(lw_max + 1, dtype=dtype)
    g[0] = 1
    total = 0
    for k in range(1, p + 1):
        g = g[:lw_max - k * (k + 1) // 2 + 1]
        m = n - k + 1
        g[m:] = g[m:] - g[:-m]
        for r in range(k):
            g[r::k] = g[r::k].cumsum()
        total += g.sum()
    return int(total)


def orbgrand_teps(n: int, lw_max: int | None, p_max: int | None) -> Iterator[tuple[int, ...]]:
    """Logistic-weight-ordered patterns: rank sums 1..lw_max ascending; within
    a level, fewer parts first, then colex; at most p_max ranks per pattern.
    None leaves either bound open."""
    lw_max, p_max = _orbgrand_bounds(n, lw_max, p_max)
    for lw in range(1, lw_max + 1):
        for parts in range(1, p_max + 1):
            yield from distinct_partitions(lw, parts, n)


def orbgrand_table(n: int, lw_max: int | None, p_max: int | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """orbgrand_teps(n, lw_max, p_max) as grown_table's (parent, top):
    every set within the bounds, then sorted into stream order."""
    lw_max, p_max = _orbgrand_bounds(n, lw_max, p_max)
    # 0-based rank r adds r + 1 to the sum, so it fits while r < lw_max - sum
    parent, top = grown_table(p_max, lambda k, sums: np.minimum(n, lw_max - sums),
                              sums=True)
    # 1-based rank sums (the empty set's 0 last) and flip counts, by level
    sums = np.zeros(len(parent) + 1, dtype=np.int64)
    weights = np.zeros(len(parent), dtype=np.int64)
    for k, (lo, hi) in enumerate(grown_levels(parent), start=1):
        sums[lo:hi] = sums[parent[lo:hi]] + top[lo:hi] + 1
        weights[lo:hi] = k
    # rank sum, then parts, then colex: the ranks top first, which rows of
    # equal weight pad alike. Each field packs, most significant first and in
    # its bit_length, into as few 63-bit words as hold them, the ranks walked
    # as they are packed. Keys are unique sets, so any sort of them sorts the
    # stream: one word takes numpy's SIMD argsort, more the lexsort
    chain = chain_ranks(parent, top, np.arange(len(parent)), n)
    fields = [(sums[:-1], lw_max), (weights, weights.max(initial=0))]
    words, used = [], 0
    for values, bound in itertools.chain(fields, ((ranks, n) for ranks in chain)):
        bits = int(bound).bit_length()
        if not words or used + bits > 63:
            words.append(np.zeros(len(parent), dtype=np.int64))
            used = 0
        words[-1] <<= bits
        words[-1] |= values
        used += bits
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    # parents follow their rows through the sort; index -1 keeps -1
    moved = np.empty(len(order) + 1, dtype=np.int32)
    moved[order] = np.arange(len(order), dtype=np.int32)
    moved[-1] = -1
    return moved[parent[order]], top[order]


def sort_reliability(llr: np.ndarray) -> np.ndarray:
    """Per frame of llr, (n,) or (m, n), the positions by |llr| ascending,
    stably (ties keep channel order): perm[..., i] holds rank i+1.

    numpy's default argsort is SIMD-vectorised but unstable, so it sorts
    every row, and only a row that holds a tie (a run of equal |llr|) is
    sorted again with the stable sort. Float channel LLRs almost never tie;
    quantized LLRs tie in every row and so pay for both sorts.
    """
    a = np.abs(llr)
    # the copy sorted in place shows the ties without a gather: a row that
    # is not strictly increasing holds equal values (or NaNs). Checking
    # before the permutation exists, then refilling the copy, keeps the
    # peak memory at the stable sort's: |llr| plus the permutation
    a.sort(axis=-1)
    tied = ~(a[..., 1:] > a[..., :-1]).all(axis=-1)
    np.abs(llr, out=a)
    perm = np.argsort(a, axis=-1)
    perm[tied] = np.argsort(a[tied], axis=-1, kind="stable")
    return perm


def map_ranks(ranks: tuple[int, ...], n: int, perm: np.ndarray | None = None) -> BitWord:
    """Noise word with ones at the channel positions of the ascending ranks.

    Without a reliability sort, rank r means channel position r-1.
    """
    if ranks and ranks[-1] > n:
        raise ValueError(f"rank {ranks[-1]} out of range for n={n}")
    if perm is None:
        positions = [r - 1 for r in ranks]
    else:
        positions = [int(perm[r - 1]) for r in ranks]
    return BitWord(n, word_from_indices(n, positions))
