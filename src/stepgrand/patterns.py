"""Test-error-pattern streams and reliability bookkeeping.

A pattern is a set of 1-based reliability ranks (rank 1 = least reliable
position). Streams are lazy generators in a fixed, documented order:

- subsets: weight 1, then 2, ..., weight w over the gamma_w least reliable
  ranks, each weight in lexicographic order of ascending tuples. A stepped
  schedule shrinks gamma_w as w grows; the hard-input search takes
  gamma_w = n for every weight, so its ranks are plain channel positions;
- logistic-weight ordered: ascending sum of ranks, one level at a time, each
  level emitting partitions into distinct parts, fewer parts first.

Lexicographic order on ascending tuples fixes the lowest rank first, which is
also the order the composite-syndrome hardware sweep visits patterns, so the
first stream hit and the first hardware hit coincide.

Each stream also has a table form for the engines and the cycle model, built
in numpy without walking the generator. One builder, `grown_table`, grows
each (k+1)-set from a k-set, its parent, by a higher rank, and emits every
weight block in lexicographic order. `subset_table` and `orbgrand_table`
differ only in how far a set may grow: within gamma_w, or while the rank sum
stays in bound; orbgrand then sorts its sets into stream order. Each returns
(table, parent): one row of 0-based ranks per stream position, padded with
n, and the row of each pattern minus its top rank, always an earlier
pattern, or -1 for a single flip.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .gf2 import BitWord, word_from_indices


@dataclass(frozen=True)
class Tep:
    """A test error pattern: strictly increasing 1-based reliability ranks."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for r in self.ranks:
            if r <= prev:
                raise ValueError(f"ranks must be strictly increasing, got {self.ranks}")
            prev = r

    @property
    def weight(self) -> int:
        return len(self.ranks)

    @property
    def logistic_weight(self) -> int:
        return sum(self.ranks)


@dataclass(frozen=True)
class StepSchedule:
    """Shrinking-subset weight schedule: entries[i] = (gamma, hw) with hw = i+1.

    Weight hw is searched over the gamma least-reliable ranks; gamma strictly
    decreases as hw grows.
    """

    alpha: int
    beta: int
    p_max: int
    entries: tuple[tuple[int, int], ...]

    @property
    def gammas(self) -> tuple[int, ...]:
        return tuple(gamma for gamma, _ in self.entries)


def build_step_schedule(
    alpha: int, beta: int, p_max: int, n: int | None = None
) -> StepSchedule:
    """Build the (gamma, hw) schedule for the stepped-subset decoder.

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
    per_segment = p_max // alpha
    entries: list[tuple[int, int]] = []
    hw = 1
    for i in range(1, alpha + 1):
        seg = alpha - i + 1
        gamma = (seg * (seg + 1) // 2) * per_segment * beta
        for _ in range(per_segment):
            entries.append((gamma, hw))
            hw += 1
            gamma -= seg * beta
    for gamma, hw in entries:
        if gamma < hw:
            raise ValueError(
                f"subset size {gamma} is smaller than weight {hw}; "
                f"increase beta (beta >= p_max keeps every entry feasible)"
            )
    for (g_prev, _), (g_next, _) in zip(entries, entries[1:]):
        if g_next >= g_prev:
            raise ValueError("subset sizes must strictly decrease")
    if n is not None and entries[0][0] > n:
        raise ValueError(
            f"largest subset {entries[0][0]} exceeds block length n={n}"
        )
    return StepSchedule(alpha, beta, p_max, tuple(entries))


def grown_table(n: int, p: int, room: Callable[[int, np.ndarray], int | np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sets of at most p 0-based ranks below n, grown from the empty set, as
    (table, parent).

    Each (k+1)-set is a k-set, its parent, plus one higher rank below
    room(k, sums) <= n, where sums are the k-sets' 1-based rank sums; growth
    stops at p ranks or when no set grows. The table holds one ascending
    int32 row per set, padded with n, in blocks of growing weight, each in
    lexicographic order; parent[row] is the int32 row of that set minus its
    top rank, -1 for a single flip.
    """
    grown = []
    top = np.full(1, -1, dtype=np.int32)  # the empty set, whose children start at 0
    sums = np.zeros(1, dtype=np.int64)
    for k in range(p):
        counts = np.maximum(room(k, sums) - top - 1, 0)
        if not counts.any():
            break
        # each k-set's children take the ranks above its top in turn
        first = (top + 1 - np.cumsum(counts) + counts).astype(np.int32)
        top = np.arange(counts.sum(), dtype=np.int32) + np.repeat(first, counts)
        sums = np.repeat(sums, counts) + top + 1
        grown.append((counts, top))
    table = np.full((sum(len(t) for _, t in grown), max(len(grown), 1)), n, dtype=np.int32)
    parent = np.empty(len(table), dtype=np.int32)
    base, lo = -1, 0  # the k-sets are table rows base..lo - 1; the empty set is -1
    for k, (counts, top) in enumerate(grown):
        hi = lo + len(top)
        # a parent's children are consecutive, so each column is a repeat
        parent[lo:hi] = np.repeat(np.arange(base, lo, dtype=np.int32), counts)
        for j in range(k):
            table[lo:hi, j] = np.repeat(table[base:lo, j], counts)
        table[lo:hi, k] = top
        base, lo = lo, hi
    return table, parent


def subset_teps(gammas: Sequence[int]) -> Iterator[Tep]:
    """Weights 1, 2, ..., len(gammas) in turn: weight w over the gammas[w - 1]
    least reliable ranks, each weight in lexicographic order."""
    for w, gamma in enumerate(gammas, start=1):
        for combo in itertools.combinations(range(1, gamma + 1), w):
            yield Tep(combo)


def subset_table(gammas: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """subset_teps(gammas) as grown_table's (table, parent): weight k + 1
    grows within gammas[k]."""
    return grown_table(n, len(gammas), lambda k, sums: gammas[k])


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


def orbgrand_teps(n: int, lw_max: int | None, p_max: int | None) -> Iterator[Tep]:
    """Logistic-weight-ordered patterns: rank sums 1..lw_max ascending; within
    a level, fewer parts first, then colex; at most p_max ranks per pattern.
    None leaves either bound open."""
    lw_max, p_max = _orbgrand_bounds(n, lw_max, p_max)
    for lw in range(1, lw_max + 1):
        for parts in range(1, p_max + 1):
            for combo in distinct_partitions(lw, parts, n):
                yield Tep(combo)


def orbgrand_table(n: int, lw_max: int | None, p_max: int | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """orbgrand_teps(n, lw_max, p_max) as grown_table's (table, parent):
    every set within the bounds, then sorted into stream order."""
    lw_max, p_max = _orbgrand_bounds(n, lw_max, p_max)
    # 0-based rank r adds r + 1 to the sum, so it fits while r < lw_max - sum
    table, parent = grown_table(n, p_max, lambda k, sums: np.minimum(n, lw_max - sums))
    # 1-based rank sums, pads taken out; einsum sums the narrow rows several
    # times faster than sum(axis=1)
    weights = np.einsum("ij->i", table < n, dtype=np.int64)
    sums = np.einsum("ij->i", table, dtype=np.int64) + weights - (table.shape[1] - weights) * n
    # rank sum, then parts, then colex: the pads of equal-weight rows tie, so
    # the columns from last to first compare the largest rank down
    order = np.lexsort((*table.T, weights, sums))
    # parents follow their rows through the sort; index -1 keeps -1
    moved = np.empty(len(order) + 1, dtype=np.int32)
    moved[order] = np.arange(len(order), dtype=np.int32)
    moved[-1] = -1
    return table[order], moved[parent[order]]


def sort_reliability(llr: np.ndarray) -> np.ndarray:
    """Per frame of llr, (n,) or (m, n), the positions by |llr| ascending,
    stably (ties keep channel order): perm[..., i] holds rank i+1."""
    return np.argsort(np.abs(llr), axis=-1, kind="stable")


def map_ranks(tep: Tep, n: int, perm: np.ndarray | None = None) -> BitWord:
    """Noise word with ones at the channel positions of the pattern's ranks.

    Without a reliability sort, rank r means channel position r-1.
    """
    if tep.ranks and tep.ranks[-1] > n:
        raise ValueError(f"rank {tep.ranks[-1]} out of range for n={n}")
    if perm is None:
        positions = [r - 1 for r in tep.ranks]
    else:
        positions = [int(perm[r - 1]) for r in tep.ranks]
    return BitWord(n, word_from_indices(n, positions))
