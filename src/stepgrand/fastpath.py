"""Vectorized decode engines for the simulation harness.

The reference loop in `decoder` tests one pattern at a time; these engines
reproduce its decisions bit for bit (same streams, same first-match rule,
same query accounting) using precomputed numpy tables, which is what makes
million-frame sweeps practical. Differential tests pin the equivalence.

Syndromes are packed into int32 scalars, or int64 ones for codes with more
than 31 parity bits (up to 63), so a membership test is an integer compare.

Every engine holds its stream as the spec's (parent, top): a pattern is
an earlier row, its parent, plus its top rank. It runs one batched search
over the nonclean frames of a chunk: `search(perms, columns, targets)`
returns each frame's stream position as int64 (-1 when abandoned), and the
shared base's `flip_mask(perms, pos)` walks each hit's parent chain for the
flipped bits, an (m, n) bool mask. perms is (m, n), row i mapping rank-1
(index 0) to the bit position holding that rank in frame i; engines that do
not sort ignore it. `hwmodel` maps stream positions to hardware steps.

Both find a pattern's syndrome as its parent's XOR one column. HardEngine
serves the hard-input weight order, whose syndromes are frame-independent,
by one binary search; SoftEngine serves every reliability-sorted stream
(orbgrand and the stepped schedule) by prefix recursion over the frames'
reliability permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
from .decoder import DecoderSpec
from .patterns import chain_ranks, grown_levels


def packed_parity_columns(code: LinearCode) -> np.ndarray:
    """Single-flip syndromes, one per position: int32 up to 31 parity bits,
    int64 up to 63."""
    bits = code.n - code.k
    if bits > 63:
        raise ValueError(f"{code.name} has {bits} parity bits; syndromes"
                         " pack into at most 63")
    return np.array(code.parity_columns, dtype=np.int32 if bits <= 31 else np.int64)


@dataclass(frozen=True)
class HitReport:
    """One frame's outcome from an engine.

    stream_position is the 0-based index of the matching pattern (-1 when
    the stream ran out), positions the flipped bit indexes, ascending.
    """

    stream_position: int
    positions: tuple[int, ...]


class _RankPatterns:
    """An engine's pattern stream as the spec's (parent, top): the pattern
    at stream position row flips its parent's ranks, none for -1, plus the
    0-based rank top[row]. A spec that sorts by reliability maps ranks to
    bit positions through each frame's perm; otherwise a rank is the bit
    position itself. Subclasses supply `search`.
    """

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        self.code, self.spec = code, spec
        self.parent, self.top = spec.rank_table(code.n)
        self.pattern_count = len(self.parent)

    # views built on each call for bench/layers.py's `--trace 1` table
    # bytes; they go when that trace sizes the engine's own arrays
    @property
    def rank_index(self) -> np.ndarray:
        """Row i: pattern i's 0-based ranks ascending, padded with n."""
        chain = chain_ranks(self.parent, self.top, np.arange(self.pattern_count), self.code.n)
        empty = np.empty((self.pattern_count, 0), dtype=np.int32)  # for no patterns
        return np.sort(np.column_stack([empty, *chain]), axis=1)

    @property
    def weights(self) -> np.ndarray:
        """Each pattern's flip count, int8."""
        return np.einsum("ij->i", self.rank_index < self.code.n, dtype=np.int8)

    def hit_ranks(self, stream_position: int) -> tuple[int, ...]:
        """1-based reliability ranks of the pattern at a stream position."""
        chain = chain_ranks(self.parent, self.top, [stream_position], self.code.n)
        return tuple(int(ranks[0]) + 1 for ranks in chain)[::-1]

    def flip_mask(self, perms, stream_position: np.ndarray) -> np.ndarray:
        """Flipped bit positions per frame as an (m, n) bool mask; frames
        with stream_position -1 flip nothing. perms is (m, n), one rank to
        position map per frame, and is read only if the spec sorts."""
        m, n = len(stream_position), self.code.n
        rows = np.arange(m) * (n + 1)  # each frame's row in flat (m, n + 1) arrays
        if self.spec.uses_sorting:  # the pad rank n maps to the dropped bit n
            perms = np.hstack([perms, np.full((m, 1), n, dtype=perms.dtype)]).ravel()
        mask = np.zeros(m * (n + 1), dtype=bool)
        for ranks in chain_ranks(self.parent, self.top, stream_position, n):
            mask[rows + (perms[rows + ranks] if self.spec.uses_sorting else ranks)] = True
        return mask.reshape(m, n + 1)[:, :n]

    def _reports(self, perms, stream_position: np.ndarray) -> list[HitReport]:
        """flip_mask's bits of each frame as a HitReport."""
        mask = self.flip_mask(perms, stream_position)
        return [HitReport(int(p), tuple(np.flatnonzero(row).tolist()))
                for p, row in zip(stream_position, mask)]

    def decode_frame(self, perm: np.ndarray, columns: np.ndarray, target: int
                     ) -> HitReport:
        """One frame through `search`; perm maps rank-1 (index 0) to the bit
        position holding that rank."""
        perms = perm[None, :]
        pos = self.search(perms, columns, np.array([target], dtype=columns.dtype))
        return self._reports(perms, pos)[0]


class HardEngine(_RankPatterns):
    """Hard-input search of a frame-independent stream (grandab) through one
    table of its distinct pattern syndromes: sorted_syn strictly increasing,
    and order[i] the lowest stream row whose syndrome is sorted_syn[i], so a
    target's match in sorted_syn names its first hit."""

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec)
        cols = packed_parity_columns(code)
        # a weight level at a time, a row's parent's syndrome XOR its top column;
        # the last entry, row -1's, is the empty pattern's 0
        syn = np.zeros(self.pattern_count + 1, dtype=cols.dtype)
        for lo, hi in grown_levels(self.parent):
            syn[lo:hi] = syn[self.parent[lo:hi]] ^ cols[self.top[lo:hi]]
        # an unstable sort: each run of equal syndromes keeps its lowest row,
        # by a run minimum. int32 rows (tables stop at 2**25 patterns), and
        # no temporary outlives its use, or the build's peak memory rises
        by_syn = np.argsort(syn[:-1]).astype(np.int32)
        syn = syn[by_syn]
        first = np.ones(len(syn), dtype=bool)  # the start of each run
        np.not_equal(syn[1:], syn[:-1], out=first[1:])
        self.sorted_syn = syn[first]
        del syn
        starts = np.flatnonzero(first)
        del first
        self.order = np.minimum.reduceat(by_syn, starts)

    @property
    def weight_tables(self) -> list[dict]:
        """The arrays bench/layers.py sizes for its `--trace 1` table bytes,
        positions the rank_index view; goes when it sizes the engine's own."""
        return [{"positions": self.rank_index, "sorted_syn": self.sorted_syn,
                 "order": self.order}]

    def search(self, perms, columns, targets: np.ndarray) -> np.ndarray:
        """Stream position of the first match per nonzero frame syndrome,
        -1 when abandoned; perms and columns are not needed."""
        if not len(self.sorted_syn):
            return np.full(len(targets), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.sorted_syn, targets), len(self.sorted_syn) - 1)
        return np.where(self.sorted_syn[at] == targets, self.order[at], -1).astype(np.int64)

    def decode_frames(self, syndromes: np.ndarray) -> list[HitReport]:
        """Resolve a batch of nonzero frame syndromes in stream order."""
        return self._reports(None, self.search(None, None, syndromes))


class SoftEngine(_RankPatterns):
    """Rank-pattern search of any prefix-closed stream by prefix recursion,
    batched over frames.

    syn[row] = syn[parent[row]] ^ sigma[top[row]], sigma[r] being a frame's
    single-flip syndrome at rank r, so a row hits when u[parent] ==
    sigma[top] for the residual u = syn ^ target (the target for the empty
    pattern). Frames go through in slices of slice_frames, to keep the
    working set small, in a (rows x frames) layout of the columns' dtype;
    stream rows in tiles of tile_rows, whose edges are block_edges. A tile
    fills the u of its parent rows (rows some row descends from) by weight,
    a range of slots per level, then tests all its rows in two halves, which
    bounds the gathers. A frame hit below the tile's edge is resolved.

    A stream with a parent that is not an earlier row, or a top rank not
    between its parent's and n, raises a ValueError at construction.
    """

    slice_frames = 64
    tile_rows = 4096

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec)
        parent, top, count, n = self.parent, self.top, self.pattern_count, code.n
        if ((parent < -1) | (parent >= np.arange(count))).any():
            raise ValueError("stream has a pattern whose parent is not an earlier row")
        # the empty pattern's top is -1, so a single flip's rank is >= 0
        if ((top <= np.where(parent >= 0, top[parent], -1)) | (top >= n)).any():
            raise ValueError(f"stream has a top rank not above its parent's and below {n}")
        parents = np.flatnonzero(np.bincount(parent + 1, minlength=count + 1)[1:])
        level_of = np.zeros(count, dtype=np.int8)  # a parent row's weight; leaves 0
        level_of[parents] = sum(r < n for r in chain_ranks(parent, top, parents, n))
        # slot 0 holds u of the empty pattern, the targets, for parent -1;
        # parent rows take slots in (tile, weight, row) order, a range per level
        slot = np.zeros(count + 1, dtype=np.int32)
        self.slots = 1
        self.block_edges = [*range(0, count, self.tile_rows), count]
        # per tile: its edges lo, mid, hi; its levels by weight, (slot a,
        # slot b, parent slots, top ranks)
        self.tiles = []
        for lo, hi in zip(self.block_edges, self.block_edges[1:]):
            r = np.arange(lo, hi, dtype=np.int32)  # tables stop at 2**25 rows
            w = level_of[lo:hi]
            levels = []
            for level in filter(len, (r[w == g] for g in range(1, w.max() + 1))):
                a, self.slots = self.slots, self.slots + level.size
                slot[level] = np.arange(a, self.slots)
                levels.append((a, self.slots, slot[parent[level]], top[level]))
            self.tiles.append((lo, (lo + hi) // 2, hi, levels))
        # per row, the slot of its parent's u
        self.parent_slot = slot[parent]

    def search(self, perms: np.ndarray, columns: np.ndarray, targets: np.ndarray
               ) -> np.ndarray:
        """Stream position of the first match per frame, -1 when abandoned.

        perms is (m, n): row i maps rank-1 (index 0) to the bit position
        holding that rank in frame i; targets are the m nonzero syndromes.
        """
        m = len(targets)
        pos = np.full(m, -1, dtype=np.int64)
        for lo in range(0, m, self.slice_frames):
            hi = min(lo + self.slice_frames, m)
            self._search_slice(columns[perms[lo:hi]], targets[lo:hi], pos[lo:hi])
        return pos

    def _search_slice(self, sigma, targets, pos) -> None:
        """Fill pos (a view) for one slice; sigma[f, r] is the syndrome of a
        lone flip at frame f's rank r."""
        frames = np.arange(len(targets))
        first = np.full(len(frames), self.pattern_count)
        sigma = np.ascontiguousarray(sigma.T)  # (ranks x frames), like u
        u = np.empty((self.slots, len(frames)), dtype=sigma.dtype)
        u[0] = targets
        for lo, mid, hi, levels in self.tiles:
            for a, b, parent_slot, top in levels:
                # parent slots lie below a; clip, as a raising take buffers out
                level = u[a:b]
                np.take(u[:a], parent_slot, axis=0, out=level, mode="clip")
                level ^= np.take(sigma, top, axis=0)
            for h0, h1 in ((lo, mid), (mid, hi)):
                hit = (np.take(u, self.parent_slot[h0:h1], axis=0)
                       == np.take(sigma, self.top[h0:h1], axis=0))
                at, frame = np.divmod(np.flatnonzero(hit), len(frames))
                np.minimum.at(first, frame, h0 + at)
            live = first >= hi
            if np.count_nonzero(live) <= 3 * len(frames) // 4:
                # drop resolved frames once a quarter of them are; compress
                # keeps the rows C-ordered for the row gathers
                pos[frames[~live]] = first[~live]
                if not live.any():
                    return
                frames, first = frames[live], first[live]
                u, sigma = (np.compress(live, a, axis=1) for a in (u, sigma))
        pos[frames] = np.where(first < self.pattern_count, first, -1)

    # bound in SoftEngine's own namespace: bench/layers.py patches the
    # engine's methods by class attribute
    decode_frame = _RankPatterns.decode_frame
    hit_ranks = _RankPatterns.hit_ranks


def build_engine(code: LinearCode, spec: DecoderSpec):
    """The engine of a spec: SoftEngine for every reliability-sorted stream,
    HardEngine for the frame-independent weight order."""
    return (SoftEngine if spec.uses_sorting else HardEngine)(code, spec)
