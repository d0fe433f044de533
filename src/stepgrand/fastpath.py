"""Vectorized decode engines for the simulation harness.

The reference loop in `decoder` tests one pattern at a time; these engines
reproduce its decisions bit for bit (same streams, same first-match rule,
same query accounting) using precomputed numpy tables, which is what makes
million-frame sweeps practical. Differential tests pin the equivalence.

Syndromes are packed into int32 scalars, or int64 ones for codes with more
than 31 parity bits (up to 63), so a membership test is an integer compare.

Every engine is a table of its stream's reliability ranks plus one batched
search over the nonclean frames of a chunk: `search(perms, columns, targets)`
returns each frame's stream position as int64 (-1 when abandoned), and the
shared table base's `flip_mask(perms, pos)` the flipped bits as an (m, n)
bool mask. perms is (m, n), row i mapping rank-1 (index 0) to the bit
position holding that rank in frame i; engines that do not sort ignore it.
Hardware time steps are not the engines' business: `hwmodel` maps stream
positions to steps.

HardEngine serves the hard-input weight order, whose pattern syndromes are
frame-independent: one sorted table holds each distinct pattern syndrome once,
with the lowest stream row that has it, which is that syndrome's first hit,
and a search is one binary search.

SoftEngine serves every reliability-sorted stream (orbgrand and the stepped
schedule), whose syndromes depend on the per-frame reliability permutation,
by prefix recursion: a pattern minus its top rank is an earlier pattern,
its parent, so a pattern's syndrome is its parent's XOR one column. The
spec's `rank_table` names each row's parent, and the engine only checks
it. Frames go through in slices, stream rows in tiles. Each parent row
keeps u = syndrome ^ target, filled by weight within its tile, and every
row hits when u[parent] == sigma[top], half a tile at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
from .decoder import DecoderSpec


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
    """An engine's pattern stream as a table of reliability ranks.

    rank_index[row] holds the 0-based ranks flipped by the pattern at stream
    position row, ascending and padded with n; weights[row] is its flip
    count. A spec that sorts by reliability maps ranks to bit positions
    through each frame's perm; otherwise a rank is the bit position itself.
    The table comes from the spec's `rank_table`, which also names each
    row's parent; subclasses supply `search`.
    """

    def __init__(self, code: LinearCode, spec: DecoderSpec, rank_index: np.ndarray):
        self.code = code
        self.spec = spec
        self.rank_index = rank_index
        self.weights = np.einsum("ij->i", rank_index < code.n, dtype=np.int8)
        self.pattern_count = len(rank_index)

    def hit_ranks(self, stream_position: int) -> tuple[int, ...]:
        """1-based reliability ranks of the pattern at a stream position."""
        w = int(self.weights[stream_position])
        return tuple(int(r) + 1 for r in self.rank_index[stream_position, :w])

    def flip_mask(self, perms, stream_position: np.ndarray) -> np.ndarray:
        """Flipped bit positions per frame as an (m, n) bool mask; frames
        with stream_position -1 flip nothing. perms is (m, n), one rank to
        position map per frame, and is read only if the spec sorts."""
        m, n = len(stream_position), self.code.n
        hit = stream_position >= 0
        ranks = np.full((m, self.rank_index.shape[1]), n, dtype=np.int64)
        ranks[hit] = self.rank_index[stream_position[hit]]
        if self.spec.uses_sorting:
            padded = np.concatenate([perms, np.full((m, 1), n, dtype=perms.dtype)], axis=1)
            ranks = np.take_along_axis(padded, ranks, axis=1)
        mask = np.zeros((m, n + 1), dtype=bool)
        mask[np.arange(m)[:, None], ranks] = True
        return mask[:, :n]

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
        super().__init__(code, spec, spec.rank_table(code.n)[0])
        cols = packed_parity_columns(code)
        cols = np.append(cols, cols.dtype.type(0))  # the pad rank n flips nothing
        syn = cols[self.rank_index[:, 0]]
        for j in range(1, self.rank_index.shape[1]):
            syn ^= cols[self.rank_index[:, j]]
        # an unstable sort: each run of equal syndromes keeps its lowest row,
        # by a run minimum. int32 rows (tables stop at 2**25 patterns), and
        # no temporary outlives its use, or the build's peak memory rises
        by_syn = np.argsort(syn).astype(np.int32)
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
        """The engine's own arrays under the keys bench/layers.py sizes for
        its `--trace 1` table bytes; goes when that trace reads the engine's
        arrays directly."""
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

    The parents come with the table from the spec's `rank_table`. A stream
    without the prefix property (a pattern whose parent is not an earlier
    row, or is not the pattern minus its top rank) raises a ValueError at
    construction.
    """

    slice_frames = 64
    tile_rows = 4096

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        table, parent = spec.rank_table(code.n)
        super().__init__(code, spec, table)
        count, n = self.pattern_count, code.n
        rows = np.arange(count)
        if ((parent < -1) | (parent >= rows)).any():
            raise ValueError("stream has a pattern whose parent is not an earlier row")
        # column by column, the parent row is the row with its top rank
        # padded; row -1, the empty pattern, is all pads
        for j in range(table.shape[1]):
            got = np.where(parent >= 0, table[parent, j], n)
            if (got != np.where(self.weights > j + 1, table[:, j], n)).any():
                raise ValueError("stream has a pattern whose parent is not its prefix")
        top = table[rows, self.weights - 1]
        level_of = np.zeros(count + 1, dtype=np.int8)
        level_of[parent] = self.weights[parent]  # a parent's weight; leaves 0
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
        # per row, the slot of its parent's u and its top rank
        self.parent_slot, self.top = slot[parent], top

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
