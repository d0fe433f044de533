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

HardEngine serves the hard-input weight order: pattern syndromes are
frame-independent, so each weight class is precomputed and sorted once; a
search is one binary search per weight class.

SoftEngine serves every reliability-sorted stream (orbgrand and the stepped
schedule), whose syndromes depend on the per-frame reliability permutation,
by prefix recursion: a pattern minus its top rank is an earlier pattern,
its parent, so a pattern's syndrome is its parent's XOR one column. The
spec's `rank_table` names each row's parent, and the engine only checks
it. Frames go through in slices, stream rows in tiles, and within a tile
rows are taken by weight so parents come before their children; only rows
that are some row's parent keep their syndrome.
"""

from __future__ import annotations

import math
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
    """Weight-ordered hard-input sweep with per-weight syndrome tables; spec
    is a grandab spec, whose max_weight bounds the weight classes."""

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec, spec.rank_table(code.n)[0])
        cols = packed_parity_columns(code)
        self.weight_tables = []
        offset = 0
        for w in range(1, spec.max_weight + 1):
            positions = self.rank_index[offset:offset + math.comb(code.n, w), :w]
            syn = np.bitwise_xor.reduce(cols[positions], axis=1)
            order = np.argsort(syn, kind="stable")
            self.weight_tables.append(
                {
                    "positions": positions,
                    "sorted_syn": syn[order],
                    "order": order.astype(np.int64),
                    "offset": offset,
                }
            )
            offset += len(positions)

    def search(self, perms, columns, targets: np.ndarray) -> np.ndarray:
        """Stream position of the first match per nonzero frame syndrome,
        -1 when abandoned; perms and columns are not needed."""
        pos = np.full(len(targets), -1, dtype=np.int64)
        unresolved = np.arange(len(targets))
        for table in self.weight_tables:
            if unresolved.size == 0:
                break
            s = targets[unresolved]
            at = np.searchsorted(table["sorted_syn"], s, side="left")
            at_clipped = np.minimum(at, len(table["sorted_syn"]) - 1)
            hit = table["sorted_syn"][at_clipped] == s
            hit &= at < len(table["sorted_syn"])
            pos[unresolved[hit]] = table["offset"] + table["order"][at_clipped[hit]]
            unresolved = unresolved[~hit]
        return pos

    def decode_frames(self, syndromes: np.ndarray) -> list[HitReport]:
        """Resolve a batch of nonzero frame syndromes in stream order."""
        return self._reports(None, self.search(None, None, syndromes))


class SoftEngine(_RankPatterns):
    """Rank-pattern search of any prefix-closed stream by prefix recursion,
    batched over frames.

    syn[row] = syn[parent[row]] ^ sigma[top[row]], where sigma[r] is a
    frame's single-flip syndrome at rank r, so each pattern costs one XOR
    per frame. Frames go through in slices of slice_frames, to keep the
    working set small, with a (rows x frames) layout in the columns' dtype;
    stream rows in tiles of tile_rows, whose edges are block_edges. Within a
    tile rows go by weight, so a parent is done before its children; only
    rows that are some row's parent keep their syndrome. After each tile
    the first hit of each frame is its stream position, and resolved frames
    are dropped.

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
        # slot 0 holds the empty pattern's syndrome, 0, and slot[-1] (the
        # slot of parent -1) points there; each parent row has a slot of its own
        is_parent = np.zeros(count + 1, dtype=bool)
        is_parent[parent] = True
        keepers = np.flatnonzero(is_parent[:count])
        slot = np.zeros(count + 1, dtype=np.int64)
        slot[keepers] = np.arange(1, len(keepers) + 1)
        self.slots = len(keepers) + 1
        top = table[rows, self.weights - 1]
        self.block_edges = [*range(0, count, self.tile_rows), count]
        # per tile, its weight groups: (rows, parent slots, top ranks, the
        # group's keeper indexes and their slots)
        self.tiles = []
        for lo, hi in zip(self.block_edges, self.block_edges[1:]):
            groups = []
            w = self.weights[lo:hi]
            for g in range(1, w.max() + 1):
                r = lo + np.flatnonzero(w == g)
                kept = np.flatnonzero(slot[r])
                groups.append((r, slot[parent[r]], top[r], kept, slot[r[kept]]))
            self.tiles.append(groups)

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
        live = np.ones(len(frames), dtype=bool)
        sigma = np.ascontiguousarray(sigma.T)  # (ranks x frames), like syn
        syn = np.zeros((self.slots, len(frames)), dtype=sigma.dtype)
        for groups in self.tiles:
            f = len(frames)
            first = np.full(f, self.pattern_count)
            for r, parent_slot, top, kept, kept_slot in groups:
                group_syn = np.take(syn, parent_slot, axis=0)
                group_syn ^= np.take(sigma, top, axis=0)
                syn[kept_slot] = group_syn[kept]
                hit = np.flatnonzero(group_syn == targets)
                if hit.size:
                    np.minimum.at(first, hit % f, r[hit // f])
            found = live & (first < self.pattern_count)
            if not found.any():
                continue
            pos[frames[found]] = first[found]
            live &= ~found
            left = np.count_nonzero(live)
            if left == 0:
                return
            if left <= 3 * f // 4:
                # drop resolved frames once a quarter of them are; compress
                # keeps the rows C-ordered for the row gathers
                frames, targets = frames[live], targets[live]
                syn, sigma = (np.compress(live, a, axis=1) for a in (syn, sigma))
                live = live[live]

    # bound in SoftEngine's own namespace: bench/layers.py patches the
    # engine's methods by class attribute
    decode_frame = _RankPatterns.decode_frame
    hit_ranks = _RankPatterns.hit_ranks


def build_engine(code: LinearCode, spec: DecoderSpec):
    """The engine of a spec: SoftEngine for every reliability-sorted stream,
    HardEngine for the frame-independent weight order."""
    return (SoftEngine if spec.uses_sorting else HardEngine)(code, spec)
