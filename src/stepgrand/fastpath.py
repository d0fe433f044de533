"""Vectorized decode engines for the simulation harness.

The reference loop in `decoder` tests one pattern at a time; these engines
reproduce its decisions bit for bit (same streams, same first-match rule,
same query accounting) using precomputed numpy tables, which is what makes
million-frame sweeps practical. Differential tests pin the equivalence.

Syndromes are packed into int32 scalars (block lengths here leave n - k well
under 31 bits), so a membership test is an integer compare.

Every engine is a table of its stream's reliability ranks plus one batched
search over the nonclean frames of a chunk: `search(perms, columns, targets)`
returns each frame's stream position as int64 (-1 when abandoned), and the
shared table base's `flip_mask(perms, pos)` the flipped bits as an (m, n)
bool mask. perms is (m, n), row i mapping rank-1 (index 0) to the bit
position holding that rank in frame i; engines that do not sort ignore it.
Hardware time steps are not the engines' business: `hwmodel` maps stream
positions to steps.

Hard-input engine: pattern syndromes are frame-independent, so each weight
class is precomputed and sorted once; a search is one binary search per
weight class.

Soft-input engines depend on the per-frame reliability permutation.
SoftEngine serves any stream (orbgrand, and the stepped schedule as a
reference) by prefix recursion: a pattern minus its top rank is an earlier
pattern, its parent, so a pattern's syndrome is its parent's XOR one column.
Frames go through in slices, stream rows in tiles, and within a tile rows
are taken by weight so parents come before their children; only rows that
are some row's parent keep their syndrome. StepEngine searches the stepped
schedule the way the composite-syndrome hardware of `hwmodel` does, batched
over all frames of a chunk: weights 1 and 2 are direct compares, and each
higher weight is a sweep of anchors (the pattern's lowest ranks, all but
two) completed by one lookup in a sorted bank of two-flip syndromes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
from .decoder import DecoderSpec, GrandabSpec, StepGrandSpec
from .patterns import subset_table


def packed_parity_columns(code: LinearCode) -> np.ndarray:
    """Single-flip syndromes as int32, one per position."""
    if code.n - code.k > 31:
        raise ValueError("packed engine supports at most 31 parity bits")
    return np.array(code.parity_columns, dtype=np.int32)


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
    The table is the spec's `rank_table`; subclasses supply `search`.
    """

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        self.code = code
        self.spec = spec
        self.rank_index = rank_index = spec.rank_table(code.n)
        self.weights = (rank_index < code.n).sum(axis=1, dtype=np.int8)
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
        pos = self.search(perms, columns, np.array([target], dtype=np.int32))
        return self._reports(perms, pos)[0]


class HardEngine(_RankPatterns):
    """Weight-ordered hard-input sweep with per-weight syndrome tables."""

    def __init__(self, code: LinearCode, spec: GrandabSpec):
        super().__init__(code, spec)
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


class _SlicedSearch(_RankPatterns):
    """A soft-input engine that searches frames in slices of slice_frames,
    to keep the working set small. Subclasses supply
    `_search_slice(sigma, targets, pos)`, which fills pos (a view) for one
    slice; sigma[f, r] is the syndrome of a lone flip at frame f's rank r.
    """

    slice_frames = 64

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


def _prefix_parents(table: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Row of each pattern's prefix (its ranks but the top one), -1 for a
    single flip; a ValueError if some prefix is not in the table.

    Resolved one prefix length at a time: a row is keyed by the row of its
    shorter prefix times (n + 1) plus its next rank, and the keys of the
    rows of that length are looked up by binary search.
    """
    parent = np.full(len(table), -1, dtype=np.int64)
    prefix = parent.copy()  # row of each row's first j ranks
    for j in range(table.shape[1]):
        longer = np.flatnonzero(weights > j)
        if longer.size == 0:
            break
        keys = (prefix[longer] + 1) * (n + 1) + table[longer, j]
        ends = weights[longer] == j + 1
        parent[longer[ends]] = prefix[longer[ends]]
        order = np.argsort(keys[ends])
        own, own_keys = longer[ends][order], keys[ends][order]
        at = np.searchsorted(own_keys, keys)
        if (at == len(own)).any() or (own_keys[at] != keys).any():
            raise ValueError(f"stream lacks the {j + 1}-rank prefix of some pattern")
        prefix[longer] = own[at]
    return parent


class SoftEngine(_SlicedSearch):
    """Rank-pattern search of any prefix-closed stream by prefix recursion,
    batched over frames.

    syn[row] = syn[parent[row]] ^ sigma[top[row]], where sigma[r] is a
    frame's single-flip syndrome at rank r, so each pattern costs one XOR
    per frame. Frames go through in slices of slice_frames with a (rows x
    frames) int32 layout; stream rows in tiles of tile_rows, whose edges
    are block_edges. Within a tile rows go by weight, so a parent is done
    before its children; only rows that are some row's parent keep their
    syndrome. After each tile the first hit of each frame is its stream
    position, and resolved frames are dropped.

    A stream without the prefix property (a pattern whose parent is missing
    or comes after it) raises a ValueError at construction.
    """

    tile_rows = 4096

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec)
        count = self.pattern_count
        rows = np.arange(count)
        parent = _prefix_parents(self.rank_index, self.weights, code.n)
        if (parent >= rows).any():
            raise ValueError("stream has a pattern before its prefix")
        # slot 0 holds the empty pattern's syndrome, 0, and slot[-1] (the
        # slot of parent -1) points there; each parent row has a slot of its own
        is_parent = np.zeros(count + 1, dtype=bool)
        is_parent[parent] = True
        keepers = np.flatnonzero(is_parent[:count])
        slot = np.zeros(count + 1, dtype=np.int64)
        slot[keepers] = np.arange(1, len(keepers) + 1)
        self.slots = len(keepers) + 1
        top = self.rank_index[rows, self.weights - 1]
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

    def _search_slice(self, sigma, targets, pos) -> None:
        frames = np.arange(len(targets))
        live = np.ones(len(frames), dtype=bool)
        sigma = np.ascontiguousarray(sigma.T)  # (ranks x frames), like syn
        syn = np.zeros((self.slots, len(frames)), dtype=np.int32)
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


@dataclass(frozen=True)
class _Entry:
    """Search tables for one schedule entry: weight-w patterns over the gamma
    least reliable ranks, which start at stream position offset.

    pair_i/pair_j list the two-flip bank over [0, gamma) in lexicographic
    order (w >= 2). For w >= 3 each row of anchors holds the w - 2 lowest
    ranks of a pattern, in lexicographic order; first_pair is the bank index
    of the anchor's first completion (the pairs with i above its last rank
    form a suffix of the bank), and before counts the entry's patterns that
    precede the anchor.
    """

    gamma: int
    weight: int
    offset: int
    pair_i: np.ndarray | None = None
    pair_j: np.ndarray | None = None
    anchors: np.ndarray | None = None
    first_pair: np.ndarray | None = None
    before: np.ndarray | None = None


class StepEngine(_SlicedSearch):
    """Anchor x pair-bank search of the stepped schedule, batched over frames.

    Mirrors the composite-syndrome hardware of `hwmodel`. Entries are tried
    in schedule order and a frame resolves at its first entry with a match.
    Weights 1 and 2 compare the target with every single/pair syndrome of
    the entry at once. For weight w >= 3 each anchor (the w - 2 lowest
    ranks) is completed by the bank of two-flip syndromes: int64 keys
    (frame, pair syndrome, pair index) are sorted once per entry, and a
    binary search per anchor for (frame, target ^ anchor syndrome, first
    valid pair index) finds the lexicographically first completion. The frame's
    first anchor with a hit gives the first match of the stream.

    The frame index within a slice is the key's top field.
    """

    def __init__(self, code: LinearCode, spec: StepGrandSpec):
        super().__init__(code, spec)
        parity_bits = code.n - code.k
        entries = []
        offset = 0
        for gamma, w in spec.schedule(code.n).entries:
            entry = dict(gamma=gamma, weight=w, offset=offset)
            offset += math.comb(gamma, w)
            if w >= 2:
                pairs = subset_table(gamma, 2)
                entry.update(pair_i=pairs[:, 0], pair_j=pairs[:, 1])
            if w >= 3:
                anchors = subset_table(gamma - 2, w - 2)
                last = anchors[:, -1].astype(np.int64)
                # bank index of pair (last + 1, last + 2), and the number of
                # pairs above last, in a lexicographic bank over [0, gamma)
                first = (last + 1) * (gamma - 1) - (last + 1) * last // 2
                per_anchor = (gamma - 1 - last) * (gamma - 2 - last) // 2
                entry.update(anchors=anchors, first_pair=first,
                             before=np.cumsum(per_anchor) - per_anchor)
            entries.append(_Entry(**entry))
        self.entries = entries

        self.pair_bits = max(((math.comb(e.gamma, 2) - 1).bit_length()
                              for e in entries if e.weight >= 3), default=0)
        self.frame_shift = self.pair_bits + parity_bits
        frame_bits = (self.slice_frames - 1).bit_length()
        if frame_bits + self.frame_shift > 63:
            raise ValueError(
                f"search key needs {frame_bits} frame + {parity_bits} syndrome"
                f" + {self.pair_bits} pair-index bits, more than 63"
            )

    def _search_slice(self, sigma, targets, pos) -> None:
        frames = np.arange(len(sigma))
        for e in self.entries:
            if frames.size == 0:
                return
            sig, t = sigma[frames], targets[frames]
            if e.weight <= 2:
                if e.weight == 1:
                    syn = sig[:, :e.gamma]
                else:
                    syn = sig[:, e.pair_i] ^ sig[:, e.pair_j]
                eq = syn == t[:, None]
                found = eq.any(axis=1)
                row = eq.argmax(axis=1)
            else:
                found, row = self._composite(e, sig, t)
            pos[frames[found]] = e.offset + row[found]
            frames = frames[~found]

    def _composite(self, e: _Entry, sig, t):
        """Per frame: whether the entry has a match, and its index within
        the entry."""
        pb, sb = self.pair_bits, self.frame_shift
        f = np.arange(len(sig), dtype=np.int64)[:, None] << sb
        pair_syn = (sig[:, e.pair_i] ^ sig[:, e.pair_j]).astype(np.int64)
        keys = np.sort((f | (pair_syn << pb) | np.arange(len(e.pair_i))).ravel())
        anchor_syn = np.bitwise_xor.reduce(sig[:, e.anchors], axis=2)
        query = f | ((anchor_syn ^ t[:, None]).astype(np.int64) << pb) | e.first_pair
        at = np.searchsorted(keys, query)
        got = keys[np.minimum(at, len(keys) - 1)]
        hits = (at < len(keys)) & (got >> pb == query >> pb)
        found = hits.any(axis=1)
        a = hits.argmax(axis=1)
        pair = got[np.arange(len(sig)), a] & ((1 << pb) - 1)
        return found, e.before[a] + pair - e.first_pair[a]


def build_engine(code: LinearCode, spec: DecoderSpec):
    if isinstance(spec, GrandabSpec):
        return HardEngine(code, spec)
    if isinstance(spec, StepGrandSpec):
        return StepEngine(code, spec)
    return SoftEngine(code, spec)
