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

On a code whose codewords all have even weight (CA-polar, any code with an
overall parity bit), a pattern e turns a hard word y into a codeword only
if wt(e) and wt(y) have the same parity, and `weight_parity_mask` reads
wt(y) mod 2 off y's syndrome. SoftEngine splits the frames into these two
parity classes and tests each against the rows of its own parity only, half
the stream; on other codes (odd-length BCH) there is one class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
from .decoder import DecoderSpec
from .gf2 import row_combination
from .patterns import chain_ranks, grown_levels


def packed_parity_columns(code: LinearCode) -> np.ndarray:
    """Single-flip syndromes, one per position: int32 up to 31 parity bits,
    int64 up to 63."""
    bits = code.n - code.k
    if bits > 63:
        raise ValueError(f"{code.name} has {bits} parity bits; syndromes"
                         " pack into at most 63")
    return np.array(code.parity_columns, dtype=np.int32 if bits <= 31 else np.int64)


def weight_parity_mask(code: LinearCode) -> int | None:
    """A syndrome mask a with a·H = all ones, so parity(a & syndrome(y)) is
    the weight parity of every word y; None when the all-ones word is not in
    H's row space, that is, when some codeword has odd weight."""
    return row_combination(code.parity_check, (1 << code.n) - 1)


def _parity(x: np.ndarray, bits: int) -> np.ndarray:
    """Per element of a nonnegative integer array below 2**bits, the parity
    of its bits, folded by halves."""
    shift = 1 << max(bits - 1, 0).bit_length()  # the least power of two >= bits
    while shift > 1:
        shift //= 2
        x = x ^ (x >> shift)
    return x & 1


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
    a range of slots per level, then tests its rows in pieces of at most
    half a tile, which bounds the gathers. A frame hit below the tile's
    edge is resolved.

    On a code whose codewords all have even weight, a pattern can match a
    hard word only if both have the same weight parity, which the frame's
    target gives as parity(class_mask & target) (`weight_parity_mask`). So
    each frame is in class 0 or 1, a slice holds one class, and it tests
    only the rows whose weight has its class's parity. Each tile keeps its
    rows in test order, the even-weight rows then the odd-weight ones, each
    in stream order: parent_slot is in test order, and test_rows maps a
    test-order row to its offset in the tile, so a hit resolves to its
    stream position. On other codes class_mask is 0, every frame and row is
    in class 0, and test order is stream order.

    A stream with a parent that is not an earlier row, or a top rank not
    between its parent's and n, raises a ValueError at construction.
    """

    slice_frames = 64
    tile_rows = 4096  # below 2**15, for the int16 test_rows
    compact_live = 0.5  # drop resolved frames once at most this share is live

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
        mask = weight_parity_mask(code)
        self.class_mask = 0 if mask is None else mask
        # a row's class: its weight's parity, its parent's weight + 1; the
        # last row is no row's parent, so level_of[-1] is the empty pattern's 0
        row_class = np.zeros(count, dtype=np.int8)
        if mask is not None:
            row_class = (level_of[parent] + 1) & 1
        # slot 0 holds u of the empty pattern, the targets, for parent -1;
        # parent rows take slots in (tile, weight, row) order, a range per level
        slot = np.zeros(count + 1, dtype=np.int32)
        self.slots = 1
        self.block_edges = [*range(0, count, self.tile_rows), count]
        # per tile: its edges lo, hi; its levels by weight, (slot a, slot b,
        # parent slots, top ranks); per class, its pieces of test-order rows
        self.tiles = []
        # each tile's even rows, then its odd rows: stream rows in test order
        even, odd = np.flatnonzero(row_class == 0), np.flatnonzero(row_class)
        at_even, at_odd = (np.searchsorted(x, self.block_edges) for x in (even, odd))
        order, offsets = [], []
        for t, (lo, hi) in enumerate(zip(self.block_edges, self.block_edges[1:])):
            r = np.arange(lo, hi, dtype=np.int32)  # tables stop at 2**25 rows
            w = level_of[lo:hi]
            levels = []
            for level in filter(len, (r[w == g] for g in range(1, w.max() + 1))):
                a, self.slots = self.slots, self.slots + level.size
                slot[level] = np.arange(a, self.slots)
                levels.append((a, self.slots, slot[parent[level]], top[level]))
            order += even[at_even[t]:at_even[t + 1]], odd[at_odd[t]:at_odd[t + 1]]
            offsets += order[-2] - lo, order[-1] - lo
            edge, most = lo + at_even[t + 1] - at_even[t], self.tile_rows // 2
            pieces = [[(h, min(h + most, b)) for h in range(a, b, most)]
                      for a, b in ((lo, edge), (edge, hi))]
            self.tiles.append((lo, hi, levels, pieces))
        # per test-order row, its offset in its tile and the slot of its parent's u
        self.test_rows = np.concatenate([np.empty(0, dtype=np.int16), *offsets], dtype=np.int16)
        self.parent_slot = slot[parent[np.concatenate([np.empty(0, dtype=np.int64), *order])]]

    def search(self, perms: np.ndarray, columns: np.ndarray, targets: np.ndarray
               ) -> np.ndarray:
        """Stream position of the first match per frame, -1 when abandoned.

        perms is (m, n): row i maps rank-1 (index 0) to the bit position
        holding that rank in frame i; targets are the m nonzero syndromes.
        """
        pos = np.empty(len(targets), dtype=np.int64)
        frame_class = _parity(targets & self.class_mask, self.class_mask.bit_length())
        for c in (0, 1):
            frames = np.flatnonzero(frame_class == c)
            # a class of every frame, as on one-class codes, is sliced in place
            every = len(frames) == len(targets)
            tops = {}  # a piece's top ranks in test order, by its first row
            for lo in range(0, len(frames), self.slice_frames):
                hi = lo + self.slice_frames
                f = slice(lo, hi) if every else frames[lo:hi]
                pos[f] = self._search_slice(columns[perms[f]], targets[f], c, tops)
        return pos

    def _search_slice(self, sigma, targets, c, tops) -> np.ndarray:
        """Stream positions for one slice of class c frames; sigma[f, r] is
        the syndrome of a lone flip at frame f's rank r. tops caches each
        piece's top ranks across the slices of one class."""
        frames = np.arange(len(targets))
        pos = np.empty(len(frames), dtype=np.int64)
        first = np.full(len(frames), self.pattern_count)
        sigma = np.ascontiguousarray(sigma.T)  # (ranks x frames), like u
        u = np.empty((self.slots, len(frames)), dtype=sigma.dtype)
        u[0] = targets
        for lo, hi, levels, pieces in self.tiles:
            for a, b, parent_slot, top in levels:
                # parent slots lie below a; clip, as a raising take buffers out
                level = u[a:b]
                np.take(u[:a], parent_slot, axis=0, out=level, mode="clip")
                level ^= np.take(sigma, top, axis=0)
            for h0, h1 in pieces[c]:
                ranks = tops.get(h0)
                if ranks is None:
                    ranks = tops[h0] = self.top[lo:hi][self.test_rows[h0:h1]]
                hit = np.flatnonzero(np.take(u, self.parent_slot[h0:h1], axis=0)
                                     == np.take(sigma, ranks, axis=0))
                if hit.size:
                    at, frame = np.divmod(hit, len(frames))
                    np.minimum.at(first, frame, np.add(self.test_rows[h0 + at], lo,
                                                       dtype=np.int64))
            live = first >= hi
            if np.count_nonzero(live) <= self.compact_live * len(frames):
                # compress keeps the rows C-ordered for the row gathers
                pos[frames[~live]] = first[~live]
                if not live.any():
                    return pos
                frames, first = frames[live], first[live]
                u, sigma = (np.compress(live, a, axis=1) for a in (u, sigma))
        pos[frames] = np.where(first < self.pattern_count, first, -1)
        return pos

    # bound in SoftEngine's own namespace: bench/layers.py patches the
    # engine's methods by class attribute
    decode_frame = _RankPatterns.decode_frame
    hit_ranks = _RankPatterns.hit_ranks


def build_engine(code: LinearCode, spec: DecoderSpec):
    """The engine of a spec: SoftEngine for every reliability-sorted stream,
    HardEngine for the frame-independent weight order."""
    return (SoftEngine if spec.uses_sorting else HardEngine)(code, spec)
