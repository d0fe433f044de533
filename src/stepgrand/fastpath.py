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
by one binary search in a table sorted once, as packed (syndrome, row)
keys; SoftEngine serves every reliability-sorted stream
(orbgrand and the stepped schedule) by prefix recursion over the frames'
reliability permutations. It fills the residual syndrome of each parent
pattern only, and tests all of a parent's children at once by one hashed
lookup of that residual among the code's column syndromes, so its work per
frame goes with the stream's parents, not its rows.

On a code whose codewords all have even weight (CA-polar, any code with an
overall parity bit), a pattern e turns a hard word y into a codeword only
if wt(e) and wt(y) have the same parity, and `weight_parity_mask` reads
wt(y) mod 2 off y's syndrome. SoftEngine splits the frames into these two
parity classes and looks up, for each, only the parents whose children
have its parity, about half of them; on other codes (odd-length BCH) there
is one class. The engine keeps its parents in one array in (tile, weight
parity, weight) order, so the parents a class looks up in a tile are one
range of it.
"""

from __future__ import annotations

import itertools
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
    target's match in sorted_syn names its first hit.

    The table comes from one in-place sort of int64 keys, each row's
    syndrome packed above its row number: rows ascend within a run of equal
    syndromes, so each run's first key names its lowest row. A code whose
    parity bits and row bits overflow 63 bits takes an argsort of the
    syndromes and a minimum over each run instead, with the same result.
    """

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec)
        cols = packed_parity_columns(code)
        # a weight level at a time, a row's parent's syndrome XOR its top column;
        # the last entry, row -1's, is the empty pattern's 0
        syn = np.zeros(self.pattern_count + 1, dtype=cols.dtype)
        for lo, hi in grown_levels(self.parent):
            syn[lo:hi] = syn[self.parent[lo:hi]] ^ cols[self.top[lo:hi]]
        # int32 rows (tables stop at 2**25 patterns), and no temporary
        # outlives its use, or the build's peak memory rises
        count = self.pattern_count
        row_bits = (count - 1).bit_length()
        if code.n - code.k + row_bits <= 63:
            # one int64 key per row, its syndrome above its row number,
            # sorted in place: rows ascend within each run of equal
            # syndromes, so a run's first key holds its lowest row
            key = np.left_shift(syn[:-1], row_bits, dtype=np.int64)
            del syn
            key |= np.arange(count, dtype=np.int32)
            key.sort()
            rows = np.empty(count, dtype=np.int32)
            np.bitwise_and(key, (1 << row_bits) - 1, out=rows, casting="unsafe")
            key >>= row_bits
            first = np.ones(count, dtype=bool)  # the start of each run
            np.not_equal(key[1:], key[:-1], out=first[1:])
            self.order = rows[first]
            del rows
            syn = key.astype(cols.dtype, copy=False)
            del key
            self.sorted_syn = syn[first]
        else:
            # a key would not fit one word: an unstable argsort, and each
            # run of equal syndromes keeps its lowest row by a run minimum
            by_syn = np.argsort(syn[:-1]).astype(np.int32)
            syn = syn[by_syn]
            first = np.ones(count, dtype=bool)
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
    batched over frames, with one hashed lookup per parent.

    syn[row] = syn[parent[row]] ^ sigma[top[row]], sigma[r] being a frame's
    single-flip syndrome at rank r. So the child of a parent p at rank r hits
    when p's residual u[p] = syn[p] ^ target (the target for the empty
    pattern) equals sigma[r], the column syndrome of the bit at rank r, and
    one lookup of u[p] among the code's column syndromes tests all of p's
    children at once. A match names a bit; the frame's rank of that bit names
    the child, and child_at maps (p, rank) to the child's stream row. A
    parent's span of ranks runs from above its top to its children's
    highest; a gap in it, a rank with no child, holds pattern_count, a row
    past the stream.

    The lookup is a multiply-shift hash of the syndrome's unsigned view into
    a table of at least 32 slots per distinct nonzero column syndrome, its
    multiplier found deterministically so that no two of them share a slot.
    slot_syn holds a slot's syndrome (-1 when empty) and slot_bits[layer] its
    bit, one layer per column that shares the syndrome. Zero columns are left
    out: a child through one repeats its parent's syndrome, and the parent is
    an earlier row.

    Frames go through in slices of slice_frames, to keep the working set
    small, in a (parents x frames) layout of the columns' dtype; stream rows
    in tiles whose edges, block_edges, start at tile_rows and grow 4x per
    tile. Every parent (the empty pattern too) has a slot in one residual
    array, in (tile, weight parity, weight, row) order, the tile being the
    one that holds its first child; the empty pattern is slot 0. So a
    tile's parents of one parity are a range of slots, and so is each of
    its levels, its parents of one weight. A tile fills the u of its
    parents a level at a time from their parents' slots, then looks its
    parents up in blocks of at most lookup_parents, which bounds the
    temporaries. After a tile every row below its edge has been tested, so
    a frame whose first hit lies below that edge is resolved.

    On a code whose codewords all have even weight, a pattern can match a
    hard word only if both have the same weight parity, which the frame's
    target gives as parity(class_mask & target) (`weight_parity_mask`). So
    each frame is in class 0 or 1, a slice holds one class, and it looks up
    only the parents whose children have its class's parity: each tile's
    range of the other parity. On other codes class_mask is 0, every frame
    is in class 0, and it looks up both of each tile's ranges, one after
    the other.

    A stream with a parent that is not an earlier row, a top rank not
    between its parent's and n, or a pattern twice raises a ValueError at
    construction.
    """

    slice_frames = 64
    tile_rows = 1024  # the first tile edge; each tile after is 4x as long
    lookup_parents = 2048
    compact_live = 0.5  # drop resolved frames once at most this share is live

    def __init__(self, code: LinearCode, spec: DecoderSpec):
        super().__init__(code, spec)
        parent, top, count, n = self.parent, self.top, self.pattern_count, code.n
        # row-sized index arrays are intp: numpy converts any other index
        # array to intp at each gather or scatter
        up = parent.astype(np.intp)
        up += 1  # each row's parent, 0 for the empty pattern
        if ((up < 0) | (up > np.arange(count))).any():
            raise ValueError("stream has a pattern whose parent is not an earlier row")
        self.block_edges = [0]
        while self.block_edges[-1] < count:
            self.block_edges.append(min(self.tile_rows << 2 * (len(self.block_edges) - 1), count))
        mask = weight_parity_mask(code)
        self.class_mask = 0 if mask is None else mask
        self._build_lookup(packed_parity_columns(code))

        # parents by index: the empty pattern (row -1), then each row that is
        # some row's parent, ascending; of[row] is the index of row's parent
        children = np.bincount(up, minlength=count + 1)
        is_parent = children > 0
        is_parent[0] = True
        rows = np.flatnonzero(is_parent) - 1
        index = np.zeros(count + 1, dtype=np.intp)
        index[rows + 1] = np.arange(len(rows))
        of = index[up]
        del up, children, is_parent, index
        top_of = np.full(len(rows), -1, dtype=np.int32)  # the empty pattern's is -1
        top_of[1:] = top[rows[1:]]
        # a child's offset: its top rank less its parent's lowest child rank
        offset = top - (top_of + 1)[of]
        if ((offset < 0) | (top >= n)).any():
            raise ValueError(f"stream has a top rank not above its parent's and below {n}")
        span = np.zeros(len(rows), dtype=np.int32)  # up to each parent's highest child
        np.maximum.at(span, of, offset + 1)
        start = np.cumsum(span, dtype=np.int32) - span
        # a gap holds count, a row past the stream
        self.child_at = np.full(int(span.sum()), count, dtype=np.int32)
        at = start.astype(np.intp)[of]
        at += offset
        self.child_at[at] = np.arange(count, dtype=np.int32)
        del offset, at
        if np.count_nonzero(self.child_at < count) < count:
            raise ValueError("stream has a pattern twice")
        # each parent's tile, the one that holds its first child
        first_child = np.minimum.reduceat(self.child_at, start) if count else start
        tile = np.searchsorted(self.block_edges, first_child, side="right") - 1
        # each parent's weight, its own parent's plus one: a pass per weight
        up_of = of[rows[1:]]  # the index of each parent's parent
        weight = np.zeros(len(rows), dtype=np.int8)
        while ((grown := weight[up_of] + 1) != weight[1:]).any():
            weight[1:] = grown
        width = int(weight.max()) + 1
        # slots in (tile, weight parity, weight, row) order: the empty
        # pattern is slot 0, and each (tile, parity) and (tile, weight) group
        # is a range of slots; per slot, the parent's first child rank, span
        # length and span start in child_at
        group = (tile * 2 + weight % 2) * width + weight
        order = np.argsort(group, kind="stable")
        slot = np.argsort(order)  # each parent's slot
        self.spans = np.column_stack([top_of + 1, span, start])[order]
        source = np.zeros(len(rows), dtype=np.int32)  # the slot of each parent's parent
        source[1:] = slot[up_of]
        # the first slot of each group and after
        groups = 2 * width * (len(self.block_edges) - 1) + 1
        bounds = np.searchsorted(group[order], np.arange(groups)).tolist()
        # per tile: its edge; its levels by weight, (slot a, slot b, the
        # level's parents' parent slots, its top ranks); per class, its
        # lookup blocks (slot a, slot b); and the slots that later tiles
        # read, which a compaction keeps
        self.tiles, read = [], 0
        for t in range(len(self.block_edges) - 2, -1, -1):  # the last first, for read
            g = 2 * t * width
            levels = []
            for w in range(1, width):
                k = g + w % 2 * width + w
                a, b = bounds[k:k + 2]
                if a < b:
                    member = order[a:b]
                    levels.append((a, b, source[member], top_of[member]))
            lo, mid, hi = bounds[g:g + 2 * width + 1:width]
            # class c looks up the parents of parity 1 - c; on one-class
            # codes class 0 looks up both, a parity at a time
            pieces = [[(lo, mid), (mid, hi)], []] if mask is None else [[(mid, hi)], [(lo, mid)]]
            blocks = [[(h, min(h + self.lookup_parents, b)) for a, b in piece
                       for h in range(a, b, self.lookup_parents)] for piece in pieces]
            self.tiles.append((self.block_edges[t + 1], levels, blocks, min(read, hi)))
            for _, _, parents, _ in levels:
                read = max(read, int(parents.max()) + 1)
        self.tiles.reverse()

    def _build_lookup(self, cols: np.ndarray) -> None:
        """The hash table of the nonzero column syndromes, see the class."""
        bits = np.flatnonzero(cols)
        # the bits by syndrome, each syndrome's first, and each bit's layer:
        # its place among the bits that share its syndrome. A sort, as
        # np.unique's first call imports numpy.ma
        bits = bits[np.argsort(cols[bits], kind="stable")]
        keys = cols[bits]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        distinct = keys[first]
        at = np.arange(len(keys))
        layer = at - np.maximum.accumulate(np.where(first, at, 0))
        self.hash_dtype = np.uint32 if cols.dtype == np.int32 else np.uint64
        width = 8 * cols.itemsize
        least = (32 * max(len(distinct), 1) - 1).bit_length()
        golden = 0x9E3779B97F4A7C15 >> 64 - width  # odd in either width
        # odd multiples of the golden ratio in turn, one more table bit after
        # each 64 that put two syndromes in one slot
        for attempt in itertools.count():
            size = least + attempt // 64
            self.multiplier = self.hash_dtype(golden * (2 * attempt + 1) % (1 << width))
            self.shift = self.hash_dtype(width - size)
            slots = np.sort(self._hash(distinct))
            if (slots[1:] != slots[:-1]).all():
                break
        self.slot_syn = np.full(1 << size, -1, dtype=cols.dtype)
        self.slot_syn[self._hash(distinct)] = distinct
        self.slot_bits = np.full((int(layer.max(initial=0)) + 1, 1 << size), -1, dtype=np.int32)
        self.slot_bits[layer, self._hash(keys)] = bits

    def _hash(self, syn: np.ndarray) -> np.ndarray:
        """Each syndrome's slot: the top bits of its unsigned view times the
        multiplier, in the view's width."""
        h = syn.view(self.hash_dtype) * self.multiplier
        h >>= self.shift
        return h

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
            for lo in range(0, len(frames), self.slice_frames):
                hi = lo + self.slice_frames
                f = slice(lo, hi) if every else frames[lo:hi]
                pos[f] = self._search_slice(perms[f], columns, targets[f], c)
        return pos

    def _search_slice(self, perms, columns, targets, c) -> np.ndarray:
        """Stream positions for one slice of class c frames."""
        frames = np.arange(len(targets))
        pos = np.empty(len(frames), dtype=np.int64)
        # int32, like child_at, which keeps minimum.at on numpy's fast path
        first = np.full(len(frames), self.pattern_count, dtype=np.int32)
        sigma = np.ascontiguousarray(columns[perms].T)  # (ranks x frames), like u
        # rank[f, bit]: frame f's 0-based rank of bit; bit -1, the pad, rank n
        rank = np.full((len(frames), perms.shape[1] + 1), perms.shape[1], dtype=perms.dtype)
        rank[frames[:, None], perms] = np.arange(perms.shape[1])
        u = np.empty((len(self.spans), len(frames)), dtype=sigma.dtype)
        u[0] = targets
        for hi, levels, blocks, keep in self.tiles:
            for a, b, parents, tops in levels:
                # clip, as a raising take buffers out
                level = u[a:b]
                np.take(sigma, tops, axis=0, out=level, mode="clip")
                level ^= np.take(u, parents, axis=0)
            for a, b in blocks[c]:
                self._lookup(u[a:b], self.spans[a:b], rank, frames, first)
            live = first >= hi
            if np.count_nonzero(live) <= self.compact_live * len(frames):
                pos[frames[~live]] = first[~live]
                if not live.any():
                    return pos
                frames, first = frames[live], first[live]
                sigma = np.compress(live, sigma, axis=1)
                # later tiles fill their own slots: copy only what they read,
                # C-ordered for the row gathers
                kept = np.empty((len(u), len(frames)), dtype=u.dtype)
                np.compress(live, u[:keep], axis=1, out=kept[:keep])
                u = kept
        pos[frames] = np.where(first < self.pattern_count, first, -1)
        return pos

    def _lookup(self, u, spans, rank, frames, first) -> None:
        """Lower first, per live frame, to the row of each child of u's
        parents that hits; spans are those parents' child spans."""
        h = self._hash(u)
        hit = np.flatnonzero(np.take(self.slot_syn, h) == u)
        if not hit.size:
            return
        at, f = np.divmod(hit, u.shape[1])
        first_rank, span, start = spans[at].T
        frame = frames[f]
        for bits in self.slot_bits[:, h.ravel()[hit]]:
            # a missing bit, -1, reads the pad rank n, past every span
            d = rank[frame, bits] - first_rank  # the child's place in its span
            ok = np.flatnonzero((d >= 0) & (d < span))
            np.minimum.at(first, f[ok], self.child_at[start[ok] + d[ok]])

    # bound in SoftEngine's own namespace: bench/layers.py patches the
    # engine's methods by class attribute
    decode_frame = _RankPatterns.decode_frame
    hit_ranks = _RankPatterns.hit_ranks


def build_engine(code: LinearCode, spec: DecoderSpec):
    """The engine of a spec: SoftEngine for every reliability-sorted stream,
    HardEngine for the frame-independent weight order."""
    return (SoftEngine if spec.uses_sorting else HardEngine)(code, spec)
