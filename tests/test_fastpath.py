import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepgrand.channel import SoftVector, harden, noise_sigma, quantize
from stepgrand.codes import build_bch, build_ca_polar, code_from_generator
from stepgrand.decoder import (
    GrandabSpec,
    OrbgrandSpec,
    StepGrandSpec,
    decode,
)
from stepgrand.fastpath import (
    HardEngine,
    HitReport,
    SoftEngine,
    _parity,
    build_engine,
    packed_parity_columns,
    weight_parity_mask,
)
from stepgrand.gf2 import BitMatrix, BitWord, parity
from stepgrand.hwmodel import LatencyModel
from stepgrand.patterns import chain_ranks


def literal_outcome(v, code, spec):
    result = decode(v, code, spec.teps(code.n), spec.uses_sorting)
    if result.abandoned:
        return (-1, ())
    if result.trace.outcome == "clean":
        return ("clean", ())
    positions = tuple(int(p) for p in np.flatnonzero(result.noise_guess.to_array()))
    return (result.trace.stream_position, positions)


class TestHardEngine:
    @pytest.mark.parametrize("ab", [1, 2, 3])
    def test_matches_literal_decoder(self, ab):
        code = build_bch(4, 2)
        spec = GrandabSpec(max_weight=ab)
        engine = HardEngine(code, spec)
        rng = np.random.default_rng(61)
        frames = []
        expected = []
        for _ in range(120):
            llr = rng.normal(1.0, 1.3, size=code.n)
            v = SoftVector(llr=llr)
            y = BitWord.from_array(harden(v))
            s = code.syndrome(y)
            if s.is_zero():
                continue
            frames.append(s.value)
            expected.append(literal_outcome(v, code, spec))
        reports = engine.decode_frames(np.array(frames, dtype=np.int32))
        got = [(r.stream_position, r.positions) for r in reports]
        assert got == expected
        assert engine.pattern_count == spec.pattern_count(code.n)

    @pytest.mark.parametrize("make, ab, wide", [
        (lambda: build_bch(4, 2), 0, False), (lambda: build_bch(4, 2), 1, False),
        (lambda: build_bch(4, 2), 3, False), (lambda: build_bch(7, 5), 2, False),
        (lambda: build_bch(7, 10), 2, True), (lambda: build_ca_polar(128, 71), 2, True),
        (lambda: code_from_generator("low-distance", BitMatrix(2, 64, (0b111, 0b1111000))),
         2, True),
    ], ids=["0", "1", "3", "bch127-2", "bch127x64-2", "capolar128x71-2", "low-distance64-2"])
    def test_rank_table_is_the_grandab_stream(self, make, ab, wide):
        # bch(15,7); bch(127,92), whose 35 parity bits pack into int64; and
        # codes whose parity bits (63, 57, 62) leave no room for a row number
        # beside them in one 63-bit sort key, so the table comes from an
        # argsort and a run minimum instead. The last has codewords of weight
        # 3 and 4, so its patterns of weight 1 and 2 share syndromes
        code = make()
        spec = GrandabSpec(max_weight=ab)
        engine = HardEngine(code, spec)
        stream = list(spec.teps(code.n))
        row_bits = (len(stream) - 1).bit_length()
        assert (code.n - code.k + row_bits > 63) == wide
        assert engine.pattern_count == len(stream)
        assert [engine.hit_ranks(row) for row in range(len(stream))] == stream
        # one table of the distinct syndromes, strictly increasing, each with
        # the lowest row that has it
        cols = packed_parity_columns(code)
        lowest = {}
        for row, ranks in enumerate(stream):
            syn = int(np.bitwise_xor.reduce(cols[[r - 1 for r in ranks]], initial=0))
            lowest.setdefault(syn, row)
        assert engine.sorted_syn.dtype == cols.dtype
        assert (np.diff(engine.sorted_syn) > 0).all()
        assert set(engine.sorted_syn.tolist()) == set(lowest)
        assert engine.order.dtype == np.int32
        assert engine.order.tolist() == [lowest[s] for s in engine.sorted_syn.tolist()]
        # the table is shorter than the stream, and a search past its end misses
        above = np.array([np.iinfo(cols.dtype).max], dtype=cols.dtype)
        assert len(engine.sorted_syn) == 0 or above[0] > engine.sorted_syn[-1]
        targets = np.concatenate([engine.sorted_syn, above])
        assert engine.search(None, None, targets).tolist() == [*engine.order.tolist(), -1]

    def test_build_peak_memory(self):
        # one in-place sort of packed (syndrome, row) keys peaks at ~8.66 MB,
        # with (parent, top), the int64 keys and the int32 rows or syndromes
        # read out of them alive at once. The bound leaves a few kB for the
        # interpreter's own allocations. A padded rank table, an argsort's
        # indices, an int64 temporary of the keys, or any temporary kept past
        # its use raises the peak above it
        code = build_ca_polar(128, 105)
        tracemalloc.start()
        try:
            engine = HardEngine(code, GrandabSpec(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(engine.sorted_syn) == 327_229
        assert peak <= 8_672_000
        # held: parent, top, sorted_syn and order, 5,414,896 bytes; the
        # padded rank table and its flip counts held 7,163,048 with the
        # last two
        held = sum(a.nbytes for a in vars(engine).values() if isinstance(a, np.ndarray))
        assert held < 7_163_048

    def test_empty_stream_abandons_every_frame(self):
        engine = HardEngine(build_bch(4, 2), GrandabSpec(max_weight=0))
        pos = engine.search(None, None, np.array([1, 6, 255], dtype=np.int32))
        assert pos.dtype == np.int64 and pos.tolist() == [-1, -1, -1]

    def test_flip_mask_ignores_perms(self):
        code = build_bch(4, 2)
        engine = HardEngine(code, GrandabSpec(max_weight=2))
        pos = np.array([-1, 0, 14, 15, engine.pattern_count - 1])
        perms = np.random.default_rng(3).permuted(
            np.tile(np.arange(code.n), (len(pos), 1)), axis=1)
        mask = engine.flip_mask(perms, pos)
        assert (mask == engine.flip_mask(None, pos)).all()
        assert [tuple(np.flatnonzero(row)) for row in mask] == [
            (), (0,), (14,), (0, 1), (13, 14)]

    def test_first_match_in_stream_order_wins(self):
        # craft two patterns with identical syndromes and check the earlier
        # stream index is reported
        code = build_bch(4, 2)
        engine = HardEngine(code, GrandabSpec(max_weight=3))
        cols = packed_parity_columns(code)
        target = int(cols[0] ^ cols[1] ^ cols[2])
        reports = engine.decode_frames(np.array([target], dtype=np.int32))
        report = reports[0]
        assert report.stream_position >= 0
        # walk the stream up to the reported position: no earlier pattern may
        # share the syndrome
        for i, ranks in enumerate(GrandabSpec(3).teps(code.n)):
            syn = 0
            for r in ranks:
                syn ^= int(cols[r - 1])
            if i < report.stream_position:
                assert syn != target
            elif i == report.stream_position:
                assert syn == target
                break


class TestSoftEngine:
    @pytest.mark.parametrize(
        "spec",
        [
            StepGrandSpec(alpha=1, beta=6, p_max=3),
            OrbgrandSpec(lw_max=20, p_max=3),
        ],
        ids=["stepgrand", "orbgrand"],
    )
    def test_matches_literal_decoder(self, spec):
        code = build_ca_polar(32, 20, crc=None)
        engine = SoftEngine(code, spec)
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(67)
        checked = 0
        abandoned = 0
        for _ in range(150):
            llr = rng.normal(1.0, 1.1, size=code.n)
            v = SoftVector(llr=llr)
            y = BitWord.from_array(harden(v))
            s = code.syndrome(y)
            if s.is_zero():
                continue
            perm = np.argsort(np.abs(llr), kind="stable")
            report = engine.decode_frame(perm, cols, s.value)
            expected = literal_outcome(v, code, spec)
            assert (report.stream_position, report.positions) == expected
            checked += 1
            if report.stream_position < 0:
                abandoned += 1
        assert checked > 50
        assert abandoned > 0

    def test_block_edges_partition_the_stream(self):
        code = build_ca_polar(128, 105)
        engine = SoftEngine(code, StepGrandSpec(2, 6, 6))
        edges = engine.block_edges
        assert edges[0] == 0
        assert edges[-1] == engine.pattern_count == 8828
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_hit_ranks_match_stream(self):
        code = build_ca_polar(32, 20, crc=None)
        spec = StepGrandSpec(alpha=1, beta=6, p_max=3)
        engine = SoftEngine(code, spec)
        stream = list(spec.teps(code.n))
        for row in (0, 5, 17, len(stream) - 1):
            assert engine.hit_ranks(row) == stream[row]

    def test_search_finds_planted_pattern(self):
        code = build_ca_polar(32, 20, crc=None)
        spec = StepGrandSpec(alpha=1, beta=6, p_max=3)
        engine = SoftEngine(code, spec)
        cols = packed_parity_columns(code)
        perm = np.arange(code.n)
        # syndrome of ranks (2, 5) = columns 1 and 4
        target = int(cols[1] ^ cols[4])
        row = int(engine.search(perm[None, :], cols, np.array([target], dtype=np.int32))[0])
        assert row >= 0
        hit = engine.hit_ranks(row)
        syn = 0
        for r in hit:
            syn ^= int(cols[r - 1])
        assert syn == target


class SmallTiles(SoftEngine):
    """SoftEngine with tiles and slices small enough that a short stream and
    a handful of frames cross several edges of each."""

    tile_rows = 29
    slice_frames = 5


def stream_ranks(engine, rows=None):
    """The ranks of the patterns at rows (default: every row) from the
    engine's parent chains, top first and padded with n."""
    rows = np.arange(engine.pattern_count) if rows is None else rows
    chain = chain_ranks(engine.parent, engine.top, rows, engine.code.n)
    return np.column_stack([np.empty((len(rows), 0), dtype=np.int32), *chain])


def first_match(engine, perm, cols, target):
    """First stream position whose pattern syndrome is target, -1 if none:
    every pattern's syndrome XOR-reduced from its columns, no recursion."""
    sigma = np.append(cols[perm], np.int32(0))
    syn = np.bitwise_xor.reduce(sigma[stream_ranks(engine)], axis=1)
    hits = np.flatnonzero(syn == target)
    return int(hits[0]) if hits.size else -1


class TestBatchedSoftSearch:
    # streams short enough for the literal decoder on every frame
    SPECS = [OrbgrandSpec(lw_max=30, p_max=4), OrbgrandSpec(lw_max=None, p_max=2),
             StepGrandSpec(1, 5, 4)]

    # even: a random code extended by a parity bit, whose frames split
    # into two weight-parity classes
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nk=st.sampled_from([(20, 10), (24, 12)]),
           kind=st.sampled_from(["float", "tied", "zero", "quantized"]),
           spec=st.sampled_from(SPECS), small=st.booleans(),
           count=st.integers(1, 24), even=st.booleans())
    def test_search_matches_decode(self, seed, nk, kind, spec, small, count, even):
        rng = np.random.default_rng(seed)
        code = (extended_code if even else random_code)(rng, *nk)
        engine = (SmallTiles if small else SoftEngine)(code, spec)
        assert engine.class_mask or not even
        cols = packed_parity_columns(code)
        frames = []
        while len(frames) < count:
            v = contract_llrs(rng, code.n, kind)
            s = code.syndrome(BitWord.from_array(harden(v)))
            if not s.is_zero():
                frames.append((v, np.argsort(np.abs(v.llr), kind="stable"), s.value))
        perms = np.array([f[1] for f in frames])
        pos = search(engine, frames, cols)
        flips = engine.flip_mask(perms, pos)
        for (v, _, _), p, row in zip(frames, pos, flips):
            want = literal_outcome(v, code, spec)
            assert (p, tuple(np.flatnonzero(row).tolist())) == want

    # orbgrand's 116,319 rows span five tiles, the stepped schedule's 8,828
    # rows three
    TILED = [OrbgrandSpec(64, 6), StepGrandSpec(2, 6, 6)]

    @pytest.mark.parametrize("m", [1, SoftEngine.slice_frames, SoftEngine.slice_frames + 1])
    def test_frame_counts_around_a_slice(self, m):
        code = build_ca_polar(128, 105)
        cols = packed_parity_columns(code)
        frames = nonclean_frames(code, np.random.default_rng(m), m, ebn0=3.0)
        for spec in self.TILED:
            engine = SoftEngine(code, spec)
            pos = search(engine, frames, cols)
            assert pos.shape == (m,) and pos.dtype == np.int64
            assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]

    @pytest.mark.parametrize("spec", TILED, ids=lambda s: s.label)
    def test_hits_on_both_sides_of_each_tile_edge(self, spec):
        code = build_ca_polar(128, 105)
        engine = SoftEngine(code, spec)
        edges = engine.block_edges
        # edges at 1024, 4096, 16384, ...: each tile 4x the one before
        inner = [engine.tile_rows << 2 * t for t in range(len(edges) - 2)]
        assert edges == [0, *inner, engine.pattern_count]
        assert engine.pattern_count <= inner[-1] * 4
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(29)
        rows = np.array([r for e in inner for r in (e - 1, e)])
        perms = np.argsort(rng.normal(size=(len(rows), code.n)), axis=1, kind="stable")
        # each target is the syndrome of the pattern at a row beside an edge
        targets = pattern_syndromes(engine, perms, cols, rows)
        pos = engine.search(perms, cols, targets)
        want = [first_match(engine, p, cols, t) for p, t in zip(perms, targets)]
        assert pos.tolist() == want
        assert (pos <= rows).all()
        # most plants are the first match, on both sides of the edges
        exact = rows[pos == rows]
        assert len(exact) > 0.8 * len(rows)
        assert {r in edges for r in exact.tolist()} == {False, True}

    def test_wide_table(self):
        # ten-rank rows at n = 128: 70 bits as seven bits per rank
        code = build_ca_polar(128, 105)
        spec = OrbgrandSpec(lw_max=55, p_max=None)
        engine = SoftEngine(code, spec)
        weights = (stream_ranks(engine) < code.n).sum(axis=1)
        assert weights.max() == 10
        assert engine.pattern_count == spec.pattern_count(code.n)
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(31)
        deep = np.flatnonzero(weights >= 8)
        rows = np.concatenate([rng.choice(deep, 30), [engine.pattern_count - 1]])
        perms = np.argsort(rng.normal(size=(len(rows), code.n)), axis=1, kind="stable")
        targets = pattern_syndromes(engine, perms, cols, rows)
        pos = engine.search(perms, cols, targets)
        assert pos.tolist() == [first_match(engine, p, cols, t)
                                for p, t in zip(perms, targets)]
        frames = nonclean_frames(code, rng, 20, ebn0=3.0)
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]

    @pytest.mark.parametrize("parent, top, message", [
        ([1, -1], [1, 0], "not an earlier row"),
        ([-2], [0], "not an earlier row"),
        ([-1, 0], [3, 3], "not above its parent's and below 32"),
        ([-1, -1], [0, 32], "not above its parent's and below 32"),
    ], ids=["parent-later", "parent-below-empty", "top-not-above-parent", "top-outside-n"])
    def test_rejects_streams_without_the_prefix_property(self, parent, top, message):
        with pytest.raises(ValueError, match=message):
            SoftEngine(build_ca_polar(32, 20, crc=None), HandBuilt(parent, top))


class HandBuilt:
    """A reliability-sorted spec whose stream is the given (parent, top)."""

    uses_sorting = True

    def __init__(self, parent, top):
        self.table = np.array(parent, dtype=np.int32), np.array(top, dtype=np.int32)

    def rank_table(self, n):
        return self.table


class TinyTiles(SoftEngine):
    """SoftEngine with edges at 2, 8, 32, ... rows and 3-frame slices."""

    tile_rows = 2
    slice_frames = 3


class CompactingTinyTiles(TinyTiles):
    """TinyTiles that compacts each slice after every tile."""

    compact_live = 1.0


def systematic_code(p_rows, n, k):
    """The [I | P] code whose P has the given rows: H's column i < k is P's
    row i, so a zero row makes a zero column and equal rows equal columns."""
    rows = tuple((1 << i) | (r << k) for i, r in enumerate(p_rows))
    return code_from_generator(f"systematic({n},{k})", BitMatrix(k, n, rows))


def planted(engine, code, rng, rows):
    """Frames as (None, perm, target): each target the syndrome of the
    pattern at one of rows under a random perm."""
    cols = packed_parity_columns(code)
    perms = np.argsort(rng.normal(size=(len(rows), code.n)), axis=1, kind="stable")
    targets = pattern_syndromes(engine, perms, cols, np.asarray(rows))
    return [(None, p, int(t)) for p, t in zip(perms, targets) if t]


class TestColumnLookup:
    # a parent's children are found by one lookup of its residual among the
    # code's column syndromes
    @pytest.mark.parametrize("engine_class", [SoftEngine, SmallTiles, TinyTiles])
    @pytest.mark.parametrize("spec", [OrbgrandSpec(lw_max=30, p_max=4), StepGrandSpec(1, 5, 4)],
                             ids=lambda s: s.label)
    def test_repeated_and_zero_columns(self, spec, engine_class):
        # P's row 0 is zero, rows 1, 2 and 4 are equal, and row 3 is H's
        # column 10 (the identity's first): columns 1, 2, 4 share a syndrome,
        # as do 3 and 10, and column 0 is zero
        rng = np.random.default_rng(73)
        p_rows = [int(r) for r in rng.integers(1, 1 << 10, size=10)]
        p_rows[0], p_rows[2], p_rows[3], p_rows[4] = 0, p_rows[1], 1, p_rows[1]
        code = systematic_code(p_rows, 20, 10)
        cols = packed_parity_columns(code)
        assert cols[0] == 0 and cols[1] == cols[2] == cols[4] and cols[3] == cols[10]
        engine = engine_class(code, spec)
        layers = engine.slot_bits
        assert len(layers) == 3 and 0 not in layers
        assert sorted(layers[layers >= 0].tolist()) == list(range(1, code.n))
        # a frame per row that holds bit 0, 1, 2, 3, 4 or 10 at its top rank
        # under the identity perm, then random frames
        frames = planted(engine, code, rng, rng.choice(engine.pattern_count, 60))
        frames += [(v, p, t) for v, p, t in nonclean_frames(code, rng, 40)]
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        flips = engine.flip_mask(np.array([f[1] for f in frames]), pos)
        for (v, _, _), p, row in list(zip(frames, pos, flips))[-40:]:
            assert (p, tuple(np.flatnonzero(row).tolist())) == literal_outcome(v, code, spec)

    def test_int64_syndromes(self):
        # capolar(128, 80): 48 parity bits, two weight classes
        code = build_ca_polar(128, 80)
        engine = SoftEngine(code, StepGrandSpec(2, 6, 6))
        assert engine.hash_dtype == np.uint64 and engine.slot_syn.dtype == np.int64
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(79)
        frames = nonclean_frames(code, rng, 120, ebn0=3.0)
        frames += planted(engine, code, rng, rng.choice(engine.pattern_count, 40))
        perms = np.array([f[1] for f in frames])
        targets = np.array([f[2] for f in frames], dtype=np.int64)
        assert (targets >= 1 << 31).any()
        pos = engine.search(perms, cols, targets)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        assert (pos >= 0).any() and (pos < 0).any()

    @pytest.mark.parametrize("engine_class", [SoftEngine, TinyTiles])
    def test_empty_stream(self, engine_class):
        code = build_ca_polar(32, 20, crc=None)
        engine = engine_class(code, HandBuilt([], []))
        assert engine.block_edges == [0] and engine.tiles == []
        frames = nonclean_frames(code, np.random.default_rng(83), 7)
        assert search(engine, frames, packed_parity_columns(code)).tolist() == [-1] * 7

    # the empty pattern's children take ranks 0, 3, 1 and 7, out of order and
    # with gaps; {0}'s take 2 and 5; {0, 2}'s 7 and 3; {3}'s 9 and 4
    GAPPED = ([-1, -1, 0, -1, 0, 1, 2, 3, -1, 2, 1],
              [0, 3, 2, 1, 5, 9, 7, 4, 7, 3, 4])

    @pytest.mark.parametrize("engine_class", [SoftEngine, SmallTiles, TinyTiles])
    def test_gaps_in_a_parents_child_ranks(self, engine_class):
        rng = np.random.default_rng(89)
        code = random_code(rng, 16, 8)
        engine = engine_class(code, HandBuilt(*self.GAPPED))
        # per parent row, its span: the ranks from above its top to its
        # children's highest, (first rank, length)
        spans = {int(r): tuple(span[:2])
                 for r, span in zip(slot_parents(engine), engine.spans.tolist())}
        assert spans == {-1: (0, 8), 0: (1, 5), 1: (4, 6), 2: (3, 5), 3: (2, 3)}
        assert engine.child_at.size == 27  # 16 gaps, each past the stream
        assert np.count_nonzero(engine.child_at == engine.pattern_count) == 16
        cols = packed_parity_columns(code)
        frames = planted(engine, code, rng, np.repeat(np.arange(engine.pattern_count), 3))
        frames += nonclean_frames(code, rng, 30)
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        assert len(set(pos.tolist())) > 8

    def test_rejects_a_pattern_twice(self):
        # row 2 repeats row 1, {0, 2}
        with pytest.raises(ValueError, match="stream has a pattern twice"):
            SoftEngine(build_ca_polar(32, 20, crc=None), HandBuilt([-1, 0, 0], [0, 2, 2]))

    def test_child_found_from_a_parent_in_an_earlier_tile(self):
        # a parent is looked up in the tile of its first child, so a child in
        # a later tile is found early and resolved only at its own tile's edge
        code = build_ca_polar(128, 105)
        engine = SoftEngine(code, OrbgrandSpec(64, 6))
        parent = engine.parent
        first_child = np.full(engine.pattern_count + 1, engine.pattern_count)
        np.minimum.at(first_child, parent + 1, np.arange(engine.pattern_count))
        early = np.flatnonzero(tile_of(engine, first_child[parent + 1])
                               < tile_of(engine, np.arange(engine.pattern_count)))
        rng = np.random.default_rng(97)
        rows = rng.choice(early, 90)
        assert len(set(tile_of(engine, rows).tolist())) >= 3
        frames = planted(engine, code, rng, rows)
        cols = packed_parity_columns(code)
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        exact = rows[pos == rows]
        assert len(exact) > 0.8 * len(rows)


def parent_rows(spec, n):
    """Per row, whether it is some row's parent, from the spec's table."""
    parent = spec.rank_table(n)[0]
    is_parent = np.zeros(len(parent), dtype=bool)
    is_parent[parent[parent >= 0]] = True
    return is_parent


def pattern_syndromes(engine, perms, cols, rows):
    """Syndrome of the pattern at rows[i] under perms[i], XOR-reduced."""
    sigma = np.concatenate([cols[perms], np.zeros((len(rows), 1), cols.dtype)], axis=1)
    ranks = stream_ranks(engine, rows)
    return np.bitwise_xor.reduce(np.take_along_axis(sigma, ranks, axis=1), axis=1)


def tile_of(engine, rows):
    """The tile of each stream row, from the engine's block edges."""
    return np.searchsorted(engine.block_edges, rows, side="right") - 1


def index_arrays(engine):
    """Every index array SoftEngine holds: its tiles' levels, its spans and
    child_at, its top ranks, and its hash table."""
    stack, found = [engine.tiles, engine.spans, engine.child_at, engine.top,
                    engine.slot_syn, engine.slot_bits], []
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return found


def slot_parents(engine):
    """Each slot's parent row (-1, the empty pattern, for slot 0), read back
    through its first child."""
    rows = []
    for first_rank, span, start in engine.spans.tolist():
        children = engine.child_at[start:start + span]
        child = children[children < engine.pattern_count]
        rows.append(int(engine.parent[child[0]]))
    return np.array(rows, dtype=np.int64)


def check_slot_layout(engine, one_class):
    """The slots hold every parent once, in (tile, weight parity, weight,
    row) order; each tile's levels fill its slots from parent slots a
    weight below; and class c looks up the tile's parents of parity 1 - c,
    or class 0 all of them, a parity at a time, when one_class."""
    found = slot_parents(engine)
    first_child = {}
    for row, p in enumerate(engine.parent.tolist()):
        first_child.setdefault(p, row)
    assert found[0] == -1
    assert sorted(found.tolist()) == sorted(first_child)
    weights = (stream_ranks(engine) < engine.code.n).sum(axis=1)
    weight = np.where(found >= 0, weights[found], 0)
    tile = tile_of(engine, [first_child[r] for r in found.tolist()])
    assert (np.lexsort((found, weight, weight % 2, tile)) == np.arange(len(found))).all()
    for t, (_, levels, blocks, _) in enumerate(engine.tiles):
        filled = []
        for a, b, parents, tops in levels:
            assert (weight[a:b] == weight[a]).all() and (weight[parents] == weight[a] - 1).all()
            assert (found[parents] == engine.parent[found[a:b]]).all()
            assert (tops == engine.top[found[a:b]]).all()
            filled += range(a, b)
        assert sorted(filled) == [i for i in np.flatnonzero(tile == t) if i > 0]
        for c in (0, 1):
            looked = [i for a, b in blocks[c] for i in range(a, b)]
            assert all(len({*weight[a:b] % 2}) == 1 for a, b in blocks[c])
            assert all(b - a <= engine.lookup_parents for a, b in blocks[c])
            want = (tile == t) & ((c == 0) if one_class else (weight % 2 != c))
            assert looked == np.flatnonzero(want).tolist()


class TestParentAndLeafRows:
    # a tile runs its parent rows by weight, then compares its leaves
    @pytest.mark.parametrize("spec", TestBatchedSoftSearch.TILED, ids=lambda s: s.label)
    def test_hits_on_both_row_kinds_in_every_tile(self, spec):
        code = build_ca_polar(128, 105)
        engine = SoftEngine(code, spec)
        cols = packed_parity_columns(code)
        is_parent = parent_rows(spec, code.n)
        rng = np.random.default_rng(37)
        rows = []
        for lo, hi in zip(engine.block_edges, engine.block_edges[1:]):
            for kind in (True, False):
                pick = lo + np.flatnonzero(is_parent[lo:hi] == kind)
                rows += rng.choice(pick, min(2, pick.size), replace=False).tolist()
        rows = np.array(rows)
        perms = np.argsort(rng.normal(size=(len(rows), code.n)), axis=1, kind="stable")
        targets = pattern_syndromes(engine, perms, cols, rows)
        pos = engine.search(perms, cols, targets)
        assert pos.tolist() == [first_match(engine, p, cols, t)
                                for p, t in zip(perms, targets)]
        exact = rows[pos == rows]
        assert ({(t, is_parent[r]) for t, r in zip(tile_of(engine, exact), exact)}
                == {(t, is_parent[r]) for t, r in zip(tile_of(engine, rows), rows)})
        # orbgrand has parent rows in its first 4 tiles, stepgrand in 3
        assert len({t for t, r in zip(tile_of(engine, rows), rows) if is_parent[r]}) >= 3

    @pytest.mark.parametrize("first_is_parent", [False, True],
                             ids=["leaf-first", "parent-first"])
    def test_earlier_hit_beats_a_later_tiles_other_row_kind(self, first_is_parent):
        # one frame's first hit in a tile; the same syndrome recurs on the
        # other row kind in a later tile. Four abandoned frames keep it in
        # its slice, so the later tile's hit competes.
        rng = np.random.default_rng(41)
        code = random_code(rng, 24, 12)
        spec = OrbgrandSpec(lw_max=30, p_max=4)
        engine = SmallTiles(code, spec)
        cols = packed_parity_columns(code)
        is_parent = parent_rows(spec, code.n)
        count, edges = engine.pattern_count, engine.block_edges
        every_row = np.arange(count)
        planted = None
        while planted is None:
            perm = rng.permutation(code.n)
            syn = pattern_syndromes(engine, np.tile(perm, (count, 1)), cols, every_row)
            for row in np.flatnonzero(is_parent == first_is_parent):
                same = np.flatnonzero(syn == syn[row])
                later = same[same >= edges[tile_of(engine, row) + 1]]
                if same[0] == row and (is_parent[later] != first_is_parent).any():
                    planted = (perm, syn[row], row)
                    break
        perm, target, row = planted
        frames = [(None, perm, target)]
        while len(frames) < engine.slice_frames:
            perm = rng.permutation(code.n)
            target = int(rng.integers(1, 1 << 12))
            if first_match(engine, perm, cols, target) < 0:
                frames.append((None, perm, target))
        pos = search(engine, frames, cols)
        assert pos.tolist() == [row] + [-1] * (engine.slice_frames - 1)

    @pytest.mark.parametrize("engine_class", [SoftEngine, SmallTiles])
    @pytest.mark.parametrize("spec", [OrbgrandSpec(lw_max=0, p_max=None),
                                      OrbgrandSpec(lw_max=None, p_max=1),
                                      StepGrandSpec(1, 6, 1)], ids=lambda s: s.label)
    def test_degenerate_streams(self, spec, engine_class):
        # an empty stream, and streams of leaves only
        code = build_ca_polar(128, 105)
        cols = packed_parity_columns(code)
        engine = engine_class(code, spec)
        assert not parent_rows(spec, code.n).any()
        for m in (1, engine.slice_frames, engine.slice_frames + 1):
            frames = nonclean_frames(code, np.random.default_rng(m), m, ebn0=3.0)
            pos = search(engine, frames, cols)
            assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]

    def test_index_arrays_are_int32_within_a_byte_budget(self):
        engine = SoftEngine(build_ca_polar(128, 105), OrbgrandSpec(64, 6))
        arrays = index_arrays(engine)
        assert arrays and all(a.dtype == np.int32 for a in arrays)
        # 1,395,828 bytes when each tile held its rows in an int16 test order
        # with an int32 parent slot per row; child_at is one int32 per row
        # (orbgrand's children take every rank of their spans), and the rest
        # are per parent or per table slot
        assert engine.child_at.size == engine.pattern_count
        assert sum(a.nbytes for a in arrays) <= 1_395_828


def extended_code(rng, n, k):
    """A random (n - 1, k) code extended by an overall parity bit, so every
    codeword has even weight."""
    rows = random_code(rng, n - 1, k).generator.rows
    rows = tuple(r | parity(r) << (n - 1) for r in rows)
    return code_from_generator(f"extended({n},{k})", BitMatrix(k, n, rows))


def random_words(rng, count, n):
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)


class TestWeightParityMask:
    @pytest.mark.parametrize("make", [
        lambda rng: build_ca_polar(128, 105),
        lambda rng: extended_code(rng, 24, 12),
        lambda rng: build_ca_polar(128, 80),  # 48 parity bits, int64 syndromes
    ], ids=["capolar128", "extended", "capolar128-80"])
    def test_masked_syndrome_parity_is_weight_parity(self, make):
        rng = np.random.default_rng(43)
        code = make(rng)
        mask = weight_parity_mask(code)
        assert mask is not None and 0 < mask < 1 << (code.n - code.k)
        words = random_words(rng, 300, code.n)
        for bits in words[:40]:
            y = BitWord.from_array(bits)
            assert parity(mask & code.syndrome(y).value) == y.weight() % 2
        # the engine's fold, on packed syndromes of the columns' dtype
        cols = packed_parity_columns(code)
        syn = np.bitwise_xor.reduce(cols * words, axis=1)
        assert syn.dtype == (np.int32 if code.n - code.k <= 31 else np.int64)
        assert (_parity(syn & mask, mask.bit_length()) == words.sum(axis=1) % 2).all()

    def test_absent_when_some_codeword_has_odd_weight(self):
        rng = np.random.default_rng(47)
        odd = random_code(rng, 24, 12)
        assert any(parity(r) for r in odd.generator.rows)
        for code in (build_bch(7, 3), odd):
            assert weight_parity_mask(code) is None

    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 21, 23, 31, 32, 33, 48, 63])
    def test_fold_is_the_parity_of_the_low_bits(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.integers(0, 1 << bits, size=500, dtype=np.int64)
        x[:2] = 0, (1 << bits) - 1
        assert _parity(x, bits).tolist() == [parity(int(v)) for v in x]
        if bits <= 31:
            assert _parity(x.astype(np.int32), bits).tolist() == _parity(x, bits).tolist()


def interleaved_frames(code, rng, count, classes, **kw):
    """count nonclean frames whose weight classes follow the cycle classes."""
    mask = weight_parity_mask(code)
    pools = {0: [], 1: []}
    want = [classes[i % len(classes)] for i in range(count)]
    while any(len(pools[c]) < want.count(c) for c in (0, 1)):
        for f in nonclean_frames(code, rng, 8, **kw):
            pools[parity(mask & f[2])].append(f)
    return [pools[c].pop() for c in want]


class TestParityClasses:
    # on codes with only even-weight codewords a frame tests only the rows
    # of its hard word's weight parity
    @pytest.mark.parametrize("engine_class", [SoftEngine, SmallTiles])
    def test_parent_slots_in_tile_parity_weight_order(self, engine_class):
        rng = np.random.default_rng(59)
        code = extended_code(rng, 24, 12)
        engine = engine_class(code, OrbgrandSpec(lw_max=30, p_max=4))
        assert engine.class_mask == weight_parity_mask(code)
        check_slot_layout(engine, one_class=False)
        if engine_class is SmallTiles:
            assert len(engine.tiles) > 1

    @pytest.mark.parametrize("engine_class", [SoftEngine, SmallTiles])
    def test_one_class_on_codes_with_odd_weight_codewords(self, engine_class):
        rng = np.random.default_rng(61)
        for code in (build_bch(4, 2), random_code(rng, 24, 12)):
            engine = engine_class(code, OrbgrandSpec(lw_max=30, p_max=4))
            assert engine.class_mask == 0
            # class 0 looks up every parent in every tile, class 1 holds no frame
            check_slot_layout(engine, one_class=True)
            frames = nonclean_frames(code, rng, 13)
            pos = search(engine, frames, packed_parity_columns(code))
            assert pos.tolist() == [first_match(engine, p, packed_parity_columns(code), t)
                                    for _, p, t in frames]

    def test_compaction_after_every_tile(self):
        # every slice drops its resolved frames after each tile and keeps
        # only the slots that later tiles read
        rng = np.random.default_rng(63)
        for code, even in ((extended_code(rng, 24, 12), True), (random_code(rng, 23, 12), False)):
            for spec in (OrbgrandSpec(lw_max=30, p_max=4), StepGrandSpec(1, 5, 4)):
                engine = CompactingTinyTiles(code, spec)
                assert bool(engine.class_mask) == even
                frames = nonclean_frames(code, rng, 20, ebn0=0.0)
                pos = search(engine, frames, packed_parity_columns(code))
                flips = engine.flip_mask(np.array([f[1] for f in frames]), pos)
                for (v, _, _), p, row in zip(frames, pos, flips):
                    want = literal_outcome(v, code, spec)
                    assert (p, tuple(np.flatnonzero(row).tolist())) == want
                assert (pos < 0).any() and len(set(tile_of(engine, pos[pos >= 0]))) > 3

    @pytest.mark.parametrize("classes", [(0, 1), (1, 1, 0), (0, 0, 1, 0, 1, 1)],
                             ids=["alternate", "two-to-one", "runs"])
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
    def test_interleaved_classes_across_slices_and_tiles(self, classes, quantized):
        rng = np.random.default_rng([67, len(classes)])
        code = extended_code(rng, 24, 12)
        spec = OrbgrandSpec(lw_max=30, p_max=4)
        cols = packed_parity_columns(code)
        # 23 frames: each class fills several 5-frame slices of SmallTiles
        frames = interleaved_frames(code, rng, 23, classes, quantized=quantized)
        for engine in (SmallTiles(code, spec), SoftEngine(code, spec)):
            pos = search(engine, frames, cols)
            assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        hit_tiles = set(tile_of(SmallTiles(code, spec), pos[pos >= 0]).tolist())
        assert len(hit_tiles) > 1
        for (v, _, _), p in zip(frames[:6], pos):
            assert p == literal_outcome(v, code, spec)[0]

    @pytest.mark.parametrize("spec", TestBatchedSoftSearch.TILED, ids=lambda s: s.label)
    def test_interleaved_classes_on_capolar128(self, spec):
        # 150 frames at 3 dB, classes alternating: each class crosses two
        # 64-frame slice edges and hits in several tiles
        code = build_ca_polar(128, 105)
        engine = SoftEngine(code, spec)
        cols = packed_parity_columns(code)
        frames = interleaved_frames(code, np.random.default_rng(71), 150, (0, 1), ebn0=3.0)
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        assert len(set(tile_of(engine, pos[pos >= 0]).tolist())) > 1


class TestBuildEngine:
    def test_dispatch(self):
        code = build_bch(4, 2)
        assert isinstance(build_engine(code, GrandabSpec(2)), HardEngine)
        assert isinstance(build_engine(code, StepGrandSpec(1, 6, 2)), SoftEngine)
        assert isinstance(
            build_engine(code, OrbgrandSpec(lw_max=10, p_max=2)), SoftEngine
        )

    def test_rejects_wide_parity_checks(self):
        code = build_ca_polar(128, 64, crc=None)
        with pytest.raises(ValueError, match="64 parity bits; syndromes pack into at most 63"):
            packed_parity_columns(code)

    @pytest.mark.parametrize("t, bits, dtype", [(3, 21, np.int32), (5, 35, np.int64),
                                                (10, 63, np.int64)])
    def test_syndrome_dtype_follows_parity_bits(self, t, bits, dtype):
        code = build_bch(7, t)
        cols = packed_parity_columns(code)
        assert code.n - code.k == bits
        assert cols.dtype == dtype
        assert cols.tolist() == list(code.parity_columns)

    @pytest.mark.parametrize("spec", [GrandabSpec(2), OrbgrandSpec(40, 4),
                                      StepGrandSpec(1, 8, 4)], ids=lambda s: s.label)
    def test_wide_syndromes_match_decode(self, spec):
        # the (127,92) BCH code: 35 parity bits, so int64 syndromes
        code = build_bch(7, 5)
        engine = build_engine(code, spec)
        cols = packed_parity_columns(code)
        frames = nonclean_frames(code, np.random.default_rng(37), 40, ebn0=4.0)
        perms = np.array([f[1] for f in frames])
        targets = np.array([f[2] for f in frames], dtype=np.int64)
        assert (targets >= 1 << 31).any()
        pos = engine.search(perms, cols, targets)
        flips = engine.flip_mask(perms, pos)
        outcomes = [literal_outcome(v, code, spec) for v, _, _ in frames]
        assert [(p, tuple(np.flatnonzero(row).tolist())) for p, row in zip(pos, flips)] == outcomes
        assert (pos >= 0).any() and (pos < 0).any()
        if isinstance(engine, SoftEngine):
            for (_, perm, target), want in zip(frames, outcomes):
                got = engine.decode_frame(perm, cols, target)
                assert (got.stream_position, got.positions) == want

    @pytest.mark.parametrize("engine_class, spec", [(HardEngine, GrandabSpec(3)),
                                                    (SoftEngine, StepGrandSpec(1, 6, 3))],
                             ids=["hard", "soft"])
    def test_no_hit_has_no_ranks(self, engine_class, spec):
        # -1, an abandoned frame, names the empty pattern: no ranks, no flips
        # (the last pattern's ranks were (4, 5, 6) for the soft case)
        code = build_ca_polar(32, 20, crc=None)
        engine = engine_class(code, spec)
        assert engine.hit_ranks(-1) == ()
        last = engine.pattern_count - 1
        assert len(engine.hit_ranks(last)) == len(list(spec.teps(code.n))[-1]) == 3
        perms = np.tile(np.arange(code.n), (2, 1))
        mask = engine.flip_mask(perms, np.array([-1, last]))
        assert not mask[0].any() and mask[1].sum() == 3

    def test_empty_report_for_unmatchable_syndrome(self):
        code = build_bch(4, 2)
        engine = HardEngine(code, GrandabSpec(max_weight=1))
        # a three-flip syndrome no single flip can produce
        cols = packed_parity_columns(code)
        target = int(cols[0] ^ cols[5] ^ cols[9])
        report = engine.decode_frames(np.array([target], dtype=np.int32))[0]
        assert report == HitReport(-1, ())


def random_code(rng, n, k):
    """Systematic [I | P] generator with a random P: always full rank."""
    rows = tuple((1 << i) | (int(rng.integers(0, 1 << (n - k))) << k)
                 for i in range(k))
    return code_from_generator(f"random({n},{k})", BitMatrix(k, n, rows))


def nonclean_frames(code, rng, count, ebn0=None, quantized=False):
    """count frames of the all-zero codeword with a nonzero syndrome, as
    (SoftVector, rank-to-position perm, packed target syndrome). Without
    ebn0 the LLRs are N(1.6, 1)."""
    frames = []
    while len(frames) < count:
        if ebn0 is None:
            llr = rng.normal(1.6, 1.0, size=code.n)
        else:
            sigma = noise_sigma(ebn0, code.rate)
            llr = 2.0 * (1.0 + sigma * rng.standard_normal(code.n)) / sigma**2
        v = SoftVector(llr=llr)
        if quantized:
            v = quantize(v)
        s = code.syndrome(BitWord.from_array(harden(v)))
        if not s.is_zero():
            perm = np.argsort(np.abs(v.llr), kind="stable")
            frames.append((v, perm, s.value))
    return frames


def search(engine, frames, cols):
    """engine.search over the frames as one batch, targets in the columns'
    dtype."""
    perms = np.array([f[1] for f in frames])
    targets = np.array([f[2] for f in frames], dtype=cols.dtype)
    return engine.search(perms, cols, targets)


class TestSteppedSchedule:
    # the stepped schedule through build_engine, against the literal decoder
    # and the first_match brute force
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
    @pytest.mark.parametrize(
        "spec", [StepGrandSpec(1, 4, 3), StepGrandSpec(2, 5, 4), StepGrandSpec(1, 6, 3)],
        ids=lambda s: s.label,
    )
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_literal_decoder_on_random_codes(self, seed, spec, quantized):
        rng = np.random.default_rng(seed)
        code = random_code(rng, 32, 16)
        engine = build_engine(code, spec)
        cols = packed_parity_columns(code)
        frames = nonclean_frames(code, rng, 60, quantized=quantized)
        if quantized:
            llrs = np.array([f[0].llr for f in frames])
            assert (llrs == 0).any()
            assert any(len(set(row)) < code.n for row in np.abs(llrs))
        pos = search(engine, frames, cols)
        outcomes = [literal_outcome(v, code, spec) for v, _, _ in frames]
        assert pos.tolist() == [o[0] for o in outcomes]
        for (v, perm, target), want in zip(frames, outcomes):
            got = engine.decode_frame(perm, cols, target)
            assert (got.stream_position, got.positions) == want

    @pytest.mark.parametrize("ebn0", [3.0, 5.0])
    @pytest.mark.parametrize(
        "code_name, spec",
        [("capolar128", StepGrandSpec(2, 6, 6)), ("bch127", StepGrandSpec(2, 7, 6))],
    )
    def test_matches_first_match_on_benchmark_codes(self, code_name, spec, ebn0):
        code = build_ca_polar(128, 105) if code_name == "capolar128" else build_bch(7, 3)
        engine = build_engine(code, spec)
        stream = list(spec.teps(code.n))
        assert engine.pattern_count == spec.pattern_count(code.n) == len(stream)
        assert [engine.hit_ranks(row) for row in range(len(stream))] == stream
        cols = packed_parity_columns(code)
        rng = np.random.default_rng([int(ebn0), code.n])
        frames = nonclean_frames(code, rng, 200, ebn0=ebn0)
        pos = search(engine, frames, cols)
        flips = engine.flip_mask(np.array([f[1] for f in frames]), pos)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]
        assert (pos >= 0).any() and (pos < 0).any()
        for (_, perm, _), p, row in zip(frames, pos, flips):
            ranks = [r - 1 for r in engine.hit_ranks(p)]
            assert tuple(np.flatnonzero(row)) == tuple(sorted(perm[ranks]))
        # the literal decoder on a few of them
        for v, perm, target in frames[:6]:
            got = engine.decode_frame(perm, cols, target)
            assert (got.stream_position, got.positions) == literal_outcome(v, code, spec)

    @pytest.mark.parametrize("spec", [StepGrandSpec(1, 6, 1), StepGrandSpec(1, 6, 2),
                                      StepGrandSpec(2, 6, 2)], ids=lambda s: s.label)
    def test_schedules_without_composite_entries(self, spec):
        code = build_ca_polar(128, 105)
        engine = build_engine(code, spec)
        steps = LatencyModel(code.n, spec.schedule(code.n)).stream_steps
        assert steps[-1] == 2
        cols = packed_parity_columns(code)
        frames = nonclean_frames(code, np.random.default_rng(17), 80, ebn0=5.0)
        pos = search(engine, frames, cols)
        want = [first_match(engine, p, cols, t) for _, p, t in frames]
        assert pos.tolist() == want
        weights = [len(engine.hit_ranks(p)) if p >= 0 else 2 for p in pos]
        assert steps[pos].tolist() == weights
        assert (pos >= 0).any() and (pos < 0).any()


CONTRACT_ENGINES = {
    "grandab": lambda code: build_engine(code, GrandabSpec(3)),
    "orbgrand": lambda code: build_engine(code, OrbgrandSpec(lw_max=20, p_max=3)),
    "stepgrand": lambda code: build_engine(code, StepGrandSpec(1, 5, 4)),
    "soft-stepped": lambda code: SoftEngine(code, StepGrandSpec(1, 5, 4)),
}


def contract_llrs(rng, n, kind):
    llr = rng.normal(2.0, 1.5, size=n)
    if kind == "tied":
        llr = np.round(llr)
    elif kind == "zero":
        llr[rng.random(n) < 0.25] = 0.0
    elif kind == "quantized":
        llr = quantize(SoftVector(llr=llr)).llr
    return SoftVector(llr=llr)


class TestEngineContract:
    @pytest.mark.parametrize("name", list(CONTRACT_ENGINES))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nk=st.sampled_from([(20, 10), (24, 12)]),
           kind=st.sampled_from(["float", "tied", "zero", "quantized"]))
    def test_search_and_flip_mask_match_decode(self, name, seed, nk, kind):
        rng = np.random.default_rng(seed)
        code = random_code(rng, *nk)
        engine = CONTRACT_ENGINES[name](code)
        cols = packed_parity_columns(code)
        frames = []
        for _ in range(12):
            v = contract_llrs(rng, code.n, kind)
            s = code.syndrome(BitWord.from_array(harden(v)))
            if not s.is_zero():
                frames.append((v, np.argsort(np.abs(v.llr), kind="stable"), s.value))
        assume(frames)
        perms = np.array([f[1] for f in frames])
        targets = np.array([f[2] for f in frames], dtype=np.int32)
        pos = engine.search(perms, cols, targets)
        flips = engine.flip_mask(perms, pos)
        assert pos.dtype == np.int64 and flips.shape == (len(frames), code.n)
        if isinstance(engine, HardEngine):
            reports = engine.decode_frames(targets)
        else:
            reports = [engine.decode_frame(p, cols, t) for _, p, t in frames]
        for (v, _, _), p, row, report in zip(frames, pos, flips, reports):
            want = literal_outcome(v, code, engine.spec)
            assert (p, tuple(np.flatnonzero(row).tolist())) == want
            assert (report.stream_position, report.positions) == want


class TestPositionPin:
    # SoftEngine.search positions on fixed 3 dB chunks of the bench's three
    # soft specs, float and quantized, as one digest per spec: a change to
    # the engine's layout that moves any position fails here
    PINS = {
        "capolar128 stepgrand(a=2,b=6,p=6)": "826b7e1d7a3d4347",
        "bch127 stepgrand(a=2,b=7,p=6)": "9074b8664e189779",
        "capolar128 orbgrand(lw=64,p=6)": "1bf0e338083252b4",
    }

    def test_positions_match_their_digests(self):
        codes = {"capolar128": build_ca_polar(128, 105), "bch127": build_bch(7, 3)}
        specs = [("capolar128", StepGrandSpec(2, 6, 6)), ("bch127", StepGrandSpec(2, 7, 6)),
                 ("capolar128", OrbgrandSpec(64, 6))]
        found = {}
        for code_name, spec in specs:
            code = codes[code_name]
            engine = SoftEngine(code, spec)
            cols = packed_parity_columns(code)
            digest = hashlib.sha256()
            for quantized in (False, True):
                rng = np.random.default_rng([3, code.n, quantized])
                frames = nonclean_frames(code, rng, 150, ebn0=3.0, quantized=quantized)
                pos = search(engine, frames, cols)
                assert (pos >= 0).any() and (pos < 0).any()
                digest.update(pos.astype("<i8").tobytes())
            found[f"{code_name} {spec.label}"] = digest.hexdigest()[:16]
        assert found == self.PINS
