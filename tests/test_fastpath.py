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
    build_engine,
    packed_parity_columns,
)
from stepgrand.gf2 import BitMatrix, BitWord
from stepgrand.hwmodel import LatencyModel


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

    @pytest.mark.parametrize("ab", [0, 1, 3])
    def test_rank_table_is_the_grandab_stream(self, ab):
        code = build_bch(4, 2)
        spec = GrandabSpec(max_weight=ab)
        engine = HardEngine(code, spec)
        stream = [tep.ranks for tep in spec.teps(code.n)]
        assert engine.pattern_count == len(stream)
        assert [engine.hit_ranks(row) for row in range(len(stream))] == stream
        assert engine.weights.tolist() == [len(r) for r in stream]
        assert (engine.rank_index[engine.weights == 1, 1:] == code.n).all()
        # one table: syndromes nondecreasing, and order a permutation of the
        # rows that ascends within each run of equal syndromes
        cols = packed_parity_columns(code)
        syn = [int(np.bitwise_xor.reduce(cols[[r - 1 for r in ranks]], initial=0))
               for ranks in stream]
        assert engine.order.dtype == np.int32
        assert sorted(engine.order.tolist()) == list(range(len(stream)))
        assert engine.sorted_syn.tolist() == [syn[row] for row in engine.order]
        assert (np.diff(engine.sorted_syn) >= 0).all()
        same = np.diff(engine.sorted_syn) == 0
        assert (np.diff(engine.order)[same] > 0).all()
        # the view the benchmark's trace sizes holds the engine's own arrays
        (table,) = engine.weight_tables
        assert table["positions"] is engine.rank_index
        assert table["sorted_syn"] is engine.sorted_syn
        assert table["order"] is engine.order

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
        for i, tep in enumerate(GrandabSpec(3).teps(code.n)):
            syn = 0
            for r in tep.ranks:
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
            assert engine.hit_ranks(row) == stream[row].ranks

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


def first_match(engine, perm, cols, target):
    """First stream position whose pattern syndrome is target, -1 if none:
    every pattern's syndrome XOR-reduced from its columns, no recursion."""
    sigma = np.append(cols[perm], np.int32(0))
    syn = np.bitwise_xor.reduce(sigma[engine.rank_index], axis=1)
    hits = np.flatnonzero(syn == target)
    return int(hits[0]) if hits.size else -1


class TestBatchedSoftSearch:
    # streams short enough for the literal decoder on every frame
    SPECS = [OrbgrandSpec(lw_max=30, p_max=4), OrbgrandSpec(p_max=2),
             StepGrandSpec(1, 5, 4)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nk=st.sampled_from([(20, 10), (24, 12)]),
           kind=st.sampled_from(["float", "tied", "zero", "quantized"]),
           spec=st.sampled_from(SPECS), small=st.booleans(),
           count=st.integers(1, 24))
    def test_search_matches_decode(self, seed, nk, kind, spec, small, count):
        rng = np.random.default_rng(seed)
        code = random_code(rng, *nk)
        engine = (SmallTiles if small else SoftEngine)(code, spec)
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

    # orbgrand's 116,319 rows span 29 tiles, the stepped schedule's 8,828
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
        assert edges[0] == 0 and edges[-1] == engine.pattern_count
        assert all(b - a == engine.tile_rows for a, b in zip(edges, edges[1:-1]))
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(29)
        rows = np.array([r for e in edges[1:-1] for r in (e - 1, e)])
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
        assert set(exact % engine.tile_rows) == {0, engine.tile_rows - 1}

    def test_wide_table(self):
        # ten-rank rows at n = 128: 70 bits as seven bits per rank
        code = build_ca_polar(128, 105)
        spec = OrbgrandSpec(lw_max=55)
        engine = SoftEngine(code, spec)
        assert engine.rank_index.shape[1] == 10
        assert engine.pattern_count == spec.pattern_count(code.n)
        cols = packed_parity_columns(code)
        rng = np.random.default_rng(31)
        deep = np.flatnonzero(engine.weights >= 8)
        rows = np.concatenate([rng.choice(deep, 30), [engine.pattern_count - 1]])
        perms = np.argsort(rng.normal(size=(len(rows), code.n)), axis=1, kind="stable")
        targets = pattern_syndromes(engine, perms, cols, rows)
        pos = engine.search(perms, cols, targets)
        assert pos.tolist() == [first_match(engine, p, cols, t)
                                for p, t in zip(perms, targets)]
        frames = nonclean_frames(code, rng, 20, ebn0=3.0)
        pos = search(engine, frames, cols)
        assert pos.tolist() == [first_match(engine, p, cols, t) for _, p, t in frames]

    @pytest.mark.parametrize("rows, parent, message", [
        ([[0, 1], [0, 32]], [1, -1], "not an earlier row"),
        ([[0, 32], [1, 2]], [-1, 0], "not its prefix"),
        ([[0, 32]], [-2], "not an earlier row"),
    ], ids=["parent-later", "parent-missing", "parent-below-empty"])
    def test_rejects_streams_without_the_prefix_property(self, rows, parent, message):
        class HandBuilt:
            uses_sorting = True

            def rank_table(self, n):
                return np.array(rows, dtype=np.int32), np.array(parent, dtype=np.int32)

        with pytest.raises(ValueError, match=message):
            SoftEngine(build_ca_polar(32, 20, crc=None), HandBuilt())


def parent_rows(spec, n):
    """Per row, whether it is some row's parent, from the spec's table."""
    parent = spec.rank_table(n)[1]
    is_parent = np.zeros(len(parent), dtype=bool)
    is_parent[parent[parent >= 0]] = True
    return is_parent


def pattern_syndromes(engine, perms, cols, rows):
    """Syndrome of the pattern at rows[i] under perms[i], XOR-reduced."""
    sigma = np.concatenate([cols[perms], np.zeros((len(rows), 1), cols.dtype)], axis=1)
    ranks = engine.rank_index[rows].astype(np.int64)
    return np.bitwise_xor.reduce(np.take_along_axis(sigma, ranks, axis=1), axis=1)


def tile_arrays(engine):
    """Every index array SoftEngine holds: its tiles' levels, and per row
    the parent slot and top rank."""
    stack, found = [engine.tiles, engine.parent_slot, engine.top], []
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return found


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
        tile = engine.tile_rows
        assert ({(r // tile, is_parent[r]) for r in exact}
                == {(r // tile, is_parent[r]) for r in rows})
        # orbgrand has parent rows in its first 7 tiles, stepgrand in 2
        assert len({r // tile for r in rows if is_parent[r]}) >= 2

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
        count, tile = engine.pattern_count, engine.tile_rows
        every_row = np.arange(count)
        planted = None
        while planted is None:
            perm = rng.permutation(code.n)
            syn = pattern_syndromes(engine, np.tile(perm, (count, 1)), cols, every_row)
            for row in np.flatnonzero(is_parent == first_is_parent):
                same = np.flatnonzero(syn == syn[row])
                later = same[same >= (row // tile + 1) * tile]
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
    @pytest.mark.parametrize("spec", [OrbgrandSpec(lw_max=0), OrbgrandSpec(p_max=1),
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
        arrays = tile_arrays(engine)
        assert arrays and all(a.dtype == np.int32 for a in arrays)
        # 1,395,828 bytes when each tile also held its leaves' and levels'
        # rows; one int32 parent slot and top rank per row, plus the
        # levels' own, is 1,012,216
        assert sum(a.nbytes for a in arrays) <= 1_395_828


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
    """engine.search over the frames as one batch."""
    perms = np.array([f[1] for f in frames])
    targets = np.array([f[2] for f in frames], dtype=np.int32)
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
        stream = [tep.ranks for tep in spec.teps(code.n)]
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
            ranks = engine.rank_index[p, :engine.weights[p]] if p >= 0 else []
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
        weights = np.where(pos >= 0, engine.weights[pos], 2)
        assert steps[pos].tolist() == weights.tolist()
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
