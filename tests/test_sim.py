import math
import re
import signal
from dataclasses import replace

import numpy as np
import pytest

from stepgrand import sim
from stepgrand.channel import ChannelConfig, SoftVector, noise_sigma, transmit
from stepgrand.codes import LinearCode, build_bch, build_ca_polar, code_from_parity_check
from stepgrand.decoder import (
    ABANDONED,
    CLEAN,
    HIT,
    DecodeTrace,
    GrandabSpec,
    OrbgrandSpec,
    StepGrandSpec,
    decode,
)
from stepgrand.fastpath import build_engine, packed_parity_columns
from stepgrand.gf2 import BitMatrix, BitWord, gf2_product
from stepgrand.hwmodel import LatencyModel
from stepgrand.patterns import chain_ranks
from stepgrand.sim import (
    CHUNK_FRAMES,
    SweepConfig,
    compare_decoders,
    run_point,
    run_sweep,
    sign_test_pvalue,
    wilson_interval,
)


def identity_code(n: int) -> LinearCode:
    eye = BitMatrix.from_array(np.eye(n, dtype=np.uint8))
    return LinearCode(
        name=f"identity({n})", n=n, k=n, generator=eye,
        parity_check=BitMatrix(0, n, ()), generator_right_inverse=eye,
    )


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestAnalyticOracles:
    def test_rate_one_code_matches_bsc_crossover(self):
        # With no parity bits every frame is accepted at the first query, so
        # the frame error rate is exactly the raw corruption probability.
        n = 16
        ebn0 = 3.0
        cfg = SweepConfig(
            code=identity_code(n), variants=(GrandabSpec(1),), ebn0_db=(ebn0,),
            min_frame_errors=10**9, max_frames=60_000, seed=5,
        )
        stats = run_point(cfg, ebn0)
        sigma = noise_sigma(ebn0, 1.0)
        p = q_function(1.0 / sigma)
        fer_target = 1.0 - (1.0 - p) ** n
        tol = 4.0 * math.sqrt(fer_target * (1 - fer_target) / stats.frames)
        assert stats.frames == 60_000
        assert stats.capped
        assert stats.avg_queries == 1.0
        assert stats.wc_queries_obs == 1
        assert abs(stats.fer - fer_target) < tol
        ber_tol = 4.0 * math.sqrt(p * (1 - p) / (stats.frames * n))
        assert abs(stats.ber - p) < ber_tol

    def test_noiseless_point_is_all_clean(self):
        code = build_ca_polar(32, 20, crc=None)
        cfg = SweepConfig(
            code=code, variants=(StepGrandSpec(1, 6, 3),), ebn0_db=(40.0,),
            min_frame_errors=1, max_frames=2048, seed=0,
        )
        stats = run_point(cfg, 40.0)
        assert stats.frames == 2048
        assert stats.frame_errors == 0
        assert stats.bit_errors == 0
        assert stats.fer == 0.0
        assert stats.avg_queries == 1.0
        assert stats.avg_cycles == 1.0
        assert stats.wc_cycles_obs == 1
        assert stats.capped


class TestChunkZeroMirrorsLiteralDecoder:
    def test_point_stats_match_frame_by_frame_replay(self):
        # Re-derive every statistic for a sub-chunk run with the literal
        # decoder and the pinned RNG keying: chunk c of point i draws from
        # Philox key [seed, (i << 32) | c], full chunk first, truncated after.
        code = build_bch(4, 2)  # bch(15,7)
        spec = GrandabSpec(3)
        seed, ebn0, frames = 21, 6.0, 600
        cfg = SweepConfig(
            code=code, variants=(spec,), ebn0_db=(ebn0,),
            min_frame_errors=10**9, max_frames=frames, seed=seed,
        )
        stats = run_point(cfg, ebn0)

        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        msgs = rng.integers(0, 2, size=(CHUNK_FRAMES, code.k), dtype=np.uint8)
        noise = rng.standard_normal((CHUNK_FRAMES, code.n))
        msgs, noise = msgs[:frames], noise[:frames]
        sigma = noise_sigma(ebn0, code.k / code.n)

        errors = bit_errors = 0
        queries = []
        teps = list(spec.teps(code.n))
        for m_row, z_row in zip(msgs, noise):
            msg = BitWord.from_array(m_row)
            cw = code.encode(msg).to_array().astype(np.float64)
            y = (1.0 - 2.0 * cw) + sigma * z_row
            llr = 2.0 * y / (sigma * sigma)
            result = decode(SoftVector(llr=llr), code, iter(teps),
                            uses_sorting=spec.uses_sorting)
            queries.append(result.queries)
            failed = result.abandoned or result.message != msg
            if failed:
                errors += 1
                hard = BitWord.from_array((llr < 0).astype(np.uint8))
                guessed = result.codeword if result.codeword is not None else hard
                bit_errors += (code.recover_message(guessed) ^ msg).weight()
        assert stats.frames == frames
        assert stats.frame_errors == errors
        assert stats.bit_errors == bit_errors
        assert stats.avg_queries == pytest.approx(sum(queries) / frames)
        assert stats.wc_queries_obs == max(queries)


class TestChunkStages:
    code = build_ca_polar(32, 20, crc=None)
    # one hard variant without a cycle model, one sorting variant with one
    variants = (GrandabSpec(1), StepGrandSpec(1, 6, 3))

    def hand_built_frames(self):
        """Six frames with chosen channel errors and |llr|: clean and right,
        clean but another codeword, one weak flip, three of a weight-4
        codeword's positions flipped, two weak flips, one strong flip."""
        code = self.code
        w = np.flatnonzero(code.generator.to_array()[2])  # a weight-4 codeword
        assert w.size == 4
        msgs = np.random.default_rng(8).integers(0, 2, (6, code.k), dtype=np.uint8)
        cw = np.array([code.encode(BitWord.from_array(m)).to_array() for m in msgs])
        err = np.zeros_like(cw)
        mags = np.full(cw.shape, 8.0)
        err[1, w] = 1
        err[2, 5] = 1
        mags[2, 5] = 0.3
        err[3, w[:3]] = 1
        mags[3, w] = [0.3, 0.4, 0.5, 0.6]
        err[4, [7, 20]] = 1
        mags[4, [7, 20]] = [0.3, 0.4]
        err[5, 9] = 1
        mags[5] = 2.0
        mags[5, 9] = 8.0
        return msgs, cw, SoftVector((1.0 - 2.0 * (cw ^ err)) * mags)

    def test_decode_chunk_matches_per_frame_decode(self, monkeypatch):
        code, variants = self.code, self.variants
        monkeypatch.setattr(sim, "_STATE", {})
        sim._init_worker(code, variants, False)
        msgs, cw, received = self.hand_built_frames()
        frames, sums, peaks, discord = sim._decode_chunk(cw, received)

        m, v = len(msgs), len(variants)
        errors = np.zeros((v, m), dtype=np.int64)
        want_sums = np.zeros((v, 4), dtype=np.int64)
        want_peaks = np.zeros((v, 2), dtype=np.int64)
        kinds = set()
        for i, spec in enumerate(variants):
            model = sim._latency_model(spec, code.n)
            for j, llr in enumerate(received.llr):
                result = decode(SoftVector(llr), code, spec.teps(code.n),
                                spec.uses_sorting)
                msg = BitWord.from_array(msgs[j])
                wrong = result.abandoned or result.message != msg
                kinds.add((result.trace.outcome, wrong))
                errors[i, j] = wrong
                if wrong:
                    guessed = result.codeword
                    if guessed is None:
                        guessed = BitWord.from_array((llr < 0).astype(np.uint8))
                    want_sums[i, 1] += (code.recover_message(guessed) ^ msg).weight()
                want_sums[i, 2] += result.queries
                want_peaks[i, 0] = max(want_peaks[i, 0], result.queries)
                if model:
                    want_sums[i, 3] += model.pipeline_cycles(result.trace)
                    want_peaks[i, 1] = max(want_peaks[i, 1],
                                           model.frame_cycles(result.trace))
            want_sums[i, 0] = errors[i].sum()
        assert kinds == {(CLEAN, False), (CLEAN, True), (HIT, False), (HIT, True),
                         (ABANDONED, True)}
        # each variant errs on a frame the other decodes
        assert errors[0, 4] and not errors[1, 4]
        assert errors[1, 5] and not errors[0, 5]
        assert frames == m
        assert sums.tolist() == want_sums.tolist()
        assert peaks.tolist() == want_peaks.tolist()
        assert discord.tolist() == (errors @ (1 - errors).T).tolist()

    def test_each_stage_runs_once_per_chunk(self, monkeypatch):
        # wrap each stage by module attribute, as a layer tracer does; a
        # stage inlined back into _run_chunk would no longer be seen
        calls = []

        def wrapped(name, fn):
            def stage(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return stage

        stages = ("_awgn_frames", "_decode_chunk", "_syndromes", "sort_reliability")
        for name in stages:
            monkeypatch.setattr(sim, name, wrapped(name, sim.__dict__[name]))
        cfg = SweepConfig(
            code=self.code, variants=self.variants, ebn0_db=(3.0,),
            min_frame_errors=10**9, max_frames=2 * CHUNK_FRAMES + 100, seed=2,
        )
        traced = compare_decoders(cfg)
        # the frame source, then the decoder stage calling the syndrome and
        # the one reliability sort of the chunk
        assert calls == list(stages) * 3
        monkeypatch.undo()
        assert compare_decoders(cfg) == traced


@pytest.fixture(scope="module")
def small_compare(tmp_path_factory):
    code = build_ca_polar(32, 20, crc=None)
    variants = (GrandabSpec(2), StepGrandSpec(1, 6, 3))

    def run(seed: int, workers: int) -> bytes:
        out = tmp_path_factory.mktemp("csv") / f"s{seed}w{workers}.csv"
        cfg = SweepConfig(
            code=code, variants=variants, ebn0_db=(3.0, 5.0),
            min_frame_errors=40, max_frames=8192, seed=seed,
            workers=workers,
        )
        compare_decoders(cfg, out=out)
        return out.read_bytes()

    return run


class TestDeterminism:
    def test_same_seed_same_bytes_across_workers(self, small_compare):
        base = small_compare(9, 1)
        assert small_compare(9, 3) == base
        assert small_compare(9, 1) == base

    def test_different_seed_differs(self, small_compare):
        assert small_compare(9, 1) != small_compare(10, 1)


class TestStopRule:
    def test_cap_respected_exactly_for_partial_chunk(self):
        cfg = SweepConfig(
            code=identity_code(8), variants=(GrandabSpec(1),), ebn0_db=(20.0,),
            min_frame_errors=10**9, max_frames=1500, seed=1,
        )
        stats = run_point(cfg, 20.0)
        assert stats.frames == 1500
        assert stats.capped

    def test_stops_at_first_satisfied_chunk(self):
        cfg = SweepConfig(
            code=identity_code(8), variants=(GrandabSpec(1),), ebn0_db=(0.0,),
            min_frame_errors=5, max_frames=10**6, seed=1,
        )
        stats = run_point(cfg, 0.0)
        assert stats.frames == CHUNK_FRAMES
        assert stats.frame_errors >= 5
        assert not stats.capped

    def test_quantized_run_is_flagged(self, tmp_path):
        out = tmp_path / "q.csv"
        cfg = SweepConfig(
            code=build_bch(4, 2), variants=(StepGrandSpec(1, 4, 2),),
            ebn0_db=(4.0,), min_frame_errors=5, max_frames=2048, seed=3,
            quantize=True,
        )
        run_sweep(cfg, out=out)
        text = out.read_text()
        assert "quantize=1" in text
        assert "workers" not in text


class TestPairedComparison:
    def test_wider_search_never_loses_frames_the_narrow_one_wins(self):
        # grandab(2) explores a strict prefix extension of grandab(1), so
        # under common noise its error set is a subset of the narrow one's.
        code = build_bch(4, 2)
        cfg = SweepConfig(
            code=code, variants=(GrandabSpec(1), GrandabSpec(2)),
            ebn0_db=(4.0,), min_frame_errors=60, max_frames=30_000, seed=13,
        )
        point = compare_decoders(cfg)[0]
        narrow, wide = point.stats
        assert point.discordant[1][0] == 0
        assert point.discordant[0][1] > 0
        assert wide.frame_errors <= narrow.frame_errors

    def test_compare_csv_layout(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = build_ca_polar(32, 20, crc=None)
        cfg = SweepConfig(
            code=code, variants=(GrandabSpec(2), OrbgrandSpec(20, 3)),
            ebn0_db=(4.0,), min_frame_errors=10, max_frames=4096, seed=2,
        )
        compare_decoders(cfg, out=out)
        lines = out.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# v1=grandab(ab=2)") for ln in meta)
        assert any(ln.startswith("# v2=orbgrand(lw=20,p=3)") for ln in meta)
        rows = [ln for ln in lines if not ln.startswith("#")]
        header, data = rows[0], rows[1:]
        assert header.startswith("ebn0_db,frames,v1_frame_errors")
        assert header.endswith(",capped")
        assert len(data) == 1
        assert len(data[0].split(",")) == len(header.split(","))

    def test_variant_count_validation(self):
        code = identity_code(8)
        single = SweepConfig(code=code, variants=(GrandabSpec(1),),
                             ebn0_db=(1.0,), max_frames=10)
        double = SweepConfig(code=code,
                             variants=(GrandabSpec(1), GrandabSpec(2)),
                             ebn0_db=(1.0,), max_frames=10)
        with pytest.raises(ValueError, match="at least two"):
            compare_decoders(single)
        with pytest.raises(ValueError, match="one variant"):
            run_sweep(double)
        with pytest.raises(ValueError, match="one variant"):
            run_point(double, 1.0)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        code = identity_code(8)
        with pytest.raises(ValueError, match="ebn0"):
            SweepConfig(code=code, variants=(GrandabSpec(1),), ebn0_db=())
        with pytest.raises(ValueError, match="min_frame_errors"):
            SweepConfig(code=code, variants=(GrandabSpec(1),),
                        ebn0_db=(1.0,), min_frame_errors=0)
        with pytest.raises(ValueError, match="variant"):
            SweepConfig(code=code, variants=(), ebn0_db=(1.0,))
        with pytest.raises(ValueError, match="workers"):
            SweepConfig(code=code, variants=(GrandabSpec(1),),
                        ebn0_db=(1.0,), workers=0)
        # chunks are keyed (point << 32) | chunk, so a point of more than
        # 2**32 chunks would reuse the next point's noise
        SweepConfig(code=code, variants=(GrandabSpec(1),), ebn0_db=(1.0,),
                    max_frames=CHUNK_FRAMES << 32)
        with pytest.raises(ValueError, match="max_frames must be at most 4398046511104"):
            SweepConfig(code=code, variants=(GrandabSpec(1),),
                        ebn0_db=(1.0,), max_frames=(CHUNK_FRAMES << 32) + 1)

    @pytest.mark.parametrize("ebn0_db, text", [
        ((3.0, 3.0), "3"), ((3.0, 4.0, 3.0), "3"), ((0.0, -0.0), "0"), ((0.5, 0.5), "0.5"),
    ])
    def test_rejects_repeated_points(self, ebn0_db, text):
        # each copy would run as its own point with its own noise
        with pytest.raises(ValueError, match=f"ebn0_db point {text} is given twice"):
            SweepConfig(code=identity_code(8), variants=(GrandabSpec(1),), ebn0_db=ebn0_db)

    def test_rejects_repeated_variants(self):
        # each copy would search every frame again, as its own CSV column
        variants = (GrandabSpec(2), StepGrandSpec(1, 4, 2), GrandabSpec(2))
        with pytest.raises(ValueError, match=re.escape("variant grandab(ab=2) is given twice")):
            SweepConfig(code=build_bch(4, 2), variants=variants, ebn0_db=(3.0,))

    @pytest.mark.parametrize("ebn0", [math.nan, -math.inf, math.inf])
    def test_rejects_non_finite_ebn0(self, ebn0):
        with pytest.raises(ValueError, match="ebn0_db values must be finite"):
            SweepConfig(code=identity_code(8), variants=(GrandabSpec(1),),
                        ebn0_db=(1.0, ebn0))

    def test_rejects_pattern_tables_above_the_limit(self):
        code = identity_code(128)
        SweepConfig(code=code, variants=(GrandabSpec(4),), ebn0_db=(1.0,))
        for spec, count in ((GrandabSpec(5), 275_584_032),
                            (StepGrandSpec(1, 12, 10), 171_330_665),
                            (OrbgrandSpec(), 2**128 - 1)):
            limit = sim.MAX_TABLE_PATTERNS
            with pytest.raises(ValueError, match=f"{count} patterns .* limit of {limit}"):
                SweepConfig(code=code, variants=(GrandabSpec(1), spec),
                            ebn0_db=(1.0,))

    def test_huge_stepgrand_p_is_refused_at_once(self):
        # the schedule has p entries; building them first took seconds and
        # gigabytes before p was checked against n
        def too_slow(signum, frame):
            pytest.fail("stepgrand p=10**9 was not refused within a second")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError, match="p_max=1000000000 exceeds block length n=128"):
                SweepConfig(code=identity_code(128), variants=(StepGrandSpec(1, 1, 10**9),),
                            ebn0_db=(1.0,))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_orbgrand_limit_check_does_not_walk_the_stream(self, monkeypatch):
        def walk_stream(spec, n):
            raise AssertionError("orbgrand stream walked")

        monkeypatch.setattr(OrbgrandSpec, "teps", walk_stream)
        SweepConfig(code=identity_code(128), variants=(OrbgrandSpec(64, 6),),
                    ebn0_db=(1.0,))

    @pytest.mark.parametrize("code, spec, fragment", [
        (identity_code(128), OrbgrandSpec(lw_max=10, p_max=0), "p_max must be >= 1"),
        (build_bch(4, 2), GrandabSpec(16), "max_weight must be in [0, 15], got 16"),
    ])
    def test_out_of_range_parameters_fail_at_config_time(self, code, spec, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            SweepConfig(code=code, variants=(GrandabSpec(1), spec), ebn0_db=(1.0,))

    def test_rejects_a_code_without_message_bits(self):
        # a square full-rank H leaves k = 0, which has no rate to set the noise
        eye = BitMatrix.from_array(np.eye(8, dtype=np.uint8))
        square = code_from_parity_check("square8", eye)
        assert square.k == 0
        message = "code square8 has no message bits (k = 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(code=square, variants=(GrandabSpec(1),), ebn0_db=(3.0,))


class TestWideSyndromes:
    # bch(127,92) has 35 parity bits, so its syndromes are int64
    def test_rejects_codes_above_63_parity_bits(self):
        SweepConfig(code=build_bch(7, 10), variants=(GrandabSpec(1),), ebn0_db=(1.0,))
        with pytest.raises(ValueError, match="70 parity bits; syndromes pack into at most 63"):
            SweepConfig(code=build_bch(7, 11), variants=(GrandabSpec(1),),
                        ebn0_db=(1.0,), workers=2)

    def test_sweep_bytes_match_across_workers(self, tmp_path):
        code = build_bch(7, 5)
        assert code.n - code.k == 35

        def run(workers):
            out = tmp_path / f"w{workers}.csv"
            cfg = SweepConfig(
                code=code, variants=(GrandabSpec(2), StepGrandSpec(1, 8, 4)),
                ebn0_db=(4.0,), min_frame_errors=10**9, max_frames=1500,
                seed=12, workers=workers,
            )
            return compare_decoders(cfg, out=out)[0], out.read_bytes()

        (point, csv), (_, csv2) = run(1), run(2)
        assert csv2 == csv
        grandab, step = point.stats
        assert point.frames == 1500
        assert 0 < step.frame_errors < grandab.frame_errors
        assert step.avg_cycles is None  # n = 127 has no cycle model


@pytest.fixture(scope="module", params=["capolar128", "bch127", "bch511"])
def parity_code(request):
    # bch(511,493) has k > 255, so an encoder product can exceed a byte
    return {"capolar128": lambda: build_ca_polar(128, 105),
            "bch127": lambda: build_bch(7, 3),
            "bch511": lambda: build_bch(9, 2)}[request.param]()


def edge_and_random_rows(width: int, seed: int) -> np.ndarray:
    rows = np.random.default_rng(seed).integers(0, 2, (40, width), dtype=np.uint8)
    rows[0], rows[1] = 0, 1
    return rows


class TestGf2Product:
    def test_encoder_matches_reference_encode(self, parity_code):
        code = parity_code
        msgs = edge_and_random_rows(code.k, 3)
        g32 = code.generator.to_array().astype(np.float32)
        cw = gf2_product(msgs, g32)
        assert cw.dtype == np.uint8
        expected = [code.encode(BitWord.from_array(m)).to_array() for m in msgs]
        assert np.array_equal(cw, np.array(expected))

    def test_bit_errors_match_reference_recovery(self, parity_code):
        # the decoder stage counts a frame's bit errors as |residual * G^-1|,
        # with residual = w XOR m G, in place of |recover(w) XOR m|
        code = parity_code
        words = edge_and_random_rows(code.n, 4)
        msgs = edge_and_random_rows(code.k, 5)
        g32 = code.generator.to_array().astype(np.float32)
        g_inv32 = code.generator_right_inverse.to_array().astype(np.float32)
        expected = sum(
            int((code.recover_message(BitWord.from_array(w)).to_array() != m).sum())
            for w, m in zip(words, msgs)
        )
        residual = words ^ gf2_product(msgs, g32)
        assert int(gf2_product(residual, g_inv32).sum()) == expected


class TestStatisticsHelpers:
    def test_wilson_interval_known_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038, abs=1e-3)
        assert hi == pytest.approx(0.5962, abs=1e-3)

    def test_wilson_interval_properties(self):
        for successes, trials in [(0, 50), (50, 50), (3, 17), (250, 1000)]:
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0
        lo_small, hi_small = wilson_interval(10, 100)
        lo_big, hi_big = wilson_interval(100, 1000)
        assert hi_big - lo_big < hi_small - lo_small
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)

    def test_sign_test_exact_values(self):
        assert sign_test_pvalue(0, 0) == 1.0
        assert sign_test_pvalue(3, 3) == pytest.approx(0.125)
        assert sign_test_pvalue(2, 3) == pytest.approx(0.5)
        assert sign_test_pvalue(0, 5) == 1.0
        # tail sums: P(X >= 8 | n=10) = (45 + 10 + 1) / 1024
        assert sign_test_pvalue(8, 10) == pytest.approx(56 / 1024)
        with pytest.raises(ValueError):
            sign_test_pvalue(4, 3)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
    def test_rejects_seeds_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            SweepConfig(code=identity_code(8), variants=(GrandabSpec(1),),
                        ebn0_db=(1.0,), seed=seed)

    def test_top_seeds_draw_their_own_frames(self):
        def errors(seed):
            cfg = SweepConfig(code=identity_code(8), variants=(GrandabSpec(1),),
                              ebn0_db=(1.0,), max_frames=512, seed=seed)
            return run_point(cfg, 1.0).bit_errors

        counts = [errors(s) for s in (0, (1 << 64) - 1, (1 << 64) - 2, 1 << 63)]
        assert len(set(counts)) == len(counts)


class TestStepCycles:
    def test_cycle_arrays_match_latency_model(self):
        # random reliability orders; each target is the syndrome of w random
        # ranks inside the weight-w subset of the schedule (a hit of weight
        # at most w), or of nine arbitrary ranks (nearly always abandoned)
        code = build_ca_polar(128, 105)
        spec = StepGrandSpec(2, 6, 6)
        engine = build_engine(code, spec)
        schedule = spec.schedule(code.n)
        model = LatencyModel(code.n, schedule)
        rng = np.random.default_rng(23)
        m = 400
        perms = np.argsort(rng.normal(0.0, 1.0, (m, code.n)), axis=1, kind="stable")
        cols = packed_parity_columns(code)
        targets = np.empty(m, dtype=np.int32)
        for i in range(m):
            gamma, w = schedule.entries[i % 7] if i % 7 < 6 else (code.n, 9)
            ranks = rng.choice(gamma, size=w, replace=False)
            targets[i] = np.bitwise_xor.reduce(cols[perms[i, ranks]])
        pos = engine.search(perms, cols, targets)
        # brute force: every pattern's syndrome XOR-reduced from its columns
        ranks = np.column_stack(list(chain_ranks(engine.parent, engine.top,
                                                 np.arange(engine.pattern_count), code.n)))
        for perm, target, p in zip(perms, targets, pos):
            syn = np.bitwise_xor.reduce(np.append(cols[perm], 0)[ranks], axis=1)
            hits = np.flatnonzero(syn == target)
            assert p == (hits[0] if hits.size else -1)
        frame_lat, pipe = model.cycles_from_steps(model.stream_steps[pos])
        weights = [len(engine.hit_ranks(p)) for p in pos[pos >= 0]]
        assert (pos < 0).sum() > 40
        assert {1, 2, 3, 4, 5, 6} <= set(weights)
        for p, f, c in zip(pos.tolist(), frame_lat.tolist(), pipe.tolist()):
            if p < 0:
                trace = DecodeTrace(outcome=ABANDONED)
            else:
                trace = DecodeTrace(outcome=HIT, ranks=engine.hit_ranks(p),
                                    stream_position=p)
            assert f == model.frame_cycles(trace)
            assert c == model.pipeline_cycles(trace)

    def test_sweep_cycles_match_per_frame_model(self):
        # replay chunk 0 with the literal decoder and charge every frame by
        # the per-trace latency model: the sweep's average is the pipelined
        # count, its worst case the full frame latency
        code = build_ca_polar(32, 20, crc=None)
        spec = StepGrandSpec(1, 6, 3)
        seed, ebn0, frames = 4, 3.0, 600
        cfg = SweepConfig(code=code, variants=(spec,), ebn0_db=(ebn0,),
                          min_frame_errors=10**9, max_frames=frames, seed=seed)
        stats = run_point(cfg, ebn0)

        model = LatencyModel(code.n, spec.schedule(code.n))
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        msgs = rng.integers(0, 2, size=(CHUNK_FRAMES, code.k), dtype=np.uint8)
        cw = np.array([code.encode(BitWord.from_array(m)).to_array()
                       for m in msgs[:frames]])
        llrs = transmit(cw, ChannelConfig(ebn0, code.rate), rng).llr
        traces = [decode(SoftVector(llr=llr), code, spec.teps(code.n), True).trace
                  for llr in llrs]
        assert {t.outcome for t in traces} == {CLEAN, HIT, ABANDONED}
        assert any(t.ranks is not None and len(t.ranks) == 3 for t in traces)
        pipe = [model.pipeline_cycles(t) for t in traces]
        assert stats.avg_cycles == pytest.approx(sum(pipe) / frames)
        assert stats.wc_cycles_obs == max(model.frame_cycles(t) for t in traces)


_GOLDEN_META = (
    "# stepgrand sweep\n"
    "# code=capolar(32,20+0) n=32 k=20\n"
    "{variants}"
    "# ebn0_db=3,5\n"
    "# seed=17 min_frame_errors=200 max_frames=2500 quantize=0 chunk_frames=1024\n"
    "# queries include the initial hard-decision membership test\n"
    "# avg_cycles: pipelined per-frame counter (sorter stages overlapped);"
    " wc_cycles_obs: full frame latency; cycles are modeled only for the"
    " stepped-schedule variant on power-of-two block lengths\n"
)

GOLDEN_SINGLE = _GOLDEN_META.format(
    variants="# variant=stepgrand(a=1,b=6,p=3)\n"
) + (
    "ebn0_db,frames,frame_errors,bit_errors,fer,ber,avg_queries,avg_cycles,"
    "wc_queries_obs,wc_cycles_obs,capped\n"
    "3,1024,248,2021,2.421875e-01,9.868164e-02,39.130859,3.323242,105,12,0\n"
    "5,2500,54,432,2.160000e-02,8.640000e-03,8.612800,1.799600,105,12,1\n"
)

GOLDEN_COMPARE = _GOLDEN_META.format(
    variants="# variants=grandab(ab=2);stepgrand(a=1,b=6,p=3)\n"
             "# v1=grandab(ab=2)\n"
             "# v2=stepgrand(a=1,b=6,p=3)\n"
) + (
    "ebn0_db,frames,v1_frame_errors,v1_bit_errors,v1_fer,v1_ber,"
    "v1_avg_queries,v1_avg_cycles,v1_wc_queries_obs,v1_wc_cycles_obs,"
    "v2_frame_errors,v2_bit_errors,v2_fer,v2_ber,v2_avg_queries,"
    "v2_avg_cycles,v2_wc_queries_obs,v2_wc_cycles_obs,capped\n"
    "3,1024,385,2785,3.759766e-01,1.359863e-01,200.269531,,529,,"
    "248,2021,2.421875e-01,9.868164e-02,39.130859,3.323242,105,12,0\n"
    "5,2500,184,1232,7.360000e-02,2.464000e-02,55.352800,,529,,"
    "54,432,2.160000e-02,8.640000e-03,8.612800,1.799600,105,12,1\n"
)

# orbgrand's 16,580-pattern stream spans several search tiles; the 3 dB
# point abandons frames, and quantized LLRs tie heavily
_ORBGRAND_META = _GOLDEN_META.format(variants="# variant=orbgrand(lw=48,p=5)\n")
_ORBGRAND_HEADER = (
    "ebn0_db,frames,frame_errors,bit_errors,fer,ber,avg_queries,avg_cycles,"
    "wc_queries_obs,wc_cycles_obs,capped\n"
)
GOLDEN_ORBGRAND = {
    False: _ORBGRAND_META + _ORBGRAND_HEADER + (
        "3,2500,157,896,6.280000e-02,1.792000e-02,165.477600,,16581,,1\n"
        "5,2500,11,46,4.400000e-03,9.200000e-04,7.844000,,835,,1\n"
    ),
    True: _ORBGRAND_META.replace("quantize=0", "quantize=1") + _ORBGRAND_HEADER + (
        "3,2048,338,1819,1.650391e-01,4.440918e-02,535.431152,,16581,,0\n"
        "5,2500,116,584,4.640000e-02,1.168000e-02,141.377600,,16581,,1\n"
    ),
}


# capolar128 under its default stepped schedule at 3 dB: over half the frames
# are errors, most of them abandoned after all three search tiles, and every
# frame's cycles come from hwmodel's step table
GOLDEN_STEPPED = (
    "# stepgrand sweep\n"
    "# code=capolar(128,105+11) n=128 k=105\n"
    "# variant=stepgrand(a=2,b=6,p=6)\n"
    "# ebn0_db=3\n"
    "# seed=41 min_frame_errors=1000000000 max_frames=2048 quantize=0 chunk_frames=1024\n"
    "# queries include the initial hard-decision membership test\n"
    "# avg_cycles: pipelined per-frame counter (sorter stages overlapped);"
    " wc_cycles_obs: full frame latency; cycles are modeled only for the"
    " stepped-schedule variant on power-of-two block lengths\n"
    "ebn0_db,frames,frame_errors,bit_errors,fer,ber,avg_queries,avg_cycles,"
    "wc_queries_obs,wc_cycles_obs,capped\n"
    "3,2048,1130,59497,5.517578e-01,2.766788e-01,5949.510742,161.593750,8829,279,1\n"
)


# capolar128 under grandab(ab=3) at 4 and 5 dB: 3506 nonclean frames, of
# which 1032, 1079 and 781 hit at weights 1, 2 and 3 and 614 run the
# 349,632-pattern stream out
GOLDEN_GRANDAB = (
    "# stepgrand sweep\n"
    "# code=capolar(128,105+11) n=128 k=105\n"
    "# variant=grandab(ab=3)\n"
    "# ebn0_db=4,5\n"
    "# seed=43 min_frame_errors=1000000000 max_frames=2048 quantize=0 chunk_frames=1024\n"
    "# queries include the initial hard-decision membership test\n"
    "# avg_cycles: pipelined per-frame counter (sorter stages overlapped);"
    " wc_cycles_obs: full frame latency; cycles are modeled only for the"
    " stepped-schedule variant on power-of-two block lengths\n"
    "ebn0_db,frames,frame_errors,bit_errors,fer,ber,avg_queries,avg_cycles,"
    "wc_queries_obs,wc_cycles_obs,capped\n"
    "4,2048,567,28787,2.768555e-01,1.338681e-01,131026.580566,,349633,,1\n"
    "5,2048,119,5689,5.810547e-02,2.645554e-02,40082.026367,,349633,,1\n"
)

# grandab(ab=0) has an empty stream: every nonclean frame is abandoned at
# its first query; 1500 frames end in a partial chunk
GOLDEN_GRANDAB_EMPTY = (
    "# stepgrand sweep\n"
    "# code=capolar(32,20+0) n=32 k=20\n"
    "# variant=grandab(ab=0)\n"
    "# ebn0_db=5\n"
    "# seed=17 min_frame_errors=1000000000 max_frames=1500 quantize=0 chunk_frames=1024\n"
    "# queries include the initial hard-decision membership test\n"
    "# avg_cycles: pipelined per-frame counter (sorter stages overlapped);"
    " wc_cycles_obs: full frame latency; cycles are modeled only for the"
    " stepped-schedule variant on power-of-two block lengths\n"
    "ebn0_db,frames,frame_errors,bit_errors,fer,ber,avg_queries,avg_cycles,"
    "wc_queries_obs,wc_cycles_obs,capped\n"
    "5,1500,754,4268,5.026667e-01,1.422667e-01,1.000000,,1,,1\n"
)


def test_ebn0_text_is_g_where_exact_and_exact_elsewhere():
    # up to six significant digits, "g" bytes, exponent form included
    for e in (0.0, -2.5, 0.1, 1e-05, 123456.0, 1e6, 3e20):
        assert sim._ebn0_text(e) == format(e, "g")
    # beyond them, text that reads back as the point itself
    for e in (10.00001, 1234567.0, 0.1 + 0.2, -1e-9 / 3):
        assert float(sim._ebn0_text(e)) == e != float(format(e, "g"))


class TestGoldenCsv:
    # two points on capolar(32,20): 3 dB stops after one chunk, 5 dB runs
    # into the 2500-frame cap (two full chunks and a partial one); the
    # stepped variant has cycles, grandab and its empty cells do not
    @staticmethod
    def config(*variants):
        return SweepConfig(
            code=build_ca_polar(32, 20, crc=None), variants=variants,
            ebn0_db=(3.0, 5.0), min_frame_errors=200, max_frames=2500, seed=17,
        )

    def test_single_variant_bytes(self, tmp_path):
        out = tmp_path / "single.csv"
        run_sweep(self.config(StepGrandSpec(1, 6, 3)), out=out)
        assert out.read_text() == GOLDEN_SINGLE

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
    def test_orbgrand_bytes(self, tmp_path, quantized):
        out = tmp_path / "orbgrand.csv"
        cfg = replace(self.config(OrbgrandSpec(48, 5)), quantize=quantized)
        run_sweep(cfg, out=out)
        assert out.read_text() == GOLDEN_ORBGRAND[quantized]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stepped_schedule_bytes(self, tmp_path, workers):
        out = tmp_path / "step.csv"
        cfg = SweepConfig(
            code=build_ca_polar(128, 105), variants=(StepGrandSpec(2, 6, 6),),
            ebn0_db=(3.0,), min_frame_errors=10**9,
            max_frames=2 * CHUNK_FRAMES, seed=41, workers=workers,
        )
        run_sweep(cfg, out=out)
        assert out.read_text() == GOLDEN_STEPPED

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grandab_bytes(self, tmp_path, workers):
        out = tmp_path / "grandab.csv"
        cfg = SweepConfig(
            code=build_ca_polar(128, 105), variants=(GrandabSpec(3),),
            ebn0_db=(4.0, 5.0), min_frame_errors=10**9,
            max_frames=2 * CHUNK_FRAMES, seed=43, workers=workers,
        )
        run_sweep(cfg, out=out)
        assert out.read_text() == GOLDEN_GRANDAB

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_grandab_stream_bytes(self, tmp_path, workers):
        out = tmp_path / "empty.csv"
        cfg = replace(self.config(GrandabSpec(0)), ebn0_db=(5.0,),
                      min_frame_errors=10**9, max_frames=1500, workers=workers)
        run_sweep(cfg, out=out)
        assert out.read_text() == GOLDEN_GRANDAB_EMPTY

    def test_compare_bytes_and_discord(self, tmp_path):
        out = tmp_path / "compare.csv"
        points = compare_decoders(
            self.config(GrandabSpec(2), StepGrandSpec(1, 6, 3)), out=out
        )
        assert out.read_text() == GOLDEN_COMPARE
        assert [p.discordant for p in points] == [((0, 153), (16, 0)),
                                                  ((0, 133), (3, 0))]

    def test_point_stats_are_python_numbers(self):
        points = compare_decoders(self.config(GrandabSpec(2), StepGrandSpec(1, 6, 3)))
        for point in points:
            assert type(point.frames) is int
            assert all(type(x) is int for row in point.discordant for x in row)
            for s in point.stats:
                for name in ("frames", "frame_errors", "bit_errors", "wc_queries_obs", "k"):
                    assert type(getattr(s, name)) is int, name
                assert type(s.avg_queries) is float
                assert type(s.capped) is bool
            grandab, step = point.stats
            assert grandab.avg_cycles is None and grandab.wc_cycles_obs is None
            assert type(step.avg_cycles) is float
            assert type(step.wc_cycles_obs) is int


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each chunk in this process at
    submit time and records the pool size and the chunks in flight."""

    made: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.pending = self.most_pending = 0
        self.made.append(self)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        self.pending += 1
        self.most_pending = max(self.most_pending, self.pending)
        value = fn(*args)
        pool = self

        class Done:
            def result(self):
                pool.pending -= 1
                return value

        return Done()


class TestWorkerPool:
    # no process is started: the pool is a recording stand-in
    @staticmethod
    def config(workers):
        return SweepConfig(
            code=identity_code(8), variants=(GrandabSpec(1), GrandabSpec(2)),
            ebn0_db=(1.0, 2.0), min_frame_errors=10**9,
            max_frames=10 * CHUNK_FRAMES + 5, seed=3, workers=workers,
        )

    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _RecordingPool)
        return _RecordingPool.made

    def test_workers_above_cpu_count_open_one_per_cpu(self, monkeypatch, pools):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        sequential = compare_decoders(self.config(1))
        assert pools == []
        assert compare_decoders(self.config(5000)) == sequential
        assert [p.max_workers for p in pools] == [3]
        assert pools[0].most_pending == 6

    def test_unknown_cpu_count_runs_in_process(self, monkeypatch, pools):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        compare_decoders(self.config(5000))
        assert pools == []
