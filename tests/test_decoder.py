import random

import numpy as np
import pytest

from stepgrand.channel import SoftVector
from stepgrand.codes import (
    build_bch,
    build_ca_polar,
    code_from_generator,
    code_from_parity_check,
)
from stepgrand.decoder import (
    ABANDONED,
    CLEAN,
    HIT,
    GrandabSpec,
    OrbgrandSpec,
    StepGrandSpec,
    decode,
    syndrome_precompute,
    worst_case_queries,
)
from stepgrand.gf2 import BitMatrix, BitWord, rank
from stepgrand.patterns import map_ranks, sort_reliability, subset_teps


def soft_from_codeword(codeword, flip_positions=(), magnitudes=None):
    """LLRs agreeing with the codeword (magnitude 4.0) except at the flipped
    positions, which get the opposite sign and optional custom magnitudes."""
    bits = codeword.to_array().astype(np.int8)
    llr = (1.0 - 2.0 * bits) * 4.0
    for idx, p in enumerate(flip_positions):
        mag = 4.0 if magnitudes is None else magnitudes[idx]
        llr[p] = -np.sign(llr[p]) * mag
    return SoftVector(llr=llr)


def random_code(rng, n, k):
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        g = BitMatrix(k, n, rows)
        if rank(g) == k:
            return code_from_generator(f"random({n},{k})", g)


class TestCleanPath:
    def test_noiseless_frame_costs_one_query(self):
        code = build_bch(4, 2)
        msg = BitWord(7, 0b1011001)
        v = soft_from_codeword(code.encode(msg))
        result = decode(v, code, GrandabSpec(3).teps(code.n), uses_sorting=False)
        assert result.queries == 1
        assert result.message == msg
        assert not result.abandoned
        assert result.trace.outcome == CLEAN
        assert result.noise_guess.is_zero()

    def test_dimension_mismatch(self):
        code = build_bch(4, 2)
        with pytest.raises(ValueError, match="length"):
            decode(
                SoftVector(llr=np.ones(9)),
                code,
                GrandabSpec(1).teps(code.n),
                uses_sorting=False,
            )


class TestSingleFlip:
    def test_least_reliable_flip_is_found_first(self):
        code = build_bch(4, 2)
        msg = BitWord(7, 0b0110100)
        cw = code.encode(msg)
        spec = StepGrandSpec(alpha=1, beta=2, p_max=2)  # subsets (4,1),(2,2)
        for p in range(code.n):
            v = soft_from_codeword(cw, flip_positions=[p], magnitudes=[0.2])
            result = decode(v, code, spec.teps(code.n), uses_sorting=True)
            assert result.trace.outcome == HIT
            assert result.trace.weight == 1
            assert result.trace.ranks == (1,)
            assert result.queries == 2
            assert result.message == msg
            assert result.noise_guess == BitWord(code.n, 1 << p)

    def test_queries_bounded_by_first_subset(self):
        code = build_bch(4, 2)
        cw = code.encode(BitWord(7, 0b1010101))
        spec = StepGrandSpec(alpha=1, beta=2, p_max=2)
        gamma_1 = spec.schedule(code.n).entries[0][0]
        rng = random.Random(23)
        for _ in range(30):
            p = rng.randrange(code.n)
            v = soft_from_codeword(cw, flip_positions=[p], magnitudes=[0.5])
            result = decode(v, code, spec.teps(code.n), uses_sorting=True)
            if result.trace.outcome == HIT and result.trace.weight == 1:
                assert result.queries <= 1 + gamma_1


class TestQueryOrderFidelity:
    def test_queries_match_stream_position(self):
        code = build_bch(4, 2)
        rng = random.Random(31)
        for _ in range(40):
            y = BitWord(code.n, rng.getrandbits(code.n))
            v = soft_from_codeword(y)
            consumed = []
            def counting_stream():
                for tep in subset_teps((code.n,) * 3):
                    consumed.append(tep)
                    yield tep
            result = decode(v, code, counting_stream(), uses_sorting=False)
            if result.trace.outcome == CLEAN:
                assert consumed == []
                assert result.queries == 1
            elif result.abandoned:
                assert result.queries == 1 + len(consumed)
            else:
                assert result.trace.stream_position == len(consumed) - 1
                assert result.queries == 1 + len(consumed)
                assert consumed[-1].ranks == result.trace.ranks


class TestExhaustiveIsMinimumDistance:
    def test_matches_brute_force_nearest_codeword(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(5, 13)
            k = rng.randrange(2, min(n - 1, 8) + 1)
            code = random_code(rng, n, k)
            codebook = np.array(
                [code.encode(BitWord(k, m)).value for m in range(1 << k)],
                dtype=np.uint64,
            )
            for _ in range(20):
                y = rng.getrandbits(n)
                v = soft_from_codeword(BitWord(n, y))
                result = decode(
                    v, code, subset_teps((n,) * n), uses_sorting=False
                )
                assert not result.abandoned
                best = int(np.bitwise_count(codebook ^ np.uint64(y)).min())
                assert result.noise_guess.weight() == best


class TestSyndromeRoutesAgree:
    @pytest.mark.parametrize(
        "spec",
        [
            GrandabSpec(max_weight=2),
            OrbgrandSpec(lw_max=20, p_max=3),
            StepGrandSpec(alpha=1, beta=2, p_max=2),
        ],
        ids=["grandab", "orbgrand", "stepgrand"],
    )
    def test_table_and_direct_paths_identical(self, spec):
        code = build_bch(4, 2)
        rng = np.random.default_rng(43)
        for _ in range(40):
            llr = rng.normal(0.0, 2.0, size=code.n)
            v = SoftVector(llr=llr)
            a = decode(
                v, code, spec.teps(code.n), spec.uses_sorting,
                use_syndrome_table=True,
            )
            b = decode(
                v, code, spec.teps(code.n), spec.uses_sorting,
                use_syndrome_table=False,
            )
            assert a == b

    def test_some_abandonments_were_exercised(self):
        code = build_bch(4, 2)
        rng = np.random.default_rng(43)
        spec = GrandabSpec(max_weight=2)
        outcomes = set()
        for _ in range(40):
            llr = rng.normal(0.0, 2.0, size=code.n)
            result = decode(
                SoftVector(llr=llr), code, spec.teps(code.n), spec.uses_sorting
            )
            outcomes.add(result.trace.outcome)
        assert outcomes == {CLEAN, HIT, ABANDONED}


class TestSyndromePrecompute:
    def test_unit_columns_give_unit_syndromes(self):
        # H = [I | 1]: the first four columns are unit vectors, so with the
        # identity perm the table starts with 1, 2, 4, 8
        h = BitMatrix(4, 5, tuple((1 << i) | (1 << 4) for i in range(4)))
        code = code_from_parity_check("unit", h)
        table = syndrome_precompute(code)
        assert table[:4] == (1, 2, 4, 8)
        assert table[4] == 0b1111

    def test_xor_of_columns_equals_direct_syndrome(self):
        code = build_bch(7, 3)
        table = syndrome_precompute(code)
        rng = random.Random(47)
        for _ in range(1000):
            e_int = rng.getrandbits(code.n)
            acc = 0
            v = e_int
            pos = 0
            while v:
                if v & 1:
                    acc ^= table[pos]
                v >>= 1
                pos += 1
            assert acc == code.syndrome(BitWord(code.n, e_int)).value

    def test_permuted_table_follows_perm(self):
        code = build_bch(4, 2)
        perm = list(range(code.n))[::-1]
        table = syndrome_precompute(code, perm)
        for r in range(1, code.n + 1):
            assert table[r - 1] == code.parity_columns[perm[r - 1]]

    def test_rejects_bad_perm(self):
        code = build_bch(4, 2)
        with pytest.raises(ValueError, match="permutation"):
            syndrome_precompute(code, [0] * code.n)


class TestAdversarialFourFlip:
    def test_first_match_agrees_with_stream_walk(self):
        code = build_ca_polar(64, 30, crc=None)
        spec = StepGrandSpec(alpha=1, beta=6, p_max=6)
        gamma_4 = dict(
            (hw, gamma) for gamma, hw in spec.schedule(code.n).entries
        )[4]
        cw = code.encode(BitWord(30, 0x2A5F17D3))
        rng = random.Random(53)
        saw_weight_four = False
        for _ in range(40):
            # four flips planted on the four least reliable positions, which
            # all sit inside the weight-4 subset by construction
            mags = sorted(rng.uniform(0.05, 0.6) for _ in range(4))
            flips = rng.sample(range(code.n), 4)
            v = soft_from_codeword(cw, flip_positions=flips, magnitudes=mags)
            result = decode(v, code, spec.teps(code.n), uses_sorting=True)

            # independent walk: apply each pattern and test membership
            # directly, no syndrome table involved
            perm = sort_reliability(v.llr)
            y = BitWord.from_array((v.llr < 0).astype(np.uint8))
            expected = None
            for i, tep in enumerate(spec.teps(code.n)):
                e = map_ranks(tep, code.n, perm)
                if code.is_codeword(y ^ e):
                    expected = (i, tep.ranks)
                    break
            if expected is None:
                assert result.abandoned
            else:
                assert (result.trace.stream_position, result.trace.ranks) == expected
                if result.trace.weight == 4:
                    saw_weight_four = True
                    assert all(r <= gamma_4 for r in result.trace.ranks)
        assert saw_weight_four

    def test_planted_flips_recovered_when_ranks_fit(self):
        code = build_ca_polar(64, 30, crc=None)
        spec = StepGrandSpec(alpha=1, beta=6, p_max=6)
        cw = code.encode(BitWord(30, 0x1234ABC))
        flips = [5, 19, 40, 58]
        v = soft_from_codeword(cw, flip_positions=flips, magnitudes=[0.1, 0.2, 0.3, 0.4])
        result = decode(v, code, spec.teps(code.n), uses_sorting=True)
        assert result.trace.outcome == HIT
        assert result.message == BitWord(30, 0x1234ABC)
        assert result.noise_guess.weight() <= 4


class TestSupersetDominance:
    def test_step_patterns_are_subset_of_wide_orbgrand(self):
        n = 16
        step = StepGrandSpec(alpha=1, beta=6, p_max=2)  # subsets (12,1),(6,2)
        orb = OrbgrandSpec(lw_max=12, p_max=2)
        step_set = {t.ranks for t in step.teps(n)}
        orb_set = {t.ranks for t in orb.teps(n)}
        assert step_set <= orb_set

    def test_step_success_implies_superset_success(self):
        n = 16
        code = build_ca_polar(16, 7, crc=None)
        step = StepGrandSpec(alpha=1, beta=6, p_max=2)
        orb = OrbgrandSpec(lw_max=12, p_max=2)
        rng = np.random.default_rng(59)
        step_hits = 0
        for _ in range(60):
            llr = rng.normal(1.2, 1.0, size=n)
            v = SoftVector(llr=llr)
            a = decode(v, code, step.teps(n), uses_sorting=True)
            if not a.abandoned and a.trace.outcome == HIT:
                step_hits += 1
                b = decode(v, code, orb.teps(n), uses_sorting=True)
                assert not b.abandoned
        assert step_hits > 0


class TestVariantSpecs:
    def test_labels(self):
        assert GrandabSpec(3).label == "grandab(ab=3)"
        assert OrbgrandSpec(64, 6).label == "orbgrand(lw=64,p=6)"
        assert OrbgrandSpec().label == "orbgrand(lw=full,p=n)"
        assert StepGrandSpec(2, 6, 6).label == "stepgrand(a=2,b=6,p=6)"

    def test_worst_case_queries(self):
        assert worst_case_queries(GrandabSpec(3), 128) == 349_632
        assert worst_case_queries(StepGrandSpec(2, 6, 6), 128) == 8828
        assert worst_case_queries(StepGrandSpec(2, 7, 6), 128) == 15_778
        # tiny stream countable by hand: (1),(2),(3),(1,2)
        assert worst_case_queries(OrbgrandSpec(lw_max=3, p_max=2), 8) == 4

    def test_orbgrand_defaults_cover_everything(self):
        n = 6
        full = OrbgrandSpec()
        assert worst_case_queries(full, n) == (1 << n) - 1

    def test_abandoned_queries_hit_worst_case_plus_one(self):
        code = build_bch(4, 2)
        spec = GrandabSpec(max_weight=1)
        cw = code.encode(BitWord(7, 0))
        v = soft_from_codeword(cw, flip_positions=[0, 3, 6])
        result = decode(v, code, spec.teps(code.n), uses_sorting=False)
        assert result.abandoned
        assert result.message is None and result.codeword is None
        assert result.queries == 1 + worst_case_queries(spec, code.n)
