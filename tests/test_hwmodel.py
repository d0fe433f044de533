import itertools
import math
import re

import pytest

from stepgrand.decoder import ABANDONED, CLEAN, HIT, DecodeTrace, StepGrandSpec
from stepgrand.hwmodel import (
    LatencyModel,
    anchor_steps,
    combination_rank,
    info_throughput_bps,
    latency_seconds,
)
from stepgrand.patterns import StepSchedule, build_step_schedule, subset_count, subset_teps

CLOCK_HZ = 454e6


def reference_model():
    return LatencyModel(n=128, schedule=build_step_schedule(2, 6, 6, n=128))


class TestCombinationRank:
    def test_matches_enumeration(self):
        for p in (1, 2, 3):
            for i, combo in enumerate(itertools.combinations(range(1, 9), p)):
                assert combination_rank(combo, 8) == i + 1

    def test_singletons_rank_as_themselves(self):
        for a in range(1, 20):
            assert combination_rank((a,), 25) == a

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="ascend"):
            combination_rank((3, 3), 8)
        with pytest.raises(ValueError, match="ascend"):
            combination_rank((9,), 8)


class TestWorstCase:
    def test_reference_count_is_279(self):
        model = reference_model()
        assert model.worst_case == 279
        # itemized: a weight-2 hit costs the hard-word check, the one- and
        # two-flip steps and 7 sorter stages; the worst case adds
        # C(28,1) + C(16,2) + C(10,3) + C(4,4) composite steps
        assert model.cycles_from_steps(2)[0] == 10
        bases, last = anchor_steps(model.schedule)
        steps = [*bases.values(), last]
        assert [b - a for a, b in zip(steps, steps[1:])] == [28, 120, 120, 1]

    def test_anchor_steps_of_reference_schedule(self):
        # after the single- and two-flip steps, each weight's anchor sweep
        # follows the previous one; abandonment runs to the last step
        bases, last = anchor_steps(build_step_schedule(2, 6, 6, n=128))
        assert bases == {3: 2, 4: 30, 5: 150, 6: 270}
        assert last == 271
        model = reference_model()
        assert model.cycles_from_steps(last) == (279, 272)

    @pytest.mark.parametrize("gammas, worst", [
        ((100, 99, 46, 19, 11, 7), 279),
        ((100, 99, 44, 14, 8, 7), 143),
    ])
    def test_explicit_gammas(self, gammas, worst):
        # wide gamma_1 and gamma_2 cost no steps: 10 + C(44,1) + C(17,2)
        # + C(9,3) + C(5,4) = 279 for the first
        assert LatencyModel(128, StepSchedule(gammas)).worst_case == worst

    def test_worst_case_latency_nanoseconds(self):
        ns = latency_seconds(279, CLOCK_HZ) * 1e9
        assert math.isclose(ns, 614.5, rel_tol=5e-3)

    def test_no_composite_terms_below_weight_three(self):
        model = LatencyModel(n=64, schedule=build_step_schedule(1, 2, 2, n=64))
        assert model.worst_case == 3 + 6

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            LatencyModel(n=127, schedule=build_step_schedule(2, 6, 6))

    def test_rejects_oversized_schedule(self):
        with pytest.raises(ValueError, match="exceeds"):
            LatencyModel(n=32, schedule=build_step_schedule(2, 6, 6))


class TestFrameCycles:
    def test_clean_frame_is_one_cycle(self):
        model = reference_model()
        assert model.frame_cycles(DecodeTrace(outcome=CLEAN)) == 1

    def test_first_single_flip_pattern(self):
        model = reference_model()
        trace = DecodeTrace(outcome=HIT, ranks=(1,), stream_position=0)
        assert model.frame_cycles(trace) == 9

    def test_single_flip_cost_is_rank_independent(self):
        model = reference_model()
        costs = {
            model.frame_cycles(
                DecodeTrace(outcome=HIT, ranks=(r,), stream_position=r - 1)
            )
            for r in (1, 20, 54)
        }
        assert costs == {9}

    def test_two_flip_adds_one_step(self):
        model = reference_model()
        trace = DecodeTrace(outcome=HIT, ranks=(5, 11), stream_position=100)
        assert model.frame_cycles(trace) == 10

    def test_last_composite_step_equals_worst_case(self):
        model = reference_model()
        trace = DecodeTrace(outcome=HIT, ranks=(1, 2, 3, 4, 5, 6), stream_position=8827)
        assert model.frame_cycles(trace) == model.worst_case

    def test_abandonment_costs_worst_case(self):
        model = reference_model()
        assert model.frame_cycles(DecodeTrace(outcome=ABANDONED)) == 279

    def test_malformed_traces(self):
        model = reference_model()
        with pytest.raises(ValueError, match="unknown trace outcome"):
            model.frame_cycles(DecodeTrace(outcome="lost"))
        with pytest.raises(ValueError, match="must carry its ranks"):
            model.frame_cycles(DecodeTrace(outcome=HIT))
        with pytest.raises(ValueError, match="no weight-7 entry"):
            model.frame_cycles(DecodeTrace(outcome=HIT, ranks=(1, 2, 3, 4, 5, 6, 7)))
        with pytest.raises(ValueError, match="no weight-0 entry"):
            model.frame_cycles(DecodeTrace(outcome=HIT, ranks=()))
        # gammas (54, 42, 30, 18, 12, 6): each top rank lies past its subset
        for ranks in ((55,), (100,), (60, 70), (1, 2, 40), (1, 2, 3, 19)):
            with pytest.raises(ValueError, match=re.escape(
                    f"no weight-{len(ranks)} entry holding {ranks}")):
                model.frame_cycles(DecodeTrace(outcome=HIT, ranks=ranks))
        # gammas (5,): no weight-2 hit, and no rank above 5
        small = LatencyModel(8, build_step_schedule(1, 5, 1, n=8))
        for ranks in ((2, 3), (7,)):
            with pytest.raises(ValueError, match=f"no weight-{len(ranks)} entry"):
                small.frame_cycles(DecodeTrace(outcome=HIT, ranks=ranks))
        assert small.frame_cycles(DecodeTrace(outcome=HIT, ranks=(5,))) == 5

    def test_stream_walk_is_monotone_and_bounded(self):
        # every pattern in the stream, in order: cycle counts never decrease,
        # stay within [1, worst case], and the per-weight sweep consumes
        # exactly its composite-step budget
        model = reference_model()
        schedule = model.schedule
        last = 0
        steps_seen: dict[int, set[int]] = {hw: set() for _, hw in schedule.entries}
        for i, ranks in enumerate(subset_teps(schedule.gammas)):
            trace = DecodeTrace(outcome=HIT, ranks=ranks, stream_position=i)
            cycles = model.frame_cycles(trace)
            assert last <= cycles <= model.worst_case
            last = cycles
            steps_seen[len(ranks)].add(cycles)
        for gamma, hw in schedule.entries:
            if hw < 3:
                assert len(steps_seen[hw]) == 1
            else:
                assert len(steps_seen[hw]) == math.comb(gamma - 2, hw - 2)


class TestPipelineCycles:
    def test_clean_frame_stays_one(self):
        model = reference_model()
        assert model.pipeline_cycles(DecodeTrace(outcome=CLEAN)) == 1

    def test_sorter_stages_are_dropped(self):
        model = reference_model()
        hit1 = DecodeTrace(outcome=HIT, ranks=(1,), stream_position=0)
        assert model.pipeline_cycles(hit1) == 2
        assert model.pipeline_cycles(DecodeTrace(outcome=ABANDONED)) == 272


class TestThroughput:
    def test_clean_stream_gigabits(self):
        bps = info_throughput_bps(105, CLOCK_HZ, 1)
        assert math.isclose(bps, 47.7e9, rel_tol=5e-3)

    def test_worst_case_megabits(self):
        bps = info_throughput_bps(105, CLOCK_HZ, 279)
        assert math.isclose(bps, 170.8e6, rel_tol=5e-3)


class TestStreamSteps:
    @pytest.mark.parametrize("schedule", [
        StepGrandSpec(2, 6, 6).schedule(128), StepGrandSpec(1, 6, 2).schedule(128),
        StepSchedule((100, 99, 46, 19, 11, 7)), StepSchedule((100, 99, 44, 14, 8, 7)),
    ], ids=lambda s: "-".join(map(str, s.gammas)))
    def test_table_equals_time_step_at_every_position(self, schedule):
        model = LatencyModel(n=128, schedule=schedule)
        steps = model.stream_steps
        assert steps.dtype == "int64"
        assert len(steps) == subset_count(schedule.gammas) + 1
        for p, ranks in enumerate(subset_teps(schedule.gammas)):
            trace = DecodeTrace(outcome=HIT, ranks=ranks, stream_position=p)
            assert steps[p] == model.time_step(trace)
        assert steps[-1] == anchor_steps(schedule)[1]
        assert steps[-1] == model.time_step(DecodeTrace(outcome=ABANDONED))
