"""Pattern streams: schedule law, stream orders, counts, partition oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from stepgrand.decoder import GrandabSpec, OrbgrandSpec, StepGrandSpec
from stepgrand.patterns import (
    StepSchedule,
    Tep,
    build_step_schedule,
    distinct_partitions,
    grown_table,
    map_ranks,
    max_logistic_weight,
    orbgrand_count,
    orbgrand_teps,
    sort_reliability,
    subset_teps,
)


def test_tep_validation_and_weights():
    t = Tep((1, 4, 6))
    assert t.weight == 3
    assert t.logistic_weight == 11
    with pytest.raises(ValueError):
        Tep((2, 2))
    with pytest.raises(ValueError):
        Tep((3, 1))
    with pytest.raises(ValueError):
        Tep((0, 1))


def test_schedule_pinned_triples():
    assert build_step_schedule(2, 6, 6).entries == (
        (54, 1), (42, 2), (30, 3), (18, 4), (12, 5), (6, 6),
    )
    assert build_step_schedule(2, 7, 6).entries == (
        (63, 1), (49, 2), (35, 3), (21, 4), (14, 5), (7, 6),
    )
    assert build_step_schedule(1, 6, 6).entries == (
        (36, 1), (30, 2), (24, 3), (18, 4), (12, 5), (6, 6),
    )


def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="does not divide"):
        build_step_schedule(4, 6, 6)
    with pytest.raises(ValueError, match="smaller than weight"):
        build_step_schedule(1, 2, 6)  # final subset size = beta = 2 < 6
    with pytest.raises(ValueError, match="exceeds block length"):
        build_step_schedule(2, 6, 6, n=50)
    with pytest.raises(ValueError):
        build_step_schedule(0, 6, 6)
    with pytest.raises(ValueError):
        build_step_schedule(1, 0, 6)
    with pytest.raises(ValueError):
        build_step_schedule(1, 6, 0)


def test_schedule_invariants_over_grid():
    for alpha in (1, 2, 3):
        for per in (1, 2, 3):
            p_max = alpha * per
            for beta in (p_max, p_max + 1, 3 * p_max):
                s = build_step_schedule(alpha, beta, p_max)
                gammas = [g for g, _ in s.entries]
                hws = [h for _, h in s.entries]
                assert hws == list(range(1, p_max + 1))
                assert all(a > b for a, b in zip(gammas, gammas[1:]))
                assert all(g >= h for g, h in s.entries)
                assert s.entries[-1][0] == beta  # final subset is beta wide


def test_step_stream_tiny_schedule():
    s = StepSchedule(1, 1, 2, ((3, 1), (2, 2)))
    got = [t.ranks for t in subset_teps(s.gammas)]
    assert got == [(1,), (2,), (3,), (1, 2)]


def test_step_stream_counts_match_binomial_sums():
    for alpha, beta, expected in ((2, 6, 8828), (2, 7, 15778), (1, 6, 6348)):
        s = build_step_schedule(alpha, beta, 6)
        by_sum = sum(math.comb(g, h) for g, h in s.entries)
        assert by_sum == expected
        count = sum(1 for _ in subset_teps(s.gammas))
        assert count == expected


def test_step_stream_order_and_bounds():
    s = build_step_schedule(2, 6, 6)
    prev_weight = 0
    per_entry: dict[int, list[tuple[int, ...]]] = {}
    for t in subset_teps(s.gammas):
        assert t.weight >= prev_weight
        prev_weight = t.weight
        gamma = s.entries[t.weight - 1][0]
        assert t.ranks[-1] <= gamma
        per_entry.setdefault(t.weight, []).append(t.ranks)
    for (gamma, hw) in s.entries:
        expected = list(itertools.combinations(range(1, gamma + 1), hw))
        assert per_entry[hw] == expected  # lexicographic within an entry


@pytest.mark.parametrize("size", range(9))
def test_grown_table_matches_combinations(size):
    # ranks grow below size; pads are n = size + 2, so room, not n, bounds them
    n = size + 2
    for p in range(size + 2):
        combos = [c for w in range(1, p + 1) for c in itertools.combinations(range(size), w)]
        table, parent = grown_table(n, p, lambda k, sums: size)
        width = max(min(p, size), 1)
        assert table.dtype == np.int32 and table.shape == (len(combos), width)
        assert parent.dtype == np.int32 and parent.shape == (len(combos),)
        assert [tuple(r for r in row if r < n) for row in table.tolist()] == combos
        assert [combos.index(c[:-1]) if len(c) > 1 else -1 for c in combos] == parent.tolist()


def test_grandab_small_and_empty():
    got = [t.ranks for t in subset_teps((4, 4))]
    assert got == [
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert list(subset_teps(())) == []
    with pytest.raises(ValueError):
        list(GrandabSpec(5).teps(4))


def test_grandab_counts():
    assert sum(1 for _ in subset_teps((16,) * 16)) == 2 ** 16 - 1
    count = sum(1 for _ in subset_teps((128,) * 3))
    assert count == 349_632
    assert count == sum(math.comb(128, w) for w in (1, 2, 3))


def test_max_logistic_weight():
    assert max_logistic_weight(128) == 8256
    assert max_logistic_weight(127) == 8128
    with pytest.raises(ValueError):
        list(orbgrand_teps(4, 11, 2))  # above n(n+1)/2 = 10


def test_distinct_partitions_against_brute_force():
    for n in (6, 10, 13):
        for p_max in (1, 2, 3, 6):
            for lw in range(1, 2 * n):
                brute = {
                    c
                    for w in range(1, p_max + 1)
                    for c in itertools.combinations(range(1, n + 1), w)
                    if sum(c) == lw
                }
                mine = []
                for w in range(1, p_max + 1):
                    mine.extend(distinct_partitions(lw, w, n))
                assert len(mine) == len(set(mine))
                assert set(mine) == brute


def test_orbgrand_order_small():
    got = [t.ranks for t in orbgrand_teps(8, 3, 6)]
    # level 1: {1}; level 2: {2}; level 3: fewer parts first
    assert got == [(1,), (2,), (3,), (1, 2)]
    lw9_two_parts = [
        t.ranks for t in orbgrand_teps(128, 9, 2)
        if t.logistic_weight == 9 and t.weight == 2
    ]
    assert lw9_two_parts == [(4, 5), (3, 6), (2, 7), (1, 8)]  # colex


def test_orbgrand_stream_properties():
    prev_lw = 0
    seen = set()
    count = 0
    for t in orbgrand_teps(128, 40, 6):
        assert t.logistic_weight >= prev_lw
        assert t.logistic_weight == sum(t.ranks)
        assert t.weight <= 6
        assert t.ranks not in seen
        seen.add(t.ranks)
        prev_lw = t.logistic_weight
        count += 1
    # independent count: partitions per level via brute force
    brute = 0
    for lw in range(1, 41):
        for w in range(1, 7):
            brute += sum(1 for _ in distinct_partitions(lw, w, 128))
    assert count == brute


ORBGRAND_COUNT_CASES = [
    (n, lw, p)
    # at n=8, lw 36 and 21 are the largest rank sums of 8 and 3 ranks, so
    # lw 35 and 20 each miss exactly one set
    for n, lws in ((3, (None, 6, 4, 0)), (6, (None, 21, 9)),
                   (8, (None, 36, 35, 21, 20, 12)), (16, (None, 136, 20)), (128, (40,)))
    for lw in lws
    for p in (None, n, 3, 1)
] + [(128, 64, 6)]


@pytest.mark.parametrize("n, lw, p", ORBGRAND_COUNT_CASES)
def test_orbgrand_count_equals_stream_length(n, lw, p):
    spec = OrbgrandSpec(lw_max=lw, p_max=p)
    assert spec.pattern_count(n) == sum(1 for _ in spec.teps(n))


# grandab at both ends of its weight range; each (alpha, p_max) of at most two
# flips at the least and the largest beta whose subsets fit n = 16
SUBSET_COUNT_CASES = [
    (16, GrandabSpec(0)), (16, GrandabSpec(3)), (16, GrandabSpec(16)),
    (16, StepGrandSpec(1, 1, 1)), (16, StepGrandSpec(1, 16, 1)),
    (16, StepGrandSpec(1, 2, 2)), (16, StepGrandSpec(1, 8, 2)),
    (16, StepGrandSpec(2, 2, 2)), (16, StepGrandSpec(2, 5, 2)),
    (128, StepGrandSpec(2, 6, 6)),
]


@pytest.mark.parametrize("n, spec", SUBSET_COUNT_CASES, ids=str)
def test_subset_count_equals_stream_length(n, spec):
    assert spec.pattern_count(n) == len(list(spec.teps(n))) == len(spec.rank_table(n)[0])


@pytest.mark.parametrize("method", ["teps", "rank_table", "pattern_count"])
def test_grandab_weight_above_n_is_refused(method):
    with pytest.raises(ValueError, match="max_weight must be in"):
        getattr(GrandabSpec(17), method)(16)


RANK_TABLE_CASES = [
    (n, OrbgrandSpec(lw_max=lw, p_max=p))
    # None, bounded and at the limits: 136, 528 and 8256 are the largest
    # rank sums at n = 16, 32 and 128, and p = n is the largest flip count
    for n, cases in ((3, ((None, None), (6, 3), (4, 1), (0, None))),
                     (8, ((None, None), (35, 8), (20, 3), (21, None))),
                     (16, ((None, 3), (136, 2), (20, None))),
                     (32, ((None, 2), (528, 1), (40, 4))),
                     (128, ((40, None), (64, 6), (None, 2), (8256, 1))))
    for lw, p in cases
] + [(16, GrandabSpec(0)), (16, GrandabSpec(3)), (32, StepGrandSpec(1, 6, 3)),
     (128, StepGrandSpec(2, 6, 6))]


@pytest.mark.parametrize("n, spec", RANK_TABLE_CASES, ids=str)
def test_rank_table_is_the_stream(n, spec):
    table, parent = spec.rank_table(n)
    stream = [tep.ranks for tep in spec.teps(n)]
    width = max(map(len, stream), default=1)
    assert table.dtype == np.int32 and table.shape == (len(stream), width)
    assert [tuple(r + 1 for r in row if r < n) for row in table.tolist()] == stream
    assert (np.sort(table, axis=1) == table).all()  # pads of n last
    # each pattern's parent is the stream index of the pattern minus its top rank
    index = {ranks: i for i, ranks in enumerate(stream)}
    assert parent.dtype == np.int32
    assert parent.tolist() == [index[ranks[:-1]] if len(ranks) > 1 else -1 for ranks in stream]


def python_int_orbgrand_count(n, lw, p):
    """The sets of at most p distinct ranks in [1, n] with rank sum at most
    lw, by a DP over Python ints with no flip-count cap."""
    ways = np.zeros((p + 1, lw + 1), dtype=object)
    ways[0, 0] = 1
    for r in range(1, min(n, lw) + 1):
        ways[1:, r:] = ways[1:, r:] + ways[:-1, :-r]
    return int(ways[1:].sum())


# on both sides of the int64 DP: at n = 63 every count fits in int64, and
# at n = 64, lw = 1500 the count itself is above 2^63
@pytest.mark.parametrize("n, lw, p", [(63, 1000, None), (64, 1500, None),
                                      (128, 300, None), (128, 300, 20), (40, 210, 20)])
def test_orbgrand_count_matches_python_ints(n, lw, p):
    assert orbgrand_count(n, lw, p) == python_int_orbgrand_count(n, lw, n if p is None else p)


def test_orbgrand_part_cap_small_n():
    # parts may not exceed n: n=3, lw 4 has {1,3} but not {4}
    got = [t.ranks for t in orbgrand_teps(3, 4, 2)]
    assert (4,) not in got
    assert (1, 3) in got


def test_sort_reliability_example_and_stability():
    llr = np.array([-0.1, 2.0, 0.05, -1.0])
    perm = sort_reliability(llr)
    assert perm.tolist() == [2, 0, 3, 1]
    assert np.all(np.diff(np.abs(llr)[perm]) >= 0)
    flat = sort_reliability(np.ones(6))
    assert flat.tolist() == list(range(6))  # stable: ties keep position order
    # a batch sorts each row as its own frame, ties and zeros included
    batch = np.array([[0.0, -0.5, 0.5, 0.0, 1.0],
                      [2.0, -2.0, 0.0, 2.0, -0.0],
                      [-0.1, 2.0, 0.05, -1.0, 0.05]])
    perms = sort_reliability(batch)
    assert perms.shape == batch.shape
    assert np.all(np.diff(np.take_along_axis(np.abs(batch), perms, axis=1), axis=1) >= 0)
    for row, perm_row in zip(batch, perms):
        assert perm_row.tolist() == sort_reliability(row).tolist()
    assert perms[1].tolist() == [2, 4, 0, 1, 3]


def test_map_ranks_identity_and_sorted():
    t = Tep((1, 3))
    w = map_ranks(t, 4)
    assert str(w) == "1010"
    w2 = map_ranks(t, 4, np.array([2, 0, 3, 1]))  # ranks 1,3 -> positions 2,3
    assert str(w2) == "0011"
    with pytest.raises(ValueError):
        map_ranks(Tep((5,)), 4)
