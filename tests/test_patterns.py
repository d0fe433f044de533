"""Pattern streams: schedule law, stream orders, counts, partition oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepgrand.channel import SoftVector, quantize
from stepgrand.decoder import GrandabSpec, OrbgrandSpec, StepGrandSpec
from stepgrand.patterns import (
    StepSchedule,
    build_step_schedule,
    chain_ranks,
    distinct_partitions,
    grown_table,
    map_ranks,
    max_logistic_weight,
    orbgrand_count,
    orbgrand_table,
    orbgrand_teps,
    sort_reliability,
    subset_teps,
)


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


def test_hand_built_schedule_validation():
    with pytest.raises(ValueError, match="subset size 2 is smaller than weight 3"):
        StepSchedule((5, 2, 2))
    with pytest.raises(ValueError, match="grow with the weight"):
        StepSchedule((4, 5))
    assert StepSchedule((6, 5, 4)).entries == ((6, 1), (5, 2), (4, 3))


def test_schedule_invariants_over_grid():
    for alpha in (1, 2, 3):
        for per in (1, 2, 3):
            p_max = alpha * per
            for beta in (p_max, p_max + 1, 3 * p_max):
                s = build_step_schedule(alpha, beta, p_max)
                gammas = s.gammas
                assert len(gammas) == p_max
                assert all(a > b for a, b in zip(gammas, gammas[1:]))
                assert all(g >= h for g, h in s.entries)
                assert s.entries[-1][0] == beta  # final subset is beta wide


def test_every_built_schedule_strictly_decreases():
    built = 0
    for alpha in range(1, 7):
        for beta in range(1, 13):
            for p_max in range(1, 25):
                try:
                    s = build_step_schedule(alpha, beta, p_max)
                except ValueError as exc:
                    assert "does not divide" in str(exc) or "smaller than weight" in str(exc)
                    continue
                built += 1
                gammas = s.gammas
                assert all(a > b for a, b in zip(gammas, gammas[1:]))
                assert all(g >= h for g, h in s.entries)
    assert built == 170


def test_step_stream_tiny_schedule():
    s = StepSchedule((3, 2))
    got = list(subset_teps(s.gammas))
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
        assert len(t) >= prev_weight
        prev_weight = len(t)
        gamma = s.entries[len(t) - 1][0]
        assert t[-1] <= gamma
        per_entry.setdefault(len(t), []).append(t)
    for (gamma, hw) in s.entries:
        expected = list(itertools.combinations(range(1, gamma + 1), hw))
        assert per_entry[hw] == expected  # lexicographic within an entry


def walked(parent, top, n, rows):
    """chain_ranks over rows as one (len(rows), steps) array: each row's
    ranks top first, padded with n."""
    chain = chain_ranks(parent, top, rows, n)
    return np.column_stack([np.empty((len(rows), 0), dtype=np.int32), *chain])


@pytest.mark.parametrize("size", range(9))
def test_grown_table_matches_combinations(size):
    # ranks grow below size; the walker pads with n = size + 2, so room,
    # not n, bounds them
    n = size + 2
    for p in range(size + 2):
        combos = [c for w in range(1, p + 1) for c in itertools.combinations(range(size), w)]
        parent, top = grown_table(p, lambda k, sums: size)
        assert parent.dtype == top.dtype == np.int32
        assert parent.shape == top.shape == (len(combos),)
        ranks = walked(parent, top, n, np.arange(len(combos)))
        assert [tuple(r for r in row[::-1] if r < n) for row in ranks.tolist()] == combos
        assert [combos.index(c[:-1]) if len(c) > 1 else -1 for c in combos] == parent.tolist()
        # weight blocks in turn, so parents ascend
        assert (np.diff(parent) >= 0).all()


def test_grandab_small_and_empty():
    got = list(subset_teps((4, 4)))
    assert got == [
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert list(subset_teps(())) == []
    with pytest.raises(ValueError):
        list(GrandabSpec(5).teps(4))


def test_subset_table_builds_no_rank_sums():
    # grandab(3) at n = 128 peaks at ~5.66 MB, its level pieces and their
    # concatenation alive at once; the int64 rank sums that only orbgrand's
    # room reads would add ~2.7 MB. The bound leaves a few kB for the
    # interpreter's own allocations
    tracemalloc.start()
    try:
        parent, top = GrandabSpec(3).rank_table(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parent) == 349_632
    assert peak <= 5_674_000


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
    got = list(orbgrand_teps(8, 3, 6))
    # level 1: {1}; level 2: {2}; level 3: fewer parts first
    assert got == [(1,), (2,), (3,), (1, 2)]
    lw9_two_parts = [t for t in orbgrand_teps(128, 9, 2) if sum(t) == 9 and len(t) == 2]
    assert lw9_two_parts == [(4, 5), (3, 6), (2, 7), (1, 8)]  # colex


def test_orbgrand_stream_properties():
    prev_lw = 0
    seen = set()
    count = 0
    for t in orbgrand_teps(128, 40, 6):
        assert sum(t) >= prev_lw
        assert len(t) <= 6
        assert t not in seen
        seen.add(t)
        prev_lw = sum(t)
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
    # rank sums at n = 16, 32 and 128, and p = n is the largest flip count.
    # Unbounded, orbgrand's sort key fills one 63-bit word at n = 13 and
    # takes two at n = 16
    for n, cases in ((3, ((None, None), (6, 3), (4, 1), (0, None))),
                     (8, ((None, None), (35, 8), (20, 3), (21, None))),
                     (13, ((None, None),)),
                     (16, ((None, None), (None, 3), (136, 2), (20, None))),
                     (32, ((None, 2), (528, 1), (40, 4))),
                     (128, ((40, None), (64, 6), (None, 2), (8256, 1))))
    for lw, p in cases
] + [(16, GrandabSpec(0)), (16, GrandabSpec(3)), (32, StepGrandSpec(1, 6, 3)),
     (128, StepGrandSpec(2, 6, 6))]


@pytest.mark.parametrize("n, spec", RANK_TABLE_CASES, ids=str)
def test_rank_table_is_the_stream(n, spec):
    parent, top = spec.rank_table(n)
    stream = list(spec.teps(n))
    # each pattern is a tuple of strictly ascending ranks within [1, n]
    assert all(type(t) is tuple and 1 <= t[0] and t[-1] <= n
               and all(a < b for a, b in zip(t, t[1:])) for t in stream)
    assert parent.dtype == top.dtype == np.int32
    assert parent.shape == top.shape == (len(stream),)
    # each pattern is an earlier row, or the empty pattern -1, plus a rank
    # above that row's top and below n
    rows = np.arange(len(stream))
    assert ((parent >= -1) & (parent < rows)).all()
    assert (top > np.where(parent >= 0, top[parent], -1)).all() and (top < n).all()
    # the walker's expansion, top first and padded with n, row by row
    ranks = walked(parent, top, n, rows)
    assert ranks.dtype == np.int32
    assert ranks.shape == (len(stream), max(map(len, stream), default=0))
    real = ranks < n
    assert (ranks[~real] == n).all() and (real[:, :-1] >= real[:, 1:]).all()
    assert [tuple(r + 1 for r in row[::-1] if r < n) for row in ranks.tolist()] == stream
    for row in [*rows[::max(len(rows) // 3, 1)], *rows[-1:]]:
        one = [int(step[0]) for step in chain_ranks(parent, top, [row], n)]
        assert one == [r - 1 for r in stream[row][::-1]]
    assert list(chain_ranks(parent, top, [-1], n)) == []  # the empty pattern


# (128, 64, 6), (127, 64, 6) and (64, 40, 4) pack orbgrand's sort key into
# one 63-bit word, which takes the argsort; unbounded, n = 16 takes two words
# and the lexsort
@pytest.mark.parametrize("n, lw, p", [(128, 64, 6), (127, 64, 6), (64, 40, 4), (16, None, None)])
def test_orbgrand_table_rows_ascend_in_the_stream_key(n, lw, p):
    parent, top = orbgrand_table(n, lw, p)
    assert len(parent) == orbgrand_count(n, lw, p)
    ranks = walked(parent, top, n, np.arange(len(parent)))  # top first, padded with n
    real = ranks < n
    sums, weights = np.where(real, ranks + 1, 0).sum(axis=1), real.sum(axis=1)
    # rank sum, then flip count, then colex (the ranks top first)
    key = [*ranks.T[::-1], weights, sums]
    assert (np.lexsort(key) == np.arange(len(parent))).all()
    # and no two rows hold one key, so no other order would do
    assert len(np.unique(np.column_stack(key), axis=0)) == len(parent)


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
    got = list(orbgrand_teps(3, 4, 2))
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


def stable_reference(llr):
    return np.argsort(np.abs(llr), axis=-1, kind="stable")


def assert_sorts_like_stable(llr):
    want = stable_reference(llr)
    got = sort_reliability(llr)
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


def reliability_llrs(rng, shape, kind):
    llr = rng.normal(0.0, 2.0, size=shape)
    signs = rng.choice([-1.0, 1.0], size=shape)
    if kind == "planted ties":
        # about a third of the entries copy another entry of their row, so
        # |llr| ties while the signs may differ
        donor = rng.integers(0, shape[-1], size=shape)
        planted = rng.random(shape) < 0.3
        llr = np.where(planted, np.take_along_axis(llr, donor, axis=-1), llr) * signs
    elif kind == "all equal":
        llr = np.full(shape, rng.normal()) * signs
    elif kind == "zeros and -0.0":
        llr[rng.random(shape) < 0.3] = 0.0
        llr[rng.random(shape) < 0.3] = -0.0
    elif kind == "5-bit quantized":
        llr = quantize(SoftVector(llr)).llr
    elif kind == "inf and nan":
        llr[rng.random(shape) < 0.2] = np.inf
        llr[rng.random(shape) < 0.2] = -np.inf
        llr[rng.random(shape) < 0.2] = np.nan
    return llr


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(128,), (127,), (40,), (24, 128), (9, 31), (0, 128)]),
       kind=st.sampled_from(["float", "planted ties", "all equal",
                             "zeros and -0.0", "5-bit quantized", "inf and nan"]))
def test_sort_reliability_matches_stable_sort(seed, shape, kind):
    assert_sorts_like_stable(reliability_llrs(np.random.default_rng(seed), shape, kind))


def test_sort_reliability_repairs_rows_the_unstable_sort_reorders():
    rng = np.random.default_rng(16)
    llr = np.concatenate([
        rng.integers(-3, 4, size=(8, 128)).astype(np.float64),
        reliability_llrs(rng, (8, 128), "5-bit quantized"),
        reliability_llrs(rng, (8, 128), "planted ties"),
        rng.normal(0.0, 2.0, size=(8, 128)),
    ])
    # a check on the fixture, not on sort_reliability: without its tie
    # repair the sort must fail on some of these rows
    unstable = np.argsort(np.abs(llr), axis=-1)
    assert (unstable != stable_reference(llr)).any(axis=-1).any(), \
        "no row here tells the unstable sort from the stable one"
    assert_sorts_like_stable(llr)
    for row in llr:
        assert_sorts_like_stable(row)


def test_map_ranks_identity_and_sorted():
    w = map_ranks((1, 3), 4)
    assert w.to_array().tolist() == [1, 0, 1, 0]
    w2 = map_ranks((1, 3), 4, np.array([2, 0, 3, 1]))  # ranks 1,3 -> positions 2,3
    assert w2.to_array().tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        map_ranks((5,), 4)
