"""Clock-cycle model of a pipelined guess-and-test decoder.

Models the decoder hardware at the scheduling level: a log2(n)-stage
reliability sorter, one time step that covers every single-flip test, one
that covers every two-flip test, and for each higher flip count a sweep of
composite-syndrome steps, one per anchor (the pattern's lowest ranks, all
but the final two). Within one step a bank of precomputed two-flip syndromes
tests every completion of that anchor at once.

Two counters are exposed per frame. frame_cycles is start-to-finish latency
including the sorter. pipeline_cycles drops the sorter stages for frames
that need pattern tests: back-to-back frames overlap those stages, so the
sustained-throughput cost of a frame excludes them. Averages quoted per
frame use pipeline_cycles; worst-case figures use frame_cycles.

This module owns the time-step numbering. `anchor_steps` counts the steps,
and `LatencyModel.stream_steps` lays them out as one table over the stream
positions, reading each pattern's anchor off the same table and parents
that `patterns.subset_table` builds for the search engine, so a batch of
search results becomes cycle counts by one lookup
(`cycles_from_steps(stream_steps[pos])`). The per-trace methods
`time_step`, `frame_cycles` and `pipeline_cycles` are the readable
specification that table is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .decoder import ABANDONED, CLEAN, HIT, DecodeTrace
from .patterns import StepSchedule, subset_table


def combination_rank(values: Sequence[int], n_total: int) -> int:
    """1-based position of an ascending tuple from [1..n_total] in the
    lexicographic enumeration of same-size tuples."""
    p = len(values)
    rank = 1
    prev = 0
    for i, a in enumerate(values):
        if not prev < a <= n_total:
            raise ValueError(f"values must ascend within [1..{n_total}]")
        for v in range(prev + 1, a):
            rank += math.comb(n_total - v, p - i - 1)
        prev = a
    return rank


def anchor_steps(schedule: StepSchedule) -> tuple[dict[int, int], int]:
    """Search time steps of a stepped schedule, counted after the hard-word
    check: step 1 tests every single flip, step 2 every pair, and each flip
    count w >= 3 then takes one step per anchor, C(gamma - 2, w - 2) in all.

    Returns the step before the first anchor of each such w, and the last
    step, which abandoned frames run to.
    """
    bases = {}
    step = 2
    for gamma, hw in schedule.entries:
        if hw >= 3:
            bases[hw] = step
            step += math.comb(gamma - 2, hw - 2)
    return bases, step


@dataclass(frozen=True)
class LatencyModel:
    """Cycle counts for a schedule on a power-of-two block length."""

    n: int
    schedule: StepSchedule

    def __post_init__(self) -> None:
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(
                f"the sorter pipeline needs a power-of-two n, got {self.n}"
            )
        for gamma, _ in self.schedule.entries:
            if gamma > self.n:
                raise ValueError(f"schedule subset {gamma} exceeds n={self.n}")

    @property
    def sorter_cycles(self) -> int:
        return self.n.bit_length() - 1

    # initial hard-word check + the single-flip step + the two-flip step
    fixed_overhead = 3

    @cached_property
    def _anchor_steps(self) -> tuple[dict[int, int], int]:
        return anchor_steps(self.schedule)

    @cached_property
    def worst_case(self) -> int:
        return self.cycles_from_steps(self._anchor_steps[1])[0]

    @cached_property
    def stream_steps(self) -> np.ndarray:
        """Search time step of every stream position, int64, with the
        abandonment step appended, so index -1 serves abandoned frames.

        Weights 1 and 2 take steps 1 and 2. From weight 3 on, a pattern's
        anchor, its first w - 2 ranks, is its parent's parent in the stream
        table, and a new step starts wherever the anchor changes.
        """
        table, parent = subset_table(self.schedule.gammas, self.n)
        w = (table < self.n).sum(axis=1)
        anchor = np.where(w >= 3, parent[parent], -1)
        new = (w >= 3) & (anchor != np.append(-1, anchor[:-1]))
        steps = np.where(w <= 2, w, 2 + np.cumsum(new))
        return np.append(steps, self._anchor_steps[1])

    def cycles_from_steps(self, step):
        """frame_cycles and pipeline_cycles of nonclean frames that finish
        at the given search time step; step may be an int or an array."""
        return 1 + self.sorter_cycles + step, 1 + step

    def time_step(self, trace: DecodeTrace) -> int:
        """Search time step at which a nonclean frame finishes."""
        bases, last = self._anchor_steps
        if trace.outcome == ABANDONED:
            return last
        if trace.outcome != HIT:
            raise ValueError(f"unknown trace outcome {trace.outcome!r}")
        if trace.weight is None or trace.ranks is None:
            raise ValueError("hit trace must carry weight and ranks")
        if len(trace.ranks) != trace.weight:
            raise ValueError("trace weight disagrees with its ranks")
        if trace.weight <= 2:
            return trace.weight
        if trace.weight > len(self.schedule.gammas):
            raise ValueError(f"schedule has no weight-{trace.weight} entry")
        gamma = self.schedule.gammas[trace.weight - 1]
        anchor = trace.ranks[: trace.weight - 2]
        return bases[trace.weight] + combination_rank(anchor, gamma - 2)

    def frame_cycles(self, trace: DecodeTrace) -> int:
        """Latency of one frame, sorter included."""
        if trace.outcome == CLEAN:
            return 1
        return self.cycles_from_steps(self.time_step(trace))[0]

    def pipeline_cycles(self, trace: DecodeTrace) -> int:
        """Per-frame cost with the sorter stages overlapped away."""
        if trace.outcome == CLEAN:
            return 1
        return self.frame_cycles(trace) - self.sorter_cycles


def latency_seconds(cycles: float, clock_hz: float) -> float:
    return cycles / clock_hz


def info_throughput_bps(k: int, clock_hz: float, cycles_per_frame: float) -> float:
    """Information throughput when every frame takes the given cycle count."""
    return k * clock_hz / cycles_per_frame
