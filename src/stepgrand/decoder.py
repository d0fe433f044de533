"""Guess-and-test decoding of binary linear codes.

The engine hardens the received soft values, checks the hard word itself,
then walks an ordered stream of test error patterns, flipping each candidate
set of positions and testing codebook membership until a syndrome match. The
pattern stream fixes the decoder variant; this module is variant-agnostic.

Candidate syndromes come from the linearity identity: the syndrome of a flip
set is the XOR of the per-position column syndromes, so each test costs a few
XOR operations instead of a matrix product. ``use_syndrome_table=False``
recomputes every syndrome from scratch as a cross-check path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import SoftVector, harden
from .codes import LinearCode
from .gf2 import BitWord
from .patterns import (
    StepSchedule,
    Tep,
    build_step_schedule,
    map_ranks,
    orbgrand_count,
    orbgrand_table,
    orbgrand_teps,
    sort_reliability,
    subset_count,
    subset_table,
    subset_teps,
)

CLEAN = "clean"
HIT = "hit"
ABANDONED = "abandoned"


@dataclass(frozen=True)
class DecodeTrace:
    """Where in the pattern stream a decode ended.

    outcome is "clean" (hard word already a codeword), "hit" (some pattern
    matched) or "abandoned" (stream exhausted). For a hit, weight and ranks
    describe the matching pattern and stream_position is its 0-based index
    in the stream.
    """

    outcome: str
    weight: int | None = None
    ranks: tuple[int, ...] | None = None
    stream_position: int | None = None


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode.

    queries counts membership tests including the initial hard-word check,
    so a clean frame reports 1. On abandonment message, codeword and
    noise_guess are None.
    """

    message: BitWord | None
    codeword: BitWord | None
    noise_guess: BitWord | None
    queries: int
    abandoned: bool
    trace: DecodeTrace


def syndrome_precompute(
    code: LinearCode, perm: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Per-rank single-flip syndromes: entry r-1 is the syndrome (packed int)
    of a lone flip at the position holding reliability rank r. perm lists that
    position per rank; None means the identity map."""
    cols = code.parity_columns
    if perm is None:
        return cols
    if sorted(perm) != list(range(code.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return tuple(cols[p] for p in perm)


def decode(
    v: SoftVector,
    code: LinearCode,
    teps: Iterable[Tep],
    uses_sorting: bool,
    use_syndrome_table: bool = True,
) -> DecodeResult:
    """Run the guess-and-test loop over one frame.

    Patterns are consumed strictly in stream order and the first syndrome
    match wins, so the query count of a hit at stream position t is t + 2
    (the initial check plus t + 1 pattern tests).
    """
    if len(v.llr) != code.n:
        raise ValueError(f"frame length {len(v.llr)} != code length {code.n}")
    hard = harden(v)
    y = BitWord.from_array(hard)
    s0 = code.syndrome(y)
    queries = 1
    if s0.is_zero():
        return DecodeResult(
            message=code.recover_message(y),
            codeword=y,
            noise_guess=BitWord(code.n, 0),
            queries=queries,
            abandoned=False,
            trace=DecodeTrace(outcome=CLEAN),
        )

    perm = sort_reliability(v.llr) if uses_sorting else None
    table = syndrome_precompute(code, perm)

    for position, tep in enumerate(teps):
        queries += 1
        if use_syndrome_table:
            guess = 0
            for r in tep.ranks:
                guess ^= table[r - 1]
            found = guess == s0.value
        else:
            e = map_ranks(tep, code.n, perm)
            found = code.syndrome(y ^ e).is_zero()
        if found:
            e = map_ranks(tep, code.n, perm)
            cw = y ^ e
            return DecodeResult(
                message=code.recover_message(cw),
                codeword=cw,
                noise_guess=e,
                queries=queries,
                abandoned=False,
                trace=DecodeTrace(
                    outcome=HIT,
                    weight=tep.weight,
                    ranks=tep.ranks,
                    stream_position=position,
                ),
            )
    return DecodeResult(
        message=None,
        codeword=None,
        noise_guess=None,
        queries=queries,
        abandoned=True,
        trace=DecodeTrace(outcome=ABANDONED),
    )


# ---------------------------------------------------------------------------
# Decoder variants

# Each variant bundles a label for reports, whether it needs the per-frame
# reliability sort, the pattern stream and its table with parents (`rank_table`),
# and the stream length (the worst-case pattern test count; the initial
# hard-word check is not included).


class _SubsetStream:
    """A stream of weights 1, 2, ... in turn, weight w over the gammas(n)[w - 1]
    least reliable ranks; a subclass supplies gammas."""

    def teps(self, n: int) -> Iterable[Tep]:
        return subset_teps(self.gammas(n))

    def rank_table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return subset_table(self.gammas(n), n)

    def pattern_count(self, n: int) -> int:
        return subset_count(self.gammas(n))


@dataclass(frozen=True)
class GrandabSpec(_SubsetStream):
    """Hard-input sweep of all patterns up to a weight bound, then give up."""

    max_weight: int = 3

    uses_sorting = False

    @property
    def label(self) -> str:
        return f"grandab(ab={self.max_weight})"

    def gammas(self, n: int) -> tuple[int, ...]:
        if not 0 <= self.max_weight <= n:
            raise ValueError(f"max_weight must be in [0, {n}], got {self.max_weight}")
        return (n,) * self.max_weight


@dataclass(frozen=True)
class OrbgrandSpec:
    """Soft-input sweep in increasing logistic weight, optionally truncated
    to lw_max and at most p_max flips. None leaves either unbounded."""

    lw_max: int | None = None
    p_max: int | None = None

    uses_sorting = True

    @property
    def label(self) -> str:
        lw = "full" if self.lw_max is None else str(self.lw_max)
        p = "n" if self.p_max is None else str(self.p_max)
        return f"orbgrand(lw={lw},p={p})"

    def teps(self, n: int) -> Iterable[Tep]:
        return orbgrand_teps(n, self.lw_max, self.p_max)

    def rank_table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return orbgrand_table(n, self.lw_max, self.p_max)

    def pattern_count(self, n: int) -> int:
        return orbgrand_count(n, self.lw_max, self.p_max)


@dataclass(frozen=True)
class StepGrandSpec(_SubsetStream):
    """Soft-input sweep in increasing flip count over stepped subsets of the
    least reliable positions, sized by the (alpha, beta, p_max) schedule."""

    alpha: int = 2
    beta: int = 6
    p_max: int = 6

    uses_sorting = True

    @property
    def label(self) -> str:
        return f"stepgrand(a={self.alpha},b={self.beta},p={self.p_max})"

    def schedule(self, n: int | None = None) -> StepSchedule:
        return build_step_schedule(self.alpha, self.beta, self.p_max, n)

    def gammas(self, n: int | None = None) -> tuple[int, ...]:
        return self.schedule(n).gammas


DecoderSpec = GrandabSpec | OrbgrandSpec | StepGrandSpec


def worst_case_queries(spec: DecoderSpec, n: int) -> int:
    """Length of the variant's pattern stream for block length n (the initial
    hard-word check is not part of this count)."""
    return spec.pattern_count(n)
