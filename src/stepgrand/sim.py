"""Monte-Carlo AWGN sweep harness.

Frames are generated and decoded in fixed-size chunks of 1024. Each chunk's
randomness comes from a counter-keyed Philox stream derived from (seed, point
index, chunk index), and chunk results are committed in chunk order, so the
output is byte-identical for any worker count: workers only change how many
chunks are in flight, never which frames exist or how they are totaled. The
stop rule (enough frame errors, or the frame cap) is evaluated after each
committed chunk.

Per-frame statistics follow the decoder conventions: query counts include
the initial hard-word membership test; a frame error is a wrong message or
an abandonment, that is, a nonzero residual: channel errors XOR decoder
flips (an abandoned frame flips nothing, and its syndrome is nonzero). Its
bit errors weigh residual * G^-1, the message recovered from the corrected
word, or from the hard decisions when abandoned, XOR the sent one. Cycle
statistics exist only for the stepped-schedule variant on power-of-two block
lengths: the average uses the pipelined per-frame counter, worst-case
figures use full frame latency. Encoding and message recovery are float32
matrix products reduced to GF(2) bits by an integer `& 1`.

A chunk is a frame source, `_awgn_frames` (messages, encoder, channel), fed
into a decoder stage, `_decode_chunk`, which takes the syndromes and one
reliability sort and runs every variant through the same engine contract of
`fastpath` (stream positions, then flip masks) and takes its cycle counts
from `hwmodel`'s step table, indexed by those stream positions. A chunk
returns named int64 counts, one per variant (frame errors, bit errors,
queries, cycles and their worst cases), and the discordant-frame matrix
E (1 - E)^T of the (variant, frame) error-flag matrix E. `_FOLDS` says how
a point folds each count across chunks, by sum or by maximum, so a new
count is one tally in `_decode_chunk` and one `_FOLDS` entry.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .channel import ChannelConfig, SoftVector, harden, quantize, transmit
from .codes import LinearCode
from .decoder import DecoderSpec, StepGrandSpec
from .fastpath import build_engine, packed_parity_columns
from .gf2 import gf2_product
from .hwmodel import LatencyModel
from .patterns import sort_reliability

CHUNK_FRAMES = 1024
# a chunk's noise is keyed by (point << 32) | chunk, so a point of more than
# 2**32 chunks would reuse the next point's noise
MAX_FRAMES = CHUNK_FRAMES << 32
_MASK64 = (1 << 64) - 1
# every engine holds its whole pattern stream in a table; above this many
# patterns a config is refused before any table is built
MAX_TABLE_PATTERNS = 1 << 25


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep needs; workers never affect the numbers."""

    code: LinearCode
    variants: tuple[DecoderSpec, ...]
    ebn0_db: tuple[float, ...]
    min_frame_errors: int = 100
    max_frames: int = 100_000_000
    seed: int = 0
    quantize: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("need at least one decoder variant")
        if not self.ebn0_db:
            raise ValueError("ebn0_db list must not be empty")
        if not all(map(math.isfinite, self.ebn0_db)):
            raise ValueError(f"ebn0_db values must be finite, got {self.ebn0_db}")
        # a repeat would run again, as one more CSV row or column
        for kind, keys, name in (("ebn0_db point", self.ebn0_db, _ebn0_text),
                                 ("variant", self.variants, lambda spec: spec.label)):
            repeated = [key for key, count in Counter(keys).items() if count > 1]
            if repeated:
                raise ValueError(f"{kind} {name(repeated[0])} is given twice")
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        if self.max_frames > MAX_FRAMES:
            raise ValueError(f"max_frames must be at most {MAX_FRAMES}"
                             f" (2**32 chunks), got {self.max_frames}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.code.k < 1:
            raise ValueError(f"code {self.code.name} has no message bits (k = {self.code.k})")
        # raises above 63 parity bits here rather than in a worker
        packed_parity_columns(self.code)
        for spec in self.variants:
            # also raises each spec's own out-of-range parameter error
            count = spec.pattern_count(self.code.n)
            if count > MAX_TABLE_PATTERNS:
                raise ValueError(
                    f"{spec.label} has {count} patterns at n={self.code.n},"
                    f" above the table limit of {MAX_TABLE_PATTERNS}"
                )


@dataclass(frozen=True)
class PointStats:
    """Aggregates for one decoder variant at one Eb/N0 point: the totals
    frame_errors, bit_errors, queries and cycles and their worst cases wc_*;
    the cycle fields are None for a variant without a latency model."""

    ebn0_db: float
    frames: int
    capped: bool
    k: int  # message length, so ber needs no code handle
    frame_errors: int
    bit_errors: int
    queries: int
    cycles: int | None
    wc_queries_obs: int
    wc_cycles_obs: int | None

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.k)

    @property
    def avg_queries(self) -> float:
        return self.queries / self.frames

    @property
    def avg_cycles(self) -> float | None:
        return None if self.cycles is None else self.cycles / self.frames


@dataclass(frozen=True)
class ComparePoint:
    """Per-variant stats at one point under common random numbers, with the
    discordant-frame matrix: discordant[i][j] counts frames where variant i
    erred and variant j did not."""

    ebn0_db: float
    frames: int
    capped: bool
    stats: tuple[PointStats, ...]
    discordant: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Statistics helpers


def wilson_interval(successes: int, trials: int, z: float = 1.96
                    ) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def sign_test_pvalue(worse: int, total: int) -> float:
    """Exact one-sided sign test: probability that a fair coin over the
    discordant frames lands on the 'worse' side at least this often."""
    if total < 0 or not 0 <= worse <= total:
        raise ValueError("need 0 <= worse <= total")
    tail, term = 0, math.comb(total, worse)
    for i in range(worse, total + 1):  # term = C(total, i), kept exact
        tail += term
        term = term * (total - i) // (i + 1)
    return float(Fraction(tail, 1 << total))


# ---------------------------------------------------------------------------
# Chunk worker

# Module-level state so process pools can build the heavy tables once per
# worker instead of pickling them with every chunk.
_STATE: dict = {}

# how a point folds each count of its chunks: worst cases by maximum, the rest by sum
_FOLDS = {"frame_errors": np.add, "bit_errors": np.add, "queries": np.add,
          "cycles": np.add, "wc_queries_obs": np.maximum,
          "wc_cycles_obs": np.maximum, "discord": np.add}


def _latency_model(spec: DecoderSpec, n: int) -> LatencyModel | None:
    """The cycle model of a variant; only the stepped schedule on
    power-of-two block lengths has one."""
    if isinstance(spec, StepGrandSpec) and n >= 2 and n & (n - 1) == 0:
        return LatencyModel(n, spec.schedule(n))
    return None


def _init_worker(code: LinearCode, variants: tuple[DecoderSpec, ...],
                 quantize_flag: bool) -> None:
    n, k = code.n, code.k
    g32 = code.generator.to_array().astype(np.float32)
    g_inv32 = code.generator_right_inverse.to_array().astype(np.float32)
    cols = packed_parity_columns(code)
    engines = [build_engine(code, spec) for spec in variants]
    models = [_latency_model(spec, n) for spec in variants]
    _STATE.clear()
    _STATE.update(
        engines=engines, models=models, g32=g32, g_inv32=g_inv32,
        cols=cols, n=n, k=k, sorting=any(spec.uses_sorting for spec in variants),
        quantize=quantize_flag,
    )


def _run_chunk(point_index: int, chunk_index: int, ebn0_db: float,
               frames_used: int, seed: int):
    # uint64 explicitly: a Python list holding a seed of 2**63 or more would
    # be cast through float64 and lose the seed's low bits
    key = np.array([seed, ((point_index << 32) | chunk_index) & _MASK64],
                   dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return _decode_chunk(*_awgn_frames(rng, ebn0_db, frames_used))


def _awgn_frames(rng: np.random.Generator, ebn0_db: float, frames_used: int
                 ) -> tuple[np.ndarray, SoftVector]:
    """The codewords of random messages and their (quantized) channel LLRs."""
    n, k = _STATE["n"], _STATE["k"]
    # messages are drawn for the full chunk whatever frames_used is, so a
    # partial chunk's noise starts where a full chunk's does in the stream
    msgs = rng.integers(0, 2, size=(CHUNK_FRAMES, k), dtype=np.uint8)[:frames_used]
    cw = gf2_product(msgs, _STATE["g32"])
    received = transmit(cw, ChannelConfig(ebn0_db, k / n), rng)
    if _STATE["quantize"]:
        received = quantize(received)
    return cw, received


def _syndromes(hard: np.ndarray) -> np.ndarray:
    """Packed syndromes of the rows of hard, one per word, in the dtype of
    `packed_parity_columns` (int32 up to 31 parity bits, int64 up to 63)."""
    return np.bitwise_xor.reduce(_STATE["cols"] * hard, axis=1)


def _decode_chunk(cw: np.ndarray, received: SoftVector):
    """Every variant on the same frames, as (frames, counts by name)."""
    frames_used = len(cw)
    hard = harden(received)
    e_true = hard ^ cw

    s_int = _syndromes(hard)
    nonclean = np.flatnonzero(s_int != 0)
    targets = s_int[nonclean]

    perms = None
    if _STATE["sorting"]:
        perms = sort_reliability(received.llr[nonclean])

    v = len(_STATE["engines"])
    counts = {name: np.zeros(v, dtype=np.int64) for name in _FOLDS if name != "discord"}
    errors = np.empty((v, frames_used), dtype=bool)
    for i, (engine, model) in enumerate(zip(_STATE["engines"], _STATE["models"])):
        pos = engine.search(perms, _STATE["cols"], targets)
        hit = pos >= 0
        queries = np.ones(frames_used, dtype=np.int64)
        queries[nonclean] = np.where(hit, pos + 2, 1 + engine.pattern_count)
        # zero exactly when the frame decodes to the sent codeword
        residual = e_true.copy()
        residual[nonclean] ^= engine.flip_mask(perms, pos)
        err = errors[i] = residual.any(axis=1)
        counts["frame_errors"][i] = err.sum()
        counts["bit_errors"][i] = gf2_product(residual[err], _STATE["g_inv32"]).sum()
        counts["queries"][i] = queries.sum()
        counts["wc_queries_obs"][i] = queries.max()
        if model:
            frame_lat, pipe = model.cycles_from_steps(model.stream_steps[pos])
            # clean frames cost one cycle on both counters
            counts["cycles"][i] = frames_used - nonclean.size + pipe.sum()
            counts["wc_cycles_obs"][i] = frame_lat.max(initial=1)

    e = errors.astype(np.int64)
    counts["discord"] = e @ (1 - e).T
    return frames_used, counts


# ---------------------------------------------------------------------------
# Point and sweep drivers


def _results_in_order(cfg: SweepConfig, point_index: int, ebn0: float,
                      executor) -> Iterator[tuple]:
    chunks = -(-cfg.max_frames // CHUNK_FRAMES)

    def args(ci: int) -> tuple:
        # the last chunk takes what remains of the frame cap
        frames_used = min(CHUNK_FRAMES, cfg.max_frames - ci * CHUNK_FRAMES)
        return point_index, ci, ebn0, frames_used, cfg.seed

    if executor is None:
        for ci in range(chunks):
            yield _run_chunk(*args(ci))
        return
    window = _pool_size(cfg) * 2
    futures: dict[int, object] = {}
    submitted = 0
    for ci in range(chunks):
        while submitted < min(chunks, ci + window):
            futures[submitted] = executor.submit(_run_chunk, *args(submitted))
            submitted += 1
        yield futures.pop(ci).result()


def _simulate_point(cfg: SweepConfig, point_index: int, ebn0: float,
                    executor) -> ComparePoint:
    total = dict.fromkeys(_FOLDS, 0)  # counts are >= 0, so 0 is either fold's identity
    frames = 0
    capped = True
    for frames_used, counts in _results_in_order(cfg, point_index, ebn0, executor):
        frames += frames_used
        total = {name: fold(total[name], counts[name]) for name, fold in _FOLDS.items()}
        if (total["frame_errors"] >= cfg.min_frame_errors).all():
            capped = False
            break
    stats = []
    for i in range(len(cfg.variants)):
        row = {name: int(total[name][i]) for name in _FOLDS if name != "discord"}
        # a modelled frame costs at least one cycle: a worst case of 0 means no model
        if row["wc_cycles_obs"] == 0:
            row["cycles"] = row["wc_cycles_obs"] = None
        stats.append(PointStats(ebn0, frames, capped, cfg.code.k, **row))
    return ComparePoint(
        ebn0_db=ebn0, frames=frames, capped=capped, stats=tuple(stats),
        discordant=tuple(map(tuple, total["discord"].tolist())),
    )


def _pool_size(cfg: SweepConfig) -> int:
    """Worker processes for a sweep: more than one per CPU only adds
    table-building workers, since the output does not depend on the count."""
    return min(cfg.workers, os.cpu_count() or 1)


def _simulate(cfg: SweepConfig) -> list[ComparePoint]:
    if _pool_size(cfg) == 1:
        _init_worker(cfg.code, cfg.variants, cfg.quantize)
        pool = nullcontext()  # chunks run in this process
    else:
        pool = ProcessPoolExecutor(
            max_workers=_pool_size(cfg),
            initializer=_init_worker,
            initargs=(cfg.code, cfg.variants, cfg.quantize),
        )
    with pool as executor:
        return [
            _simulate_point(cfg, pi, ebn0, executor)
            for pi, ebn0 in enumerate(cfg.ebn0_db)
        ]


def run_point(cfg: SweepConfig, ebn0_db: float) -> PointStats:
    """Simulate a single point for a single-variant config."""
    if len(cfg.variants) != 1:
        raise ValueError("run_point expects exactly one variant")
    return _simulate(replace(cfg, ebn0_db=(ebn0_db,)))[0].stats[0]


# ---------------------------------------------------------------------------
# CSV emission


def _ebn0_text(ebn0_db: float) -> str:
    """An Eb/N0 point as "g" writes it where that reads back exactly, else
    as the shortest text that does, so distinct points print apart."""
    return format(ebn0_db, "g") if float(format(ebn0_db, "g")) == ebn0_db else repr(ebn0_db)


def _metadata_lines(cfg: SweepConfig) -> list[str]:
    lines = [
        "# stepgrand sweep",
        f"# code={cfg.code.name} n={cfg.code.n} k={cfg.code.k}",
    ]
    if len(cfg.variants) == 1:
        lines.append(f"# variant={cfg.variants[0].label}")
    else:
        lines.append("# variants=" + ";".join(s.label for s in cfg.variants))
        for i, spec in enumerate(cfg.variants, start=1):
            lines.append(f"# v{i}={spec.label}")
    lines += [
        "# ebn0_db=" + ",".join(map(_ebn0_text, cfg.ebn0_db)),
        f"# seed={cfg.seed} min_frame_errors={cfg.min_frame_errors}"
        f" max_frames={cfg.max_frames} quantize={int(cfg.quantize)}"
        f" chunk_frames={CHUNK_FRAMES}",
        "# queries include the initial hard-decision membership test",
        "# avg_cycles: pipelined per-frame counter (sorter stages overlapped);"
        " wc_cycles_obs: full frame latency; cycles are modeled only for the"
        " stepped-schedule variant on power-of-two block lengths",
    ]
    return lines


# a variant's CSV columns, each a PointStats attribute, with its format
_STAT_COLUMNS = {"frame_errors": "d", "bit_errors": "d", "fer": ".6e", "ber": ".6e",
                 "avg_queries": ".6f", "avg_cycles": ".6f", "wc_queries_obs": "d",
                 "wc_cycles_obs": "d"}


def _stat_cells(s: PointStats) -> list[str]:
    values = (getattr(s, column) for column in _STAT_COLUMNS)
    # a variant without a cycle model leaves its cycle cells empty
    return ["" if x is None else format(x, f) for x, f in zip(values, _STAT_COLUMNS.values())]


def open_output(out):
    """A context yielding out itself if open, stdout for '-', else open(out, "w")."""
    if hasattr(out, "write"):
        return nullcontext(out)
    return nullcontext(sys.stdout) if out == "-" else open(out, "w")


def write_sweep_csv(cfg: SweepConfig, points: Sequence[ComparePoint], out) -> None:
    # a single variant's columns carry no prefix; compare files number them
    prefixes = [""] if len(cfg.variants) == 1 else [
        f"v{i}_" for i in range(1, len(cfg.variants) + 1)
    ]
    with open_output(out) as fh:
        for line in _metadata_lines(cfg):
            print(line, file=fh)
        columns = [p + c for p in prefixes for c in _STAT_COLUMNS]
        print(",".join(["ebn0_db", "frames", *columns, "capped"]), file=fh)
        for point in points:
            cells = [_ebn0_text(point.ebn0_db), str(point.frames)]
            for s in point.stats:
                cells += _stat_cells(s)
            cells.append(str(int(point.capped)))
            print(",".join(cells), file=fh)


def run_sweep(cfg: SweepConfig, out=None) -> list[PointStats]:
    """Simulate every configured point for a single variant; optionally write
    the CSV to a path, '-' for stdout, or an open text file."""
    if len(cfg.variants) != 1:
        raise ValueError("run_sweep expects exactly one variant; use"
                         " compare_decoders for several")
    points = _simulate(cfg)
    if out is not None:
        write_sweep_csv(cfg, points, out)
    return [p.stats[0] for p in points]


def compare_decoders(cfg: SweepConfig, out=None) -> list[ComparePoint]:
    """Simulate all variants under common random numbers per frame."""
    if len(cfg.variants) < 2:
        raise ValueError("compare_decoders needs at least two variants")
    points = _simulate(cfg)
    if out is not None:
        write_sweep_csv(cfg, points, out)
    return points
