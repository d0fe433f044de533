"""Outside-in layer trace for the sweep harness.

The tracer replaces, for the duration of a traced sweep, the functions that
`stepgrand.sim` calls into the other modules with wrappers that record one
span per call: (name, start, end, parent span index, chunk id, info). Spans
stay in memory; the benchmark writes them out when it ends. Nothing under
`src/` changes.

Per-layer counts are taken from the wrapped calls' return values and the
engines' public attributes (`pattern_count`, `block_edges`), never from
timers, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

from stepgrand import sim
from stepgrand.codes import LinearCode
from stepgrand.fastpath import HardEngine, SoftEngine
from stepgrand.hwmodel import LatencyModel

NAME, START, END, PARENT, CHUNK, INFO = range(6)

CHUNK_SPAN = "sim.run_chunk"
SEARCH_SPANS = ("fastpath.decode_frame", "fastpath.decode_frames")
HWMODEL_SPANS = ("hwmodel.frame_cycles", "hwmodel.pipeline_cycles")


def _soft_info(args, report):
    engine = args[0]
    pos = report.stream_position
    if pos < 0:
        return (1, 0, engine.pattern_count, engine.block_edges[-1])
    edge = engine.block_edges[bisect.bisect_right(engine.block_edges, pos)]
    return (1, 1, pos + 1, edge)


def _hard_info(args, reports):
    engine = args[0]
    hits = tested = 0
    for r in reports:
        if r.stream_position < 0:
            tested += engine.pattern_count
        else:
            hits += 1
            tested += r.stream_position + 1
    # the hard engine binary-searches presorted tables and gathers nothing
    return (len(reports), hits, tested, 0)


def _engine_info(args, engine):
    if isinstance(engine, HardEngine):
        arrays = [a for t in engine.weight_tables
                  for a in (t["positions"], t["sorted_syn"], t["order"])]
    else:
        arrays = [engine.rank_index, engine.weights]
    return (engine.pattern_count, sum(a.nbytes for a in arrays))


def _chunk_info(args, result):
    return result[0]


# (owner, attribute, span name, info function)
TARGETS = (
    (sim, "_run_chunk", CHUNK_SPAN, _chunk_info),
    (sim, "_init_worker", "sim.init_worker", None),
    (sim, "build_engine", "fastpath.build_engine", _engine_info),
    (SoftEngine, "decode_frame", "fastpath.decode_frame", _soft_info),
    (SoftEngine, "hit_ranks", "fastpath.hit_ranks", None),
    (HardEngine, "decode_frames", "fastpath.decode_frames", _hard_info),
    (LatencyModel, "frame_cycles", "hwmodel.frame_cycles", None),
    (LatencyModel, "pipeline_cycles", "hwmodel.pipeline_cycles", None),
    (LinearCode, "recover_message", "codes.recover_message", None),
)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._chunk = -1
        self._chunks_seen = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, info=None, **kwargs):
        """Run fn inside a span named name."""
        spans = self.spans
        index = len(spans)
        chunk = self._chunk
        if name == CHUNK_SPAN:
            chunk = self._chunk = self._chunks_seen
            self._chunks_seen += 1
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, chunk, None]
        spans.append(rec)
        self._stack.append(index)
        rec[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            if name == CHUNK_SPAN:
                self._chunk = -1
        if info is not None:
            rec[INFO] = info(args, out)
        return out

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, info=info, **kwargs)
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, info in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, info))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_counts(spans: list[list]) -> dict[str, int]:
    """Deterministic per-sweep counts from one repetition's spans."""
    counts = dict.fromkeys(
        ("sim.chunks", "sim.frames", "fastpath.search_calls",
         "fastpath.frames_searched", "fastpath.hits", "fastpath.abandoned",
         "fastpath.patterns_tested", "fastpath.patterns_gathered",
         "fastpath.table_patterns", "fastpath.table_bytes", "hwmodel.calls",
         "codes.recover_calls"), 0)
    for rec in spans:
        name, info = rec[NAME], rec[INFO]
        if name == CHUNK_SPAN:
            counts["sim.chunks"] += 1
            counts["sim.frames"] += info
        elif name in SEARCH_SPANS:
            frames, hits, tested, gathered = info
            counts["fastpath.search_calls"] += 1
            counts["fastpath.frames_searched"] += frames
            counts["fastpath.hits"] += hits
            counts["fastpath.abandoned"] += frames - hits
            counts["fastpath.patterns_tested"] += tested
            counts["fastpath.patterns_gathered"] += gathered
        elif name == "fastpath.build_engine":
            counts["fastpath.table_patterns"] += info[0]
            counts["fastpath.table_bytes"] += info[1]
        elif name in HWMODEL_SPANS and (
                rec[PARENT] < 0 or spans[rec[PARENT]][NAME] not in HWMODEL_SPANS):
            # pipeline_cycles calls frame_cycles; count only calls from sim
            counts["hwmodel.calls"] += 1
        elif name == "codes.recover_message" and rec[CHUNK] >= 0:
            counts["codes.recover_calls"] += 1
    # each sweep here has one variant, so every nonclean frame is searched once
    counts["sim.frames_nonclean"] = counts["fastpath.frames_searched"]
    return counts


def layer_times(spans: list[list]) -> dict[str, float]:
    """Per-layer time in seconds for one repetition: chunk time split into
    self times, plus the set-up spans outside chunks."""
    own = self_times(spans)
    times = dict.fromkeys(
        ("sim.chunk_s", "sim.self_s", "fastpath.search_s",
         "fastpath.hit_ranks_s", "hwmodel.cycles_s", "codes.recover_s",
         "sim.init_s", "fastpath.build_s", "codes.build_s"), 0.0)
    in_chunk = {
        CHUNK_SPAN: "sim.self_s",
        "fastpath.decode_frame": "fastpath.search_s",
        "fastpath.decode_frames": "fastpath.search_s",
        "fastpath.hit_ranks": "fastpath.hit_ranks_s",
        "hwmodel.frame_cycles": "hwmodel.cycles_s",
        "hwmodel.pipeline_cycles": "hwmodel.cycles_s",
        "codes.recover_message": "codes.recover_s",
    }
    for rec, t in zip(spans, own):
        name = rec[NAME]
        if name == CHUNK_SPAN:
            times["sim.chunk_s"] += rec[END] - rec[START]
        if rec[CHUNK] >= 0:
            times[in_chunk[name]] += t
        elif name == "sim.init_worker":
            times["sim.init_s"] += rec[END] - rec[START]
        elif name == "fastpath.build_engine":
            times["fastpath.build_s"] += rec[END] - rec[START]
        elif name == "codes.build":
            times["codes.build_s"] += rec[END] - rec[START]
    return times


def chunk_percentiles(chunk_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile): the tail is the highest of p50, p90,
    p99 and p99.9 that has at least ten chunks beyond it."""
    ordered = sorted(chunk_ms)
    n = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]

    tail_p = 50.0
    for p in (90.0, 99.0, 99.9):
        if n - math.ceil(p / 100 * n) >= 10:
            tail_p = p
    return pct(50.0), pct(tail_p), tail_p
