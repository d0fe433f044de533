"""Output checks for the benchmark.

Three checks, each counted per (point, variant) result or per engine:

- pins: at the pinned seed every point's statistics must equal the values
  recorded in pins.json, and at the benchmark seed every repetition must
  equal the first;
- invariants: seed-independent bounds every point must satisfy;
- a differential spot-check: nonclean frames generated from the benchmark
  seed, half of them quantized so that LLR ties and zeros occur, decoded by
  the workload's fastpath engine and by the reference `decoder.decode`, which
  must agree on stream position and flip set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stepgrand.channel import ChannelConfig, quantize, transmit
from stepgrand.codes import LinearCode
from stepgrand.decoder import StepGrandSpec, decode
from stepgrand.fastpath import HardEngine, build_engine, packed_parity_columns
from stepgrand.gf2 import BitWord
from stepgrand.hwmodel import LatencyModel
from stepgrand.sim import PointStats

from workloads import Sweep, build_code

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
PIN_SEED = 1

PINNED_FIELDS = ("frames", "frame_errors", "bit_errors", "avg_queries",
                 "avg_cycles", "wc_queries_obs", "wc_cycles_obs")


def point_record(stats: PointStats) -> dict:
    record = {"ebn0_db": stats.ebn0_db}
    record.update((f, getattr(stats, f)) for f in PINNED_FIELDS)
    return record


def records(points: list[list[PointStats]]) -> list[list[dict]]:
    return [[point_record(s) for s in sweep] for sweep in points]


def digest(points: list[list[PointStats]]) -> str:
    """Short hash of every pinned field, to compare two commits at any seed."""
    blob = json.dumps(records(points), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def compare_records(points: list[list[PointStats]], expected: list[list[dict]]
                    ) -> list[tuple[int, int, str]]:
    """(sweep, point, message) for each point whose record is not the
    expected one, such as its pin."""
    got = records(points)
    failures = []
    for si in range(max(len(got), len(expected))):
        g = got[si] if si < len(got) else []
        p = expected[si] if si < len(expected) else []
        for pi in range(max(len(g), len(p))):
            have = g[pi] if pi < len(g) else None
            want = p[pi] if pi < len(p) else None
            if have != want:
                failures.append((si, pi, f"got {have}, expected {want}"))
    return failures


@dataclass
class Reference:
    """What the checks need for one sweep: its code, its fastpath engine,
    the reference pattern stream and the latency model bound."""

    sweep: Sweep
    code: LinearCode
    engine: object
    teps: list
    worst_case: int | None

    @classmethod
    def build(cls, sweep: Sweep) -> "Reference":
        code = build_code(sweep)
        n = code.n
        worst = None
        if isinstance(sweep.spec, StepGrandSpec) and n & (n - 1) == 0:
            worst = LatencyModel(n, sweep.spec.schedule(n)).worst_case
        return cls(sweep, code, build_engine(code, sweep.spec),
                   list(sweep.spec.teps(n)), worst)


def check_invariants(ref: Reference, stats: list[PointStats]
                     ) -> list[tuple[int, str]]:
    """(point, message) for each point that breaks a seed-independent bound."""
    sweep, budget = ref.sweep, 1 + len(ref.teps)
    failures = []
    for pi, s in enumerate(stats):
        bad = []
        if pi >= len(sweep.ebn0_db) or s.ebn0_db != sweep.ebn0_db[pi]:
            bad.append(f"unexpected point {s.ebn0_db} dB")
        if not s.capped:
            bad.append("point stopped on frame errors")
        if s.frames != sweep.frames:
            bad.append(f"frames {s.frames} != {sweep.frames}")
        if not 0 <= s.frame_errors <= s.frames:
            bad.append(f"frame_errors {s.frame_errors}")
        if not 0 <= s.bit_errors <= s.frame_errors * ref.code.k:
            bad.append(f"bit_errors {s.bit_errors}")
        if not 1 <= s.avg_queries <= budget:
            bad.append(f"avg_queries {s.avg_queries} outside [1, {budget}]")
        if not 1 <= s.wc_queries_obs <= budget:
            bad.append(f"wc_queries_obs {s.wc_queries_obs} outside [1, {budget}]")
        if ref.worst_case is None:
            if s.avg_cycles is not None or s.wc_cycles_obs is not None:
                bad.append("cycles reported without a latency model")
        elif s.wc_cycles_obs is None or not 1 <= s.wc_cycles_obs <= ref.worst_case:
            bad.append(f"wc_cycles_obs {s.wc_cycles_obs} > {ref.worst_case}")
        elif not 1 <= s.avg_cycles <= ref.worst_case:
            bad.append(f"avg_cycles {s.avg_cycles} > {ref.worst_case}")
        if bad:
            failures.append((pi, "; ".join(bad)))
    if len(stats) != len(sweep.ebn0_db):
        failures.append((len(stats), f"{len(stats)} points, expected"
                         f" {len(sweep.ebn0_db)}"))
    return failures


def spot_check(ref: Reference, n_frames: int, seed: int, tag: int) -> list[str]:
    """Decode n_frames nonclean frames with the engine and the reference
    decoder; one message per frame on which they disagree."""
    code, engine, spec = ref.code, ref.engine, ref.sweep.spec
    rng = np.random.default_rng([seed, tag])
    columns = packed_parity_columns(code)
    channels = [ChannelConfig(e, code.rate) for e in ref.sweep.ebn0_db]
    failures = []
    checked = 0
    while checked < n_frames:
        message = BitWord.from_array(rng.integers(0, 2, code.k, dtype=np.uint8))
        v = transmit(code.encode(message), channels[checked // 2 % len(channels)], rng)
        if checked % 2:
            v = quantize(v)
        hard = (v.llr < 0).astype(np.uint8)
        target = code.syndrome(BitWord.from_array(hard)).value
        if target == 0:
            continue
        checked += 1
        want = decode(v, code, ref.teps, spec.uses_sorting)
        if isinstance(engine, HardEngine):
            got = engine.decode_frames(np.array([target], dtype=np.int32))[0]
        else:
            perm = np.argsort(np.abs(v.llr), kind="stable")
            got = engine.decode_frame(perm, columns, target)
        if want.abandoned:
            want_pos, want_flips = -1, ()
        else:
            want_pos = want.trace.stream_position
            want_flips = tuple(int(p) for p in np.flatnonzero(want.noise_guess.to_array()))
        if (got.stream_position, got.positions) != (want_pos, want_flips):
            failures.append(
                f"{ref.sweep.code} frame {checked}: engine"
                f" ({got.stream_position}, {got.positions}),"
                f" reference ({want_pos}, {want_flips})")
    return failures
