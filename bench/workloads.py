"""Benchmark workloads and one timed repetition of a workload.

Each workload is a fixed list of single-variant sweeps run through the public
`run_sweep` API, single-process, with `min_frame_errors` out of reach so the
frame count, and with it the work, is fixed by the configuration and seed.
The workloads are chosen so that each one loads a different layer:

- step-lowsnr: the stepped-schedule soft search in its waterfall region;
  the capolar half also runs the hwmodel cycle path on every hit, the bch127
  half (n=127, not a power of two) skips it.
- orb-lowsnr: the same soft-search layer on a long logistic-weight stream
  whose hits land deep, with a Python-enumerated stream at set-up.
- hard-highsnr: mostly clean frames and one batched binary search per chunk,
  so sim's own inline work (RNG, encode, channel, syndrome, sort, per-frame
  bookkeeping) dominates and the large hard tables set the memory peak.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from stepgrand import sim
from stepgrand.codes import LinearCode, build_bch, build_ca_polar
from stepgrand.decoder import DecoderSpec, GrandabSpec, OrbgrandSpec, StepGrandSpec
from stepgrand.sim import PointStats, SweepConfig, run_sweep

CODES = {
    "capolar128": lambda: build_ca_polar(128, 105),
    "bch127": lambda: build_bch(7, 3),
}


@dataclass(frozen=True)
class Sweep:
    code: str
    spec: DecoderSpec
    ebn0_db: tuple[float, ...]
    frames: int  # per point


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    spot_frames: int  # nonclean frames per sweep in the differential check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("step-lowsnr", (
            Sweep("capolar128", StepGrandSpec(2, 6, 6), (3.0,), 1024),
            Sweep("bch127", StepGrandSpec(2, 7, 6), (3.0,), 1024),
        ), spot_frames=150),
        Workload("orb-lowsnr", (
            Sweep("capolar128", OrbgrandSpec(64, 6), (3.0,), 512),
        ), spot_frames=160),
        Workload("hard-highsnr", (
            Sweep("capolar128", GrandabSpec(3), (6.0, 7.0), 16384),
        ), spot_frames=160),
    )
}


class FirstChunk:
    """Stamps the time sim enters its first chunk: the end of set-up."""

    def __init__(self) -> None:
        self.at: float | None = None

    def __enter__(self) -> "FirstChunk":
        self._fn = sim.__dict__["_run_chunk"]
        sim._run_chunk = self._probe
        return self

    def _probe(self, *args):
        if self.at is None:
            self.at = perf_counter()
        return self._fn(*args)

    def __exit__(self, *exc) -> None:
        sim._run_chunk = self._fn


# Seconds the probe takes on the reference machine; the end-to-end times
# are reported as if measured there.
REFERENCE_PROBE_S = 0.045


def machine_probe() -> float:
    """Seconds a fixed kernel takes right now, best of two runs with the
    garbage collector off, so the program's heap and whatever ran just
    before barely move it.

    The shared machine this benchmark runs on changes speed by up to 1.6x
    for minutes at a time, uniformly enough that the probe slows with the
    sweeps. The kernel does not touch stepgrand and mixes the kinds of work
    the sweeps do: numpy RNG, matmul, row sorts, a table-sized gather plus
    XOR-reduce, and building Python tuples.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_kernel() for _ in range(2))
    finally:
        if enabled:
            gc.enable()


def _probe_kernel() -> float:
    start = perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[7, 7]))
    g = rng.integers(0, 2, (105, 128)).astype(np.float32)
    m = rng.integers(0, 2, (512, 105)).astype(np.float32)
    y = (1.0 - 2.0 * ((m @ g) % 2)) + rng.standard_normal((512, 128))
    perms = np.argsort(np.abs(y), axis=1, kind="stable")
    columns = rng.integers(0, 1 << 20, 128, dtype=np.int32)
    index = rng.integers(0, 128, (1 << 16, 6), dtype=np.int32)
    for p in perms[:6]:
        np.bitwise_xor.reduce(columns[p][index], axis=1)
    np.array(list(itertools.combinations(range(72), 3)), dtype=np.int32)
    table = {}
    for i in range(20000):
        table[i] = (i, i & 7, (i >> 3) & 7)
    return perf_counter() - start


@dataclass
class Rep:
    """One repetition: every sweep of the workload once, from spec.

    slowdown is the machine probe's time around the repetition over
    REFERENCE_PROBE_S; dividing a time by it rescales it to the reference
    machine.
    """

    setup_s: float
    sweep_s: float
    frames: int
    points: list[list[PointStats]]  # per sweep, per Eb/N0 point
    seed: int
    slowdown: float = 1.0

    @property
    def frames_per_s(self) -> float:
        return self.frames / self.sweep_s


def build_code(sweep: Sweep, tracer=None) -> LinearCode:
    factory = CODES[sweep.code]
    return factory() if tracer is None else tracer.span("codes.build", factory)


def run_rep(workload: Workload, seed: int, tracer=None) -> Rep:
    """Run each sweep from its spec; set-up is spec to first chunk."""
    gc.collect()
    setup = sweep_time = 0.0
    frames = 0
    points = []
    for sweep in workload.sweeps:
        with FirstChunk() as first:
            start = perf_counter()
            code = build_code(sweep, tracer)
            cfg = SweepConfig(
                code=code, variants=(sweep.spec,), ebn0_db=sweep.ebn0_db,
                min_frame_errors=sweep.frames + 1, max_frames=sweep.frames,
                seed=seed, workers=1,
            )
            stats = run_sweep(cfg)
            end = perf_counter()
        setup += first.at - start
        sweep_time += end - first.at
        frames += sum(s.frames for s in stats)
        points.append(stats)
    return Rep(setup, sweep_time, frames, points, seed)
