"""One benchmark run of a workload: repetitions, checks and metrics.

The result is the object run.py prints: correct, attempted, failed and
metrics. attempted counts checked (point, variant) results plus one
differential spot-check per engine; failed/attempted is the failed-point
fraction, which is 0 when the program is correct.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path

from checks import (PIN_SEED, Reference, check_invariants, compare_records, digest,
                    records, spot_check)
from layers import (CHUNK_SPAN, END, NAME, START, Tracer, chunk_percentiles,
                    layer_counts, layer_times)
from workloads import REFERENCE_PROBE_S, machine_probe, run_rep

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"

# A run cycles through this many sweep seeds derived from the benchmark
# seed: it measures four repetitions' worth of distinct frames, so the work
# varies less from seed to seed, while each repetition stays short enough
# for the probes around it to track the machine. Every seed runs at least
# once untraced (and once traced), however short --seconds is.
SEEDS_PER_RUN = 4

END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "sim.chunks": ("count", "lower"),
    "sim.chunk_s": ("s", "lower"),
    "sim.chunk_ms_p50": ("ms", "lower"),
    "sim.chunk_ms_tail": ("ms", "lower"),
    "sim.chunk_tail_pct": ("%", "higher"),
    "sim.chunk_samples": ("count", "higher"),
    "sim.self_s": ("s", "lower"),
    "sim.self_share": ("frac", "lower"),
    "sim.frames_nonclean": ("count", "lower"),
    "sim.init_s": ("s", "lower"),
    "fastpath.search_s": ("s", "lower"),
    "fastpath.search_calls": ("count", "lower"),
    "fastpath.us_per_frame": ("us", "lower"),
    "fastpath.frames_searched": ("count", "lower"),
    "fastpath.hits": ("count", "higher"),
    "fastpath.abandoned": ("count", "lower"),
    "fastpath.hit_ratio": ("frac", "higher"),
    "fastpath.patterns_tested": ("count", "lower"),
    "fastpath.patterns_per_s": ("1/s", "higher"),
    "fastpath.patterns_gathered": ("count", "lower"),
    "fastpath.useful_ratio": ("frac", "higher"),
    "fastpath.hit_ranks_s": ("s", "lower"),
    "fastpath.build_s": ("s", "lower"),
    "fastpath.table_patterns": ("count", "lower"),
    "fastpath.table_bytes": ("B", "lower"),
    "hwmodel.calls": ("count", "lower"),
    "hwmodel.cycles_s": ("s", "lower"),
    "codes.build_s": ("s", "lower"),
    "codes.recover_calls": ("count", "lower"),
    "codes.recover_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.spans": ("count", "lower"),
}


class Outcome:
    """Checked results of one run: attempted and failed counts, messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        for failure in failures:
            print("check failed:", failure, file=sys.stderr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _check_reps(workload, seed, pinned, reps, pins, first_of, outcome) -> None:
    """Every point of every repetition against the invariants, the pinned
    repetition against the pins and the others against the first repetition
    of their sweep seed."""
    refs = [Reference.build(sweep) for sweep in workload.sweeps]
    n_points = sum(len(sw.ebn0_db) for sw in workload.sweeps)
    for rep in [pinned] + reps:
        bad = {}
        for si, (ref, stats) in enumerate(zip(refs, rep.points)):
            bad.update(((si, pi), msg) for pi, msg in check_invariants(ref, stats))
        expected = pins if rep is pinned else records(first_of[rep.seed].points)
        if expected is not None:
            bad.update(((si, pi), msg) for si, pi, msg in compare_records(rep.points, expected))
        outcome.add(n_points, [f"sweep {si} point {pi}: {msg}" for (si, pi), msg in bad.items()])
    for tag, ref in enumerate(refs):
        mismatches = spot_check(ref, workload.spot_frames, seed, tag)
        outcome.add(1, [f"{len(mismatches)} spot-check mismatches"] if mismatches else [])
        for m in mismatches[:5]:
            print("  ", m, file=sys.stderr)


# set-up metrics, reported per repetition like setup_s
PER_REPETITION = ("sim.init_s", "fastpath.build_s", "codes.build_s",
                  "fastpath.table_patterns", "fastpath.table_bytes")


def _layer_metrics(traced, untraced, outcome) -> dict:
    """Per-layer metrics for one cycle through the sweep seeds: counts and
    times summed over the seeds, each seed's time the median of its traced
    repetitions; set-up metrics per repetition."""
    by_seed: dict[int, list] = {}
    for rep, spans in traced:
        by_seed.setdefault(rep.seed, []).append(spans)
    counts = {s: [layer_counts(spans) for spans in runs] for s, runs in by_seed.items()}
    outcome.add(1, [] if all(c == cs[0] for cs in counts.values() for c in cs) else
                ["layer counts differ between repetitions of one seed"])
    times = {s: [layer_times(spans) for spans in runs] for s, runs in by_seed.items()}
    first_counts = next(iter(counts.values()))[0]
    c = {k: first_counts[k] if k in PER_REPETITION
         else sum(cs[0][k] for cs in counts.values()) for k in first_counts}
    t = {k: statistics.median(p[k] for ts in times.values() for p in ts)
         if k in PER_REPETITION
         else sum(statistics.median(p[k] for p in ts) for ts in times.values())
         for k in next(iter(times.values()))[0]}
    chunk_ms = [(rec[END] - rec[START]) * 1e3 for _, spans in traced
                for rec in spans if rec[NAME] == CHUNK_SPAN]
    p50, tail, tail_pct = chunk_percentiles(chunk_ms)
    fps_traced = statistics.median(rep.frames_per_s * rep.slowdown for rep, _ in traced)
    fps_plain = statistics.median(rep.frames_per_s * rep.slowdown for rep in untraced)
    values = {
        "sim.chunks": c["sim.chunks"],
        "sim.chunk_s": t["sim.chunk_s"],
        "sim.chunk_ms_p50": p50,
        "sim.chunk_ms_tail": tail,
        "sim.chunk_tail_pct": tail_pct,
        "sim.chunk_samples": len(chunk_ms),
        "sim.self_s": t["sim.self_s"],
        "sim.self_share": _ratio(t["sim.self_s"], t["sim.chunk_s"]),
        "sim.frames_nonclean": c["sim.frames_nonclean"],
        "sim.init_s": t["sim.init_s"],
        "fastpath.search_s": t["fastpath.search_s"],
        "fastpath.search_calls": c["fastpath.search_calls"],
        "fastpath.us_per_frame": _ratio(t["fastpath.search_s"] * 1e6,
                                        c["fastpath.frames_searched"]),
        "fastpath.frames_searched": c["fastpath.frames_searched"],
        "fastpath.hits": c["fastpath.hits"],
        "fastpath.abandoned": c["fastpath.abandoned"],
        "fastpath.hit_ratio": _ratio(c["fastpath.hits"], c["fastpath.frames_searched"]),
        "fastpath.patterns_tested": c["fastpath.patterns_tested"],
        "fastpath.patterns_per_s": _ratio(c["fastpath.patterns_tested"],
                                          t["fastpath.search_s"]),
        "fastpath.patterns_gathered": c["fastpath.patterns_gathered"],
        "fastpath.useful_ratio": _ratio(c["fastpath.patterns_tested"],
                                        c["fastpath.patterns_gathered"]),
        "fastpath.hit_ranks_s": t["fastpath.hit_ranks_s"],
        "fastpath.build_s": t["fastpath.build_s"],
        "fastpath.table_patterns": c["fastpath.table_patterns"],
        "fastpath.table_bytes": c["fastpath.table_bytes"],
        "hwmodel.calls": c["hwmodel.calls"],
        "hwmodel.cycles_s": t["hwmodel.cycles_s"],
        "codes.build_s": t["codes.build_s"],
        "codes.recover_calls": c["codes.recover_calls"],
        "codes.recover_s": t["codes.recover_s"],
        "trace.overhead_frac": _ratio(fps_traced, fps_plain) - 1.0,
        "trace.spans": sum(len(runs[0]) for runs in by_seed.values()),
    }
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def _write_spans(workload, seed, traced) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "chunk", "info"],
        "repetitions": [spans for _, spans in traced],
    }))
    return path


def measure(workload, seed: int, seconds: float, trace: bool, pins=None) -> dict:
    """One benchmark run; returns the result object run.py prints as JSON.

    The pinned-seed repetition comes first: it warms up, is checked against
    pins, and the memory peak is read right after it, while the process has
    run this workload exactly once. Then untraced (and, with trace, traced)
    repetitions alternate, cycling through the sweep seeds, until `seconds`
    of sweep time are measured, with the machine probe run between
    repetitions.
    """
    outcome = Outcome()
    pinned = run_rep(workload, PIN_SEED)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    seeds = [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    reps, traced = [], []
    measured = 0.0
    probe = machine_probe()
    while (measured < seconds or len(reps) < SEEDS_PER_RUN
           or (trace and len(traced) < SEEDS_PER_RUN)):
        if trace and len(traced) < len(reps):
            with Tracer() as tracer:
                rep = run_rep(workload, seeds[len(traced) % SEEDS_PER_RUN], tracer)
            traced.append((rep, tracer.spans))
        else:
            rep = run_rep(workload, seeds[len(reps) % SEEDS_PER_RUN])
            reps.append(rep)
        measured += rep.sweep_s
        after = machine_probe()
        rep.slowdown = (probe + after) / 2 / REFERENCE_PROBE_S
        probe = after
    first_of = {}
    for rep in reps:
        first_of.setdefault(rep.seed, rep)
    raw_fps = statistics.median(rep.frames_per_s for rep in reps)
    raw_setup = statistics.median(rep.setup_s for rep in reps)
    slowdown = statistics.median(rep.slowdown for rep in reps)
    print(f"{workload.name} seed={seed}"
          f" digest={digest([sw for s in seeds for sw in first_of[s].points])}"
          f" raw_frames_per_s={raw_fps:.6g} raw_setup_s={raw_setup:.6g}"
          f" slowdown={slowdown:.4f}")
    _check_reps(workload, seed, pinned, reps + [rep for rep, _ in traced], pins,
                first_of, outcome)
    if trace:
        metrics = _layer_metrics(traced, reps, outcome)
        print(f"spans written to {_write_spans(workload, seed, traced).relative_to(ROOT)}")
    else:
        values = {
            "frames_per_s": statistics.median(r.frames_per_s * r.slowdown for r in reps),
            "setup_s": statistics.median(r.setup_s / r.slowdown for r in reps),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
