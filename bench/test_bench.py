"""Smoke tests of the benchmark itself, at tiny size.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import PIN_SEED, records  # noqa: E402
from layers import Tracer, layer_counts, layer_times  # noqa: E402
from measure import measure  # noqa: E402
from workloads import WORKLOADS, run_rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    w = WORKLOADS[name]
    sweeps = tuple(dataclasses.replace(s, frames=48) for s in w.sweeps)
    return dataclasses.replace(w, sweeps=sweeps, spot_frames=4)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace, section):
    result = measure(tiny(name), seed=2, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_account_for_chunk_time_and_counts_repeat(name):
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            run_rep(tiny(name), seed=4, tracer=tracer)
        runs.append(tracer.spans)
    t = layer_times(runs[0])
    parts = ("sim.self_s", "fastpath.search_s", "fastpath.hit_ranks_s",
             "hwmodel.cycles_s", "codes.recover_s")
    assert sum(t[p] for p in parts) == pytest.approx(t["sim.chunk_s"], rel=1e-9)
    assert all(t[p] >= -1e-9 for p in parts)
    assert layer_counts(runs[0]) == layer_counts(runs[1])
    assert layer_counts(runs[0])["sim.frames"] == sum(
        s.frames * len(s.ebn0_db) for s in tiny(name).sweeps)


def test_wrong_pin_fails_the_output_check():
    w = tiny("step-lowsnr")
    pins = records(run_rep(w, PIN_SEED).points)
    assert measure(w, seed=3, seconds=0, trace=False, pins=pins)["correct"]
    pins[1][0]["frame_errors"] += 1
    result = measure(w, seed=3, seconds=0, trace=False, pins=pins)
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hard-highsnr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
