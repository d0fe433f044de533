"""The package API that the benchmark under bench/ relies on.

bench/layers.py patches named functions and methods of the package at run
time, and bench/checks.py drives the engines directly, so a refactor that
renames or moves one of them breaks `bench/run.py` without failing any
other test. This module imports the benchmark's own modules and checks
that they still run against the package.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from checks import Reference, spot_check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from stepgrand.fastpath import HardEngine  # noqa: E402
from stepgrand.patterns import chain_ranks  # noqa: E402
from stepgrand.sim import SweepConfig, run_sweep  # noqa: E402

# the capolar128 sweep of each workload: one per decoder family
FAMILY_SWEEPS = {
    name: next(s for s in w.sweeps if s.code == "capolar128")
    for name, w in WORKLOADS.items()
}


@pytest.fixture(scope="module")
def references():
    return {name: Reference.build(s) for name, s in FAMILY_SWEEPS.items()}


def test_trace_targets_are_owned_where_they_are_patched():
    for owner, attr, name, _ in layers.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} moved"


def test_hard_tables_keep_the_arrays_the_trace_sizes(references):
    engine = references["hard-highsnr"].engine
    assert isinstance(engine, HardEngine)
    for table in engine.weight_tables:
        assert {"positions", "sorted_syn", "order"} <= set(table)


@pytest.mark.parametrize("name", list(FAMILY_SWEEPS))
def test_trace_views_are_the_walkers_expansion(name, references):
    # the padded rank table and flip counts that the trace sizes are built
    # on demand from the engine's (parent, top); they go once the trace
    # sizes the engine's own arrays
    engine = references[name].engine
    ranks = np.column_stack(list(chain_ranks(engine.parent, engine.top,
                                             np.arange(engine.pattern_count), engine.code.n)))
    table = [sorted(row) for row in ranks.tolist()]  # ascending, pads of n last
    if isinstance(engine, HardEngine):
        (view,) = engine.weight_tables
        assert view["positions"].dtype == np.int32
        assert view["positions"].tolist() == table
        assert view["sorted_syn"] is engine.sorted_syn and view["order"] is engine.order
    else:
        assert engine.rank_index.dtype == np.int32
        assert engine.rank_index.tolist() == table
        assert engine.weights.dtype == np.int8
        assert engine.weights.tolist() == (ranks < engine.code.n).sum(axis=1).tolist()


@pytest.mark.parametrize("name", list(FAMILY_SWEEPS))
def test_tracer_runs_a_one_chunk_sweep(name, references):
    sweep = FAMILY_SWEEPS[name]
    cfg = SweepConfig(code=references[name].code, variants=(sweep.spec,),
                      ebn0_db=sweep.ebn0_db[:1], min_frame_errors=10**9,
                      max_frames=128, seed=5)
    with layers.Tracer() as tracer:
        stats = run_sweep(cfg)
    assert [s.frames for s in stats] == [128]
    counts = layers.layer_counts(tracer.spans)
    assert counts["sim.chunks"] == 1 and counts["sim.frames"] == 128
    assert counts["fastpath.table_patterns"] == references[name].engine.pattern_count
    times = layers.layer_times(tracer.spans)
    assert times["sim.chunk_s"] > 0


@pytest.mark.parametrize("name", list(FAMILY_SWEEPS))
def test_spot_check_agrees_with_the_reference_decoder(name, references):
    assert spot_check(references[name], n_frames=6, seed=3, tag=0) == []


def test_family_sweeps_cover_every_decoder_family():
    kinds = {type(s.spec).__name__ for s in FAMILY_SWEEPS.values()}
    assert kinds == {"GrandabSpec", "OrbgrandSpec", "StepGrandSpec"}
