"""Sweep benchmark: frames/s, set-up time and memory per workload, or, with
--trace 1, the per-layer split of the same sweeps.

    python3 bench/run.py --workload step-lowsnr --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics (see measure.py and bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _run_all(args) -> int:
    """Each workload in a fresh process, so no workload's tables or warm
    caches leak into another's set-up time or memory peak."""
    from workloads import WORKLOADS

    status = 0
    print(f"{'workload':<14} {'metric':<20} {'value':>14}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name:<14} exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_point_frac", result["failed"] / result["attempted"],
                     f"frac of {result['attempted']} results"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<20} {value:>14.6g}  {unit}")
        status |= 0 if result["correct"] else 1
    return status


def _write_pins() -> None:
    from checks import PIN_SEED, PINS_PATH, records
    from workloads import WORKLOADS, run_rep

    pins = {name: records(run_rep(w, PIN_SEED).points) for name, w in WORKLOADS.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sweep time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the pinned-seed outputs in bench/pins.json")
    args = parser.parse_args(argv)

    if not (SRC / "stepgrand" / "__init__.py").is_file():
        print(f"run.py: no stepgrand package under {SRC}; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    # One BLAS thread: on a 2-core machine the default second OpenBLAS thread
    # spins through every matmul (1.7 cores busy for the same frames/s) and
    # ties the timing to the load on the other core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import stepgrand
    from workloads import WORKLOADS

    if Path(stepgrand.__file__).resolve().parent != SRC / "stepgrand":
        print(f"run.py: imported stepgrand from {stepgrand.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.write_pins:
        _write_pins()
        return 0
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from"
                     f" {', '.join(WORKLOADS)} or all")
    from checks import load_pins
    from measure import measure

    workload = WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         load_pins()[args.workload])
    except Exception:
        # a sweep that raises fails every point it was computing
        traceback.print_exc()
        points = sum(len(sw.ebn0_db) for sw in workload.sweeps)
        print(json.dumps({"correct": False, "attempted": points,
                          "failed": points, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
