"""Command-line front end for AWGN sweeps.

``--decoder`` names one variant in the syntax the CSV metadata prints, e.g.
``"stepgrand(a=2,b=6,p=6)"``, and the run emits the sweep CSV; a
semicolon-separated list of variants, e.g.
``"grandab(ab=3);stepgrand(a=2,b=6,p=6)"``, emits the paired comparison
CSV instead. ``decoder.parse_variant`` reads a variant, from the ``name``
and ``keys`` its spec class declares.
"""

from __future__ import annotations

import argparse
import math
import sys

from .codes import build_bch, build_ca_polar, load_alist, load_dense_generator
from .decoder import parse_variant
from .sim import SweepConfig, compare_decoders, open_output, run_sweep

# each point is a sweep and a CSV row; a range with more is refused unbuilt
MAX_EBN0_POINTS = 10_000


def resolve_code(token: str):
    if token == "bch127":
        return build_bch(7, 3)
    if token == "capolar128":
        return build_ca_polar(128, 105)
    if token.startswith("alist:"):
        return load_alist(token[len("alist:"):])
    if token.startswith("dense:"):
        return load_dense_generator(token[len("dense:"):])
    raise ValueError(
        f"unknown code {token!r}; expected bch127, capolar128,"
        " alist:<path> or dense:<path>"
    )


def parse_ebn0(text: str) -> tuple[float, ...]:
    """Accept 'start:step:stop' (inclusive) or a comma list of dB values."""
    text = text.strip()
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
    values = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"ebn0 values must be finite, got {text!r}")
    if ":" not in text:
        if not values:
            raise ValueError("ebn0 list must not be empty")
        if len(values) > MAX_EBN0_POINTS:
            raise ValueError(f"ebn0 list has more than {MAX_EBN0_POINTS} points")
        return values
    if len(values) != 3:
        raise ValueError(f"bad ebn0 range {text!r}; expected start:step:stop")
    start, step, stop = values
    if step <= 0:
        raise ValueError("ebn0 step must be positive")
    if stop < start:
        raise ValueError("ebn0 stop must not be below start")
    steps = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if steps >= MAX_EBN0_POINTS:
        raise ValueError(f"ebn0 range {text!r} has more than {MAX_EBN0_POINTS} points")
    count = int(steps) + 1
    points = tuple(round(start + i * step, 9) for i in range(count))
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError(f"ebn0 step of {text!r} is below the 1e-9 dB"
                         " resolution, so points repeat")
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepgrand",
        description="Monte-Carlo AWGN sweeps for guess-and-check decoders",
    )
    parser.add_argument("--code", required=True,
                        help="bch127 | capolar128 | alist:<path> | dense:<path>")
    parser.add_argument("--decoder", default="stepgrand",
                        help="a variant such as 'stepgrand(a=2,b=6,p=6)', the"
                        " syntax the CSV metadata prints, or a ';'-separated"
                        " list of variants to compare under common noise")
    parser.add_argument("--ebn0", required=True,
                        help="dB points: start:step:stop or comma list")
    parser.add_argument("--min-frame-errors", type=int, default=100)
    parser.add_argument("--max-frames", type=int, default=100_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quantize", action="store_true",
                        help="pass LLRs through the 5-bit quantizer")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    return parser


def _attach_ebn0(argv: list[str]) -> list[str]:
    """Join each `--ebn0 VALUE` pair into `--ebn0=VALUE`, also where the flag
    is abbreviated as argparse allows (--e, --eb, --ebn): argparse takes a
    separate value that starts with '-' and is not a plain number, such as
    -1:1:2 or -2,-1, for a flag."""
    joined = []
    tokens = iter(argv)
    for token in tokens:
        is_ebn0 = len(token) > 2 and "--ebn0".startswith(token)
        value = next(tokens, None) if is_ebn0 else None
        joined.append(token if value is None else f"--ebn0={value}")
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _attach_ebn0(sys.argv[1:] if argv is None else argv))
    try:
        code = resolve_code(args.code)
        ebn0 = parse_ebn0(args.ebn0)
        variants = tuple(
            parse_variant(t) for t in args.decoder.split(";") if t.strip()
        )
        if not variants:
            raise ValueError(f"--decoder {args.decoder!r} names no variant")
        cfg = SweepConfig(
            code=code, variants=variants, ebn0_db=ebn0,
            min_frame_errors=args.min_frame_errors, max_frames=args.max_frames,
            seed=args.seed, quantize=args.quantize, workers=args.workers,
        )
        run = run_sweep if len(variants) == 1 else compare_decoders
        # opened before the first chunk, so an unwritable path costs no sweep
        with open_output(args.out) as out:
            run(cfg, out=out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
