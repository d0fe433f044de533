"""Guess-and-check decoding of short linear block codes.

The decoder family tests error patterns against a received word in a fixed
order until one lands on a codeword. Three orderings are provided: plain
weight order with an abandonment cap (grandab), logistic-weight order over
reliability ranks (orbgrand), and a stepped schedule that sweeps growing
flip counts over shrinking least-reliable subsets (stepgrand), paired with
a cycle-accurate latency model of its hardware realization.

Modules: gf2 (packed binary linear algebra), codes (BCH, CRC-aided polar,
file formats), channel (BPSK over AWGN, LLRs, quantizer), patterns (test
pattern streams and schedules), decoder (reference decoder and variant
specs), fastpath (vectorized engines), hwmodel (latency model), sim
(Monte-Carlo sweeps), cli (command line).
"""

from .channel import ChannelConfig, SoftVector, harden, noise_sigma, quantize, transmit
from .codes import (
    CRC11,
    CrcSpec,
    LinearCode,
    build_bch,
    build_ca_polar,
    code_from_generator,
    code_from_parity_check,
    load_alist,
    load_dense_generator,
    save_alist,
    save_dense_generator,
)
from .decoder import (
    DecodeResult,
    GrandabSpec,
    OrbgrandSpec,
    StepGrandSpec,
    decode,
    syndrome_precompute,
    worst_case_queries,
)
from .hwmodel import LatencyModel, info_throughput_bps, latency_seconds
from .patterns import build_step_schedule, max_logistic_weight, sort_reliability
from .sim import (
    PointStats,
    SweepConfig,
    compare_decoders,
    run_point,
    run_sweep,
    sign_test_pvalue,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "CRC11",
    "ChannelConfig",
    "CrcSpec",
    "DecodeResult",
    "GrandabSpec",
    "LatencyModel",
    "LinearCode",
    "OrbgrandSpec",
    "PointStats",
    "SoftVector",
    "StepGrandSpec",
    "SweepConfig",
    "build_bch",
    "build_ca_polar",
    "build_step_schedule",
    "code_from_generator",
    "code_from_parity_check",
    "compare_decoders",
    "decode",
    "harden",
    "info_throughput_bps",
    "latency_seconds",
    "load_alist",
    "load_dense_generator",
    "max_logistic_weight",
    "noise_sigma",
    "quantize",
    "run_point",
    "run_sweep",
    "save_alist",
    "save_dense_generator",
    "sign_test_pvalue",
    "sort_reliability",
    "syndrome_precompute",
    "transmit",
    "wilson_interval",
    "worst_case_queries",
]
