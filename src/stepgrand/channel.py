"""BPSK over AWGN with log-likelihood-ratio output and optional LLR quantization.

Conventions: code bit 0 maps to symbol +1, bit 1 to -1. A positive LLR favors
bit 0; hard decisions break llr == 0 toward bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BitWord


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for unit-energy BPSK at the given Eb/N0.

    Eb is energy per information bit, so the code rate scales the conversion:
    sigma^2 = 1 / (2 * rate * 10^(ebn0_db / 10)).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN operating point; sigma is derived from ebn0_db and rate."""

    ebn0_db: float
    rate: float

    @property
    def sigma(self) -> float:
        return noise_sigma(self.ebn0_db, self.rate)


@dataclass
class SoftVector:
    """Received LLRs for one frame, or an (m, n) batch of frames."""

    llr: np.ndarray
    quantized: bool = False

    def __post_init__(self) -> None:
        self.llr = np.asarray(self.llr, dtype=np.float64)


def transmit(codeword, cfg: ChannelConfig, rng: np.random.Generator) -> SoftVector:
    """Modulate a codeword, add white Gaussian noise, return channel LLRs.

    codeword is one word (a BitWord or an (n,) array) or an (m, n) array of
    words, one per row; the noise is drawn in row order.
    """
    if isinstance(codeword, BitWord):
        codeword = codeword.to_array()
    symbols = np.array(codeword, dtype=np.float64)  # a copy, changed in place
    sigma = cfg.sigma
    # 2 ((1 - 2 bits) + sigma noise) / sigma^2 in place: each step rounds
    # exactly as that expression's does, so the LLRs are the same bytes
    y = rng.standard_normal(symbols.shape)
    y *= sigma
    symbols *= -2.0
    symbols += 1.0
    y += symbols
    y *= 2.0
    y /= sigma * sigma
    return SoftVector(y)


def quantize(v: SoftVector, bits: int = 5) -> SoftVector:
    """Fixed-point LLRs: sign + 1 integer + (bits - 2) fraction bits.

    Values saturate at +/-(2 - step) and round half away from zero, e.g. for
    bits=5 the grid is multiples of 0.125 on [-1.875, +1.875]. Idempotent.
    """
    if bits < 3:
        raise ValueError(f"need at least 3 quantizer bits, got {bits}")
    step = 2.0 ** -(bits - 2)
    top = 2 ** (bits - 1) - 1
    scaled = v.llr / step
    levels = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    levels = np.clip(levels, -top, top)
    return SoftVector(levels * step, quantized=True)


def harden(v: SoftVector) -> np.ndarray:
    """Hard decisions from LLRs: bit 1 iff llr < 0 (ties toward bit 0)."""
    return (v.llr < 0).astype(np.uint8)
