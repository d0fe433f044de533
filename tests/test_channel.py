"""Channel model: sigma law, LLR statistics, quantizer law, hard decisions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stepgrand.channel import (
    ChannelConfig,
    SoftVector,
    harden,
    noise_sigma,
    quantize,
    transmit,
)


def q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_sigma_formula():
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    # closed form at an arbitrary point
    ebn0, rate = 8.0, 105 / 128
    expected = math.sqrt(1.0 / (2.0 * rate * 10.0 ** 0.8))
    assert noise_sigma(ebn0, rate) == pytest.approx(expected)
    assert ChannelConfig(8.0, rate).sigma == pytest.approx(expected)
    with pytest.raises(ValueError):
        noise_sigma(3.0, 0.0)


def test_transmit_noiseless_limit():
    rng = np.random.default_rng(0)
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    v = transmit(bits, ChannelConfig(80.0, 0.5), rng)
    assert np.array_equal(harden(v), bits)
    # bit 0 -> positive llr, bit 1 -> negative
    assert np.all(np.sign(v.llr) == (1 - 2 * bits.astype(float)))


def test_transmit_llr_mean_and_crossover():
    # all-zero word at sigma = 1: llr ~ Normal(2, 4); crossover = Q(1/sigma)
    cfg = ChannelConfig(0.0, 0.5)
    assert cfg.sigma == pytest.approx(1.0)
    rng = np.random.default_rng(123)
    n = 200_000
    v = transmit(np.zeros(n, dtype=np.uint8), cfg, rng)
    assert v.llr.mean() == pytest.approx(2.0, abs=0.02)
    assert v.llr.std() == pytest.approx(2.0, rel=0.02)
    p_hat = harden(v).mean()
    p = q_func(1.0)
    assert p_hat == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n))


def test_transmit_deterministic_under_seed():
    cfg = ChannelConfig(3.0, 0.82)
    bits = np.arange(16) % 2
    a = transmit(bits, cfg, np.random.default_rng(42)).llr
    b = transmit(bits, cfg, np.random.default_rng(42)).llr
    assert np.array_equal(a, b)


def test_transmit_batch_draws_rows_in_order():
    # an (m, n) batch is m frames sent one after another from the same stream
    cfg = ChannelConfig(3.0, 0.82)
    bits = np.random.default_rng(1).integers(0, 2, (3, 16))
    batch = transmit(bits, cfg, np.random.default_rng(42)).llr
    rng = np.random.default_rng(42)
    rows = [transmit(b, cfg, rng).llr for b in bits]
    assert batch.shape == (3, 16)
    assert np.array_equal(batch, np.array(rows))


def test_transmit_reads_uint8_and_float_words_alike():
    cfg = ChannelConfig(5.0, 0.82)
    bits = np.random.default_rng(2).integers(0, 2, (4, 16), dtype=np.uint8)
    a = transmit(bits, cfg, np.random.default_rng(42)).llr
    b = transmit(bits.astype(np.float32), cfg, np.random.default_rng(42)).llr
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
@pytest.mark.parametrize("ebn0_db", [-5.0, 3.0, 6.0, 7.0, 40.0])
def test_transmit_is_the_textbook_expression_bit_for_bit(dtype, ebn0_db):
    # the in-place arithmetic rounds as 2 y / sigma^2 with
    # y = (1 - 2 bits) + sigma * noise does, to the last bit
    cfg = ChannelConfig(ebn0_db, 105 / 128)
    bits = np.random.default_rng(3).integers(0, 2, (64, 128)).astype(dtype)
    got = transmit(bits, cfg, np.random.default_rng(11)).llr
    sigma = cfg.sigma
    noise = np.random.default_rng(11).standard_normal(bits.shape)
    y = (1.0 - 2.0 * bits.astype(np.float64)) + sigma * noise
    assert got.tobytes() == (2.0 * y / (sigma * sigma)).tobytes()


def test_transmit_leaves_a_float64_codeword_unchanged():
    bits = np.array([0.0, 1.0, 1.0, 0.0])
    transmit(bits, ChannelConfig(3.0, 0.5), np.random.default_rng(0))
    assert bits.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_quantizer_pinned_values():
    v = SoftVector(np.array([0.06, -0.3125, 10.0, -10.0, 0.0, 1.875, -0.0625]))
    q = quantize(v)
    assert q.quantized
    assert q.llr.tolist() == [0.0, -0.375, 1.875, -1.875, 0.0, 1.875, -0.125]


def test_quantizer_level_oracle():
    # every output lies on the 31-point grid; mapping matches an independent
    # round-half-away-from-zero reference
    rng = np.random.default_rng(5)
    x = rng.normal(scale=2.0, size=4000)
    q = quantize(SoftVector(x)).llr
    grid = {k * 0.125 for k in range(-15, 16)}
    assert set(np.round(q, 6).tolist()) <= {round(g, 6) for g in grid}

    def ref_one(val: float) -> float:
        mag = abs(val) / 0.125
        k = math.floor(mag + 0.5)
        k = min(k, 15)
        return math.copysign(k * 0.125, val) if k else 0.0

    ref = np.array([ref_one(t) for t in x])
    assert np.array_equal(q, ref)


def test_quantizer_idempotent():
    rng = np.random.default_rng(9)
    v = SoftVector(rng.normal(scale=3.0, size=1000))
    once = quantize(v)
    twice = quantize(once)
    assert np.array_equal(once.llr, twice.llr)


def test_quantizer_rejects_tiny_width():
    with pytest.raises(ValueError):
        quantize(SoftVector(np.zeros(4)), bits=2)


def test_harden_ties_to_zero():
    v = SoftVector(np.array([0.0, -0.0, 1e-12, -1e-12]))
    assert harden(v).tolist() == [0, 0, 0, 1]

