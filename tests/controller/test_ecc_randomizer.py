"""ECC engine tests."""

import pytest

from repro.controller.ecc import EccEngine
from repro.errors import ConfigurationError


def test_ecc_encode_decode_fixed_latency():
    ecc = EccEngine(200)
    assert ecc.encode_latency_ns() == 200
    assert ecc.decode_latency_ns() == 200
    assert ecc.encodes == 1
    assert ecc.decodes == 1


def test_ecc_multi_page_scales():
    ecc = EccEngine(100)
    assert ecc.encode_latency_ns(pages=4) == 400
    assert ecc.decode_latency_ns(pages=3) == 300


def test_ecc_zero_latency_allowed():
    ecc = EccEngine(0)
    assert ecc.decode_latency_ns() == 0


def test_ecc_retry_injection_increases_latency():
    ecc = EccEngine(100, decode_failure_rate=0.5, max_retries=3, seed=7)
    total = sum(ecc.decode_latency_ns() for _ in range(200))
    assert total > 200 * 100  # retries happened
    assert ecc.decode_retries > 0


def test_ecc_uncorrectable_counted():
    ecc = EccEngine(100, decode_failure_rate=0.95, max_retries=2, seed=7)
    for _ in range(200):
        ecc.decode_latency_ns()
    assert ecc.uncorrectable > 0


def test_ecc_validation():
    with pytest.raises(ConfigurationError):
        EccEngine(-1)
    with pytest.raises(ConfigurationError):
        EccEngine(10, decode_failure_rate=1.5)


def test_ecc_burst_raises_and_restores_the_failure_rate():
    engine = EccEngine(latency_ns=100, seed=3)
    assert engine.decode_failure_rate == 0.0
    engine.begin_burst(0.9)
    assert engine.decode_failure_rate == 0.9
    burst_latency = engine.decode_latency_ns(50)
    assert burst_latency > 50 * 100  # retries charged extra passes
    assert engine.decode_retries > 0
    engine.end_burst()
    assert engine.decode_failure_rate == 0.0
    assert engine.decode_latency_ns(1) == 100


def test_ecc_bursts_nest_lifo():
    engine = EccEngine(latency_ns=100, decode_failure_rate=0.05, seed=3)
    engine.begin_burst(0.5)
    engine.begin_burst(0.8)
    assert engine.decode_failure_rate == 0.8
    engine.end_burst()
    assert engine.decode_failure_rate == 0.5
    engine.end_burst()
    assert engine.decode_failure_rate == 0.05
    assert engine.bursts_started == 2


def test_ecc_burst_validation():
    engine = EccEngine(latency_ns=100)
    with pytest.raises(ConfigurationError):
        engine.begin_burst(1.0)
    with pytest.raises(ConfigurationError):
        engine.end_burst()
