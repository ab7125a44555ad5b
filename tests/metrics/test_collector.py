"""Metrics collector and RunResult tests."""

import pytest

from repro.errors import SimulationError
from repro.hil.request import IoKind, IoRequest
from repro.metrics.collector import MetricsCollector


def completed_request(arrival, completion, kind=IoKind.READ, conflict=False):
    request = IoRequest(
        kind=kind, offset_bytes=0, size_bytes=4096, arrival_ns=arrival
    )
    request.completed_ns = completion
    request.path_conflict = conflict
    return request


def test_execution_time_spans_first_arrival_to_last_completion():
    collector = MetricsCollector()
    collector.record_request(completed_request(100, 500))
    collector.record_request(completed_request(50, 2_000))
    assert collector.execution_time_ns == 1_950


def test_iops_computation():
    collector = MetricsCollector()
    for index in range(10):
        collector.record_request(completed_request(index * 100, index * 100 + 50))
    # 10 requests over 950 ns.
    assert collector.iops == pytest.approx(10 * 1e9 / 950)


def test_conflict_fraction():
    collector = MetricsCollector()
    collector.record_request(completed_request(0, 10, conflict=True))
    collector.record_request(completed_request(0, 10, conflict=False))
    assert collector.conflict_fraction == 0.5


def test_incomplete_request_rejected():
    collector = MetricsCollector()
    request = IoRequest(kind=IoKind.READ, offset_bytes=0, size_bytes=4096, arrival_ns=0)
    with pytest.raises(SimulationError):
        collector.record_request(request)


def test_finalize_builds_run_result():
    collector = MetricsCollector()
    for index in range(100):
        collector.record_request(
            completed_request(index * 10, index * 10 + 100 + index)
        )
    result = collector.finalize(
        "venice", "performance-optimized", "hm_0",
        energy_mj=12.5, average_power_mw=900.0, with_cdf=True,
    )
    assert result.design == "venice"
    assert result.requests_completed == 100
    assert result.p99_latency_ns >= result.mean_latency_ns
    assert result.energy_mj == 12.5
    assert result.latency_cdf
    assert result.tail_cdf[0][1] == pytest.approx(0.99)


def test_finalize_empty_rejected():
    with pytest.raises(SimulationError):
        MetricsCollector().finalize("x", "y", "z")


def test_speedup_over_baseline():
    fast = MetricsCollector()
    slow = MetricsCollector()
    fast.record_request(completed_request(0, 1_000))
    slow.record_request(completed_request(0, 4_000))
    fast_result = fast.finalize("venice", "c", "w")
    slow_result = slow.finalize("baseline", "c", "w")
    assert fast_result.speedup_over(slow_result) == pytest.approx(4.0)
    assert slow_result.speedup_over(fast_result) == pytest.approx(0.25)


def test_throughput_normalization():
    a = MetricsCollector()
    b = MetricsCollector()
    for index in range(10):
        a.record_request(completed_request(index * 100, index * 100 + 10))
        b.record_request(completed_request(index * 50, index * 50 + 10))
    ra = a.finalize("baseline", "c", "w")
    rb = b.finalize("ideal", "c", "w")
    assert ra.throughput_normalized_to(rb) == pytest.approx(ra.iops / rb.iops)


def test_finalized_result_round_trips_through_json():
    import json

    from repro.metrics.collector import RunResult

    collector = MetricsCollector()
    for index in range(50):
        collector.record_request(
            completed_request(index * 10, index * 10 + 100 + index)
        )
    result = collector.finalize(
        "venice", "performance-optimized", "hm_0",
        energy_mj=12.5, average_power_mw=900.0, with_cdf=True,
        extra={"fabric_transfers": 50.0},
    )
    rebuilt = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt == result
    assert rebuilt.tail_cdf == result.tail_cdf
    assert rebuilt.extra == result.extra
