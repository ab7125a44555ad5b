"""Unit tests for statistics primitives."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.stats import HISTOGRAM_RELATIVE_ERROR, LatencyRecorder


def interpolated(ordered, fraction):
    """Linear-interpolation percentile of a sorted list (the reference)."""
    position = fraction * (len(ordered) - 1)
    lower, upper = math.floor(position), math.ceil(position)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def test_histogram_recorder_exact_count_mean_extrema():
    recorder = LatencyRecorder()
    for value in range(1, 101):
        recorder.record(float(value))
    assert recorder.count == 100
    assert recorder.mean == pytest.approx(50.5)
    assert recorder.minimum == 1.0
    assert recorder.maximum == 100.0


def test_histogram_p99_within_documented_bound():
    recorder = LatencyRecorder()
    values = [float(value) for value in range(1, 100_001)]
    for value in values:
        recorder.record(value)
    for fraction in (0.5, 0.9, 0.99, 0.999):
        assert recorder.p(fraction) == pytest.approx(
            interpolated(values, fraction), rel=HISTOGRAM_RELATIVE_ERROR
        )


def test_histogram_handles_zero_latencies():
    recorder = LatencyRecorder()
    for _ in range(90):
        recorder.record(0.0)
    for _ in range(10):
        recorder.record(1000.0)
    assert recorder.p(0.5) == 0.0
    assert recorder.p(1.0) == pytest.approx(1000.0, rel=HISTOGRAM_RELATIVE_ERROR)


def test_latency_recorder_rejects_negative():
    with pytest.raises(SimulationError):
        LatencyRecorder().record(-1.0)


def test_latency_cdf_monotone():
    recorder = LatencyRecorder()
    for value in [5.0, 1.0, 9.0, 3.0, 7.0]:
        recorder.record(value)
    cdf = recorder.cdf(points=10)
    latencies = [point[0] for point in cdf]
    fractions = [point[1] for point in cdf]
    assert latencies == sorted(latencies)
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    assert latencies[-1] == pytest.approx(9.0, rel=HISTOGRAM_RELATIVE_ERROR)


def test_histogram_cdf_tracks_exact_cdf_within_bound():
    recorder = LatencyRecorder()
    values = [float(7 * i % 9973 + 1) for i in range(5000)]
    for value in values:
        recorder.record(value)
    ordered = sorted(values)
    total = len(ordered)
    points = 50
    cdf = recorder.cdf(points=points)
    assert len(cdf) == points
    for step, (latency, fraction) in enumerate(cdf, start=1):
        assert fraction == step / points
        rank = min(total - 1, max(0, round(fraction * total) - 1))
        assert latency == pytest.approx(
            ordered[rank], rel=HISTOGRAM_RELATIVE_ERROR
        )


def test_tail_cdf_starts_at_requested_fraction():
    recorder = LatencyRecorder()
    for value in range(1000):
        recorder.record(float(value))
    tail = recorder.tail_cdf(start_fraction=0.99, points=10)
    assert tail[0][1] == pytest.approx(0.99)
    assert tail[-1][1] == pytest.approx(1.0)
    assert tail[0][0] <= tail[-1][0]


def test_empty_recorder_cdfs():
    recorder = LatencyRecorder()
    assert recorder.cdf() == []
    assert recorder.tail_cdf() == []
    assert recorder.mean == 0.0
