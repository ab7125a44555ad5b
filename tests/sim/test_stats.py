"""Unit tests for statistics primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.stats import (
    HISTOGRAM_RELATIVE_ERROR,
    LatencyRecorder,
    RunningStat,
    exact_stats_default,
    percentile,
)


def test_percentile_endpoints():
    data = [5.0, 1.0, 3.0]
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 1.0) == 5.0


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 0.5) == 5.0


def test_percentile_single_sample():
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(SimulationError):
        percentile([], 0.5)
    with pytest.raises(SimulationError):
        percentile([1.0], 1.5)


def test_running_stat_mean_variance():
    stat = RunningStat()
    for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        stat.add(value)
    assert stat.count == 8
    assert stat.mean == pytest.approx(5.0)
    assert stat.variance == pytest.approx(32.0 / 7.0)
    assert stat.minimum == 2.0
    assert stat.maximum == 9.0


def test_running_stat_variance_needs_two():
    stat = RunningStat()
    stat.add(3.0)
    assert stat.variance == 0.0


def test_exact_latency_recorder_p99():
    recorder = LatencyRecorder(exact=True)
    for value in range(1, 101):
        recorder.record(float(value))
    assert recorder.p99 == pytest.approx(99.01)
    assert recorder.mean == pytest.approx(50.5)
    assert recorder.count == 100


def test_histogram_recorder_exact_count_mean_extrema():
    recorder = LatencyRecorder(exact=False)
    for value in range(1, 101):
        recorder.record(float(value))
    assert recorder.count == 100
    assert recorder.mean == pytest.approx(50.5)
    assert recorder.minimum == 1.0
    assert recorder.maximum == 100.0


def test_histogram_p99_within_documented_bound():
    recorder = LatencyRecorder(exact=False)
    exact = LatencyRecorder(exact=True)
    for value in range(1, 100_001):
        recorder.record(float(value))
        exact.record(float(value))
    for fraction in (0.5, 0.9, 0.99, 0.999):
        truth = exact.p(fraction)
        assert recorder.p(fraction) == pytest.approx(
            truth, rel=HISTOGRAM_RELATIVE_ERROR
        )


def test_histogram_handles_zero_latencies():
    recorder = LatencyRecorder(exact=False)
    for _ in range(90):
        recorder.record(0.0)
    for _ in range(10):
        recorder.record(1000.0)
    assert recorder.p(0.5) == 0.0
    assert recorder.p(1.0) == pytest.approx(1000.0, rel=HISTOGRAM_RELATIVE_ERROR)


def test_latency_recorder_rejects_negative():
    with pytest.raises(SimulationError):
        LatencyRecorder().record(-1.0)
    with pytest.raises(SimulationError):
        LatencyRecorder(exact=True).record(-1.0)


@pytest.mark.parametrize("exact", [True, False])
def test_latency_cdf_monotone(exact):
    recorder = LatencyRecorder(exact=exact)
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
    hist = LatencyRecorder(exact=False)
    exact = LatencyRecorder(exact=True)
    values = [float(7 * i % 9973 + 1) for i in range(5000)]
    for value in values:
        hist.record(value)
        exact.record(value)
    for (approx_latency, f1), (true_latency, f2) in zip(
        hist.cdf(points=50), exact.cdf(points=50)
    ):
        assert f1 == f2
        assert approx_latency == pytest.approx(
            true_latency, rel=HISTOGRAM_RELATIVE_ERROR
        )


@pytest.mark.parametrize("exact", [True, False])
def test_tail_cdf_starts_at_requested_fraction(exact):
    recorder = LatencyRecorder(exact=exact)
    for value in range(1000):
        recorder.record(float(value))
    tail = recorder.tail_cdf(start_fraction=0.99, points=10)
    assert tail[0][1] == pytest.approx(0.99)
    assert tail[-1][1] == pytest.approx(1.0)
    assert tail[0][0] <= tail[-1][0]


@pytest.mark.parametrize("exact", [True, False])
def test_empty_recorder_cdfs(exact):
    recorder = LatencyRecorder(exact=exact)
    assert recorder.cdf() == []
    assert recorder.tail_cdf() == []
    assert recorder.mean == 0.0


def test_exact_stats_env_default(monkeypatch):
    monkeypatch.delenv("VENICE_EXACT_STATS", raising=False)
    assert exact_stats_default() is False
    assert LatencyRecorder().exact is False
    monkeypatch.setenv("VENICE_EXACT_STATS", "1")
    assert exact_stats_default() is True
    assert LatencyRecorder().exact is True
    monkeypatch.setenv("VENICE_EXACT_STATS", "off")
    assert exact_stats_default() is False
