"""LatencyRecorder payload round-trips and cross-device merging."""

import json
import math

import pytest

from repro.errors import SimulationError
from repro.metrics.collector import RunResult
from repro.sim.stats import HISTOGRAM_RELATIVE_ERROR, LatencyRecorder


def _samples(seed, count, scale):
    # deterministic pseudo-latencies with a heavy tail
    values = []
    state = seed
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        values.append(((state >> 16) % scale) + (state % 7 == 0) * scale * 10)
    return [float(v) for v in values]


def interpolated(ordered, fraction):
    """Linear-interpolation percentile of a sorted list (the reference)."""
    position = fraction * (len(ordered) - 1)
    lower, upper = math.floor(position), math.ceil(position)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def test_histogram_payload_round_trips_through_json():
    recorder = LatencyRecorder()
    for value in _samples(1, 500, 100_000) + [0.0, 0.0]:
        recorder.record(value)
    payload = json.loads(json.dumps(recorder.to_payload()))
    rebuilt = LatencyRecorder.from_payload(payload)
    assert rebuilt.count == recorder.count
    assert rebuilt.mean == recorder.mean
    assert rebuilt.minimum == recorder.minimum
    assert rebuilt.maximum == recorder.maximum
    for fraction in (0.5, 0.99, 0.999):
        assert rebuilt.p(fraction) == recorder.p(fraction)


def test_empty_recorder_round_trips():
    rebuilt = LatencyRecorder.from_payload(LatencyRecorder().to_payload())
    assert rebuilt.count == 0
    assert rebuilt.mean == 0.0 and rebuilt.maximum == 0.0
    # and it still accepts samples afterwards
    rebuilt.record(42.0)
    assert rebuilt.count == 1 and rebuilt.p99 == pytest.approx(42.0, rel=0.01)


def test_unknown_payload_mode_rejected():
    # "exact" is the raw-sample payload of the retired exact-stats mode.
    for payload in ({"mode": "parquet"}, {"mode": "exact", "samples": [1.0, 2.0]}):
        with pytest.raises(SimulationError, match=repr(payload["mode"])):
            LatencyRecorder.from_payload(payload)


def test_merged_histograms_match_one_big_recorder_exactly():
    """Merging buckets is associative: same state as recording everything
    into a single recorder, so merged quantiles keep the 1% bound."""
    shards = [_samples(seed, 300, 80_000) for seed in range(4)]
    one = LatencyRecorder()
    parts = []
    for shard in shards:
        part = LatencyRecorder()
        for value in shard:
            one.record(value)
            part.record(value)
        parts.append(part)
    merged = LatencyRecorder.from_payload(parts[0].to_payload())
    for part in parts[1:]:
        merged.merge(LatencyRecorder.from_payload(part.to_payload()))
    assert merged.count == one.count
    assert merged.mean == pytest.approx(one.mean, rel=1e-12)
    assert merged.minimum == one.minimum and merged.maximum == one.maximum
    for fraction in (0.5, 0.9, 0.99, 0.999):
        assert merged.p(fraction) == one.p(fraction)


def test_merged_quantiles_stay_within_the_documented_bound():
    shards = [_samples(seed, 400, 60_000) for seed in range(3)]
    flat = sorted(value for shard in shards for value in shard)
    merged = LatencyRecorder()
    for shard in shards:
        part = LatencyRecorder()
        for value in shard:
            part.record(value)
        merged.merge(part)
    for step in range(101):
        fraction = step / 100
        assert merged.p(fraction) == pytest.approx(
            interpolated(flat, fraction), rel=HISTOGRAM_RELATIVE_ERROR
        )


# --------------------------------------------------------------------- #
# RunResult integration
# --------------------------------------------------------------------- #

def _result(**overrides):
    payload = dict(
        design="venice", config_name="perf", workload="hm_0",
        requests_completed=3, execution_time_ns=300, iops=1e7,
        mean_latency_ns=100.0, p99_latency_ns=200.0,
        conflict_fraction=0.0, read_fraction=1.0,
    )
    payload.update(overrides)
    return RunResult(**payload)


def test_run_result_omits_absent_histogram():
    result = _result()
    assert "latency_histogram" not in result.to_dict()
    rebuilt = RunResult.from_dict(result.to_dict())
    assert rebuilt.latency_histogram is None


def test_run_result_round_trips_histogram_payload():
    recorder = LatencyRecorder()
    for value in (100.0, 200.0, 300.0):
        recorder.record(value)
    result = _result(latency_histogram=recorder.to_payload())
    rebuilt = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.latency_histogram is not None
    merged = LatencyRecorder.from_payload(rebuilt.latency_histogram)
    assert merged.count == 3 and merged.maximum == 300.0
