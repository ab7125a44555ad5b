"""Device-level fault injection: wiring, telemetry, and the strict no-op."""

import json

import pytest

from repro.config.presets import preset_by_name
from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError, RoutingError
from repro.ssd.device import SsdDevice
from repro.workloads.synthetic import SyntheticGenerator, WorkloadSpec


def small_config():
    return preset_by_name(
        "performance-optimized", blocks_per_plane=16, pages_per_block=16
    )


def small_trace(config, count=60, read_pct=70.0, seed=7):
    spec = WorkloadSpec(
        name="faults-test",
        read_pct=read_pct,
        avg_size_kb=8.0,
        avg_interarrival_us=5.0,
    )
    footprint = config.geometry.capacity_bytes // 2
    return SyntheticGenerator(spec, seed=seed).generate(count, footprint)


def run_device(design, faults=None, count=60, config=None, **kwargs):
    config = config or small_config()
    device = SsdDevice(config, design, queue_pairs=2, faults=faults, **kwargs)
    trace = small_trace(config, count=count)
    result = device.run_trace(trace.requests, "faults-test")
    return device, result


def failed_dies(device):
    return sum(die.failed for chip in device.array.chips for die in chip.dies)


def test_empty_schedule_is_bit_identical_to_no_argument():
    _, plain = run_device(DesignKind.VENICE)
    _, empty = run_device(DesignKind.VENICE, faults="")
    assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
        empty.to_dict(), sort_keys=True
    )
    assert "requests_stalled" not in plain.extra


def test_fault_telemetry_keys_appear_only_when_faulted():
    _, result = run_device(DesignKind.VENICE, faults="0 link (0,0)-(0,1) down")
    for key in (
        "fault_events",
        "requests_stalled",
        "blocked_transfers",
        "degraded_die_ops",
        "ecc_decode_retries",
        "ecc_uncorrectable",
    ):
        assert key in result.extra, key
    assert result.extra["fault_events"] == 1.0


def test_ecc_burst_drives_retries_into_metrics():
    device, result = run_device(
        DesignKind.BASELINE, faults="0 ecc-burst rate=0.6 for=10ms"
    )
    assert device.ecc.bursts_started == 1
    assert device.ecc.decode_failure_rate == 0.0  # restored after the burst
    assert result.extra["ecc_decode_retries"] > 0
    assert result.requests_completed == 60


def test_ecc_burst_latency_is_deterministic_and_slower():
    _, pristine = run_device(DesignKind.BASELINE)
    _, burst_a = run_device(
        DesignKind.BASELINE, faults="0 ecc-burst rate=0.6 for=100ms"
    )
    _, burst_b = run_device(
        DesignKind.BASELINE, faults="0 ecc-burst rate=0.6 for=100ms"
    )
    assert burst_a.to_dict() == burst_b.to_dict()
    assert burst_a.mean_latency_ns > pristine.mean_latency_ns


def test_die_failure_degrades_latency_and_counts_ops():
    device, result = run_device(
        DesignKind.BASELINE, faults="0 die 0.0.0 down"
    )
    assert failed_dies(device) == 1
    assert result.extra["degraded_die_ops"] > 0
    assert result.requests_completed == 60
    _, pristine = run_device(DesignKind.BASELINE)
    assert result.mean_latency_ns > pristine.mean_latency_ns


def test_die_repair_restores_pristine_service():
    device, _ = run_device(
        DesignKind.BASELINE, faults="0 die 0.0.0 down; 1ms die 0.0.0 up"
    )
    assert failed_dies(device) == 0


def test_out_of_range_fault_targets_fail_eagerly():
    config = small_config()
    with pytest.raises(ConfigurationError):
        SsdDevice(config, DesignKind.VENICE, faults="0 router (99,0) down")
    with pytest.raises(ConfigurationError):
        SsdDevice(config, DesignKind.VENICE, faults="0 die 0.0.9 down")
    with pytest.raises(ConfigurationError):
        SsdDevice(config, DesignKind.VENICE, faults="0 link (7,7)-(7,8) down")


def test_venice_partition_raises_routing_error():
    with pytest.raises(RoutingError):
        run_device(DesignKind.VENICE, faults="0 router (0,3) down")


def test_fully_stalled_faulted_run_finalizes_to_zero_result():
    # Sever every channel bus at its root: nothing can complete.
    schedule = "; ".join(f"0 link ({row},0)-({row},1) down" for row in range(8))
    device, result = run_device(DesignKind.BASELINE, faults=schedule, count=20)
    assert result.requests_completed < 20
    assert result.extra["requests_stalled"] > 0
    # Chips at way 0 are still reachable, so some requests may finish; a
    # zero-completion run must not raise either way.
    assert result.iops >= 0.0


def test_venice_completes_where_shared_bus_and_nossd_stall():
    """The headline: path diversity turns fatal faults into detours."""
    schedule = "0 link (0,2)-(0,3) down; 0 link (3,4)-(3,5) down"
    _, venice = run_device(DesignKind.VENICE, faults=schedule)
    _, baseline = run_device(DesignKind.BASELINE, faults=schedule)
    _, nossd = run_device(DesignKind.NOSSD, faults=schedule)
    assert venice.extra["requests_stalled"] == 0
    assert venice.requests_completed == 60
    assert baseline.extra["requests_stalled"] > 0
    assert nossd.extra["requests_stalled"] > 0
    assert venice.iops > 0
