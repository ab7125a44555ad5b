"""End-to-end SSD device integration tests."""

import gc
import weakref

import pytest

from repro.config.presets import cost_optimized, performance_optimized
from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.runner import make_device
from repro.experiments.spec import ExperimentScale, make_spec
from repro.hil.request import IoKind, IoRequest
from repro.ssd.device import SsdDevice
from repro.ssd.factory import build_fabric, design_names, supports_geometry
from repro.sim.engine import Engine
from repro.workloads.catalog import generate_workload


def small_config():
    return performance_optimized(blocks_per_plane=8, pages_per_block=8)


def simple_trace(count=50, kind=IoKind.READ, gap_ns=5_000, size=8192):
    return [
        IoRequest(
            kind=kind,
            offset_bytes=(index * 16 + 3) * 4096,
            size_bytes=size,
            arrival_ns=index * gap_ns,
        )
        for index in range(count)
    ]


# --------------------------------------------------------------------- #
# factory
# --------------------------------------------------------------------- #


def test_factory_builds_every_design():
    config = small_config()
    for name in design_names():
        engine = Engine()
        fabric = build_fabric(engine, config, DesignKind.from_name(name))
        assert fabric.design is DesignKind.from_name(name)


def test_design_from_name_rejects_unknown():
    with pytest.raises(ConfigurationError):
        DesignKind.from_name("warp-drive")


def test_supports_geometry_pnssd_square_only():
    config = small_config()
    assert supports_geometry(DesignKind.PNSSD, config)
    assert not supports_geometry(DesignKind.PNSSD, config.with_geometry(4, 16))
    assert supports_geometry(DesignKind.VENICE, config.with_geometry(4, 16))


# --------------------------------------------------------------------- #
# end-to-end runs
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("design", design_names())
def test_every_design_completes_a_read_trace(design):
    device = SsdDevice(small_config(), DesignKind.from_name(design))
    result = device.run_trace(simple_trace(), "smoke")
    assert result.requests_completed == 50
    assert result.execution_time_ns > 0
    assert result.iops > 0
    assert result.energy_mj > 0


def test_write_trace_programs_flash():
    device = SsdDevice(small_config(), DesignKind.BASELINE)
    result = device.run_trace(simple_trace(kind=IoKind.WRITE), "writes")
    assert result.requests_completed == 50
    assert device.pipeline.programs_completed > 0
    device.ftl.assert_consistent()


def test_read_latency_has_floor_of_flash_read_plus_transfer():
    device = SsdDevice(small_config(), DesignKind.IDEAL)
    result = device.run_trace(
        simple_trace(count=5, gap_ns=1_000_000, size=4096), "sparse"
    )
    # Even uncontended: CMD + tR (3 us) + transfer (~3.4 us) + ECC.
    assert result.mean_latency_ns > 6_000


def test_mixed_queue_trace_round_robins():
    device = SsdDevice(small_config(), DesignKind.BASELINE, queue_pairs=2)
    requests = simple_trace(count=20)
    for index, request in enumerate(requests):
        request.queue_id = index % 2
    device.run_trace(requests, "multi-queue")
    for queue_id in (0, 1):
        served = [r for r in requests if r.queue_id == queue_id]
        assert len(served) == 10
        assert all(r.completed_ns is not None for r in served)


@pytest.mark.parametrize("design", [design.value for design in DesignKind])
def test_finished_device_holds_no_served_request(design):
    """A device keeps no reference to the requests it served.

    Each request's outcome is stamped on the request and folded into the
    metrics; once the caller drops the trace, the requests are garbage
    even though the device lives on.
    """
    scale = ExperimentScale.for_requests(100, 42)
    spec = make_spec(design, "performance-optimized", "hm_0", scale)
    config = spec.build_config()
    trace = spec.build_trace(config)
    device = make_device(config, spec.design_kind, scale)
    served = [weakref.ref(request) for request in trace.requests]
    assert len(served) == 100
    result = device.run_trace(trace.requests, trace.name)
    del trace
    gc.collect()
    assert [ref for ref in served if ref() is not None] == []
    assert device.metrics.requests_completed == result.requests_completed == 100


def test_queue_depth_limits_outstanding():
    config = small_config()
    config = type(config)(
        name=config.name, geometry=config.geometry, timings=config.timings,
        interconnect=config.interconnect, queue_depth=1, seed=config.seed,
    )
    device = SsdDevice(config, DesignKind.BASELINE)
    burst = [
        IoRequest(kind=IoKind.READ, offset_bytes=index * 65536,
                  size_bytes=4096, arrival_ns=0)
        for index in range(10)
    ]
    result = device.run_trace(burst, "qd1")
    # With QD=1 the ten requests serialize end-to-end.
    assert result.execution_time_ns > 9 * 6_000


def test_cost_optimized_is_slower_than_performance_optimized():
    trace = simple_trace(count=30, gap_ns=200_000)
    perf = SsdDevice(
        performance_optimized(blocks_per_plane=8, pages_per_block=8),
        DesignKind.BASELINE,
    ).run_trace([_clone(r) for r in trace], "perf")
    cost = SsdDevice(
        cost_optimized(blocks_per_plane=8, pages_per_block=8),
        DesignKind.BASELINE,
    ).run_trace([_clone(r) for r in trace], "cost")
    assert cost.mean_latency_ns > perf.mean_latency_ns


def _clone(request):
    return IoRequest(
        kind=request.kind,
        offset_bytes=request.offset_bytes,
        size_bytes=request.size_bytes,
        arrival_ns=request.arrival_ns,
        queue_id=request.queue_id,
    )


def test_rerunning_same_trace_objects_is_safe():
    """RunResult must not leak across devices sharing one trace list."""
    trace = simple_trace(count=20, gap_ns=1_000)
    first = SsdDevice(small_config(), DesignKind.BASELINE).run_trace(trace, "a")
    second = SsdDevice(small_config(), DesignKind.IDEAL).run_trace(trace, "b")
    assert second.conflict_fraction == 0.0
    assert first.requests_completed == second.requests_completed


def test_deterministic_given_seed():
    trace = generate_workload(
        "hm_0", count=60, footprint_bytes=small_config().geometry.capacity_bytes // 2
    )
    a = SsdDevice(small_config(), DesignKind.VENICE).run_trace(trace.requests, "a")
    b = SsdDevice(small_config(), DesignKind.VENICE).run_trace(trace.requests, "b")
    assert a.execution_time_ns == b.execution_time_ns
    assert a.mean_latency_ns == b.mean_latency_ns


def test_extra_metrics_present():
    device = SsdDevice(small_config(), DesignKind.VENICE)
    result = device.run_trace(simple_trace(count=10), "extra")
    assert "fabric_transfers" in result.extra
    assert "scout_attempts" in result.extra
    assert result.extra["fabric_transfers"] > 0
