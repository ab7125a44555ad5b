"""Geometry-variant integration tests (the Figure 15 configurations)."""

import pytest

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.ssd.device import SsdDevice
from repro.venice.network import VeniceNetwork
from repro.workloads.catalog import generate_workload


@pytest.mark.parametrize("channels,chips", [(4, 16), (8, 8), (16, 4)])
def test_venice_runs_on_all_fig15_geometries(channels, chips):
    config = performance_optimized(blocks_per_plane=4, pages_per_block=8)
    config = config.with_geometry(channels, chips)
    trace = generate_workload(
        "proj_3", count=80, footprint_bytes=config.geometry.capacity_bytes // 2,
        seed=3,
    )
    device = SsdDevice(config, DesignKind.VENICE)
    result = device.run_trace(trace.requests, "proj_3")
    assert result.requests_completed == 80
    assert device.fabric.network.links_in_use() == 0


@pytest.mark.parametrize("channels,chips", [(4, 16), (8, 8), (16, 4)])
def test_nossd_runs_on_all_fig15_geometries(channels, chips):
    config = performance_optimized(blocks_per_plane=4, pages_per_block=8)
    config = config.with_geometry(channels, chips)
    trace = generate_workload(
        "proj_3", count=80, footprint_bytes=config.geometry.capacity_bytes // 2,
        seed=3,
    )
    device = SsdDevice(config, DesignKind.NOSSD)
    result = device.run_trace(trace.requests, "proj_3")
    assert result.requests_completed == 80


@pytest.mark.parametrize("rows,cols,fcs", [(4, 16, 4), (16, 4, 16), (2, 2, 2)])
def test_venice_network_reservation_on_rectangles(rows, cols, fcs):
    net = VeniceNetwork(rows, cols, fcs)
    circuits = []
    for fc in range(fcs):
        dest = (fc % rows, (fc * 3) % cols)
        result = net.try_reserve(fc, dest)
        if result.succeeded:
            circuits.append(result.circuit)
        net.assert_consistent()
    assert circuits  # at least some reservations succeed on every shape
    for circuit in circuits:
        net.release(circuit)
    assert net.links_in_use() == 0

