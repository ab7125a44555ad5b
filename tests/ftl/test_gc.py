"""Garbage collection tests: victim selection, migration, data safety."""

import pytest

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.ftl.gc import GcPolicy
from repro.ssd.device import SsdDevice
from repro.workloads.synthetic import SECTOR
from repro.hil.request import IoKind, IoRequest


def write_heavy_device(blocks=4, pages=4):
    config = performance_optimized(blocks_per_plane=blocks, pages_per_block=pages)
    return SsdDevice(config, DesignKind.BASELINE)


def overwrite_trace(pages_to_write, page_size, passes=3):
    """Repeatedly overwrite a small LBA range to generate dead pages."""
    requests = []
    t = 0
    for _ in range(passes):
        for page in range(pages_to_write):
            requests.append(
                IoRequest(
                    kind=IoKind.WRITE,
                    offset_bytes=page * page_size,
                    size_bytes=page_size,
                    arrival_ns=t,
                )
            )
            t += 2000
    return requests


def test_gc_policy_thresholds():
    policy = GcPolicy(threshold_free_fraction=0.1, stop_free_fraction=0.2)
    assert policy.needs_gc(0.05)
    assert not policy.needs_gc(0.15)
    assert policy.should_stop(0.25)
    assert not policy.should_stop(0.15)


def test_gc_reclaims_blocks_under_overwrite_pressure():
    device = write_heavy_device()
    page = device.config.geometry.page_size
    # Fill most of the device, then overwrite a range repeatedly.
    device.precondition(0.85)
    requests = overwrite_trace(pages_to_write=64, page_size=page, passes=6)
    device.run_trace(requests, "overwrite")
    assert device.gc.invocations > 0
    assert device.gc.blocks_reclaimed > 0
    assert device.gc.erases_issued > 0


def test_gc_preserves_all_live_data():
    device = write_heavy_device()
    page = device.config.geometry.page_size
    device.precondition(0.85)
    requests = overwrite_trace(pages_to_write=64, page_size=page, passes=6)
    device.run_trace(requests, "overwrite")
    # Mapping stays a bijection and every mapped page is VALID in NAND.
    device.ftl.assert_consistent()


def test_gc_victim_selection_prefers_fewest_valid():
    device = write_heavy_device()
    allocator = device.ftl.allocator
    plane = allocator.plane(0)
    # Block 0: fully invalid; block 1: half valid -- both full.
    for page in range(plane.block(0).pages_per_block):
        plane.block(0).program_page(page)
        plane.block(0).invalidate_page(page)
    for page in range(plane.block(1).pages_per_block):
        plane.block(1).program_page(page)
        if page % 2 == 0:
            plane.block(1).invalidate_page(page)
    victim = device.gc.select_victim(0)
    assert victim == 0


def test_gc_victim_skips_fully_valid_blocks():
    device = write_heavy_device()
    plane = device.ftl.allocator.plane(0)
    for page in range(plane.block(0).pages_per_block):
        plane.block(0).program_page(page)
    assert device.gc.select_victim(0) is None


def test_gc_victim_skips_blocks_with_inflight_programs():
    device = write_heavy_device()
    plane = device.ftl.allocator.plane(0)
    block = plane.block(0)
    for page in range(block.pages_per_block - 1):
        block.program_page(page)
        block.invalidate_page(page)
    block.reserve_next_page()  # in-flight program
    assert device.gc.select_victim(0) != 0


def test_gc_migrations_travel_the_fabric():
    device = write_heavy_device()
    page = device.config.geometry.page_size
    device.precondition(0.85)
    requests = overwrite_trace(pages_to_write=64, page_size=page, passes=6)
    device.run_trace(requests, "overwrite")
    if device.gc.pages_migrated:
        # GC reads+programs went through the transaction pipeline.
        assert device.pipeline.reads_completed > 0
