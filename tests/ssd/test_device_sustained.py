"""Sustained-write behaviour: the write cliff, churn, wear leveling,
and the telemetry-emission convention for the new extras keys."""

import pytest

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.errors import GarbageCollectionError, MappingError
from repro.hil.request import IoKind, IoRequest
from repro.ssd.device import SsdDevice

NEW_KEYS = (
    "host_pages_written",
    "gc_pages_written",
    "gc_invocations",
    "gc_erases",
    "gc_write_stalls",
    "gc_stall_ns",
    "write_amplification",
    "wear_erase_min",
    "wear_erase_max",
    "wear_erase_mean",
    "wear_migrations",
)


def tiny_config(**overrides):
    kwargs = dict(blocks_per_plane=4, pages_per_block=4)
    kwargs.update(overrides)
    return performance_optimized(**kwargs)


def write_trace(count, span_pages=64, gap_ns=500):
    """Sustained overwrites of a small logical window.

    Each write consumes a fresh physical page and strands the previous
    copy, so occupancy stays at the preconditioned level while the free
    pool drains -- the quickest route to the cliff.
    """
    return [
        IoRequest(
            kind=IoKind.WRITE,
            offset_bytes=(index % span_pages) * 4096,
            size_bytes=4096,
            arrival_ns=index * gap_ns,
        )
        for index in range(count)
    ]


def read_trace(count=30):
    return [
        IoRequest(
            kind=IoKind.READ,
            offset_bytes=index * 4096,
            size_bytes=4096,
            arrival_ns=index * 5_000,
        )
        for index in range(count)
    ]


# --------------------------------------------------------------------- #
# the write cliff
# --------------------------------------------------------------------- #


def test_high_fill_sustained_writes_stall_then_complete():
    """Past the cliff the host throttles on GC but every write lands."""
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    device.precondition(0.9)
    count = 450
    result = device.run_trace(write_trace(count), "sustained")
    assert result.requests_completed == count
    assert device.write_stalls > 0
    assert result.extra["gc_write_stalls"] > 0
    assert result.extra["gc_stall_ns"] > 0
    assert result.extra["gc_blocks_reclaimed"] > 0
    device.ftl.assert_consistent()


def test_stalled_writes_amplify():
    """GC migrations make total cells programmed exceed host writes."""
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    device.precondition(0.9)
    result = device.run_trace(write_trace(450), "sustained")
    extra = result.extra
    assert extra["host_pages_written"] > 0
    assert extra["gc_pages_written"] > 0
    assert extra["write_amplification"] > 1.0
    assert extra["write_amplification"] == pytest.approx(
        (extra["host_pages_written"] + extra["gc_pages_written"])
        / extra["host_pages_written"]
    )


def test_low_fill_writes_never_stall():
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    device.precondition(0.2)
    result = device.run_trace(write_trace(10), "easy")
    assert device.write_stalls == 0
    assert result.extra.get("gc_stall_ns", 0.0) == 0.0


def test_exhaustion_without_gc_raises_cleanly_after_bounded_retries():
    """With GC stubbed out nothing can free space: the stall loop must give
    up with the allocator's error after its bounded retries, not hang."""
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    device.gc.maybe_trigger = lambda plane_flat, force=False: False
    device._max_write_stall_retries = 3
    device.precondition(0.9)
    with pytest.raises(GarbageCollectionError):
        device.run_trace(write_trace(450), "doomed")
    assert device.write_stalls >= 3


# --------------------------------------------------------------------- #
# churn
# --------------------------------------------------------------------- #


def test_churn_of_an_empty_device_is_a_noop():
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    assert device.churn(0.5) == 0
    device.ftl.assert_consistent()


def test_churn_preserves_ftl_consistency_and_reserve():
    device = SsdDevice(tiny_config(blocks_per_plane=8), DesignKind.BASELINE)
    device.precondition(0.85)
    rewritten = device.churn(0.5)
    assert rewritten > 0
    device.ftl.assert_consistent()
    allocator = device.ftl.allocator
    for plane_flat in range(allocator.plane_count()):
        assert (
            allocator.erased_block_count(plane_flat)
            >= allocator.gc_reserved_blocks
        )


def test_churn_rejects_bad_fractions():
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    with pytest.raises(MappingError):
        device.churn(1.5)


# --------------------------------------------------------------------- #
# wear leveling
# --------------------------------------------------------------------- #


def test_skewed_wear_triggers_leveling_migrations():
    device = SsdDevice(
        tiny_config(blocks_per_plane=8),
        DesignKind.BASELINE,
        enable_wear_leveling=True,
    )
    device.precondition(0.5)  # leaves fully-valid (cold) closed blocks
    # Skew the erase-count distribution past the leveler's threshold.
    plane = device.ftl.allocator.plane(0)
    for block in plane.blocks:
        if block.is_erased:
            block.erase_count = 20
    result = device.run_trace(write_trace(20), "skewed")
    assert device.wear_leveler.migrations > 0
    assert result.extra["wear_migrations"] > 0
    assert result.extra["wear_erase_max"] >= 20.0
    device.ftl.assert_consistent()


def test_wear_leveling_disabled_never_migrates():
    device = SsdDevice(tiny_config(blocks_per_plane=8), DesignKind.BASELINE)
    device.precondition(0.5)
    plane = device.ftl.allocator.plane(0)
    for block in plane.blocks:
        if block.is_erased:
            block.erase_count = 20
    device.run_trace(write_trace(20), "skewed")
    assert device.wear_leveler.migrations == 0


# --------------------------------------------------------------------- #
# extras-emission convention
# --------------------------------------------------------------------- #


def test_quiet_run_omits_sustained_write_keys():
    """A read-only run on an idle device keeps the historical key set:
    the legacy GC counters stay, the sustained-write keys stay out."""
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    result = device.run_trace(read_trace(), "reads")
    assert result.extra["gc_blocks_reclaimed"] == 0.0
    assert result.extra["gc_pages_migrated"] == 0.0
    for key in NEW_KEYS:
        assert key not in result.extra


def test_engaged_run_emits_every_sustained_write_key():
    device = SsdDevice(tiny_config(), DesignKind.BASELINE)
    device.precondition(0.9)
    result = device.run_trace(write_trace(450), "sustained")
    for key in NEW_KEYS:
        assert key in result.extra, key
