"""DRAM cache and wear-leveling tests."""

import pytest

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.ftl.cache import DramCache
from repro.ssd.device import SsdDevice


# --------------------------------------------------------------------- #
# DramCache
# --------------------------------------------------------------------- #


def test_cache_read_miss_then_hit():
    cache = DramCache(4)
    assert not cache.lookup_read(1)
    cache.fill(1)
    assert cache.lookup_read(1)
    assert cache.read_hits == 1
    assert cache.read_misses == 1


def test_cache_lru_eviction_order():
    cache = DramCache(2)
    cache.fill(1)
    cache.fill(2)
    cache.lookup_read(1)  # 1 becomes most-recent
    cache.fill(3)  # evicts 2
    assert cache.lookup_read(1)
    assert not cache.lookup_read(2)
    assert cache.lookup_read(3)


def test_cache_dirty_eviction_reports_writeback():
    cache = DramCache(1)
    cache.lookup_write(1)  # write-allocate dirty
    evicted = cache.fill(2)
    assert evicted == 1
    assert cache.writebacks == 1


def test_cache_write_hit_absorbed():
    cache = DramCache(4)
    cache.lookup_write(5)
    assert cache.lookup_write(5)
    assert cache.write_hits == 1


def test_cache_flush_counts_dirty_lines():
    cache = DramCache(8)
    cache.lookup_write(1)
    cache.lookup_write(2)
    cache.fill(3)
    assert cache.flush() == 2
    assert cache.occupancy == 0


def test_cache_disabled_never_hits():
    cache = DramCache(0)
    assert not cache.enabled
    cache.lookup_write(1)
    assert not cache.lookup_read(1)


def test_cache_invalidate():
    cache = DramCache(4)
    cache.fill(1)
    cache.invalidate(1)
    assert not cache.lookup_read(1)


def test_cache_hit_rates():
    cache = DramCache(4)
    cache.fill(1)
    cache.lookup_read(1)
    cache.lookup_read(2)
    assert (cache.read_hits, cache.read_misses) == (1, 1)


def test_cache_negative_capacity_rejected():
    with pytest.raises(ConfigurationError):
        DramCache(-1)


# --------------------------------------------------------------------- #
# Wear leveling
# --------------------------------------------------------------------- #


def make_device(enable_wear=True):
    config = performance_optimized(blocks_per_plane=4, pages_per_block=4)
    return SsdDevice(config, DesignKind.BASELINE, enable_wear_leveling=enable_wear)


def test_wear_stats_initially_flat():
    device = make_device()
    stats = device.wear_leveler.wear_stats()
    assert stats.minimum == 0
    assert stats.maximum == 0
    assert stats.spread == 0


def test_wear_spread_detection():
    device = make_device()
    plane = device.ftl.allocator.plane(0)
    plane.blocks[0].erase_count = 20  # artificially worn block
    assert device.wear_leveler.wear_stats().spread == 20
    assert device.wear_leveler.needs_leveling()


def test_wear_leveling_disabled_never_triggers():
    device = make_device(enable_wear=False)
    plane = device.ftl.allocator.plane(0)
    plane.blocks[0].erase_count = 50
    assert not device.wear_leveler.needs_leveling()
    assert not device.wear_leveler.maybe_trigger()


def test_cold_block_detection():
    device = make_device()
    plane = device.ftl.allocator.plane(3)
    block = plane.blocks[2]
    for page in range(block.pages_per_block):
        block.program_page(page)
    cold = device.wear_leveler._find_cold_block()
    assert cold is not None
    plane_flat, block_index = cold
    assert block_index == 2


def test_wear_leveling_migrates_cold_block():
    device = make_device()
    geometry = device.config.geometry
    # Build a fully-valid (cold) block by hand and register its pages in the
    # mapping so the migration's remap is legal.
    from repro.nand.address import PhysicalPageAddress, ChipAddress

    chip = ChipAddress(0, 0)
    for page in range(geometry.pages_per_block):
        address = PhysicalPageAddress(chip, 0, 0, 0, page)
        device.array.block_for(address).program_page(page)
        device.ftl.mapping.map_page(page, address.page_flat_index(geometry))
    device.ftl.allocator.plane(3).blocks[1].erase_count = 30
    triggered = device.wear_leveler.maybe_trigger()
    assert triggered
    device.engine.run()
    assert device.wear_leveler.migrations == geometry.pages_per_block
    device.ftl.assert_consistent()
