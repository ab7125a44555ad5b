"""Wear-leveling tests."""

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.ssd.device import SsdDevice


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
