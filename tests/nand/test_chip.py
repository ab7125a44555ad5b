"""Die / chip / array behaviour tests."""

import gc

import pytest

from repro.config.ssd_config import DesignKind, NandGeometry, NandTimings
from repro.config.presets import performance_optimized
from repro.errors import NandProtocolError
from repro.experiments.spec import ExperimentScale, make_spec
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.nand.array import FlashArray
from repro.nand.chip import FlashChip, PageState, TransactionKind
from repro.sim.engine import Engine

GEOMETRY = NandGeometry(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=4,
    pages_per_block=8,
)
TIMINGS = NandTimings(read_ns=3000, program_ns=100_000, erase_ns=1_000_000)


def make_chip():
    return FlashChip(Engine(), ChipAddress(0, 0), GEOMETRY, TIMINGS)


def address(plane=0, block=0, page=0):
    return PhysicalPageAddress(ChipAddress(0, 0), 0, plane, block, page)


def test_operation_latencies_follow_timings():
    die = make_chip().die(0)
    assert die.operation_latency_ns(TransactionKind.READ) == 3000
    assert die.operation_latency_ns(TransactionKind.PROGRAM) == 100_000
    assert die.operation_latency_ns(TransactionKind.ERASE) == 1_000_000


def test_multi_plane_same_latency_as_single():
    die = make_chip().die(0)
    # A legal two-plane program occupies the die for one tPROG.
    die.validate([address(plane=0), address(plane=1)])
    assert die.operation_latency_ns(TransactionKind.PROGRAM) == 100_000


def test_multi_plane_offset_rule_enforced():
    die = make_chip().die(0)
    with pytest.raises(NandProtocolError):
        die.validate([address(plane=0, page=0), address(plane=1, page=1)])


def test_multi_plane_duplicate_plane_rejected():
    die = make_chip().die(0)
    with pytest.raises(NandProtocolError):
        die.validate([address(plane=0), address(plane=0)])


def test_command_for_wrong_die_rejected():
    die = make_chip().die(0)
    wrong_chip = PhysicalPageAddress(ChipAddress(1, 0), 0, 0, 0, 0)
    with pytest.raises(NandProtocolError):
        die.validate([wrong_chip])
    with pytest.raises(NandProtocolError):
        die.apply(TransactionKind.READ, [wrong_chip])


def test_apply_program_then_read_then_erase():
    die = make_chip().die(0)
    block = die.planes[0].block(0)
    die.apply(TransactionKind.PROGRAM, [address()])
    assert block.read_page(0) is PageState.VALID
    die.apply(TransactionKind.READ, [address()])
    assert block.read_page(0) is PageState.VALID  # a read changes no state
    die.apply(TransactionKind.ERASE, [address()])
    assert block.is_erased
    assert block.erase_count == 1


def test_multi_plane_program_applies_to_both_planes():
    die = make_chip().die(0)
    die.apply(TransactionKind.PROGRAM, [address(plane=0), address(plane=1)])
    for plane in (0, 1):
        block = die.planes[plane].block(0)
        assert block.valid_count == 1
        assert block.read_page(0) is PageState.VALID


def test_plane_builds_blocks_on_first_touch():
    plane = make_chip().die(0).planes[0]
    assert plane.blocks == []
    assert plane.erased_blocks == GEOMETRY.blocks_per_plane
    assert plane.free_pages == plane.total_pages == 4 * 8
    block = plane.block(2)
    assert [built.index for built in plane.blocks] == [0, 1, 2]
    assert plane.blocks[2] is block and block.is_erased
    assert plane.erased_blocks == GEOMETRY.blocks_per_plane
    for index in (-1, GEOMETRY.blocks_per_plane):
        with pytest.raises(IndexError):
            plane.block(index)
    assert len(plane.blocks) == 3


# --------------------------------------------------------------------- #
# FlashArray
# --------------------------------------------------------------------- #


def test_array_has_all_chips():
    config = performance_optimized(blocks_per_plane=2, pages_per_block=2)
    array = FlashArray(Engine(), config)
    assert len(array) == 64
    assert array.chip(ChipAddress(7, 7)).flat_index == 63


def test_array_lookup_consistency():
    config = performance_optimized(blocks_per_plane=2, pages_per_block=2)
    array = FlashArray(Engine(), config)
    target = PhysicalPageAddress(ChipAddress(3, 4), 0, 1, 1, 1)
    die = array.die_for(target)
    assert die.chip_address == ChipAddress(3, 4)
    assert die.planes[target.plane].index == 1
    block = array.block_for(target)
    assert block.index == 1


def test_array_free_and_valid_counters():
    config = performance_optimized(blocks_per_plane=2, pages_per_block=2)
    array = FlashArray(Engine(), config)
    total = config.geometry.total_pages

    def free_pages():
        return sum(plane.free_pages for _, _, plane in array.iter_planes())

    assert free_pages() == total
    assert array.total_valid_pages() == 0
    array.block_for(PhysicalPageAddress(ChipAddress(0, 0), 0, 0, 0, 0)).program_page(0)
    assert free_pages() == total - 1
    assert array.total_valid_pages() == 1


def test_array_iter_planes_count():
    config = performance_optimized(blocks_per_plane=2, pages_per_block=2)
    array = FlashArray(Engine(), config)
    assert sum(1 for _ in array.iter_planes()) == config.geometry.planes_total


@pytest.mark.parametrize("design", [design.value for design in DesignKind])
def test_finished_device_leaves_no_cyclic_garbage(design):
    """A dropped device is freed by reference counting alone.

    Blocks share a counter cell with their plane instead of pointing back
    at it, so no device structure waits for a full collection.
    """
    spec = make_spec(
        design, "performance-optimized", "hm_0",
        ExperimentScale(requests=40, requests_per_mix_constituent=20, seed=42),
    )
    gc.collect()
    gc.disable()
    try:
        spec.execute()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


class TestBlockRestore:
    """FlashBlock.restore: the checkpoint deserialization path."""

    def _block(self):
        return make_chip().die(0).planes[0].block(0)

    def test_restore_rebuilds_counters_and_plane_accounting(self):
        plane = make_chip().die(0).planes[0]
        block = plane.block(0)
        block.restore("vviv", erase_count=3)
        assert block.allocation_pointer == 4
        assert block.programmed_count == 4
        assert block.valid_count == 3
        assert block.invalid_count == 1
        assert block.erase_count == 3
        assert plane.free_pages == plane.total_pages - 4

    def test_restore_matches_the_equivalent_program_sequence(self):
        restored = self._block()
        restored.restore("vi", erase_count=0)
        programmed = self._block()
        programmed.program_page(0)
        programmed.program_page(1)
        programmed.invalidate_page(1)
        assert restored.page_states == programmed.page_states
        assert restored.valid_count == programmed.valid_count
        assert restored.invalid_count == programmed.invalid_count

    def test_restore_requires_a_pristine_block(self):
        block = self._block()
        block.program_page(0)
        with pytest.raises(NandProtocolError, match="non-pristine"):
            block.restore("v", erase_count=0)

    def test_restore_rejects_oversized_snapshots(self):
        with pytest.raises(NandProtocolError, match="holds"):
            self._block().restore("v" * (GEOMETRY.pages_per_block + 1), 0)

    def test_restore_rejects_bad_page_states(self):
        with pytest.raises(NandProtocolError, match="bad page states"):
            self._block().restore("vxv", erase_count=0)

    def test_restore_rejects_negative_erase_counts(self):
        with pytest.raises(NandProtocolError, match="negative"):
            self._block().restore("v", erase_count=-1)
