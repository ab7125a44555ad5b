"""FTL translation tests: reads, writes, preconditioning, consistency."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.controller.transaction import TransactionKind
from repro.errors import GarbageCollectionError, MappingError, ReproError
from repro.ftl.allocator import AllocationStrategy
from repro.ftl.ftl import Ftl
from repro.nand.array import FlashArray
from repro.sim.checkpoint import snapshot_device
from repro.sim.engine import Engine
from repro.ssd.device import SsdDevice


def make_ftl(blocks=4, pages=8):
    config = performance_optimized(blocks_per_plane=blocks, pages_per_block=pages)
    array = FlashArray(Engine(), config)
    return Ftl(config, array), config


def complete_programs(ftl, transactions):
    """Apply the NAND state changes the pipeline would perform."""
    for transaction in transactions:
        if transaction.kind is TransactionKind.PROGRAM:
            for address in transaction.addresses:
                ftl.array.block_for(address).program_page(address.page)


def test_lpns_for_spans_pages():
    ftl, config = make_ftl()
    page = config.geometry.page_size
    assert ftl.lpns_for(0, page) == [0]
    assert ftl.lpns_for(0, page + 1) == [0, 1]
    assert ftl.lpns_for(page // 2, page) == [0, 1]


def test_lpns_for_rejects_empty():
    ftl, _ = make_ftl()
    with pytest.raises(MappingError):
        ftl.lpns_for(0, 0)


def test_read_of_unwritten_data_implicitly_preconditions():
    ftl, config = make_ftl()
    transactions = ftl.translate_read(0, config.geometry.page_size * 3)
    assert len(transactions) == 3
    assert all(t.kind is TransactionKind.READ for t in transactions)
    assert ftl.implicit_preconditions == 3
    ftl.assert_consistent()


def test_preconditioned_reads_cluster_on_one_channel():
    """Contiguous LPNs land on one channel, striped across its ways --
    the Figure 3 conflict pattern (see Ftl._materialise)."""
    ftl, config = make_ftl(blocks=8, pages=16)
    page = config.geometry.page_size
    transactions = ftl.translate_read(0, page * 8)
    channels = {t.primary.chip.channel for t in transactions}
    ways = {t.primary.chip.way for t in transactions}
    assert len(channels) == 1
    assert len(ways) == 8


def test_repeated_read_hits_same_physical_page():
    ftl, config = make_ftl()
    first = ftl.translate_read(0, config.geometry.page_size)
    second = ftl.translate_read(0, config.geometry.page_size)
    assert first[0].primary == second[0].primary
    assert ftl.implicit_preconditions == 1


def test_write_allocates_and_maps():
    ftl, config = make_ftl()
    transactions = ftl.translate_write(0, config.geometry.page_size)
    assert len(transactions) == 1
    assert transactions[0].kind is TransactionKind.PROGRAM
    assert ftl.mapping.lookup(0) is not None


def test_overwrite_is_out_of_place():
    ftl, config = make_ftl()
    page = config.geometry.page_size
    first = ftl.translate_write(0, page)
    complete_programs(ftl, first)
    first_ppn = ftl.mapping.lookup(0)
    second = ftl.translate_write(0, page)
    complete_programs(ftl, second)
    second_ppn = ftl.mapping.lookup(0)
    assert first_ppn != second_ppn
    # The old physical page is now invalid in NAND.
    from repro.nand.address import PhysicalPageAddress
    from repro.nand.chip import PageState

    old = PhysicalPageAddress.from_page_flat(first_ppn, config.geometry)
    assert ftl.array.block_for(old).page_states[old.page] is PageState.INVALID


def test_multi_plane_write_grouping():
    ftl, config = make_ftl()
    page = config.geometry.page_size
    transactions = ftl.translate_write(0, page * 4)
    multi = [t for t in transactions if t.is_multi_plane]
    assert multi, "large writes should produce multi-plane programs"
    assert sum(t.plane_count for t in transactions) == 4


def test_precondition_fills_fraction():
    ftl, _ = make_ftl()
    written = ftl.precondition(0.25)
    assert written == int(ftl.logical_pages * 0.25)
    ftl.assert_consistent()


def test_precondition_rejects_bad_fraction():
    ftl, _ = make_ftl()
    with pytest.raises(MappingError):
        ftl.precondition(1.5)


# --------------------------------------------------------------------- #
# the one-pass fill of a fresh device against the per-page reference
# --------------------------------------------------------------------- #


def _device(blocks, pages, channels, ways, over_provisioning, strategy, start):
    """A baseline device in one of three starting states."""
    config = performance_optimized(
        blocks_per_plane=blocks, pages_per_block=pages
    ).with_geometry(channels, ways)
    device = SsdDevice(
        config,
        DesignKind.BASELINE,
        allocation=strategy,
        over_provisioning=over_provisioning,
    )
    kind, value = start
    if kind == "read":  # one implicitly preconditioned page
        lpn = value % device.ftl.logical_pages
        page_size = config.geometry.page_size
        device.ftl.translate_read(lpn * page_size, page_size)
    elif kind == "worn":  # an erased block that is no longer least-worn
        allocator = device.ftl.allocator
        plane = allocator.plane(value % allocator.plane_count())
        plane.block(value % blocks).erase_count = 1
    return device


def _fill_page_by_page(ftl, fill_fraction):
    """Reference fill: materialise each unmapped LPN below the target."""
    written = 0
    for lpn in range(int(ftl.logical_pages * fill_fraction)):
        if not ftl.mapping.is_mapped(lpn):
            ftl._materialise(lpn)
            written += 1
    return written


def _outcome(device, fill):
    """What a fill returned or raised, and everything it left behind."""
    try:
        returned = fill()
    except ReproError as error:
        returned = (type(error), str(error))
    ftl = device.ftl
    return (
        returned,
        snapshot_device(device),
        ftl.allocator.allocations,
        ftl.mapping.updates,
        ftl.implicit_preconditions,
    )


@settings(max_examples=60, deadline=None)
@example(  # overflows channel 0's planes: the per-page path raises
    blocks=2, pages=2, channels=8, ways=8, over_provisioning=0.0,
    fill=1.0, strategy=AllocationStrategy.CWDP, start=("fresh", 0),
)
@example(  # each plane's last block ends full and stays the open block
    blocks=2, pages=2, channels=1, ways=1, over_provisioning=0.0,
    fill=0.5, strategy=AllocationStrategy.CWDP, start=("fresh", 0),
)
@given(
    blocks=st.integers(2, 8),
    pages=st.integers(2, 8),
    channels=st.sampled_from([1, 2, 4, 8]),
    ways=st.sampled_from([1, 2, 4, 8]),
    over_provisioning=st.sampled_from([0.0, 0.07, 0.2, 0.35]),
    fill=st.floats(0.0, 1.0),
    strategy=st.sampled_from(list(AllocationStrategy)),
    start=st.tuples(
        st.sampled_from(["fresh", "read", "worn"]), st.integers(0, 10**6)
    ),
)
def test_precondition_matches_the_per_page_fill(
    blocks, pages, channels, ways, over_provisioning, fill, strategy, start
):
    shape = (blocks, pages, channels, ways, over_provisioning, strategy, start)
    device, twin = _device(*shape), _device(*shape)
    assert _outcome(device, lambda: device.precondition(fill)) == _outcome(
        twin, lambda: _fill_page_by_page(twin.ftl, fill)
    )


def test_overflowing_fill_raises_like_the_per_page_path():
    device = _device(2, 2, 8, 8, 0.0, AllocationStrategy.CWDP, ("fresh", 0))
    with pytest.raises(GarbageCollectionError):
        device.precondition(1.0)


def test_fresh_fill_writes_in_one_pass(monkeypatch):
    ftl, _ = make_ftl()

    def per_page(lpn):
        raise AssertionError("a fresh fill took the per-page path")

    monkeypatch.setattr(ftl, "_materialise", per_page)
    assert ftl.precondition(0.5) == int(ftl.logical_pages * 0.5)
    ftl.assert_consistent()


def test_planes_touched_by_reports_program_planes():
    ftl, config = make_ftl()
    transactions = ftl.translate_write(0, config.geometry.page_size * 2)
    planes = ftl.planes_touched_by(transactions)
    assert planes
    reads = ftl.translate_read(10 * config.geometry.page_size, config.geometry.page_size)
    assert ftl.planes_touched_by(reads) == []


def test_logical_space_respects_over_provisioning():
    ftl, config = make_ftl()
    assert ftl.logical_pages == int(
        config.geometry.total_pages * (1.0 - config.over_provisioning)
    )
