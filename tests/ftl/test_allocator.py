"""Page allocator tests: striping order, reservation, exhaustion."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config.presets import performance_optimized
from repro.errors import GarbageCollectionError
from repro.ftl.allocator import AllocationStrategy, PageAllocator
from repro.nand.array import FlashArray
from repro.nand.chip import FlashBlock, PageState
from repro.sim.engine import Engine


def make_allocator(strategy=AllocationStrategy.CWDP, blocks=2, pages=4, reserve=0):
    config = performance_optimized(blocks_per_plane=blocks, pages_per_block=pages)
    array = FlashArray(Engine(), config)
    allocator = PageAllocator(
        array, strategy=strategy, gc_reserved_blocks=reserve
    )
    return allocator, config


def test_cwdp_first_cycle_stays_on_channel_zero():
    """CWDP priority: way varies fastest, so the first chips_per_channel
    allocations fill channel 0's ways."""
    allocator, config = make_allocator()
    ways = config.geometry.chips_per_channel
    addresses = [allocator.allocate() for _ in range(ways)]
    assert all(a.chip.channel == 0 for a in addresses)
    assert [a.chip.way for a in addresses] == list(range(ways))


def test_cwdp_moves_to_next_channel_after_ways():
    allocator, config = make_allocator()
    ways = config.geometry.chips_per_channel
    for _ in range(ways):
        allocator.allocate()
    next_address = allocator.allocate()
    assert next_address.chip.channel == 1


def test_wcdp_first_cycle_spreads_channels():
    allocator, config = make_allocator(strategy=AllocationStrategy.WCDP)
    channels = config.geometry.channels
    addresses = [allocator.allocate() for _ in range(channels)]
    assert [a.chip.channel for a in addresses] == list(range(channels))
    assert all(a.chip.way == 0 for a in addresses)


def test_random_strategy_covers_many_planes():
    allocator, config = make_allocator(strategy=AllocationStrategy.RANDOM)
    planes = {
        allocator.allocate().plane_flat_index(config.geometry) for _ in range(200)
    }
    assert len(planes) > config.geometry.planes_total // 2


def test_allocations_never_repeat_a_page():
    allocator, config = make_allocator()
    seen = set()
    for _ in range(500):
        address = allocator.allocate()
        key = address.page_flat_index(config.geometry)
        assert key not in seen
        seen.add(key)


def test_allocation_reserves_pending_program():
    allocator, config = make_allocator()
    address = allocator.allocate()
    block = allocator.plane(address.plane_flat_index(config.geometry)).block(
        address.block
    )
    assert block.pending_programs == 1
    assert block.allocation_pointer == address.page + 1


def test_exhaustion_raises_gc_error():
    allocator, config = make_allocator(blocks=1, pages=1)
    for _ in range(config.geometry.total_pages):
        allocator.allocate()
    with pytest.raises(GarbageCollectionError):
        allocator.allocate()


def test_allocate_in_plane_pins_location():
    allocator, config = make_allocator()
    address = allocator.allocate_in_plane(5)
    assert address.plane_flat_index(config.geometry) == 5


def test_allocate_in_plane_exhaustion():
    allocator, config = make_allocator(blocks=1, pages=2)
    pages_per_plane = config.geometry.pages_per_plane
    for _ in range(pages_per_plane):
        allocator.allocate_in_plane(0)
    with pytest.raises(GarbageCollectionError):
        allocator.allocate_in_plane(0)


def test_multi_plane_allocation_same_offset():
    allocator, config = make_allocator()
    addresses = allocator.allocate_multi_plane(2)
    assert len(addresses) == 2
    first, second = addresses
    assert first.chip == second.chip
    assert first.die == second.die
    assert first.plane != second.plane
    assert (first.block, first.page) == (second.block, second.page)


def test_multi_plane_count_capped_at_planes_per_die():
    allocator, config = make_allocator()
    addresses = allocator.allocate_multi_plane(10)
    assert len(addresses) <= config.geometry.planes_per_die


def test_free_page_fraction_decreases():
    allocator, _ = make_allocator()
    start = allocator.free_page_fraction()
    for _ in range(50):
        allocator.allocate()
    assert allocator.free_page_fraction() < start


def test_open_block_tracking():
    allocator, config = make_allocator()
    address = allocator.allocate_in_plane(0)
    assert allocator.open_block_of(0) == address.block
    assert allocator.erased_block_count(0) == config.geometry.blocks_per_plane - 1


def test_gc_reserve_withheld_from_host_allocations():
    """With one reserved block per plane, host allocations stop while a GC
    allocation can still open the reserved block."""
    allocator, config = make_allocator(blocks=2, pages=2, reserve=1)
    host_pages = 0
    from repro.errors import GarbageCollectionError
    try:
        for _ in range(config.geometry.total_pages):
            allocator.allocate()
            host_pages += 1
    except GarbageCollectionError:
        pass
    # Host got at most half the device (one of two blocks per plane).
    assert host_pages <= config.geometry.total_pages // 2
    # GC can still allocate in any plane.
    assert allocator.allocate_in_plane(0, for_gc=True) is not None


def test_gc_reserve_blocks_host_but_admits_gc():
    """The reserve dip: with every non-reserved block consumed, host
    allocation stalls while GC migration targets still exist."""
    allocator, config = make_allocator(blocks=2, pages=2, reserve=1)
    pages_per_plane = config.geometry.pages_per_plane
    reserve_pages = config.geometry.pages_per_block  # one reserved block
    for _ in range(pages_per_plane - reserve_pages):
        allocator.allocate_in_plane(0, for_gc=False)
    with pytest.raises(GarbageCollectionError):
        allocator.allocate_in_plane(0, for_gc=False)
    address = allocator.allocate_in_plane(0, for_gc=True)
    assert address.plane_flat_index(config.geometry) == 0


# --------------------------------------------------------------------- #
# property: the erased-block count and the least-worn choice
# --------------------------------------------------------------------- #

TINY_BLOCKS, TINY_PAGES, TINY_RESERVE = 4, 2, 1
TINY_PLANES = 4  # 1 channel x 2 chips x 1 die x 2 planes

# Steps that act on "some block" carry a pick that indexes the blocks the
# step applies to, so most draws do something.
_pick = st.integers(0, 63)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 8)),
        st.tuples(
            st.just("in_plane"), st.integers(0, TINY_PLANES - 1), st.booleans()
        ),
        st.tuples(st.just("multi")),
        st.tuples(st.just("program"), _pick),
        st.tuples(st.just("program_all")),
        st.tuples(st.just("program_direct"), _pick),
        st.tuples(st.just("reclaim"), _pick),
        st.tuples(st.just("erase_erased"), _pick),
        st.tuples(
            st.just("restore"), _pick,
            st.text("vi", max_size=TINY_PAGES), st.integers(0, 4),
        ),
    ),
    min_size=20,
    max_size=80,
)


def _every_block(plane):
    """All of the plane's blocks, without building any: the built ones,
    then a pristine stand-in (erased, erase count 0) for each unbuilt one."""
    pristine = FlashBlock(0, plane.pages_per_block)
    return plane.blocks + [pristine] * (plane.block_count - len(plane.blocks))


def _least_worn_erased(plane):
    """Brute-force reference: the (erase_count, index) the allocator must
    open next in this plane, or None when no block is erased."""
    erased = [
        (block.erase_count, index)
        for index, block in enumerate(_every_block(plane))
        if block.is_erased
    ]
    return min(erased) if erased else None


def _can_allocate(allocator, plane_flat, for_gc):
    """Brute-force reference: whether the plane can hand out a page."""
    plane = allocator.plane(plane_flat)
    open_block = allocator.open_block_of(plane_flat)
    if open_block is not None and not plane.blocks[open_block].is_full:
        return True
    erased = sum(block.is_erased for block in _every_block(plane))
    return erased > (0 if for_gc else allocator.gc_reserved_blocks)


@settings(max_examples=200, deadline=None)
@example(steps=[
    # A restored, erased-but-worn block loses the tie-break to fresh ones.
    ("restore", 0, "", 3),
    ("in_plane", 0, False), ("in_plane", 0, False), ("in_plane", 0, False),
])
@given(steps=_STEPS)
def test_erased_count_and_opened_blocks_match_brute_force(steps):
    config = performance_optimized(
        blocks_per_plane=TINY_BLOCKS, pages_per_block=TINY_PAGES
    ).with_geometry(1, 2)
    array = FlashArray(Engine(), config)
    allocator = PageAllocator(array, gc_reserved_blocks=TINY_RESERVE)
    planes = [allocator.plane(flat) for flat in range(allocator.plane_count())]
    assert len(planes) == TINY_PLANES
    in_flight = []  # reserved, not yet programmed

    def blocks_where(predicate):
        return [
            (plane, index)
            for plane_flat, plane in enumerate(planes)
            for index, block in enumerate(_every_block(plane))
            if index != allocator.open_block_of(plane_flat) and predicate(block)
        ]

    def pick(candidates, index):
        """The chosen block, built if it was not yet."""
        if not candidates:
            return None
        plane, block_index = candidates[index % len(candidates)]
        return plane.block(block_index)

    def take(call):
        try:
            addresses = call()
        except GarbageCollectionError:
            return False
        in_flight.extend(addresses)
        return True

    # An allocate step is a burst of single allocations, each checked.
    unrolled = [
        single
        for kind, *args in steps
        for single in (
            [("allocate",)] * args[0] if kind == "allocate" else [(kind, *args)]
        )
    ]
    for kind, *args in unrolled:
        opened_before = [allocator.open_block_of(f) for f in range(TINY_PLANES)]
        reference = [_least_worn_erased(plane) for plane in planes]
        if kind == "allocate":
            can = any(
                _can_allocate(allocator, f, False) for f in range(TINY_PLANES)
            )
            assert take(lambda: [allocator.allocate()]) == can
        elif kind == "in_plane":
            plane_flat, for_gc = args
            can = _can_allocate(allocator, plane_flat, for_gc)
            assert take(
                lambda: [allocator.allocate_in_plane(plane_flat, for_gc=for_gc)]
            ) == can
        elif kind == "multi":
            take(lambda: allocator.allocate_multi_plane(2))
        elif kind == "program" and in_flight:
            address = in_flight.pop(args[0] % len(in_flight))
            array.block_for(address).program_page(address.page)
        elif kind == "program_all":
            for address in in_flight:
                array.block_for(address).program_page(address.page)
            in_flight.clear()
        elif kind == "program_direct":
            block = pick(blocks_where(lambda b: b.is_erased), args[0])
            if block is not None:
                block.program_page(0)
        elif kind == "reclaim":
            block = pick(
                blocks_where(lambda b: not b.is_erased and not b.pending_programs),
                args[0],
            )
            if block is not None:
                for page in range(block.write_pointer):
                    if block.page_states[page] is PageState.VALID:
                        block.invalidate_page(page)
                block.erase()
        elif kind == "erase_erased":
            block = pick(blocks_where(lambda b: b.is_erased), args[0])
            if block is not None:
                block.erase()
        elif kind == "restore":
            block = pick(
                blocks_where(lambda b: b.is_erased and not b.erase_count),
                args[0],
            )
            if block is not None:
                block.restore(args[1], erase_count=args[2])

        for plane_flat, plane in enumerate(planes):
            erased = sum(block.is_erased for block in _every_block(plane))
            assert plane.erased_blocks == erased
            assert allocator.erased_block_count(plane_flat) == erased
            opened = allocator.open_block_of(plane_flat)
            if opened is not None and opened != opened_before[plane_flat]:
                # A block opened by this step: the least-worn erased one
                # as of the step's start, ties to the lower index.
                assert reference[plane_flat] is not None
                assert opened == reference[plane_flat][1]
