"""Mapping table tests, including the bijection property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.ftl.mapping import MappingTable


def test_lookup_unmapped_is_none():
    table = MappingTable(100)
    assert table.lookup(5) is None
    assert not table.is_mapped(5)


def test_map_and_lookup():
    table = MappingTable(100)
    assert table.map_page(5, 500) is None
    assert table.lookup(5) == 500
    assert table.reverse_lookup(500) == 5
    assert table.mapped_count == 1


def test_out_of_place_update_returns_old_ppn():
    table = MappingTable(100)
    table.map_page(5, 500)
    displaced = table.map_page(5, 777)
    assert displaced == 500
    assert table.lookup(5) == 777
    assert table.reverse_lookup(500) is None
    assert table.invalidations == 1


def test_physical_page_sharing_rejected():
    table = MappingTable(100)
    table.map_page(1, 500)
    with pytest.raises(MappingError):
        table.map_page(2, 500)


def test_lpn_bounds_enforced():
    table = MappingTable(10)
    with pytest.raises(MappingError):
        table.lookup(10)
    with pytest.raises(MappingError):
        table.map_page(-1, 0)


def test_remap_physical_for_gc_migration():
    table = MappingTable(100)
    table.map_page(7, 700)
    lpn = table.remap_physical(700, 900)
    assert lpn == 7
    assert table.lookup(7) == 900
    assert table.reverse_lookup(700) is None
    assert table.reverse_lookup(900) == 7


def test_remap_physical_rejects_dead_source():
    table = MappingTable(100)
    with pytest.raises(MappingError):
        table.remap_physical(123, 456)


def test_remap_physical_rejects_live_target():
    table = MappingTable(100)
    table.map_page(1, 100)
    table.map_page(2, 200)
    with pytest.raises(MappingError):
        table.remap_physical(100, 200)


def test_bulk_load_mirrors_map_page():
    loaded, mapped = MappingTable(100), MappingTable(100)
    loaded.load([3, 1, 2], [30, 10, 20])
    for lpn, ppn in ((3, 30), (1, 10), (2, 20)):
        mapped.map_page(lpn, ppn)
    assert list(loaded.items()) == list(mapped.items())
    assert loaded.reverse_lookup(10) == 1
    assert loaded.updates == 0  # a load rebuilds; its caller counts writes
    loaded.assert_bijective()


@pytest.mark.parametrize("lpns, ppns, message", [
    ([0, 100], [1, 2], "outside logical space"),
    ([-1, 0], [1, 2], "outside logical space"),
    ([4, 4], [1, 2], "LPN repeated"),
    ([4, 5], [2, 2], "PPN repeated"),
])
def test_bulk_load_rejects_bad_columns(lpns, ppns, message):
    table = MappingTable(100)
    with pytest.raises(MappingError, match=message):
        table.load(lpns, ppns)
    assert table.mapped_count == 0


def test_bulk_load_needs_an_empty_table():
    table = MappingTable(100)
    table.map_page(1, 10)
    with pytest.raises(MappingError, match="non-empty"):
        table.load([2], [20])


def test_empty_space_rejected():
    with pytest.raises(MappingError):
        MappingTable(0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 49), st.integers(0, 999)),
        max_size=100,
    )
)
def test_mapping_stays_bijective(operations):
    """Forward and reverse maps mirror each other under any op sequence."""
    table = MappingTable(50)
    used_ppns = set()
    for lpn, ppn in operations:
        if ppn not in used_ppns:
            old = table.map_page(lpn, ppn)
            used_ppns.add(ppn)
            if old is not None:
                used_ppns.discard(old)
        table.assert_bijective()
