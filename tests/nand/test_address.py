"""Physical address arithmetic tests."""

import pytest
from hypothesis import given, strategies as st

from repro.config.ssd_config import NandGeometry
from repro.errors import ConfigurationError
from repro.nand.address import ChipAddress, PhysicalPageAddress

GEOMETRY = NandGeometry(
    channels=4,
    chips_per_channel=4,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=16,
)


def test_chip_flat_round_trip():
    for index in range(GEOMETRY.total_chips):
        address = ChipAddress.from_flat(index, GEOMETRY)
        assert address.flat_index(GEOMETRY) == index


def test_chip_flat_is_row_major():
    assert ChipAddress(0, 0).flat_index(GEOMETRY) == 0
    assert ChipAddress(0, 3).flat_index(GEOMETRY) == 3
    assert ChipAddress(1, 0).flat_index(GEOMETRY) == 4


def test_chip_flat_out_of_range():
    with pytest.raises(ConfigurationError):
        ChipAddress.from_flat(GEOMETRY.total_chips, GEOMETRY)


def test_chip_validate_rejects_bad_way():
    with pytest.raises(ConfigurationError):
        ChipAddress(0, 99).validate(GEOMETRY)


@given(st.integers(min_value=0, max_value=GEOMETRY.total_pages - 1))
def test_page_flat_round_trip(index):
    address = PhysicalPageAddress.from_page_flat(index, GEOMETRY)
    address.validate(GEOMETRY)
    assert address.page_flat_index(GEOMETRY) == index


def test_page_flat_out_of_range():
    with pytest.raises(ConfigurationError):
        PhysicalPageAddress.from_page_flat(GEOMETRY.total_pages, GEOMETRY)


def test_page_flat_zero_is_origin():
    address = PhysicalPageAddress.from_page_flat(0, GEOMETRY)
    assert address == PhysicalPageAddress(ChipAddress(0, 0), 0, 0, 0, 0)


def test_validate_rejects_bad_block():
    address = PhysicalPageAddress(ChipAddress(0, 0), 0, 0, GEOMETRY.blocks_per_plane, 0)
    with pytest.raises(ConfigurationError):
        address.validate(GEOMETRY)


def test_plane_flat_index_distinct_per_plane():
    seen = set()
    for chip_flat in range(GEOMETRY.total_chips):
        chip = ChipAddress.from_flat(chip_flat, GEOMETRY)
        for die in range(GEOMETRY.dies_per_chip):
            for plane in range(GEOMETRY.planes_per_die):
                address = PhysicalPageAddress(chip, die, plane, 0, 0)
                seen.add(address.plane_flat_index(GEOMETRY))
    assert len(seen) == GEOMETRY.planes_total
    assert seen == set(range(GEOMETRY.planes_total))
