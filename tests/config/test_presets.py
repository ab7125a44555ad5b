"""Table 1 preset fidelity tests."""

import pytest

from repro.config.presets import (
    cost_optimized,
    performance_optimized,
    preset_by_name,
    PRESET_NAMES,
)
from repro.config.ssd_config import NS_PER_MS, NS_PER_US
from repro.errors import ConfigurationError


def test_performance_optimized_matches_table1():
    config = performance_optimized()
    assert config.geometry.channels == 8
    assert config.geometry.chips_per_channel == 8
    assert config.geometry.dies_per_chip == 1
    assert config.geometry.planes_per_die == 2
    assert config.geometry.blocks_per_plane == 1024
    assert config.geometry.pages_per_block == 768
    assert config.geometry.page_size == 4096
    assert config.timings.read_ns == 3 * NS_PER_US
    assert config.timings.program_ns == 100 * NS_PER_US
    assert config.timings.erase_ns == 1 * NS_PER_MS
    assert config.timings.command_ns == 10
    assert config.interconnect.channel_rate == 1_200_000_000


def test_cost_optimized_matches_table1():
    config = cost_optimized()
    assert config.geometry.page_size == 16 * 1024
    assert config.timings.read_ns == 45 * NS_PER_US
    assert config.timings.program_ns == 650 * NS_PER_US
    assert config.timings.erase_ns == 3_500_000
    assert config.geometry.channels == 8
    assert config.geometry.chips_per_channel == 8
    # Table 1 says 1024 blocks/die with 2 planes/die.
    assert config.geometry.blocks_per_plane * config.geometry.planes_per_die == 1024


def test_performance_optimized_chip_count_is_64():
    assert performance_optimized().geometry.total_chips == 64


def test_venice_link_rate_is_1_gbps():
    config = performance_optimized()
    # 8-bit links at 1 GHz = 1 byte/ns = 1 GB/s.
    assert config.interconnect.link_width_bytes == 1
    assert config.interconnect.link_frequency_hz == 1_000_000_000


def test_venice_mesh_is_8x8():
    config = performance_optimized()
    assert (config.mesh_rows, config.mesh_cols) == (8, 8)
    assert config.flash_controllers == 8


def test_preset_lookup_and_aliases():
    assert preset_by_name("perf").name == "performance-optimized"
    assert preset_by_name("cost-optimized").name == "cost-optimized"
    assert set(PRESET_NAMES) == {"performance-optimized", "cost-optimized"}


def test_preset_unknown_name_raises():
    with pytest.raises(ConfigurationError):
        preset_by_name("quantum-optimized")


def test_scaling_knobs_shrink_capacity_not_geometry():
    config = performance_optimized(blocks_per_plane=16, pages_per_block=32)
    assert config.geometry.total_chips == 64
    assert config.geometry.blocks_per_plane == 16
    assert config.geometry.pages_per_block == 32


def test_with_geometry_for_fig15():
    config = performance_optimized().with_geometry(4, 16)
    assert config.geometry.channels == 4
    assert config.geometry.chips_per_channel == 16
    assert config.geometry.total_chips == 64
    assert config.flash_controllers == 4


def test_channel_transfer_time_4kb():
    config = performance_optimized()
    # 4 KB at 1.2 GB/s is ~3.4 us.
    ns = config.interconnect.channel_transfer_ns(4096)
    assert ns == pytest.approx(3413, abs=2)


def test_link_transfer_equation_1():
    config = performance_optimized()
    # Equation (1): (distance + size/width) x link latency; 1 ns per byte.
    assert config.interconnect.link_transfer_ns(4096, distance_hops=10) == 4106


def test_pssd_bandwidth_factor_halves_transfer():
    config = performance_optimized()
    full = config.interconnect.channel_transfer_ns(16384)
    half = config.interconnect.channel_transfer_ns(16384, bandwidth_factor=2.0)
    assert half == pytest.approx(full / 2, rel=0.01)
