"""Table 1 presets: the two evaluated SSD configurations.

* ``performance_optimized`` -- Samsung Z-NAND class: tR = 3 us,
  tPROG = 100 us, tBERS = 1 ms, 4 KB pages, 8 channels x 8 chips,
  1 die/chip, 2 planes/die, 1024 blocks/plane, 768 pages/block,
  1.2 GB/s channel I/O rate.

* ``cost_optimized`` -- Samsung PM9A3 class 3D TLC: tR = 45 us,
  tPROG = 650 us, tBERS = 3.5 ms, 16 KB pages, 8 channels x 8 chips,
  1 die/chip, 2 planes/die, 1024 blocks/die, 1.2 GB/s channel I/O rate.

Venice network parameters (Table 1 bottom): 8x8 2D mesh, 8-bit 1 GHz links,
one router per flash chip, two 8-bit buffers per port, circuit switching,
non-minimal fully-adaptive routing.
"""

from __future__ import annotations

from typing import Tuple

from repro.config.ssd_config import (
    InterconnectConfig,
    NandGeometry,
    NandTimings,
    SsdConfig,
    NS_PER_US,
    NS_PER_MS,
    KIB,
)
from repro.errors import ConfigurationError


def performance_optimized(
    *,
    blocks_per_plane: int = 1024,
    pages_per_block: int = 768,
    seed: int = 42,
) -> SsdConfig:
    """Performance-optimized SSD (Samsung Z-NAND class, Table 1).

    The ``blocks_per_plane`` / ``pages_per_block`` knobs exist so tests and
    benchmarks can shrink the address space without changing the array
    geometry (which is what determines path-conflict behaviour).
    """
    return SsdConfig(
        name="performance-optimized",
        geometry=NandGeometry(
            channels=8,
            chips_per_channel=8,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=4 * KIB,
        ),
        timings=NandTimings(
            read_ns=3 * NS_PER_US,
            program_ns=100 * NS_PER_US,
            erase_ns=1 * NS_PER_MS,
        ),
        interconnect=InterconnectConfig(),
        seed=seed,
    )


def cost_optimized(
    *,
    blocks_per_plane: int = 512,
    pages_per_block: int = 256,
    seed: int = 42,
) -> SsdConfig:
    """Cost-optimized SSD (Samsung PM9A3 class 3D TLC, Table 1).

    The paper lists "1024 blocks/die"; with 2 planes/die that is 512
    blocks/plane.  Page count per block is not published for this part, so a
    representative TLC value is used; it scales capacity, not conflict
    behaviour.
    """
    return SsdConfig(
        name="cost-optimized",
        geometry=NandGeometry(
            channels=8,
            chips_per_channel=8,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=16 * KIB,
        ),
        timings=NandTimings(
            read_ns=45 * NS_PER_US,
            program_ns=650 * NS_PER_US,
            erase_ns=3_500_000,  # 3.5 ms
        ),
        interconnect=InterconnectConfig(),
        seed=seed,
    )


_PRESETS = {
    "performance-optimized": performance_optimized,
    "perf": performance_optimized,
    "cost-optimized": cost_optimized,
    "cost": cost_optimized,
}

PRESET_NAMES: Tuple[str, ...] = ("performance-optimized", "cost-optimized")

_CANONICAL_NAMES = {
    alias: factory.__name__.replace("_", "-")
    for alias, factory in _PRESETS.items()
}


def canonical_preset_name(name: str) -> str:
    """Resolve an (abbreviated) preset name to its canonical form.

    Run specs are content-addressed, so 'perf' and 'performance-optimized'
    must normalise to one identity or identical runs would miss the cache.
    """
    canonical = _CANONICAL_NAMES.get(name.lower())
    if canonical is None:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
        )
    return canonical


def preset_by_name(name: str, **kwargs) -> SsdConfig:
    """Look up a preset configuration by (abbreviated) name."""
    factory = _PRESETS.get(name.lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
        )
    return factory(**kwargs)
