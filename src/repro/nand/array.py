"""The full flash chip array: all chips of the SSD, indexed by address."""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.config.ssd_config import SsdConfig
from repro.errors import ConfigurationError
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.nand.chip import FlashBlock, FlashChip, FlashDie
from repro.sim.engine import Engine


class FlashArray:
    """Container and lookup helper for every flash chip in the SSD."""

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        self.config = config
        self.geometry = config.geometry
        self.chips: List[FlashChip] = []
        self._by_address: Dict[ChipAddress, FlashChip] = {}
        for channel in range(self.geometry.channels):
            for way in range(self.geometry.chips_per_channel):
                address = ChipAddress(channel, way)
                chip = FlashChip(engine, address, self.geometry, config.timings)
                self.chips.append(chip)
                self._by_address[address] = chip
        # Flat die list for the hot lookup path: chip-major, die-minor.
        # Indexing arithmetic replaces dict lookups keyed by a dataclass
        # (whose __hash__/__eq__ build tuples on every probe).
        self._dies_flat: List[FlashDie] = [
            die for chip in self.chips for die in chip.dies
        ]
        self._ways = self.geometry.chips_per_channel
        self._dies_per_chip = self.geometry.dies_per_chip

    def __iter__(self) -> Iterator[FlashChip]:
        return iter(self.chips)

    def __len__(self) -> int:
        return len(self.chips)

    def chip(self, address: ChipAddress) -> FlashChip:
        """The chip at ``address``."""
        return self._by_address[address]

    def die_for(self, address: PhysicalPageAddress) -> FlashDie:
        """The die holding ``address``."""
        chip = address.chip
        return self._dies_flat[
            (chip.channel * self._ways + chip.way) * self._dies_per_chip + address.die
        ]

    def block_for(self, address: PhysicalPageAddress) -> FlashBlock:
        """The block holding ``address`` (the per-page hot path), built on
        first touch."""
        chip = address.chip
        die = self._dies_flat[
            (chip.channel * self._ways + chip.way) * self._dies_per_chip + address.die
        ]
        plane = die.planes[address.plane]
        try:
            return plane.blocks[address.block]
        except IndexError:
            return plane.block(address.block)

    def set_die_failed(self, channel: int, way: int, die: int, failed: bool = True) -> None:
        """Mark one die failed/repaired (fault injection; bounds-checked).

        A failed die keeps servicing commands -- the simulator models
        latency, not data loss -- but every operation on it takes the
        degraded retry path in the transaction pipeline (DESIGN.md §7).
        """
        geometry = self.geometry
        if not (
            0 <= channel < geometry.channels
            and 0 <= way < geometry.chips_per_channel
            and 0 <= die < geometry.dies_per_chip
        ):
            raise ConfigurationError(
                f"die {channel}.{way}.{die} outside the "
                f"{geometry.channels}x{geometry.chips_per_channel}x"
                f"{geometry.dies_per_chip} array"
            )
        self._dies_flat[
            (channel * self._ways + way) * self._dies_per_chip + die
        ].failed = failed

    def iter_planes(self) -> Iterator[tuple]:
        """Yield ``(chip, die, plane)`` triples in CWDP order."""
        for chip in self.chips:
            for die in chip.dies:
                for plane in die.planes:
                    yield chip, die, plane

    def total_valid_pages(self) -> int:
        """Pages holding live data across the whole array."""
        return sum(plane.valid_pages for _, _, plane in self.iter_planes())
