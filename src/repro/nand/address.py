"""Physical addressing of the flash array.

A chip is identified by ``(channel, way)`` -- equivalently ``(row, col)`` in
the mesh designs, since the mesh places one channel's chips along one row
(one flash controller per row, Figure 5(b)).  Inside the chip, a page is
addressed by ``(die, plane, block, page)``.

Both address types are immutable-by-convention value objects.  They are
hand-rolled rather than frozen dataclasses because they are materialised on
the FTL's per-page hot path: a frozen dataclass pays ``object.__setattr__``
per field on construction and builds a tuple per hash/eq probe, which
profiles as a top-ten cost of a whole simulation run.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config.ssd_config import NandGeometry
from repro.errors import ConfigurationError


class ChipAddress:
    """Location of a flash chip in the array: channel (row) and way (column)."""

    __slots__ = ("channel", "way")

    def __init__(self, channel: int, way: int) -> None:
        self.channel = channel
        self.way = way

    # value-object protocol (mirrors dataclass(frozen=True, order=True))
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ChipAddress):
            return NotImplemented
        return self.channel == other.channel and self.way == other.way

    def __lt__(self, other: "ChipAddress") -> bool:
        return (self.channel, self.way) < (other.channel, other.way)

    def __le__(self, other: "ChipAddress") -> bool:
        return (self.channel, self.way) <= (other.channel, other.way)

    def __hash__(self) -> int:
        return hash((self.channel, self.way))

    def __repr__(self) -> str:
        return f"ChipAddress(channel={self.channel}, way={self.way})"

    def flat_index(self, geometry: NandGeometry) -> int:
        """Row-major flat chip id, as used by the 6-bit scout destination."""
        return self.channel * geometry.chips_per_channel + self.way

    @classmethod
    def from_flat(cls, index: int, geometry: NandGeometry) -> "ChipAddress":
        """The (shared) address of flat chip ``index``; range-checked."""
        if not 0 <= index < geometry.total_chips:
            raise ConfigurationError(
                f"chip index {index} out of range [0, {geometry.total_chips})"
            )
        key = divmod(index, geometry.chips_per_channel)
        address = _CHIP_CACHE.get(key)
        if address is None:
            address = _CHIP_CACHE[key] = cls(*key)
        return address

    def validate(self, geometry: NandGeometry) -> None:
        """Raise :class:`ConfigurationError` if the chip lies outside the array."""
        if not 0 <= self.channel < geometry.channels:
            raise ConfigurationError(f"channel {self.channel} out of range")
        if not 0 <= self.way < geometry.chips_per_channel:
            raise ConfigurationError(f"way {self.way} out of range")


# ChipAddress is compared by value, so instances are shared: the hot FTL
# translate path materialises one per page and this keeps that
# allocation-free.  Keyed by (channel, way) -- geometry only affects the
# range check, not the identity.
_CHIP_CACHE: Dict[Tuple[int, int], ChipAddress] = {}


class PhysicalPageAddress:
    """Full physical page address."""

    __slots__ = ("chip", "die", "plane", "block", "page")

    def __init__(
        self, chip: ChipAddress, die: int, plane: int, block: int, page: int
    ) -> None:
        self.chip = chip
        self.die = die
        self.plane = plane
        self.block = block
        self.page = page

    def _key(self) -> tuple:
        chip = self.chip
        return (chip.channel, chip.way, self.die, self.plane, self.block, self.page)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, PhysicalPageAddress):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "PhysicalPageAddress") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "PhysicalPageAddress") -> bool:
        return self._key() <= other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PhysicalPageAddress(chip={self.chip!r}, die={self.die}, "
            f"plane={self.plane}, block={self.block}, page={self.page})"
        )

    def validate(self, geometry: NandGeometry) -> None:
        """Raise :class:`ConfigurationError` if any component is out of range."""
        self.chip.validate(geometry)
        if not 0 <= self.die < geometry.dies_per_chip:
            raise ConfigurationError(f"die {self.die} out of range")
        if not 0 <= self.plane < geometry.planes_per_die:
            raise ConfigurationError(f"plane {self.plane} out of range")
        if not 0 <= self.block < geometry.blocks_per_plane:
            raise ConfigurationError(f"block {self.block} out of range")
        if not 0 <= self.page < geometry.pages_per_block:
            raise ConfigurationError(f"page {self.page} out of range")

    def plane_flat_index(self, geometry: NandGeometry) -> int:
        """Flat plane id across the whole SSD (for allocator round-robin)."""
        chip_flat = self.chip.flat_index(geometry)
        return (chip_flat * geometry.dies_per_chip + self.die) * geometry.planes_per_die + self.plane

    def page_flat_index(self, geometry: NandGeometry) -> int:
        """Flat physical page number across the whole SSD."""
        plane_flat = self.plane_flat_index(geometry)
        return plane_flat * geometry.pages_per_plane + self.block * geometry.pages_per_block + self.page

    @classmethod
    def from_page_flat(cls, index: int, geometry: NandGeometry) -> "PhysicalPageAddress":
        """Inverse of :meth:`page_flat_index`; range-checked."""
        if not 0 <= index < geometry.total_pages:
            raise ConfigurationError(f"page index {index} out of range")
        plane_flat, offset = divmod(index, geometry.pages_per_plane)
        block, page = divmod(offset, geometry.pages_per_block)
        die_flat, plane = divmod(plane_flat, geometry.planes_per_die)
        chip_flat, die = divmod(die_flat, geometry.dies_per_chip)
        return cls(
            chip=ChipAddress.from_flat(chip_flat, geometry),
            die=die,
            plane=plane,
            block=block,
            page=page,
        )
