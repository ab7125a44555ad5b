"""Flash command descriptors exchanged between flash controllers and chips."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List

from repro.nand.address import PhysicalPageAddress

_command_ids = itertools.count()


class FlashCommandKind(enum.Enum):
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"

    @property
    def is_read(self) -> bool:
        """Whether the command senses data rather than changing cells."""
        return self is FlashCommandKind.READ


@dataclass
class FlashCommand:
    """One die-level flash operation, possibly multi-plane.

    ``addresses`` holds one address per participating plane; a single-plane
    command has one entry.  All addresses of a multi-plane command must be on
    the same die at the same block/page offset (validated by the die).
    """

    kind: FlashCommandKind
    addresses: List[PhysicalPageAddress]
    command_id: int = field(default_factory=lambda: next(_command_ids))

    @property
    def primary(self) -> PhysicalPageAddress:
        """The first address; a multi-plane command's shared offset."""
        return self.addresses[0]

    @property
    def plane_count(self) -> int:
        """Number of planes the command operates on."""
        return len(self.addresses)

    @property
    def is_multi_plane(self) -> bool:
        """Whether the command gangs more than one plane of its die."""
        return len(self.addresses) > 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        a = self.primary
        return (
            f"FlashCommand({self.kind.value}, chip=({a.chip.channel},{a.chip.way}), "
            f"die={a.die}, planes={self.plane_count}, block={a.block}, page={a.page})"
        )
