"""Flash transactions: the unit of work between FTL and flash chips."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.nand.chip import TransactionKind


class TransactionSource(enum.Enum):
    HOST = "host"  # created for a host I/O request
    GC = "gc"  # created by garbage collection (valid-page migration)
    WEAR = "wear"  # created by wear-leveling block swaps
    PRECONDITION = "precondition"  # timing-free preconditioning


@dataclass
class FlashTransaction:
    """One die-level operation travelling through the SSD.

    It is the one record of the operation from the FTL to the die, which
    executes its ``kind`` on its ``addresses``.  ``addresses`` carries one
    entry per plane (multi-plane operations bundle several same-offset
    pages, §2.1).  ``payload_bytes`` is the total data moved over the
    fabric -- page size times plane count for reads/programs, zero for
    erases.
    """

    kind: TransactionKind
    addresses: List[PhysicalPageAddress]
    payload_bytes: int
    source: TransactionSource = TransactionSource.HOST
    # filled in by the pipeline
    issued_at: Optional[int] = None
    completed_at: Optional[int] = None
    path_conflict: bool = False
    die_wait_ns: int = 0

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ConfigurationError("transaction needs at least one address")
        if self.payload_bytes < 0:
            raise ConfigurationError("negative payload")
        first = self.addresses[0]
        for address in self.addresses:
            if address.chip != first.chip or address.die != first.die:
                raise ConfigurationError(
                    "all addresses of a transaction must target one die"
                )

    @property
    def primary(self) -> PhysicalPageAddress:
        return self.addresses[0]

    @property
    def chip(self) -> ChipAddress:
        return self.primary.chip

    @property
    def plane_count(self) -> int:
        return len(self.addresses)

    @property
    def is_multi_plane(self) -> bool:
        return len(self.addresses) > 1

    @property
    def latency_ns(self) -> Optional[int]:
        if self.issued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        a = self.primary
        return (
            f"Txn({self.kind.value}, "
            f"chip=({a.chip.channel},{a.chip.way}), planes={self.plane_count}, "
            f"src={self.source.value})"
        )
