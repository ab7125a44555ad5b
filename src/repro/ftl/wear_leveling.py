"""Wear leveling (paper §2.2).

Flash blocks endure a limited number of program/erase cycles, so the FTL
"distributes the writes evenly across all the flash blocks".  Two mechanisms
cooperate here:

* *dynamic* leveling is already built into the allocator and the GC victim
  policy (both prefer low-erase-count blocks),
* *static* leveling, implemented by :class:`WearLeveler`, watches the spread
  between the most- and least-worn blocks and, when it exceeds a threshold,
  schedules a swap: the coldest data (a block full of valid pages that has
  not been erased in a long time) is migrated onto the most-worn block's
  plane so the low-wear block re-enters circulation.

The leveler emits the same internal transactions as GC, so its traffic also
contends on the communication fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.controller.pipeline import TransactionPipeline
from repro.controller.transaction import (
    FlashTransaction,
    TransactionKind,
    TransactionSource,
)
from repro.errors import GarbageCollectionError
from repro.ftl.allocator import PageAllocator
from repro.ftl.mapping import MappingTable
from repro.nand.array import FlashArray
from repro.nand.chip import PageState
from repro.sim.engine import Engine


@dataclass
class WearStats:
    """Erase-count distribution snapshot."""

    minimum: int
    maximum: int
    mean: float

    @property
    def spread(self) -> int:
        """Erase-count gap between the most- and least-worn blocks."""
        return self.maximum - self.minimum


class WearLeveler:
    """Static wear leveling via cold-block migration."""

    #: Erase-count spread above which a leveling pass starts.
    SPREAD_THRESHOLD = 8

    def __init__(
        self,
        engine: Engine,
        array: FlashArray,
        mapping: MappingTable,
        allocator: PageAllocator,
        pipeline: TransactionPipeline,
        *,
        enabled: bool = True,
    ) -> None:
        self.engine = engine
        self.array = array
        self.mapping = mapping
        self.allocator = allocator
        self.pipeline = pipeline
        self.enabled = enabled
        self.migrations = 0
        self.swaps_triggered = 0
        self._active = False

    # ------------------------------------------------------------------ #

    def wear_stats(self) -> WearStats:
        """Snapshot the erase-count distribution across every block."""
        counts: List[int] = [
            block.erase_count
            for _, _, plane in self.array.iter_planes()
            for block in plane.blocks
        ]
        if not counts:
            return WearStats(0, 0, 0.0)
        return WearStats(min(counts), max(counts), sum(counts) / len(counts))

    def needs_leveling(self) -> bool:
        """Whether the wear spread exceeds the leveling threshold."""
        return self.enabled and self.wear_stats().spread > self.SPREAD_THRESHOLD

    def maybe_trigger(self) -> bool:
        """Start one leveling pass if needed and none is already running."""
        if self._active or not self.needs_leveling():
            return False
        self._active = True
        self.engine.process(self._level(), name="wear-leveler")
        return True

    # ------------------------------------------------------------------ #

    def _find_cold_block(self) -> Optional[Tuple[int, int]]:
        """(plane_flat, block_index) of the coldest fully-valid block."""
        best: Optional[Tuple[int, int]] = None
        best_erases: Optional[int] = None
        for plane_flat in range(self.allocator.plane_count()):
            for index, block in enumerate(self.allocator.plane(plane_flat).blocks):
                if block.valid_count != block.pages_per_block:
                    continue  # only fully-valid (cold, never rewritten) blocks
                if best_erases is None or block.erase_count < best_erases:
                    best = (plane_flat, index)
                    best_erases = block.erase_count
        return best

    def _level(self) -> Generator:
        """Migrate one cold block so its low-wear block becomes writable."""
        self.swaps_triggered += 1
        try:
            cold = self._find_cold_block()
            if cold is None:
                return
            plane_flat, block_index = cold
            geometry = self.array.geometry
            block = self.allocator.plane(plane_flat).block(block_index)

            for page in range(block.write_pointer):
                if block.page_states[page] is not PageState.VALID:
                    continue
                source = self.allocator.address_of(plane_flat, block_index, page)
                read = FlashTransaction(
                    kind=TransactionKind.READ,
                    addresses=[source],
                    payload_bytes=geometry.page_size,
                    source=TransactionSource.WEAR,
                )
                yield from self.pipeline.service(read)
                try:
                    target = self.allocator.allocate()
                except GarbageCollectionError:
                    return  # device too full to level right now
                program = FlashTransaction(
                    kind=TransactionKind.PROGRAM,
                    addresses=[target],
                    payload_bytes=geometry.page_size,
                    source=TransactionSource.WEAR,
                )
                yield from self.pipeline.service(program)
                self.mapping.remap_physical(
                    source.page_flat_index(geometry),
                    target.page_flat_index(geometry),
                )
                self.array.block_for(source).invalidate_page(page)
                self.migrations += 1

            erase = FlashTransaction(
                kind=TransactionKind.ERASE,
                addresses=[self.allocator.address_of(plane_flat, block_index, 0)],
                payload_bytes=0,
                source=TransactionSource.WEAR,
            )
            yield from self.pipeline.service(erase)
        finally:
            self._active = False
