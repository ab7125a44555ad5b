"""Garbage collection (paper §2.2, §8).

The collector follows the four GC steps the paper lists: (1) choose the
victim block with the fewest valid pages, (2) copy its valid pages to fresh
locations, (3) update the logical-to-physical mapping of the moved pages,
and (4) erase the victim.

Valid-page migration generates *internal* read/program transactions that
travel the same communication fabric as host traffic -- the GC interference
the §8 discussion says Venice's path diversity helps schedule around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Tuple

from repro.config.ssd_config import SsdConfig
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
class GcPolicy:
    """When GC starts and stops, per plane."""

    threshold_free_fraction: float = 0.05
    stop_free_fraction: float = 0.08
    max_blocks_per_invocation: int = 4

    def needs_gc(self, free_fraction: float) -> bool:
        """Whether a plane's free fraction fell below the start watermark."""
        return free_fraction < self.threshold_free_fraction

    def should_stop(self, free_fraction: float) -> bool:
        """Whether a plane recovered past the stop watermark."""
        return free_fraction >= self.stop_free_fraction


class GarbageCollector:
    """Greedy (fewest-valid-pages) victim selection with per-plane scope."""

    def __init__(
        self,
        engine: Engine,
        config: SsdConfig,
        array: FlashArray,
        mapping: MappingTable,
        allocator: PageAllocator,
        pipeline: TransactionPipeline,
    ) -> None:
        self.engine = engine
        self.config = config
        self.array = array
        self.mapping = mapping
        self.allocator = allocator
        self.pipeline = pipeline
        self.policy = GcPolicy(
            threshold_free_fraction=config.gc_threshold_free_fraction,
            stop_free_fraction=config.gc_stop_free_fraction,
        )
        self._active_planes: set = set()
        self.invocations = 0
        self.blocks_reclaimed = 0
        self.pages_migrated = 0
        self.pages_written = 0
        self.erases_issued = 0

    # ------------------------------------------------------------------ #

    def select_victim(self, plane_flat: int) -> Optional[int]:
        """Greedy victim: fully-written block with the fewest valid pages.

        Ties break toward the lower erase count so GC pressure spreads wear.
        Returns None when no closed block exists (nothing reclaimable).
        The scan walks the plane's built blocks only: an unbuilt block is
        erased, which the loop skips anyway.
        """
        plane = self.allocator.plane(plane_flat)
        open_block = self.allocator.open_block_of(plane_flat)
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for index, block in enumerate(plane.blocks):
            if index == open_block or block.is_erased:
                continue
            if block.pending_programs > 0:
                continue  # in-flight programs: erasing now would corrupt them
            if block.valid_count == block.pages_per_block:
                continue  # nothing to reclaim
            key = (block.valid_count, block.erase_count)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def maybe_trigger(self, plane_flat: int, force: bool = False) -> bool:
        """Spawn a GC process for a plane if it crossed the threshold.

        ``force`` skips the watermark check; the device uses it when a host
        write stalls on allocation (the write cliff) and space must be
        reclaimed regardless of per-plane free fractions.
        """
        if plane_flat in self._active_planes:
            return False
        if not force:
            free = self.allocator.free_page_fraction(plane_flat)
            if not self.policy.needs_gc(free):
                return False
        self._active_planes.add(plane_flat)
        self.engine.process(self._collect(plane_flat), name=f"gc-plane{plane_flat}")
        return True

    # ------------------------------------------------------------------ #

    def _allocate_anywhere_for_gc(self):
        """Fallback migration target: any plane, reserve blocks allowed."""
        for plane_flat in range(self.allocator.plane_count()):
            try:
                return self.allocator.allocate_in_plane(plane_flat, for_gc=True)
            except GarbageCollectionError:
                continue
        raise GarbageCollectionError("no migration target anywhere")

    def _collect(self, plane_flat: int) -> Generator:
        """GC loop for one plane; runs until the stop watermark is reached."""
        self.invocations += 1
        try:
            blocks_done = 0
            while blocks_done < self.policy.max_blocks_per_invocation:
                free = self.allocator.free_page_fraction(plane_flat)
                if blocks_done > 0 and self.policy.should_stop(free):
                    break
                victim = self.select_victim(plane_flat)
                if victim is None:
                    break
                try:
                    yield from self._reclaim_block(plane_flat, victim)
                except GarbageCollectionError:
                    # No migration target anywhere: abandon this pass
                    # instead of crashing the engine mid-process.  The
                    # host-side stall loop keeps forcing GC and, if space
                    # genuinely cannot be reclaimed, surfaces the error
                    # cleanly after its bounded retries.
                    break
                blocks_done += 1
                self.blocks_reclaimed += 1
        finally:
            self._active_planes.discard(plane_flat)

    def _reclaim_block(self, plane_flat: int, victim_block: int) -> Generator:
        """Steps 2-4 of the paper's GC description for one victim block."""
        block = self.allocator.plane(plane_flat).block(victim_block)
        geometry = self.array.geometry
        page_size = geometry.page_size

        valid_pages = [
            self.allocator.address_of(plane_flat, victim_block, page)
            for page in range(block.write_pointer)
            if block.page_states[page] is PageState.VALID
        ]

        # (2) + (3): copy each valid page and repoint its mapping.
        for source_address in valid_pages:
            if block.page_states[source_address.page] is not PageState.VALID:
                continue  # overwritten by the host since the scan
            read = FlashTransaction(
                kind=TransactionKind.READ,
                addresses=[source_address],
                payload_bytes=page_size,
                source=TransactionSource.GC,
            )
            yield from self.pipeline.service(read)

            # Prefer migrating within the same plane (no cross-chip hop);
            # fall back to anywhere if the plane is exhausted.
            try:
                target = self.allocator.allocate_in_plane(plane_flat)
            except GarbageCollectionError:
                target = self._allocate_anywhere_for_gc()

            program = FlashTransaction(
                kind=TransactionKind.PROGRAM,
                addresses=[target],
                payload_bytes=page_size,
                source=TransactionSource.GC,
            )
            yield from self.pipeline.service(program)
            # Every GC program is internal write traffic, even a copy that
            # turns out stale below -- write amplification counts the cells
            # programmed, not the pages that stayed live.
            self.pages_written += 1

            old_ppn = source_address.page_flat_index(geometry)
            new_ppn = target.page_flat_index(geometry)
            if self.mapping.reverse_lookup(old_ppn) is None:
                # The host overwrote the logical page while its old copy was
                # mid-migration; our freshly programmed copy is garbage.
                self.array.block_for(target).invalidate_page(target.page)
            else:
                self.mapping.remap_physical(old_ppn, new_ppn)
                self.array.block_for(source_address).invalidate_page(
                    source_address.page
                )
                self.pages_migrated += 1

        if block.valid_count > 0:
            # Pages turned valid-relevant again under concurrent traffic;
            # leave the block for a later GC pass rather than looping here.
            return

        # (4): erase the victim so the allocator can reuse it.
        erase = FlashTransaction(
            kind=TransactionKind.ERASE,
            addresses=[self.allocator.address_of(plane_flat, victim_block, 0)],
            payload_bytes=0,
            source=TransactionSource.GC,
        )
        yield from self.pipeline.service(erase)
        self.erases_issued += 1
