"""The FTL orchestrator: address translation and transaction generation.

Responsibilities (paper §2.2): logical-to-physical mapping with out-of-place
writes, garbage collection, and wear leveling.  The FTL turns host I/O
requests (LBA ranges) into per-page flash transactions; the SSD device layer
services them over the communication fabric.  The paper's FTL also caches
data pages in DRAM; this model has no data cache, because the evaluation
measures fabric behaviour and a cache in front would absorb part of the
traffic the figures characterise.  Every host page reaches the flash array.

Reads to never-written logical pages are *implicitly preconditioned*: the
page is materialised at a striped physical location with zero simulated
cost, exactly as if a fill pass had run before the trace.  Real traces read
data written before the capture window began; without this, read-only traces
would read nothing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config.ssd_config import SsdConfig
from repro.controller.transaction import (
    FlashTransaction,
    TransactionKind,
    TransactionSource,
)
from repro.errors import GarbageCollectionError, MappingError
from repro.ftl.allocator import AllocationStrategy, PageAllocator
from repro.ftl.mapping import MappingTable
from repro.nand.address import PhysicalPageAddress
from repro.nand.array import FlashArray
from repro.nand.chip import PageState
from repro.sim.rng import DeterministicRng


class Ftl:
    """Page-level FTL with dynamic CWDP allocation."""

    CLUSTER_BYTES = 1 << 20  # logical extent kept on one channel (see below)

    def __init__(
        self,
        config: SsdConfig,
        array: FlashArray,
        *,
        strategy: AllocationStrategy = AllocationStrategy.CWDP,
    ) -> None:
        self.config = config
        self.array = array
        self.geometry = config.geometry
        usable = int(self.geometry.total_pages * (1.0 - config.over_provisioning))
        self.mapping = MappingTable(max(1, usable))
        self.allocator = PageAllocator(array, strategy=strategy, seed=config.seed)
        self.cluster_pages = max(1, self.CLUSTER_BYTES // self.geometry.page_size)
        self._planes_per_chip = (
            self.geometry.dies_per_chip * self.geometry.planes_per_die
        )
        self._pages_per_plane = self.geometry.pages_per_plane
        self.host_writes = 0
        self.implicit_preconditions = 0

    # ------------------------------------------------------------------ #
    # logical address helpers
    # ------------------------------------------------------------------ #

    @property
    def logical_pages(self) -> int:
        """Host-visible logical page count (physical minus over-provisioning)."""
        return self.mapping.total_logical_pages

    def lpns_for(self, byte_offset: int, size_bytes: int) -> List[int]:
        """Logical pages touched by a [offset, offset+size) byte range."""
        if size_bytes <= 0:
            raise MappingError(f"request size must be positive: {size_bytes}")
        page_size = self.geometry.page_size
        first = byte_offset // page_size
        last = (byte_offset + size_bytes - 1) // page_size
        return [lpn % self.logical_pages for lpn in range(first, last + 1)]

    # ------------------------------------------------------------------ #
    # translation
    # ------------------------------------------------------------------ #

    def _home_plane(self, lpn: int) -> int:
        """Flat plane an unwritten LPN is materialised on.

        Placement follows the CWDP priority order at extent granularity:
        each ``CLUSTER_BYTES`` logical extent lives on one channel, striped
        page-by-page across that channel's ways.  This mirrors how a
        sequential fill pass lays data out under CWDP and is what makes a
        spatially-local read burst hit *different chips of the same
        channel* -- the canonical path-conflict pattern of Figure 3.
        """
        ways = self.geometry.chips_per_channel
        planes_per_chip = self._planes_per_chip
        channel = (lpn // self.cluster_pages) % self.geometry.channels
        chip_flat = channel * ways + lpn % ways
        return chip_flat * planes_per_chip + (lpn // ways) % planes_per_chip

    def _materialise(self, lpn: int) -> int:
        """Implicit preconditioning: back an unread LPN with a real page.

        The page lands on the LPN's home plane (:meth:`_home_plane`), or
        anywhere in striping order when that plane is full.
        """
        try:
            address = self.allocator.allocate_in_plane(self._home_plane(lpn))
        except GarbageCollectionError:
            address = self.allocator.allocate()
        self.array.block_for(address).program_page(address.page)
        ppn = address.page_flat_index(self.geometry)
        self.mapping.map_page(lpn, ppn)
        self.implicit_preconditions += 1
        return ppn

    def _invalidate(self, ppn: int) -> None:
        """Mark the physical page at flat page number ``ppn`` stale."""
        plane_flat, offset = divmod(ppn, self._pages_per_plane)
        block, page = divmod(offset, self.geometry.pages_per_block)
        self.allocator.plane(plane_flat).blocks[block].invalidate_page(page)

    def _ppn(self, plane_flat: int, block: int, page: int) -> int:
        """Flat physical page number of (plane, block, page)."""
        return (
            plane_flat * self._pages_per_plane
            + block * self.geometry.pages_per_block
            + page
        )

    def translate_read(self, byte_offset: int, size_bytes: int) -> List[FlashTransaction]:
        """Host read -> one READ transaction per logical page."""
        transactions: List[FlashTransaction] = []
        page_size = self.geometry.page_size
        for lpn in self.lpns_for(byte_offset, size_bytes):
            ppn = self.mapping.lookup(lpn)
            if ppn is None:
                ppn = self._materialise(lpn)
            address = PhysicalPageAddress.from_page_flat(ppn, self.geometry)
            transactions.append(
                FlashTransaction(
                    kind=TransactionKind.READ,
                    addresses=[address],
                    payload_bytes=page_size,
                    source=TransactionSource.HOST,
                )
            )
        return transactions

    def translate_write(self, byte_offset: int, size_bytes: int) -> List[FlashTransaction]:
        """Host write -> PROGRAM transactions (out-of-place allocation).

        When a request spans several pages, the allocator tries to hand out
        same-offset plane pairs so a single multi-plane PROGRAM covers them
        (§2.1).
        """
        lpns = self.lpns_for(byte_offset, size_bytes)
        self.host_writes += len(lpns)
        transactions: List[FlashTransaction] = []
        page_size = self.geometry.page_size
        index = 0
        planes_per_die = self.geometry.planes_per_die
        while index < len(lpns):
            want = min(len(lpns) - index, planes_per_die)
            if want > 1:
                addresses = self.allocator.allocate_multi_plane(want)
            else:
                addresses = [self.allocator.allocate()]
            group = lpns[index : index + len(addresses)]
            for lpn, address in zip(group, addresses):
                ppn = address.page_flat_index(self.geometry)
                old_ppn = self.mapping.map_page(lpn, ppn)
                if old_ppn is not None:
                    self._invalidate(old_ppn)
            transactions.append(
                FlashTransaction(
                    kind=TransactionKind.PROGRAM,
                    addresses=addresses,
                    payload_bytes=page_size * len(addresses),
                    source=TransactionSource.HOST,
                )
            )
            index += len(addresses)
        return transactions

    # ------------------------------------------------------------------ #
    # maintenance hooks
    # ------------------------------------------------------------------ #

    def planes_touched_by(self, transactions: List[FlashTransaction]) -> List[int]:
        """Flat plane indices written by a transaction batch (GC triggers)."""
        planes = set()
        for transaction in transactions:
            if transaction.kind is not TransactionKind.PROGRAM:
                continue
            for address in transaction.addresses:
                planes.add(address.plane_flat_index(self.geometry))
        return sorted(planes)

    def precondition(self, fill_fraction: float) -> int:
        """Fill a fraction of the logical space with valid data, timing-free.

        Returns the number of pages written.  Used before write-heavy runs
        so garbage collection behaves as on an aged device.  Each unmapped
        LPN is materialised on its home plane, in LPN order; on a fresh
        device that layout is written in one pass (:meth:`_fill_fresh`).
        """
        if not 0.0 <= fill_fraction <= 1.0:
            raise MappingError(f"fill fraction out of [0,1]: {fill_fraction}")
        target = int(self.logical_pages * fill_fraction)
        if (not self.mapping.mapped_count and self.allocator.is_fresh()
                and self._fill_fresh(target)):
            return target
        written = 0
        for lpn in range(target):
            if self.mapping.is_mapped(lpn):
                continue
            self._materialise(lpn)
            written += 1
        return written

    def _fill_fresh(self, target: int) -> bool:
        """Materialise LPNs ``[0, target)`` on a fresh device in one pass.

        On an empty mapping and a fresh array every LPN goes to its home
        plane, and each plane fills blocks 0, 1, ... in order.  So the
        ``k``-th LPN a plane receives lands on the plane's ``k``-th page,
        and the blocks, cursors and mapping can be written directly, with
        the counters :meth:`_materialise` would have left.  Returns False,
        having changed nothing, when some plane would receive more pages
        than it holds (the per-page path then spills them over).
        """
        pages_per_plane = self._pages_per_plane
        counts = [0] * self.allocator.plane_count()
        ppns = []
        for plane_flat in map(self._home_plane, range(target)):
            ppns.append(plane_flat * pages_per_plane + counts[plane_flat])
            counts[plane_flat] += 1
        if max(counts) > pages_per_plane:
            return False
        self.allocator.fill_fresh(counts)
        self.mapping.load(range(target), ppns)
        self.mapping.updates += target
        self.implicit_preconditions += target
        return True

    def churn(self, churn_fraction: float, seed: Optional[int] = None) -> int:
        """Overwrite a fraction of the mapped logical pages, timing-free.

        The sustained-write aging stage: a deterministic shuffle of the
        mapped LPNs picks ``churn_fraction`` of them for out-of-place
        rewrite, which spreads invalid pages across closed blocks exactly
        as a long random-write history would -- the state garbage
        collection needs to have victims.  When free space runs low the
        rewrite loop compacts synchronously (:meth:`_compact_timing_free`),
        so a high-fill churn converges to GC steady state instead of
        deadlocking on a fully-allocated array.  Returns the number of
        pages rewritten.
        """
        if not 0.0 <= churn_fraction <= 1.0:
            raise MappingError(
                f"churn fraction out of [0,1]: {churn_fraction}"
            )
        lpns = sorted(lpn for lpn, _ in self.mapping.items())
        target = int(len(lpns) * churn_fraction)
        if target == 0:
            return 0
        rng = DeterministicRng(
            self.config.seed if seed is None else seed, stream="churn"
        )
        rng.shuffle(lpns)
        geometry = self.geometry
        # Keep enough free pages that a compaction victim's valid pages
        # always fit somewhere; recomputed only after compaction because a
        # rewrite consumes exactly one free page.
        slack = 2 * geometry.pages_per_block
        free = round(self.allocator.free_page_fraction() * geometry.total_pages)
        written = 0
        for lpn in lpns[:target]:
            if free < slack:
                while free < slack and self._compact_timing_free():
                    free = round(
                        self.allocator.free_page_fraction()
                        * geometry.total_pages
                    )
            self._rewrite_timing_free(lpn)
            free -= 1
            written += 1
        # Leave the device GC-safe: keep compacting until every plane
        # retains its erased-block reserve (or no further progress is
        # possible), so measured-phase garbage collection always has a
        # migration target -- without this, a high-fill churn can strand
        # the array with zero erased blocks and deadlock forced GC.
        reserve = self.allocator.gc_reserved_blocks
        while any(
            self.allocator.erased_block_count(plane_flat) < reserve
            for plane_flat in range(self.allocator.plane_count())
        ):
            if not self._compact_timing_free():
                break
        return written

    def _rewrite_timing_free(self, lpn: int) -> None:
        """Out-of-place rewrite of one mapped LPN with zero simulated cost."""
        try:
            cursor, block, page = self.allocator._reserve()
        except GarbageCollectionError:
            if not self._compact_timing_free():
                raise
            cursor, block, page = self.allocator._reserve()
        cursor.plane.blocks[block].program_page(page)
        old_ppn = self.mapping.map_page(
            lpn, self._ppn(cursor.plane_flat, block, page)
        )
        if old_ppn is not None:
            self._invalidate(old_ppn)

    def _compact_timing_free(self) -> int:
        """One synchronous compaction pass over all planes, timing-free.

        The churn-stage analogue of :class:`~repro.ftl.gc.GarbageCollector`:
        per plane, pick the closed block with the fewest valid pages (ties
        to lower erase count), migrate its valid pages (same plane first,
        any plane as fallback -- GC-path allocations may dip into the
        erased-block reserve), and erase it.  Returns the number of blocks
        reclaimed; zero means every closed block is fully valid and no
        space can be recovered.
        """
        allocator = self.allocator
        reclaimed = 0
        for plane_flat in range(allocator.plane_count()):
            plane = allocator.plane(plane_flat)
            open_block = allocator.open_block_of(plane_flat)
            victim_index = None
            victim_key = None
            for index, block in enumerate(plane.blocks):
                if index == open_block or block.is_erased:
                    continue
                if block.valid_count == block.pages_per_block:
                    continue  # nothing to reclaim
                key = (block.valid_count, block.erase_count)
                if victim_key is None or key < victim_key:
                    victim_index, victim_key = index, key
            if victim_index is None:
                continue
            victim = plane.block(victim_index)
            victim_ppn = self._ppn(plane_flat, victim_index, 0)
            migrated_all = True
            for page in range(victim.write_pointer):
                if victim.read_page(page) is not PageState.VALID:
                    continue
                target = allocator._reserve_in_plane(
                    plane_flat
                ) or self._reserve_anywhere_timing_free(plane_flat)
                if target is None:
                    migrated_all = False
                    break
                cursor, block, target_page = target
                cursor.plane.blocks[block].program_page(target_page)
                self.mapping.remap_physical(
                    victim_ppn + page,
                    self._ppn(cursor.plane_flat, block, target_page),
                )
                victim.invalidate_page(page)
            if migrated_all and victim.valid_count == 0:
                victim.erase()
                reclaimed += 1
        return reclaimed

    def _reserve_anywhere_timing_free(self, skip_plane: int):
        """GC-path reservation in any plane but ``skip_plane`` (or None)."""
        for plane_flat in range(self.allocator.plane_count()):
            if plane_flat != skip_plane:
                reserved = self.allocator._reserve_in_plane(plane_flat)
                if reserved is not None:
                    return reserved
        return None

    def assert_consistent(self) -> None:
        """Cross-check mapping and NAND state (used by property tests)."""
        self.mapping.assert_bijective()
        live = self.array.total_valid_pages()
        mapped = self.mapping.mapped_count
        if live != mapped:
            raise MappingError(
                f"NAND holds {live} valid pages but mapping tracks {mapped}"
            )
