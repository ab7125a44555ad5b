"""Dynamic page allocation across the flash array.

The allocator decides *where* each new page lands, which determines how much
chip-level parallelism a workload can exploit (§7 "Exploiting Flash Array
Parallelism").  The default strategy is the CWDP order MQSim uses: stripe
consecutive allocations across Channels, then Ways, then Dies, then Planes,
so sequential writes fan out over the whole array.

Each plane keeps one *open block*; allocations within the plane fill that
block page by page (NAND requires in-order programming within a block) and a
fresh block is opened when it fills.  Blocks are recycled by the garbage
collector through erases in the NAND model; each plane counts its own erased
blocks (:attr:`~repro.nand.chip.FlashPlane.erased_blocks`), so the allocator
decides "nothing to open here" without scanning and walks a plane's blocks
only to pick the one it opens.

Planes build their blocks on first touch, and the scan walks only the built
ones.  Every unbuilt block is erased with erase count 0 and lies past every
built index, so the first unbuilt block stands for all of them: it is
opened, and only then built, exactly when no built erased block has erase
count 0 -- the block a scan over every block would pick.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.ssd_config import NandGeometry
from repro.errors import GarbageCollectionError, MappingError
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.nand.array import FlashArray
from repro.nand.chip import FlashPlane, PageState
from repro.sim.rng import DeterministicRng


class AllocationStrategy(enum.Enum):
    """Striping orders studied by prior page-allocation work [39, 14]."""

    CWDP = "cwdp"  # channel -> way -> die -> plane (MQSim default)
    WCDP = "wcdp"  # way -> channel -> die -> plane
    RANDOM = "random"  # uniform random plane choice


class _PlaneCursor:
    """Open-block write cursor of one plane.

    The cursor's position in the array is fixed, so its address components
    (chip, die index, plane index) are resolved once at construction -- the
    allocation hot path only fills in block and page.
    """

    __slots__ = ("plane", "open_block", "plane_flat", "chip", "die", "plane_index")

    def __init__(
        self, plane: FlashPlane, plane_flat: int, geometry: NandGeometry
    ) -> None:
        self.plane = plane
        self.open_block: Optional[int] = None
        self.plane_flat = plane_flat
        die_flat, self.plane_index = divmod(plane_flat, geometry.planes_per_die)
        chip_flat, self.die = divmod(die_flat, geometry.dies_per_chip)
        self.chip = ChipAddress.from_flat(chip_flat, geometry)


class PageAllocator:
    """Round-robin (or random) plane selection with per-plane open blocks."""

    def __init__(
        self,
        array: FlashArray,
        strategy: AllocationStrategy = AllocationStrategy.CWDP,
        seed: int = 42,
        gc_reserved_blocks: int = 1,
    ) -> None:
        self.array = array
        self.geometry: NandGeometry = array.geometry
        self.strategy = strategy
        self._rng = DeterministicRng(seed, stream="allocator")
        self.gc_reserved_blocks = max(0, gc_reserved_blocks)
        self._cursors: List[_PlaneCursor] = []
        self._plane_order: List[int] = []
        self._next_plane = 0
        self.allocations = 0
        self._build_cursors()

    # ------------------------------------------------------------------ #

    def _build_cursors(self) -> None:
        geometry = self.geometry
        by_flat: Dict[int, _PlaneCursor] = {}
        for chip in self.array.chips:
            for die in chip.dies:
                for plane in die.planes:
                    flat = (
                        (chip.flat_index * geometry.dies_per_chip + die.index)
                        * geometry.planes_per_die
                        + plane.index
                    )
                    by_flat[flat] = _PlaneCursor(plane, flat, geometry)
        self._cursors = [by_flat[flat] for flat in sorted(by_flat)]
        self._plane_order = self._striping_order()
        # Cursor groups per die, for multi-plane probing (fixed geometry).
        planes_per_die = geometry.planes_per_die
        self._die_groups: List[Tuple[_PlaneCursor, ...]] = [
            tuple(self._cursors[start : start + planes_per_die])
            for start in range(0, len(self._cursors), planes_per_die)
        ]

    def _striping_order(self) -> List[int]:
        """Flat plane indices in the strategy's striping order.

        CWDP is the priority order Channel > Way > Die > Plane: a logically
        contiguous range first fills the ways of one channel (way varies
        fastest), then moves to the next channel.  Contiguous hot ranges
        therefore cluster on a channel -- which is precisely the path
        conflict the paper studies: concurrent requests hitting *different
        chips of the same channel* serialise on the shared bus (Figure 3)
        while chip-level parallelism goes unused.  WCDP inverts the first
        two levels (channel varies fastest), spreading contiguous ranges
        across channels; it is provided for the allocation-strategy
        ablation (prior work [39, 14] studies exactly this trade-off).
        """
        geometry = self.geometry
        order: List[int] = []
        if self.strategy is AllocationStrategy.WCDP:
            for plane in range(geometry.planes_per_die):
                for die in range(geometry.dies_per_chip):
                    for way in range(geometry.chips_per_channel):
                        for channel in range(geometry.channels):
                            chip_flat = ChipAddress(channel, way).flat_index(geometry)
                            order.append(
                                (chip_flat * geometry.dies_per_chip + die)
                                * geometry.planes_per_die
                                + plane
                            )
            return order
        # CWDP (also the base order RANDOM samples from)
        for plane in range(geometry.planes_per_die):
            for die in range(geometry.dies_per_chip):
                for channel in range(geometry.channels):
                    for way in range(geometry.chips_per_channel):
                        chip_flat = ChipAddress(channel, way).flat_index(geometry)
                        order.append(
                            (chip_flat * geometry.dies_per_chip + die)
                            * geometry.planes_per_die
                            + plane
                        )
        return order

    # ------------------------------------------------------------------ #

    def _open_block(
        self, cursor: _PlaneCursor, for_gc: bool = False
    ) -> Optional[int]:
        """Current or fresh open block of a plane; None if plane exhausted.

        ``gc_reserved_blocks`` erased blocks per plane are withheld from
        host allocations so garbage collection always has somewhere to
        migrate valid pages -- without the reserve, a full device deadlocks
        (GC needs free pages to free pages).
        """
        plane = cursor.plane
        if cursor.open_block is not None:
            if not plane.blocks[cursor.open_block].is_full:
                return cursor.open_block
            cursor.open_block = None
        erased = plane.erased_blocks
        if not erased or (not for_gc and erased <= self.gc_reserved_blocks):
            return None  # nothing erased, or only the GC reserve remains
        # Open the erased block with the lowest erase count, ties to the
        # lower index (cheap static wear leveling; see
        # repro.ftl.wear_leveling for the active policy).  The scan reads
        # the allocation pointer rather than the is_erased property: one
        # call fewer per block on the allocator's hottest loop.
        blocks = plane.blocks
        best = min(
            (
                (block.erase_count, index)
                for index, block in enumerate(blocks)
                if not block.allocation_pointer
            ),
            default=None,
        )
        built = len(blocks)
        if built < plane.block_count and (best is None or (0, built) < best):
            # The first unbuilt block (erase count 0, past every built
            # index) wins: build it.
            plane.block(built)
            best = (0, built)
        _, cursor.open_block = best
        return cursor.open_block

    def _reserve(self) -> Tuple[_PlaneCursor, int, int]:
        """Reserve the next free page in striping order.

        Returns ``(cursor, block, page)``.  This is the plane choice behind
        :meth:`allocate`; the timing-free churn
        (:meth:`repro.ftl.ftl.Ftl.churn`) calls it directly and works on
        flat page numbers, so it never builds an address.
        """
        attempts = 0
        total = len(self._cursors)
        while attempts < total:
            if self.strategy is AllocationStrategy.RANDOM:
                position = self._rng.randint(0, total - 1)
            else:
                position = self._next_plane
                self._next_plane = (self._next_plane + 1) % total
            cursor = self._cursors[self._plane_order[position]]
            block_index = self._open_block(cursor)
            attempts += 1
            if block_index is not None:
                self.allocations += 1
                page = cursor.plane.blocks[block_index].reserve_next_page()
                return cursor, block_index, page
        raise GarbageCollectionError(
            "no free page anywhere: garbage collection cannot keep up "
            "(device written beyond its over-provisioned capacity)"
        )

    def _reserve_in_plane(
        self, plane_flat: int, for_gc: bool = True
    ) -> Optional[Tuple[_PlaneCursor, int, int]]:
        """Reserve the next free page of one plane: ``(cursor, block, page)``,
        or None when the plane has none.

        The core of :meth:`allocate_in_plane`, used directly by churn
        compaction, which tries plane after plane and so learns of a full
        one without an exception.
        """
        if not 0 <= plane_flat < len(self._cursors):
            raise MappingError(f"plane index {plane_flat} out of range")
        cursor = self._cursors[plane_flat]
        block_index = self._open_block(cursor, for_gc=for_gc)
        if block_index is None:
            return None
        self.allocations += 1
        page = cursor.plane.blocks[block_index].reserve_next_page()
        return cursor, block_index, page

    @staticmethod
    def _address(
        cursor: _PlaneCursor, block: int, page: int
    ) -> PhysicalPageAddress:
        return PhysicalPageAddress(
            chip=cursor.chip,
            die=cursor.die,
            plane=cursor.plane_index,
            block=block,
            page=page,
        )

    def allocate(self) -> PhysicalPageAddress:
        """Next physical page address in striping order.

        The returned page is *not* yet programmed -- the caller issues the
        PROGRAM transaction (or marks state directly when preconditioning).
        """
        return self._address(*self._reserve())

    def allocate_in_plane(
        self, plane_flat: int, for_gc: bool = True
    ) -> PhysicalPageAddress:
        """Allocate specifically in one plane (GC migrates within a plane
        by default to avoid cross-chip traffic during collection).

        GC-path allocations may dip into the reserved erased blocks.
        """
        reserved = self._reserve_in_plane(plane_flat, for_gc)
        if reserved is None:
            raise GarbageCollectionError(f"plane {plane_flat} has no free page")
        return self._address(*reserved)

    def allocate_multi_plane(self, count: int) -> List[PhysicalPageAddress]:
        """Allocate ``count`` same-offset pages across planes of one die.

        Enables multi-plane programs (§2.1).  Falls back to fewer addresses
        (possibly one) when no die has enough aligned free planes; callers
        must check the returned length.
        """
        if count < 1:
            raise MappingError("multi-plane count must be >= 1")
        count = min(count, self.geometry.planes_per_die)
        total = len(self._cursors)
        planes_per_die = self.geometry.planes_per_die
        start_die = (self._next_plane // planes_per_die) if planes_per_die else 0
        die_count = total // planes_per_die
        for offset in range(die_count):
            die_flat = (start_die + offset) % die_count
            cursors = self._die_groups[die_flat][:count]
            # Compare the planes' next (block, page) offsets; addresses are
            # built only for the die taken.
            offsets = set()
            for cursor in cursors:
                block_index = self._open_block(cursor)
                if block_index is None:
                    break
                block = cursor.plane.blocks[block_index]
                offsets.add((block_index, block.allocation_pointer))
            else:
                if len(offsets) == 1:
                    # Each cursor is a distinct plane whose open block was
                    # just checked, so every take lands on the shared offset.
                    ((block_index, _),) = offsets
                    addresses = [
                        self._address(
                            cursor,
                            block_index,
                            cursor.plane.blocks[block_index].reserve_next_page(),
                        )
                        for cursor in cursors
                    ]
                    self._next_plane = ((die_flat + 1) * planes_per_die) % total
                    self.allocations += count
                    return addresses
        return [self.allocate()]

    def is_fresh(self) -> bool:
        """Whether nothing was allocated yet and no block was ever erased.

        That is: no counted allocation, no open block, and every block
        erased with erase count 0 -- the array as built.  Unbuilt blocks
        are all three by construction, so only built ones are checked.
        """
        return not self.allocations and all(
            cursor.open_block is None
            and cursor.plane.erased_blocks == cursor.plane.block_count
            and not any(block.erase_count for block in cursor.plane.blocks)
            for cursor in self._cursors
        )

    def fill_fresh(self, counts: Sequence[int]) -> None:
        """Write ``counts[p]`` valid pages into each plane ``p``, in one pass.

        On a fresh array (:meth:`is_fresh`) this leaves exactly the state
        that ``counts[p]`` calls of :meth:`allocate_in_plane` with a
        program of each page would: every erase count is 0, so the plane
        opens blocks 0, 1, ... in index order and fills each one before the
        next, and its open block is the last block it wrote.  No count may
        exceed the plane's page capacity.
        """
        pages_per_block = self.geometry.pages_per_block
        full_block = "v" * pages_per_block
        for cursor, count in zip(self._cursors, counts):
            if not count:
                continue
            last, tail = divmod(count - 1, pages_per_block)
            cursor.plane.block(last)  # builds every block it writes
            blocks = cursor.plane.blocks
            for block in blocks[:last]:
                block.restore(full_block, 0)
            blocks[last].restore("v" * (tail + 1), 0)
            cursor.open_block = last
        self.allocations += sum(counts)

    # ------------------------------------------------------------------ #

    def free_page_fraction(self, plane_flat: Optional[int] = None) -> float:
        """Free fraction of one plane (or the whole device)."""
        if plane_flat is None:
            total = sum(cursor.plane.total_pages for cursor in self._cursors)
            free = sum(cursor.plane.free_pages for cursor in self._cursors)
        else:
            plane = self._cursors[plane_flat].plane
            total, free = plane.total_pages, plane.free_pages
        return free / total if total else 0.0

    def plane_count(self) -> int:
        """Number of planes (flat plane indices run [0, plane_count))."""
        return len(self._cursors)

    def plane(self, plane_flat: int) -> FlashPlane:
        """The :class:`~repro.nand.chip.FlashPlane` at a flat plane index."""
        return self._cursors[plane_flat].plane

    def open_block_of(self, plane_flat: int) -> Optional[int]:
        """The plane's current open-block index (None when none is open)."""
        return self._cursors[plane_flat].open_block

    def erased_block_count(self, plane_flat: int) -> int:
        """How many of the plane's blocks are currently erased."""
        return self._cursors[plane_flat].plane.erased_blocks

    def address_of(
        self, plane_flat: int, block: int, page: int
    ) -> PhysicalPageAddress:
        """The full physical address of (plane, block, page).

        The chip/die/plane components are resolved from the plane's cursor,
        which fixed them at construction -- used by maintenance paths (GC,
        wear leveling) that walk planes by flat index.
        """
        return self._address(self._cursors[plane_flat], block, page)
