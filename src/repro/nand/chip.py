"""Flash chip / die / plane / block / page models.

Responsibilities:

* enforce the NAND protocol: erase-before-write, sequential page programming
  within a block, erase at block granularity only (§2.1),
* keep page states (free / valid / invalid) so the FTL and garbage collector
  operate on real structures, not abstractions,
* serialise die occupancy: a die executes one command at a time; planes of a
  die may operate together only as a multi-plane command at the same offset,
* account per-block program/erase cycles for the wear-leveling policy.

A plane builds each :class:`FlashBlock` the first time something touches
it: a block never built is pristine (erased, erase count 0, never
programmed), so a device costs O(planes) to construct however large its
geometry, and a run pays only for the blocks it opens.

Timing lives in the controller/fabric layers -- the chip exposes latencies
and a die ``Resource`` but never touches the event loop itself beyond that.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.config.ssd_config import NandGeometry, NandTimings
from repro.errors import NandProtocolError
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.sim.engine import Engine
from repro.sim.resources import Resource


class TransactionKind(enum.Enum):
    """The three NAND operations a flash transaction carries to its die."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class PageState(enum.Enum):
    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


class PageCounter:
    """A plane's counts of allocated pages and erased blocks, shared with
    its blocks.

    Blocks bump ``pages`` on every allocation-pointer move, so the GC
    watermark check is O(1) instead of a sum over all blocks on every
    completed write.  They keep ``erased_blocks`` right on their own
    erased <-> written transitions (first page handed out, erase of a
    written block, restore of a non-empty fill), so the allocator knows a
    plane is down to its GC reserve without scanning it.  Blocks hold this
    cell rather than their plane: a block -> plane back-reference would
    make every device's block graph cyclic garbage that only a full
    collection frees.
    """

    __slots__ = ("pages", "erased_blocks")

    def __init__(self, erased_blocks: int) -> None:
        self.pages = 0
        self.erased_blocks = erased_blocks


class FlashBlock:
    """A block: an erase unit holding ``pages_per_block`` pages.

    Two pointers track the block's fill state:

    * ``allocation_pointer`` -- pages handed out by the FTL allocator; the
      allocator reserves a page *before* the PROGRAM transaction travels the
      fabric, so concurrent in-flight writes never collide on one page,
    * ``programmed_count`` -- pages whose PROGRAM actually completed.

    NAND programs pages of a block in order.  The FTL reserves in order and
    issues in order; completion order across *different* blocks is free, and
    within a block the ordering check is enforced at reservation time.
    Direct (unreserved) programming auto-reserves and therefore must be
    strictly in-order, preserving the raw NAND protocol.
    """

    __slots__ = (
        "index",
        "pages_per_block",
        "page_states",
        "allocation_pointer",
        "programmed_count",
        "pending_programs",
        "erase_count",
        "valid_count",
        "_invalid_count",
        "_allocated",
    )

    def __init__(
        self,
        index: int,
        pages_per_block: int,
        allocated: Optional[PageCounter] = None,
    ) -> None:
        self.index = index
        self.pages_per_block = pages_per_block
        self.page_states: List[PageState] = [PageState.FREE] * pages_per_block
        self.allocation_pointer = 0  # next reservable page
        self.programmed_count = 0
        self.pending_programs = 0  # reserved but not yet programmed
        self.erase_count = 0
        self.valid_count = 0
        self._invalid_count = 0
        # The owning plane's counters (private ones for a standalone block,
        # which starts erased): every allocation-pointer move and every
        # erased <-> written transition is mirrored into them.
        self._allocated = (
            allocated if allocated is not None else PageCounter(erased_blocks=1)
        )

    @property
    def write_pointer(self) -> int:
        """Highest page handed out so far (GC scans [0, write_pointer))."""
        return self.allocation_pointer

    @property
    def is_full(self) -> bool:
        """Whether every page has been handed out (nothing left to reserve)."""
        return self.allocation_pointer >= self.pages_per_block

    @property
    def free_pages(self) -> int:
        """Pages not yet handed out since the last erase."""
        return self.pages_per_block - self.allocation_pointer

    @property
    def invalid_count(self) -> int:
        """Pages holding stale data (overwritten or migrated away)."""
        return self._invalid_count

    @property
    def is_erased(self) -> bool:
        """Whether no page has been handed out since the last erase.

        The owning plane counts its erased blocks
        (:attr:`FlashPlane.erased_blocks`), so callers that only need
        *how many* are erased never have to probe each block.
        """
        return self.allocation_pointer == 0

    def reserve_next_page(self) -> int:
        """Hand out the next programmable page (allocator path)."""
        if self.is_full:
            raise NandProtocolError(f"block {self.index}: reserve on full block")
        page = self.allocation_pointer
        if not page:
            self._allocated.erased_blocks -= 1
        self.allocation_pointer += 1
        self.pending_programs += 1
        self._allocated.pages += 1
        return page

    def program_page(self, page: int) -> None:
        """Complete the PROGRAM of ``page``.

        A page the allocator reserved completes in any order; an unreserved
        page is reserved on the spot and must be the next one in NAND page
        order.  Programming a page twice without an erase is a protocol
        violation.  A page invalidated while its program was in flight is
        written but stays invalid.
        """
        if page >= self.allocation_pointer:
            # Direct, unreserved programming must follow NAND page order.
            if page != self.allocation_pointer:
                raise NandProtocolError(
                    f"block {self.index}: out-of-order program of page {page}, "
                    f"next programmable page is {self.allocation_pointer}"
                )
            if not page:
                self._allocated.erased_blocks -= 1
            self.allocation_pointer += 1
            self.pending_programs += 1
            self._allocated.pages += 1
        state = self.page_states[page]
        if state is PageState.VALID:
            raise NandProtocolError(
                f"block {self.index}: page {page} already programmed "
                "(erase-before-write violated)"
            )
        self.programmed_count += 1
        self.pending_programs -= 1
        if state is PageState.INVALID:
            # The logical page was overwritten while this program was in
            # flight (early invalidation): the cells get written, but the
            # data is stale on arrival.
            return
        self.page_states[page] = PageState.VALID
        self.valid_count += 1

    def invalidate_page(self, page: int) -> None:
        """Mark a written (or reserved, still in-flight) page stale."""
        state = self.page_states[page]
        if state is PageState.VALID:
            self.page_states[page] = PageState.INVALID
            self.valid_count -= 1
            self._invalid_count += 1
            return
        if state is PageState.FREE and page < self.allocation_pointer:
            # Early invalidation of a reserved, still-in-flight page.
            self.page_states[page] = PageState.INVALID
            self._invalid_count += 1
            return
        raise NandProtocolError(
            f"block {self.index}: invalidating page {page} in state {state.value}"
        )

    def read_page(self, page: int, strict: bool = False) -> PageState:
        """State of a page; ``strict`` rejects reads of unwritten pages."""
        state = self.page_states[page]
        if strict and state is PageState.FREE:
            raise NandProtocolError(
                f"block {self.index}: reading unwritten page {page}"
            )
        return state

    def erase(self) -> None:
        """Return every page to FREE and count one more P/E cycle.

        Refused while programs are in flight.  Erasing an already-erased
        block is legal (it still wears the block).
        """
        if self.pending_programs > 0:
            raise NandProtocolError(
                f"block {self.index}: erase with {self.pending_programs} "
                "in-flight programs"
            )
        if self.allocation_pointer:
            self._allocated.erased_blocks += 1
        self._allocated.pages -= self.allocation_pointer
        self.page_states = [PageState.FREE] * self.pages_per_block
        self.allocation_pointer = 0
        self.programmed_count = 0
        self.valid_count = 0
        self._invalid_count = 0
        self.erase_count += 1

    def restore(self, pages: str, erase_count: int) -> None:
        """Restore a checkpointed fill state onto a pristine block.

        ``pages`` is the snapshot encoding used by
        :mod:`repro.sim.checkpoint`: one character per programmed page,
        ``'v'`` for valid and ``'i'`` for invalid, in page order.  The
        block must be pristine (never programmed or erased) -- restore is
        a deserialization path, not a runtime mutation -- and the encoding
        is validated so a corrupt snapshot cannot seed a block whose
        counters violate ``valid + invalid == allocation_pointer``.
        """
        if (
            self.allocation_pointer
            or self.programmed_count
            or self.pending_programs
            or self.erase_count
        ):
            raise NandProtocolError(
                f"block {self.index}: restore onto a non-pristine block"
            )
        if len(pages) > self.pages_per_block:
            raise NandProtocolError(
                f"block {self.index}: snapshot has {len(pages)} pages, "
                f"block holds {self.pages_per_block}"
            )
        if pages.strip("vi"):
            raise NandProtocolError(
                f"block {self.index}: bad page states {pages!r} "
                "(must be 'v'/'i')"
            )
        if erase_count < 0:
            raise NandProtocolError(
                f"block {self.index}: negative snapshot erase count "
                f"{erase_count}"
            )
        for page, state in enumerate(pages):
            self.page_states[page] = (
                PageState.VALID if state == "v" else PageState.INVALID
            )
        filled = len(pages)
        if filled:
            self._allocated.erased_blocks -= 1
        self.allocation_pointer = filled
        self.programmed_count = filled
        self.erase_count = erase_count
        self.valid_count = pages.count("v")
        self._invalid_count = filled - self.valid_count
        self._allocated.pages += filled


class FlashPlane:
    """A plane: ``block_count`` blocks sharing sense amplifiers.

    Blocks are built on first touch.  ``blocks`` holds the built prefix in
    index order, so code that already holds a block index reaches it with
    a plain list index; :meth:`block` builds the blocks up to the one it
    returns.  Every block past the prefix is pristine -- erased, erase
    count 0, never programmed -- so it counts as erased in
    :attr:`erased_blocks` and as free in :attr:`free_pages`, and loops that
    skip erased blocks (victim selection, snapshots, valid-page sums) can
    walk ``blocks`` alone.
    """

    __slots__ = ("index", "blocks", "block_count", "pages_per_block", "_allocated")

    def __init__(self, index: int, geometry: NandGeometry) -> None:
        self.index = index
        self.block_count = geometry.blocks_per_plane
        self.pages_per_block = geometry.pages_per_block
        # Maintained by the blocks; every block starts erased.
        self._allocated = PageCounter(erased_blocks=self.block_count)
        self.blocks: List[FlashBlock] = []

    def block(self, index: int) -> FlashBlock:
        """The block at ``index`` within this plane, built if it is not yet.

        Building block ``index`` builds every block below it first, so
        ``blocks`` stays a prefix in index order.
        """
        if not 0 <= index < self.block_count:
            raise IndexError(
                f"block {index} outside a plane of {self.block_count} blocks"
            )
        blocks = self.blocks
        if index >= len(blocks):
            blocks.extend(
                FlashBlock(built, self.pages_per_block, self._allocated)
                for built in range(len(blocks), index + 1)
            )
        return blocks[index]

    @property
    def erased_blocks(self) -> int:
        """How many of the plane's blocks are erased (kept by the blocks;
        unbuilt blocks count as erased)."""
        return self._allocated.erased_blocks

    @property
    def free_pages(self) -> int:
        """Pages not yet handed out, across every block of the plane."""
        return self.total_pages - self._allocated.pages

    @property
    def valid_pages(self) -> int:
        """Pages holding live data, across every block of the plane."""
        return sum(block.valid_count for block in self.blocks)

    @property
    def total_pages(self) -> int:
        """The plane's raw capacity in pages."""
        return self.block_count * self.pages_per_block


class FlashDie:
    """A die: the unit of command concurrency.

    The die owns a single-capacity :class:`Resource`; any command (single- or
    multi-plane) occupies the die for its full operation latency.  Planes may
    only be ganged when every address shares the block/page offset (§2.1).
    """

    def __init__(
        self,
        engine: Engine,
        chip_address: ChipAddress,
        die_index: int,
        geometry: NandGeometry,
        timings: NandTimings,
    ) -> None:
        self.chip_address = chip_address
        self.index = die_index
        self.geometry = geometry
        self.timings = timings
        self.planes: List[FlashPlane] = [
            FlashPlane(plane, geometry) for plane in range(geometry.planes_per_die)
        ]
        self.resource = Resource(
            engine, f"die({chip_address.channel},{chip_address.way},{die_index})"
        )
        # Fault injection: a failed die still services commands (the
        # simulator models latency, not data loss) but every operation takes
        # the degraded retry path -- see TransactionPipeline and DESIGN.md §7.
        self.failed = False

    def operation_latency_ns(self, kind: TransactionKind) -> int:
        """Latency of one operation of ``kind`` on this die.

        Multi-plane operations complete in the latency of a single operation
        -- that is their whole point (§2.1).
        """
        if kind is TransactionKind.READ:
            return self.timings.read_ns
        if kind is TransactionKind.PROGRAM:
            return self.timings.program_ns
        return self.timings.erase_ns

    def validate(self, addresses: Sequence[PhysicalPageAddress]) -> None:
        """Reject a command on ``addresses`` this die cannot legally execute.

        Every address must lie in the geometry and on this die; a
        multi-plane command must name distinct planes at one shared
        block/page offset (§2.1).
        """
        if not addresses:
            raise NandProtocolError("command with no addresses")
        if len(addresses) == 1:
            # Single-plane command (the dominant case): no plane-set or
            # shared-offset checks apply.
            address = addresses[0]
            address.validate(self.geometry)
            if address.chip != self.chip_address or address.die != self.index:
                raise NandProtocolError(
                    f"command address {address} not on die "
                    f"{self.chip_address}/{self.index}"
                )
            return
        primary = addresses[0]
        seen_planes = set()
        for address in addresses:
            address.validate(self.geometry)
            if address.chip != self.chip_address or address.die != self.index:
                raise NandProtocolError(
                    f"command address {address} not on die {self.chip_address}/{self.index}"
                )
            if address.plane in seen_planes:
                raise NandProtocolError("duplicate plane in multi-plane command")
            seen_planes.add(address.plane)
            if address.block != primary.block or address.page != primary.page:
                raise NandProtocolError(
                    "multi-plane command addresses must share block/page offset"
                )

    def apply(
        self, kind: TransactionKind, addresses: Sequence[PhysicalPageAddress]
    ) -> None:
        """Mutate plane/block/page state according to the command.

        A read senses data and changes no page state, so it is only
        validated.
        """
        self.validate(addresses)
        if kind is TransactionKind.READ:
            return
        planes = self.planes
        for address in addresses:
            plane = planes[address.plane]
            try:
                block = plane.blocks[address.block]
            except IndexError:
                # A program or erase that reaches a block no allocator
                # opened (direct NAND-order programming) builds it.
                block = plane.block(address.block)
            if kind is TransactionKind.PROGRAM:
                block.program_page(address.page)
            else:
                block.erase()


class FlashChip:
    """A flash chip: one or more dies behind one set of I/O pins."""

    def __init__(
        self,
        engine: Engine,
        address: ChipAddress,
        geometry: NandGeometry,
        timings: NandTimings,
    ) -> None:
        self.address = address
        self.geometry = geometry
        self.timings = timings
        self.dies: List[FlashDie] = [
            FlashDie(engine, address, die, geometry, timings)
            for die in range(geometry.dies_per_chip)
        ]

    def die(self, index: int) -> FlashDie:
        """The die at ``index`` within this chip."""
        return self.dies[index]

    @property
    def flat_index(self) -> int:
        """The chip's position in the array's channel-major chip order."""
        return self.address.flat_index(self.geometry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlashChip({self.address.channel},{self.address.way})"
