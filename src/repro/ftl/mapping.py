"""Page-level logical-to-physical mapping table.

Out-of-place writes (§2.2): a host overwrite invalidates the old physical
page, programs a fresh one elsewhere, and repoints the logical page.  The
table maintains the forward map (LPN -> PPN) and the reverse map
(PPN -> LPN) that garbage collection needs to find the owners of valid
pages in a victim block.

PPNs are flat physical page indices (see
:meth:`repro.nand.address.PhysicalPageAddress.page_flat_index`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import MappingError


class MappingTable:
    """Bidirectional LPN <-> PPN map with consistency enforcement."""

    def __init__(self, total_logical_pages: int) -> None:
        if total_logical_pages < 1:
            raise MappingError("logical address space must be non-empty")
        self.total_logical_pages = total_logical_pages
        self._forward: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        self.updates = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.total_logical_pages:
            raise MappingError(
                f"LPN {lpn} outside logical space [0, {self.total_logical_pages})"
            )

    def lookup(self, lpn: int) -> Optional[int]:
        """Current PPN of a logical page, or None if unmapped."""
        self._check_lpn(lpn)
        return self._forward.get(lpn)

    def reverse_lookup(self, ppn: int) -> Optional[int]:
        """Owning LPN of a physical page, or None if the page is not live."""
        return self._reverse.get(ppn)

    def is_mapped(self, lpn: int) -> bool:
        """Whether a logical page currently has a physical location."""
        self._check_lpn(lpn)
        return lpn in self._forward

    # ------------------------------------------------------------------ #

    def map_page(self, lpn: int, ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``ppn``; returns the displaced old PPN, if any.

        The caller is responsible for invalidating the displaced physical
        page in the NAND model -- the table only tracks the pointers.
        """
        self._check_lpn(lpn)
        if ppn in self._reverse:
            raise MappingError(
                f"PPN {ppn} already owned by LPN {self._reverse[ppn]}; "
                "physical pages are never shared"
            )
        old_ppn = self._forward.get(lpn)
        if old_ppn is not None:
            del self._reverse[old_ppn]
            self.invalidations += 1
        self._forward[lpn] = ppn
        self._reverse[ppn] = lpn
        self.updates += 1
        return old_ppn

    def load(self, lpns: Sequence[int], ppns: Sequence[int]) -> None:
        """Map ``lpns[k]`` to ``ppns[k]`` for every ``k``, into an empty table.

        The bulk path of a fresh device's fill and of checkpoint restore.
        It checks the LPN column's range once instead of per page, and
        rejects a repeated LPN or PPN.  It does not count ``updates``: the
        fill counts its own writes, and a restore rebuilds a table rather
        than writing to it.
        """
        if self._forward:
            raise MappingError("bulk load into a non-empty mapping table")
        if lpns:
            low, high = min(lpns), max(lpns)
            if low < 0 or high >= self.total_logical_pages:
                self._check_lpn(low if low < 0 else high)
        forward = dict(zip(lpns, ppns))
        reverse = dict(zip(ppns, lpns))
        if len(forward) != len(lpns):
            raise MappingError("LPN repeated in a bulk load")
        if len(reverse) != len(ppns):
            raise MappingError(
                "PPN repeated in a bulk load; physical pages are never shared"
            )
        self._forward = forward
        self._reverse = reverse

    def remap_physical(self, old_ppn: int, new_ppn: int) -> int:
        """GC migration: move a live page's mapping to its new location."""
        lpn = self._reverse.get(old_ppn)
        if lpn is None:
            raise MappingError(f"PPN {old_ppn} holds no live page")
        if new_ppn in self._reverse:
            raise MappingError(f"migration target PPN {new_ppn} already live")
        del self._reverse[old_ppn]
        self._forward[lpn] = new_ppn
        self._reverse[new_ppn] = lpn
        self.updates += 1
        return lpn

    # ------------------------------------------------------------------ #

    @property
    def mapped_count(self) -> int:
        """Number of logical pages with a live physical mapping."""
        return len(self._forward)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate (lpn, ppn) pairs of every live mapping."""
        return iter(self._forward.items())

    def assert_bijective(self) -> None:
        """Invariant: forward and reverse maps mirror each other exactly."""
        if len(self._forward) != len(self._reverse):
            raise MappingError(
                f"map size mismatch: {len(self._forward)} forward vs "
                f"{len(self._reverse)} reverse"
            )
        for lpn, ppn in self._forward.items():
            if self._reverse.get(ppn) != lpn:
                raise MappingError(f"LPN {lpn} -> PPN {ppn} not mirrored")
