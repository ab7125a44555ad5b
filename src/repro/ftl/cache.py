"""In-SSD DRAM cache model (paper §2.2).

The SSD controller's DRAM caches "frequently accessed data (e.g., the
logical-to-physical page mapping table) or frequently-requested pages".
The model is a byte-budgeted LRU over logical pages with separate read-hit
and write-hit accounting, plus a pinned region representing the mapping
table (always resident in the evaluated device class, so map lookups cost
no flash access).

The cache defaults to *disabled* in experiment runs: the paper's evaluation
measures fabric behaviour, and a data cache in front would absorb part of
the traffic the figures characterise.  It is fully functional and tested.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ConfigurationError


class DramCache:
    """LRU data cache over logical page numbers."""

    def __init__(
        self,
        capacity_pages: int,
        *,
        write_allocate: bool = True,
        enabled: bool = True,
    ) -> None:
        if capacity_pages < 0:
            raise ConfigurationError("cache capacity must be >= 0")
        self.capacity_pages = capacity_pages
        self.write_allocate = write_allocate
        self.enabled = enabled and capacity_pages > 0
        self._lru: "OrderedDict[int, bool]" = OrderedDict()  # lpn -> dirty
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------ #

    def lookup_read(self, lpn: int) -> bool:
        """True if the read is served from DRAM (no flash access needed)."""
        if not self.enabled:
            return False
        if lpn in self._lru:
            self._lru.move_to_end(lpn)
            self.read_hits += 1
            return True
        self.read_misses += 1
        return False

    def fill(self, lpn: int) -> Optional[int]:
        """Insert a clean line after a read miss; returns an evicted dirty
        LPN that must be written back, if any."""
        if not self.enabled:
            return None
        return self._insert(lpn, dirty=False)

    def lookup_write(self, lpn: int) -> bool:
        """Record a host write; True if it hit (absorbed in DRAM)."""
        if not self.enabled:
            return False
        if lpn in self._lru:
            self._lru.move_to_end(lpn)
            self._lru[lpn] = True
            self.write_hits += 1
            return True
        self.write_misses += 1
        if self.write_allocate:
            self._insert(lpn, dirty=True)
        return False

    def _insert(self, lpn: int, dirty: bool) -> Optional[int]:
        evicted_dirty: Optional[int] = None
        if lpn in self._lru:
            self._lru.move_to_end(lpn)
            self._lru[lpn] = self._lru[lpn] or dirty
            return None
        while len(self._lru) >= self.capacity_pages:
            victim, was_dirty = self._lru.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self.writebacks += 1
                evicted_dirty = victim
        self._lru[lpn] = dirty
        return evicted_dirty

    def invalidate(self, lpn: int) -> None:
        """Drop a logical page from the cache (trim / discard path)."""
        self._lru.pop(lpn, None)

    def flush(self) -> int:
        """Drop everything; returns how many dirty lines needed writeback."""
        dirty = sum(1 for is_dirty in self._lru.values() if is_dirty)
        self.writebacks += dirty
        self._lru.clear()
        return dirty

    # ------------------------------------------------------------------ #

    @property
    def occupancy(self) -> int:
        """Number of logical pages currently resident."""
        return len(self._lru)
