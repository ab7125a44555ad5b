"""Flash Translation Layer (paper §2.2).

Page-level logical-to-physical mapping with out-of-place writes, dynamic
CWDP page allocation, greedy garbage collection, and throttled wear
leveling.
"""

from repro.ftl.mapping import MappingTable
from repro.ftl.allocator import PageAllocator, AllocationStrategy
from repro.ftl.gc import GarbageCollector, GcPolicy
from repro.ftl.wear_leveling import WearLeveler
from repro.ftl.ftl import Ftl

__all__ = [
    "MappingTable",
    "PageAllocator",
    "AllocationStrategy",
    "GarbageCollector",
    "GcPolicy",
    "WearLeveler",
    "Ftl",
]
