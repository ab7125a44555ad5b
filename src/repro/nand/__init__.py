"""NAND flash array substrate.

Models the physical hierarchy of §2.1: chip -> die -> plane -> block -> page,
with read/program/erase latencies, erase-before-write enforcement, per-block
wear accounting, and multi-plane operation legality rules.  A die executes
the operation a flash transaction carries: its kind and its addresses.
"""

from repro.nand.address import PhysicalPageAddress, ChipAddress
from repro.nand.chip import FlashChip, FlashDie, FlashPlane, FlashBlock, PageState
from repro.nand.array import FlashArray

__all__ = [
    "PhysicalPageAddress",
    "ChipAddress",
    "FlashChip",
    "FlashDie",
    "FlashPlane",
    "FlashBlock",
    "PageState",
    "FlashArray",
]
