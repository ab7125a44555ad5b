"""The Figure 3 motivating example (paper §3.1).

Two read requests to two chips.  On the *same* channel, only the flash read
operations overlap; command and data transfers serialise:

    total = CMD + RD + Transfer + Transfer = 11.01 us

On *different* channels, everything overlaps:

    total = CMD + RD + Transfer = 7.01 us

a 57% average-latency increase from one path conflict.  The module provides
both the analytic computation and a micro-simulation of the same scenario
through the actual BaselineFabric, so the simulator's timing model is
checked against the paper's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config.ssd_config import SsdConfig
from repro.config.presets import performance_optimized
from repro.interconnect.shared_bus import BaselineFabric
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine


@dataclass(frozen=True)
class TimelineExample:
    """Analytic service times of the two-request example."""

    cmd_ns: int
    read_ns: int
    transfer_ns: int

    @property
    def same_channel_total_ns(self) -> int:
        """CMD + RD + Transfer + Transfer (the conflicting case)."""
        return self.cmd_ns + self.read_ns + 2 * self.transfer_ns

    @property
    def different_channel_total_ns(self) -> int:
        """CMD + RD + Transfer (fully parallel case)."""
        return self.cmd_ns + self.read_ns + self.transfer_ns

    @property
    def latency_increase_fraction(self) -> float:
        """How much the conflict inflates total service time (~57%)."""
        return (
            self.same_channel_total_ns / self.different_channel_total_ns
        ) - 1.0


def service_timeline_example(
    cmd_ns: int = 10, read_ns: int = 3_000, transfer_ns: int = 4_000
) -> TimelineExample:
    """The paper's numbers: 10 ns CMD, 3 us read, 4 us transfer."""
    return TimelineExample(cmd_ns=cmd_ns, read_ns=read_ns, transfer_ns=transfer_ns)


def simulate_two_reads(
    config: SsdConfig = None, same_channel: bool = True
) -> Tuple[int, int]:
    """Drive the two-read scenario through the real BaselineFabric.

    Returns ``(completion_request_1_ns, completion_request_2_ns)`` where
    each request performs CMD -> flash read -> data transfer, issued at t=0.
    """
    config = config or performance_optimized(blocks_per_plane=4, pages_per_block=4)
    engine = Engine()
    fabric = BaselineFabric(engine, config)
    page = config.geometry.page_size
    read_ns = config.timings.read_ns

    chips = (
        [ChipAddress(0, 0), ChipAddress(0, 1)]
        if same_channel
        else [ChipAddress(0, 0), ChipAddress(1, 0)]
    )
    completions = {}

    def one_read(index: int, chip: ChipAddress):
        yield from fabric.transfer(chip, 0, include_command=True)
        yield read_ns
        yield from fabric.transfer(chip, page, include_command=False)
        completions[index] = engine.now

    for index, chip in enumerate(chips):
        engine.process(one_read(index, chip), name=f"read{index}")
    engine.run()
    return completions[0], completions[1]
