"""Baseline multi-channel shared-bus fabric and the pSSD variant.

Baseline SSD (Figure 2(a)): the SSD controller reaches the chips of channel
``c`` only through channel ``c``'s shared bus.  Command and data phases
serialise on the channel; the flash operation itself overlaps freely
(Figure 3).  This is where path conflicts come from.

pSSD (Figure 2(b), Kim et al. MICRO'22): identical topology, but command and
data travel over both the control and data pins, doubling effective channel
bandwidth.  Modelled as a bandwidth factor on the serialization time.
"""

from __future__ import annotations

from typing import Generator, List, Set

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.interconnect.base import Fabric, TransferOutcome
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.sim.resources import Resource


class BaselineFabric(Fabric):
    """Multi-channel shared bus: one FIFO resource per channel."""

    design = DesignKind.BASELINE
    bandwidth_factor = 1.0

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        self.channels: List[Resource] = [
            Resource(engine, f"channel[{index}]")
            for index in range(config.geometry.channels)
        ]
        # Occupancy is a pure function of (payload, command flag); memoised
        # because the same page-sized transfers repeat for the whole run.
        self._occupancy_cache = {}
        # Fault state: per-channel set of severed bus segments.  A cut at
        # position c (between drop c and drop c+1) makes every chip with
        # way > c unreachable from the controller side.
        self._severed: List[Set[int]] = [set() for _ in self.channels]
        self._severed_any = False

    # ------------------------------------------------------------------ #
    # fault injection (DESIGN.md §7)
    # ------------------------------------------------------------------ #

    def apply_link_fault(self, a, b, down: bool) -> None:
        """Map a mesh-link fault onto the channel's multi-drop PCB route.

        The channel bus of row ``r`` runs the same PCB trace the mesh's
        horizontal links reuse (paper §6.6), so a *horizontal* link fault
        ``(r,c)-(r,c+1)`` severs the bus between drops ``c`` and ``c+1``:
        chips at ``way > c`` are cut off from the controller and transfers
        to them block until the segment is repaired.  Vertical links have no
        bus-design equivalent and are ignored.
        """
        (row_a, col_a), (row_b, col_b) = tuple(a), tuple(b)
        if row_a != row_b or abs(col_a - col_b) != 1:
            return  # no such wire in a shared-bus design
        if not 0 <= row_a < len(self._severed):
            return
        cuts = self._severed[row_a]
        if down:
            cuts.add(min(col_a, col_b))
        else:
            cuts.discard(min(col_a, col_b))
        self._severed_any = any(self._severed)
        self._fault_state_changed()

    def chip_reachable(self, chip: ChipAddress) -> bool:
        """True when no severed bus segment lies between controller and chip."""
        cuts = self._severed[chip.channel]
        return not cuts or chip.way <= min(cuts)

    def channel_for(self, chip: ChipAddress) -> Resource:
        return self.channels[chip.channel]

    def occupancy_ns(self, payload_bytes: int, include_command: bool) -> int:
        key = (payload_bytes, include_command)
        cached = self._occupancy_cache.get(key)
        if cached is None:
            transfer = self.config.interconnect.channel_transfer_ns(
                payload_bytes, bandwidth_factor=self.bandwidth_factor
            )
            cached = self._occupancy_cache[key] = (
                self.command_ns(include_command) + transfer
            )
        return cached

    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        channel = self.channel_for(chip)
        start = self.engine.now
        fault_waited = False
        if self._severed_any:
            # Paper-faithful blocking: the bus has exactly one route to the
            # chip, so a severed segment stalls the transfer until repaired
            # (forever, if the schedule never repairs it).
            while not self.chip_reachable(chip):
                if not fault_waited:
                    fault_waited = True
                    self.stats.blocked_transfers += 1
                yield self._fault_wait()
        lease = yield channel.acquire()
        occupancy = self.occupancy_ns(payload_bytes, include_command)
        if occupancy:
            yield occupancy
        lease.release()
        outcome = TransferOutcome(
            waited=lease.waited or fault_waited,
            conflicted=lease.waited or fault_waited,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=chip.channel,
        )
        self.stats.channel_busy_ns += occupancy
        self.stats.record(outcome)
        return outcome


class PssdFabric(BaselineFabric):
    """Packetized SSD: same shared buses at 2x effective bandwidth."""

    design = DesignKind.PSSD

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        self.bandwidth_factor = config.interconnect.pssd_bandwidth_factor
