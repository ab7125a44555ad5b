"""Packetized Network SSD (pnSSD) fabric.

pnSSD (Figure 2(c), Kim et al. MICRO'22) builds on pSSD's packetization
(2x effective channel bandwidth) and arranges the N x N chip array with a
shared *horizontal* bus per row plus a shared *vertical* bus per column, so
every chip is reachable over two paths.  "pnSSD requires an N x N flash
array configuration where N is the number of flash controllers" (paper
§6.5 footnote): flash controller ``i`` owns row bus ``i`` and column bus
``i``, and -- being a single embedded processor (§2.2) -- drives one bus
transaction at a time.  A transfer to chip ``(r, c)`` is therefore served
by controller ``r`` over the row bus or controller ``c`` over the column
bus, whichever is free (row preferred; ties go to the shorter queue).

The controller, not the wire, is the serialised resource: this is what
keeps pnSSD's gains close to pSSD's (27% vs 30% in the paper's Figure 4)
despite the doubled path count.
"""

from __future__ import annotations

from typing import Generator, List, Set

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.errors import ConfigurationError
from repro.interconnect.base import Fabric, TransferOutcome
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.sim.resources import Resource


class PnssdFabric(Fabric):
    """Dual shared buses with per-controller serialization."""

    design = DesignKind.PNSSD

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        geometry = config.geometry
        if geometry.channels != geometry.chips_per_channel:
            raise ConfigurationError(
                "pnSSD requires an NxN flash array (channels == chips/channel); "
                f"got {geometry.channels}x{geometry.chips_per_channel}"
            )
        self.bandwidth_factor = config.interconnect.pssd_bandwidth_factor
        # Controller i drives row bus i and column bus i, one at a time.
        self.controllers: List[Resource] = [
            Resource(engine, f"pnssd-fc[{index}]") for index in range(geometry.channels)
        ]
        self.row_transfers = 0
        self.col_transfers = 0
        # Fault state: severed segments per row bus and per column bus.  A
        # chip blocks only when *both* of its buses are cut before it --
        # pnSSD's doubled path count buys partial fault resilience.
        self._row_cuts: List[Set[int]] = [set() for _ in range(geometry.channels)]
        self._col_cuts: List[Set[int]] = [
            set() for _ in range(geometry.chips_per_channel)
        ]
        self._faulted = False

    # ------------------------------------------------------------------ #
    # fault injection (DESIGN.md §7)
    # ------------------------------------------------------------------ #

    def apply_link_fault(self, a, b, down: bool) -> None:
        """Map a mesh-link fault onto the row or column bus it runs along.

        A horizontal link ``(r,c)-(r,c+1)`` severs row bus ``r`` between
        drops ``c`` and ``c+1`` (row controller attaches at the west edge);
        a vertical link ``(r,c)-(r+1,c)`` severs column bus ``c`` between
        drops ``r`` and ``r+1`` (column controller attaches at the north
        edge).  A chip stalls only when both of its buses are severed.
        """
        (row_a, col_a), (row_b, col_b) = tuple(a), tuple(b)
        if row_a == row_b and abs(col_a - col_b) == 1:
            cuts = self._row_cuts[row_a]
            position = min(col_a, col_b)
        elif col_a == col_b and abs(row_a - row_b) == 1:
            cuts = self._col_cuts[col_a]
            position = min(row_a, row_b)
        else:
            return
        if down:
            cuts.add(position)
        else:
            cuts.discard(position)
        self._faulted = any(self._row_cuts) or any(self._col_cuts)
        self._fault_state_changed()

    def _row_reachable(self, chip: ChipAddress) -> bool:
        cuts = self._row_cuts[chip.channel]
        return not cuts or chip.way <= min(cuts)

    def _col_reachable(self, chip: ChipAddress) -> bool:
        cuts = self._col_cuts[chip.way]
        return not cuts or chip.channel <= min(cuts)

    #: Queue depth at the home controller before a transfer is handed to the
    #: column controller.  Chips are owned by their row controller (the FTL
    #: partitions the array exactly as in the baseline); serving a chip over
    #: the vertical channel means another controller fetches/queues state it
    #: does not own, so the design only off-loads when the home controller
    #: is badly backed up.  This is what keeps pnSSD's gain near pSSD's
    #: (27% vs 30% in the paper's Figure 4) despite the doubled path count.
    BORROW_QUEUE_THRESHOLD = 4

    def _choose_controller(self, chip: ChipAddress) -> int:
        """Home (row) controller, unless it is deeply backed up and the
        column controller is idle.

        Under faults a severed bus forces the surviving path: a chip cut
        off from its row bus is served over the column bus and vice versa
        (the transfer loop guarantees at least one is reachable before this
        is called).
        """
        if self._faulted:
            if not self._row_reachable(chip):
                return chip.way
            if not self._col_reachable(chip):
                return chip.channel
        row_fc = self.controllers[chip.channel]
        col_fc = self.controllers[chip.way]
        if row_fc.is_free:
            return chip.channel
        if row_fc.queue_length >= self.BORROW_QUEUE_THRESHOLD and col_fc.is_free:
            return chip.way
        return chip.channel

    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        start = self.engine.now
        fault_waited = False
        if self._faulted:
            while not (self._row_reachable(chip) or self._col_reachable(chip)):
                if not fault_waited:
                    fault_waited = True
                    self.stats.blocked_transfers += 1
                yield self._fault_wait()
        fc_index = self._choose_controller(chip)
        if fc_index == chip.channel:
            self.row_transfers += 1
        else:
            self.col_transfers += 1
        lease = yield self.controllers[fc_index].acquire()
        occupancy = self.command_ns(include_command) + (
            self.config.interconnect.channel_transfer_ns(
                payload_bytes, bandwidth_factor=self.bandwidth_factor
            )
        )
        if occupancy:
            yield occupancy
        lease.release()
        outcome = TransferOutcome(
            waited=lease.waited or fault_waited,
            conflicted=lease.waited or fault_waited,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=fc_index,
        )
        self.stats.channel_busy_ns += occupancy
        self.stats.record(outcome)
        return outcome
