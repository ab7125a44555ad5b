"""Ideal path-conflict-free SSD.

"In the path-conflict-free SSD, we assume that each flash chip has a direct
separate channel to communicate with the SSD controller; therefore, no path
conflict can happen.  An I/O request does not experience path conflicts ...
but it can still be delayed if the target flash chip is busy." (§3.3)

Modelled as a dedicated channel-rate bus per chip.  The per-chip resource is
still enforced (the chip has one set of I/O pins), so two transfers to the
*same* chip serialise -- that is chip busyness, not a path conflict.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.interconnect.base import Fabric, TransferOutcome
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.sim.resources import Resource


class IdealFabric(Fabric):
    """One dedicated channel per flash chip."""

    design = DesignKind.IDEAL

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        self._chip_ports: Dict[ChipAddress, Resource] = {}
        geometry = config.geometry
        for channel in range(geometry.channels):
            for way in range(geometry.chips_per_channel):
                address = ChipAddress(channel, way)
                self._chip_ports[address] = Resource(
                    engine, f"ideal-port({channel},{way})"
                )

    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        port = self._chip_ports[chip]
        start = self.engine.now
        lease = yield port.acquire()
        occupancy = self.command_ns(include_command) + (
            self.config.interconnect.channel_transfer_ns(payload_bytes)
        )
        if occupancy:
            yield occupancy
        lease.release()
        # Waiting on the chip's own port is chip busyness, never a path
        # conflict: the path itself is dedicated.
        outcome = TransferOutcome(
            waited=lease.waited,
            conflicted=False,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=chip.channel,
        )
        self.stats.channel_busy_ns += occupancy
        self.stats.record(outcome)
        return outcome
