"""Fabric interface shared by all six SSD communication designs.

A *fabric* answers one question for the transaction layer: "move this many
bytes between a flash controller and this chip, and tell me how long it took
and whether the transfer had to wait for a path".  Everything that differs
between the designs -- shared channels, dual buses, mesh routing, circuit
reservation -- hides behind :meth:`Fabric.transfer`.

``transfer`` is a *process generator*: the caller drives it with
``outcome = yield from fabric.transfer(...)`` inside its own process.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generator

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine


class TransferOutcome:
    """Result of one path traversal (slotted: one per transfer phase)."""

    __slots__ = (
        "waited",
        "conflicted",
        "start_ns",
        "end_ns",
        "fc_index",
        "scout_attempts",
    )

    def __init__(
        self,
        *,
        waited: bool,  # the transfer had to queue for a path resource
        conflicted: bool,  # design-specific path-conflict flag (see DESIGN.md)
        start_ns: int,
        end_ns: int,
        fc_index: int,  # flash controller that serviced the transfer
        scout_attempts: int = 0,  # Venice only: reservation attempts used
    ) -> None:
        self.waited = waited
        self.conflicted = conflicted
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.fc_index = fc_index
        self.scout_attempts = scout_attempts

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransferOutcome(waited={self.waited}, conflicted={self.conflicted}, "
            f"start_ns={self.start_ns}, end_ns={self.end_ns}, "
            f"fc_index={self.fc_index}, scout_attempts={self.scout_attempts})"
        )


@dataclass
class FabricStats:
    """Aggregated accounting consumed by the power model and metrics layer."""

    transfers: int = 0
    conflicted_transfers: int = 0
    blocked_transfers: int = 0  # transfers that stalled on a failed component
    channel_busy_ns: int = 0  # sum over channels/buses of busy time
    link_hop_busy_ns: int = 0  # sum over mesh links of busy time
    router_active_ns: int = 0  # sum over routers of circuit-held time
    scout_attempts_total: int = 0
    scout_failures_total: int = 0

    def record(self, outcome: TransferOutcome) -> None:
        self.transfers += 1
        if outcome.conflicted:
            self.conflicted_transfers += 1
        self.scout_attempts_total += outcome.scout_attempts


class Fabric(abc.ABC):
    """Abstract communication substrate."""

    design: DesignKind

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        self.engine = engine
        self.config = config
        self.stats = FabricStats()
        # Lazily-created event that fires on every fault transition; blocked
        # transfers park on it so a repair (component coming back up) resumes
        # them (see DESIGN.md §7).
        self._fault_epoch = None

    @abc.abstractmethod
    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        """Move ``payload_bytes`` between a flash controller and ``chip``.

        A command-only phase passes ``payload_bytes=0`` with
        ``include_command=True``; a data phase passes the page payload.
        Yields simulation waitables; returns a :class:`TransferOutcome`.
        """

    # ------------------------------------------------------------------ #
    # fault injection (DESIGN.md §7)
    # ------------------------------------------------------------------ #

    def apply_link_fault(self, a, b, down: bool) -> None:
        """A mesh link ``a``-``b`` failed (``down=True``) or was repaired.

        The default is a no-op: designs whose substrate has no wire at that
        position (e.g. a vertical link in a shared-bus design) are simply
        unaffected by the fault.  Mesh/bus designs override this with their
        paper-faithful degradation semantics.
        """

    def apply_router_fault(self, node, down: bool) -> None:
        """Router chip at ``node`` failed or was repaired (default: no-op)."""

    def _fault_wait(self):
        """Waitable that completes on the next fault transition.

        Blocked transfers yield this instead of busy-polling; a schedule
        with no further transitions leaves them parked forever, which is the
        deterministic model of a design that cannot route around the fault.
        """
        if self._fault_epoch is None:
            self._fault_epoch = self.engine.event("fault-epoch")
        return self._fault_epoch

    def _fault_state_changed(self) -> None:
        """Wake everything parked on the fault epoch (subclasses call this)."""
        epoch, self._fault_epoch = self._fault_epoch, None
        if epoch is not None:
            epoch.succeed(None)

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def command_ns(self, include_command: bool) -> int:
        return self.config.timings.command_ns if include_command else 0

    @property
    def conflict_fraction(self) -> float:
        if self.stats.transfers == 0:
            return 0.0
        return self.stats.conflicted_transfers / self.stats.transfers

    def describe(self) -> str:
        return f"{type(self).__name__}({self.design.value})"

