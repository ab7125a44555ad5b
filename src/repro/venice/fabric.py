"""Venice circuit-switched fabric (paper §4).

For each transfer phase the fabric:

1. selects a flash controller -- the closest (same-row) FC if it is
   available, otherwise the nearest free FC (§4.2); if every FC is busy the
   request queues FIFO on the controller pool,
2. sends a reserve-mode scout packet (:meth:`VeniceNetwork.try_reserve`);
   on failure the FC "retries the path reservation process immediately by
   sending a new scout packet".  Only a circuit release or a fault
   transition can change a retry's outcome, so the failed scout parks on
   the fabric's release epoch and re-scouts when the next one happens.
   The one exception is a failure under faults with no live circuit, where
   no release is coming: that retry waits ``scout_retry_gap_ns`` instead,
   at most ``max_scout_retries`` times,
3. charges the scout round trip (forward + return over the reserved path),
   then releases the controller,
4. holds the circuit for the Equation (1) serialization time of the payload,
5. releases the circuit.

Path-conflict accounting follows §6.3: a transfer "experiences a path
conflict" iff its *first* scout attempt fails.  Waiting for a free flash
controller only marks the transfer as having waited -- the paper lists it as
a distinct reason a reservation cannot start, not a path conflict.

Controller occupancy: a transfer holds its FC's lease from acquisition,
through failed scouts and parked waits, until its successful scout's round
trip ends (the packet-id field limits each controller to one outstanding
scout, §4.2); a fault that cuts the controller off hands the transfer to
another one.  The circuits a controller has established live on after the
scout returns, so a controller services several concurrent transfers.
DESIGN.md details why the published throughput numbers force this reading
and what hardware assumption it implies (multiple DMA contexts per
controller).  The other reading, an FC released while its transfer is
parked, is probed in ROADMAP item 2.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.errors import ReservationError, RoutingError
from repro.interconnect.base import Fabric, TransferOutcome
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.sim.resources import ResourcePool
from repro.venice.network import ReservedCircuit, VeniceNetwork


class VeniceFabric(Fabric):
    """The paper's contribution: reservation-based conflict-free transfers."""

    design = DesignKind.VENICE

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        rows, cols = config.mesh_rows, config.mesh_cols
        self.network = VeniceNetwork(
            rows, cols, config.flash_controllers, lfsr_seed=config.seed % 3 + 1
        )
        self.fc_pool = ResourcePool(engine, "venice-fc", config.flash_controllers)
        # accounting beyond FabricStats
        self.circuit_hops_total = 0
        self.circuits_completed = 0
        self.active_circuits_per_fc: List[int] = [0] * config.flash_controllers
        # Per-home-row FC order by (distance, index); the load tie-break is
        # applied at transfer time with a stable sort over this base order.
        self._round_trip_cache: dict = {}
        self._circuit_ns_cache: dict = {}
        self._fc_by_distance: List[List[int]] = [
            sorted(
                range(config.flash_controllers),
                key=lambda fc: (abs(fc - home), fc),
            )
            for home in range(config.geometry.channels)
        ]
        # Event-driven retry: failed scouts park here and are woken when any
        # circuit releases or any fault transitions (the only events that
        # can change a reservation's outcome).
        self._release_epoch = engine.event("venice-release-epoch")

    # ------------------------------------------------------------------ #
    # fault injection (DESIGN.md §7)
    # ------------------------------------------------------------------ #

    def apply_link_fault(self, a, b, down: bool) -> None:
        """Fail/repair one mesh link; parked scouts re-scout immediately.

        Venice's fully-adaptive routing treats a dead link exactly like a
        permanently busy one, so no special routing mode exists: scouts
        steer around it via the ordinary Algorithm 1 backtracking walk.
        """
        self.network.degraded_mode().set_link(tuple(a), tuple(b), down)
        self._notify_release()

    def apply_router_fault(self, node, down: bool) -> None:
        """Fail/repair one router chip; parked scouts re-scout immediately."""
        self.network.degraded_mode().set_router(tuple(node), down)
        self._notify_release()

    # ------------------------------------------------------------------ #

    def _fc_preference(self, chip: ChipAddress) -> Tuple[int, ...]:
        """FC order: least-loaded first, ties broken by distance to the chip.

        "Venice checks if the closest flash controller to the target flash
        chip is available; otherwise it uses the nearest free flash
        controller" (§4.2).  With multi-circuit controllers, "available"
        means *lightly loaded*: a controller whose injection region is
        saturated with live circuits cannot place another minimal path, so
        spreading by live-circuit count is what unlocks the mesh's L-shaped
        path diversity across rows.
        """
        # Stable sort over the precomputed (distance, index) order: sorting
        # by live-circuit count alone yields exactly the historical
        # (count, distance, index) ordering at a fraction of the key cost.
        return tuple(
            sorted(
                self._fc_by_distance[chip.channel],
                key=self.active_circuits_per_fc.__getitem__,
            )
        )

    def _reachable_preference(
        self, preference: Tuple[int, ...], destination
    ) -> Tuple[int, ...]:
        """Filter an FC preference order to controllers that can reach.

        Raises :class:`~repro.errors.RoutingError` when *no* controller has
        an alive path -- that is the definition of a partitioned chip.
        """
        degraded = self.network.degraded_mode()
        reachable = tuple(
            fc for fc in preference if degraded.fc_can_reach(fc, destination)
        )
        if not reachable:
            raise RoutingError(
                f"chip {destination} unreachable: injected faults partition "
                "it from every flash controller"
            )
        return reachable

    def scout_round_trip_ns(self, hops: int) -> int:
        """Forward reservation walk + return trip of the scout (§4.2)."""
        cached = self._round_trip_cache.get(hops)
        if cached is None:
            interconnect = self.config.interconnect
            per_hop = interconnect.link_cycle_ns + interconnect.router_pipeline_ns
            cached = self._round_trip_cache[hops] = max(1, round(2 * hops * per_hop))
        return cached

    def circuit_transfer_ns(
        self, circuit: ReservedCircuit, payload_bytes: int, include_command: bool
    ) -> int:
        """Equation (1): (distance + size/link_width) x link latency."""
        key = (circuit.total_hops, payload_bytes, include_command)
        cached = self._circuit_ns_cache.get(key)
        if cached is None:
            interconnect = self.config.interconnect
            cached = self._circuit_ns_cache[key] = self.command_ns(
                include_command
            ) + interconnect.link_transfer_ns(
                payload_bytes, distance_hops=circuit.total_hops
            )
        return cached

    # ------------------------------------------------------------------ #

    def _send_command_packet(
        self, chip: ChipAddress, destination, start: int
    ) -> Generator:
        """Command-only phase: a flit-sized packet, no circuit.

        Flash commands are two flits -- the same size as a scout packet --
        and the routers carry them in their two 8-bit per-port buffers
        (Table 1) without reserving links.  Only data transfers need the
        conflict-free circuit.
        """
        home = destination[0] % self.config.flash_controllers
        drop = self.network.best_injection(home, destination)
        if drop is None:
            # No usable home drop.  A partitioned chip (no drop of ANY
            # controller shares its component -- which implies drop is None
            # here, since the home drops include every router of the
            # destination's row) is unreachable for buffered traffic too;
            # otherwise the command detours through the nearest controller
            # that can still reach.
            if self.network.is_partitioned(destination):
                raise RoutingError(
                    f"chip {destination} unreachable: injected faults "
                    "partition it from every flash controller"
                )
            degraded = self.network.degraded_mode()
            for fc in self._fc_preference(chip):
                if degraded.fc_can_reach(fc, destination):
                    home = fc
                    drop = self.network.best_injection(fc, destination)
                    break
            assert drop is not None, "unpartitioned chip must have a drop"
        hops = self.network.topology.manhattan(drop, destination) + 2
        interconnect = self.config.interconnect
        per_hop = interconnect.link_cycle_ns + interconnect.router_pipeline_ns
        latency = self.command_ns(True) + max(1, round(hops * per_hop))
        yield latency
        outcome = TransferOutcome(
            waited=False,
            conflicted=False,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=home,
        )
        self.stats.record(outcome)
        return outcome

    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        start = self.engine.now
        destination = (chip.channel, chip.way)

        if payload_bytes == 0:
            # Flit-sized command: buffered packet traffic, no reservation.
            outcome = yield from self._send_command_packet(chip, destination, start)
            return outcome

        network = self.network
        preference = self._fc_preference(chip)
        if network._dead_links or network._dead_routers:
            # Degraded mode: only controllers with an alive path to the
            # destination may serve this transfer -- handing it to a cut-off
            # controller would park it forever while others could reach.
            preference = self._reachable_preference(preference, destination)
            fc_index, fc_lease = yield self.fc_pool.acquire_preferring(
                preference, restrict=True
            )
        else:
            fc_index, fc_lease = yield self.fc_pool.acquire_preferring(preference)
        fc_waited = fc_lease.waited

        total_attempts = 0
        first_attempt_failed = False
        chip_busy_wait = False
        circuit = None
        scout_hops = 0
        maze_retries = 0
        while circuit is None:
            total_attempts += 1
            result = self.network.try_reserve(fc_index, destination)
            self.stats.scout_attempts_total += 1
            scout_hops = result.scout_hops
            if result.succeeded:
                circuit = result.circuit
                break
            if result.failed_on_chip:
                # Waiting on the target chip's own interface: chip busyness,
                # not a path conflict (§3.3's ideal-SSD distinction).
                chip_busy_wait = True
            elif total_attempts >= 1 and not chip_busy_wait:
                if total_attempts == 1:
                    first_attempt_failed = True
            self.stats.scout_failures_total += 1
            if result.failure_reason == "path" and (
                network._dead_links or network._dead_routers
            ):
                if network.is_partitioned(destination):
                    # A failed scout on a connected mesh will eventually
                    # succeed once circuits release; a partitioned
                    # destination never will.  Fail loudly instead of
                    # livelocking (DESIGN.md §7).
                    self.fc_pool.release(fc_index, fc_lease)
                    raise RoutingError(
                        f"chip {destination} unreachable: injected faults "
                        "partition it from every flash controller"
                    )
                degraded = network.degraded_mode()
                if not degraded.fc_can_reach(fc_index, destination):
                    # A fault transitioned while this controller held the
                    # transfer and cut it off; hand the transfer to a
                    # controller that still has an alive path.
                    self.fc_pool.release(fc_index, fc_lease)
                    fc_index, fc_lease = yield self.fc_pool.acquire_preferring(
                        self._reachable_preference(
                            self._fc_preference(chip), destination
                        ),
                        restrict=True,
                    )
                    continue
            if (
                result.failure_reason == "path"
                and not network.circuits
                and (network._dead_links or network._dead_routers)
            ):
                # No live circuit means no release event is coming: the
                # failure is the fault maze itself (misroute/livelock budget
                # exhausted on a connected mesh).  Retry on the hardware gap
                # -- the LFSRs advance between attempts -- and fail loudly
                # once the retry budget is spent rather than stalling.
                maze_retries += 1
                if maze_retries > self.config.interconnect.max_scout_retries:
                    self.fc_pool.release(fc_index, fc_lease)
                    raise RoutingError(
                        f"no conflict-free route to {destination} within the "
                        "misroute budget: the injected fault set leaves the "
                        "mesh connected but unroutable for Algorithm 1"
                    )
                yield self.config.interconnect.scout_retry_gap_ns
                continue
            # The paper's FC "retries immediately"; nothing can change until
            # some circuit releases (or a fault transitions), so the retry
            # parks on the next release event instead of busy-spinning
            # scouts through the mesh.
            yield self._release_epoch

        if circuit is None:  # pragma: no cover - loop only exits with a circuit
            raise ReservationError("reservation loop exited without a circuit")

        # Scout round trip before the transfer can start (§4.2: the FC
        # schedules the transfer once the scout returns over the backward
        # path).  The controller is busy exactly until its scout returns;
        # the established circuit then carries the transfer on its own.
        self.active_circuits_per_fc[fc_index] += 1
        round_trip = self.scout_round_trip_ns(max(circuit.total_hops, scout_hops))
        yield round_trip
        self.fc_pool.release(fc_index, fc_lease)

        occupancy = self.circuit_transfer_ns(circuit, payload_bytes, include_command)
        if occupancy:
            yield occupancy

        self.network.release(circuit)
        self.active_circuits_per_fc[fc_index] -= 1
        self._notify_release()

        self.circuit_hops_total += circuit.total_hops
        self.circuits_completed += 1
        self.stats.link_hop_busy_ns += occupancy * max(1, circuit.mesh_hops)
        self.stats.router_active_ns += occupancy * len(circuit.nodes)

        conflicted = first_attempt_failed
        outcome = TransferOutcome(
            waited=fc_waited or conflicted or chip_busy_wait,
            conflicted=conflicted,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=fc_index,
            scout_attempts=total_attempts,
        )
        self.stats.record(outcome)
        return outcome

    # ------------------------------------------------------------------ #

    def _notify_release(self) -> None:
        """Wake every scout parked on a failed reservation."""
        epoch, self._release_epoch = (
            self._release_epoch,
            self.engine.event("venice-release-epoch"),
        )
        epoch.succeed(None)

    @property
    def first_try_success_fraction(self) -> float:
        """Fraction of transfers whose first scout reserved a circuit."""
        if self.stats.transfers == 0:
            return 1.0
        return 1.0 - self.stats.conflicted_transfers / self.stats.transfers

    def mean_circuit_hops(self) -> float:
        if not self.circuits_completed:
            return 0.0
        return self.circuit_hops_total / self.circuits_completed
