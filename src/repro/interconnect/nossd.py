"""Network-on-SSD (NoSSD) fabric.

NoSSD (Tavakkol et al., IEEE CAL 2012; Figure 2(d)) replaces the shared buses
with a 2D mesh of *buffered* routers integrated into the flash chips and
routes packets with deterministic dimension-order (XY) routing -- the routing
choice the Venice paper identifies as NoSSD's key weakness (§3.2).

Model:

* one router per chip; flash controllers inject on the west edge, one per
  row; each chip is *statically* assigned to one controller (diagonal
  hash), because NoSSD's dimension-order routing is deterministic end to
  end -- there is no run-time path adaptation to exploit (§3.2),
* virtual cut-through switching: the packet head advances one router per
  ``router_pipeline_ns`` when the next link is free; each traversed link
  stays busy for the packet's full serialization time *behind* the head,
  and the 16 KB buffer per router port (the overhead the paper criticises
  NoSSD for) absorbs the packet when the next link is busy -- so there is
  no upstream head-of-line holding,
* links are *directed* FIFO resources; with XY ordering and per-hop
  buffering there is no circular wait, so no deadlock,
* a transfer "experiences a path conflict" if it waited at injection or at
  any link along its deterministic path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Set, Tuple

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.interconnect.base import Fabric, TransferOutcome
from repro.interconnect.topology import Coord, MeshTopology, xy_path
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.sim.resources import Lease, Resource

DirectedEdge = Tuple[Coord, Coord]


class NossdFabric(Fabric):
    """2D mesh with deterministic XY routing and buffered routers."""

    design = DesignKind.NOSSD

    def __init__(self, engine: Engine, config: SsdConfig) -> None:
        super().__init__(engine, config)
        self.topology = MeshTopology(config.mesh_rows, config.mesh_cols)
        self.links: Dict[DirectedEdge, Resource] = {}
        for edge in self.topology.edges():
            a, b = sorted(edge)
            self.links[(a, b)] = Resource(engine, f"nossd-link{a}->{b}")
            self.links[(b, a)] = Resource(engine, f"nossd-link{b}->{a}")
        self.injections: List[Resource] = [
            Resource(engine, f"nossd-inject[{fc}]")
            for fc in range(config.flash_controllers)
        ]
        # Ejection into the destination chip: one set of chip I/O pins.
        self.ejections: Dict[Coord, Resource] = {
            (row, col): Resource(engine, f"nossd-eject({row},{col})")
            for row in range(self.topology.rows)
            for col in range(self.topology.cols)
        }
        # Routing is deterministic end to end, so the full resource chain of
        # a destination -- injection port, XY-path links, ejection port --
        # never changes; resolve it once instead of re-walking the topology
        # dictionaries on every transfer.
        self._route_cache: Dict[Coord, Tuple[Tuple[Coord, ...], Tuple[Resource, ...]]] = {}
        self._serialization_cache: Dict[Tuple[int, bool], int] = {}
        # Fault state: failed links (canonical sorted node pairs) and failed
        # routers.  XY routing cannot adapt (§3.2), so a packet whose fixed
        # path crosses a dead element blocks until the element is repaired.
        self._dead_edges: Set[Tuple[Coord, Coord]] = set()
        self._dead_routers: Set[Coord] = set()
        self._faulted = False

    # ------------------------------------------------------------------ #
    # fault injection (DESIGN.md §7)
    # ------------------------------------------------------------------ #

    def apply_link_fault(self, a, b, down: bool) -> None:
        """Fail or repair one bidirectional mesh link (both directions)."""
        edge = tuple(sorted((tuple(a), tuple(b))))
        if down:
            self._dead_edges.add(edge)
        else:
            self._dead_edges.discard(edge)
        self._faulted = bool(self._dead_edges or self._dead_routers)
        self._fault_state_changed()

    def apply_router_fault(self, node, down: bool) -> None:
        """Fail or repair one buffered router (packets cannot transit it)."""
        node = tuple(node)
        if down:
            self._dead_routers.add(node)
        else:
            self._dead_routers.discard(node)
        self._faulted = bool(self._dead_edges or self._dead_routers)
        self._fault_state_changed()

    def _path_broken(self, path: Tuple[Coord, ...]) -> bool:
        """True when the fixed XY path crosses a dead link or dead router."""
        dead_routers = self._dead_routers
        if dead_routers:
            for node in path:
                if node in dead_routers:
                    return True
        dead_edges = self._dead_edges
        if dead_edges:
            for a, b in zip(path, path[1:]):
                if (a, b) in dead_edges or (b, a) in dead_edges:
                    return True
        return False

    # ------------------------------------------------------------------ #

    def _choose_fc(self, chip: ChipAddress) -> int:
        """Static, load-balanced chip-to-controller assignment.

        NoSSD's routing is deterministic end to end -- "NoSSD employs simple
        deterministic routing ... that cannot adapt to the availability of
        multiple free paths" (§3.2) -- so the serving controller is a fixed
        function of the chip, not a run-time choice.  The diagonal hash
        spreads each row's chips across all controllers (a plain row-to-FC
        map would reduce the mesh to per-row buses).
        """
        return (chip.channel + chip.way) % len(self.injections)

    def serialization_ns(self, payload_bytes: int, include_command: bool) -> int:
        """Time for the packet tail to cross one link (flit count x cycle)."""
        key = (payload_bytes, include_command)
        cached = self._serialization_cache.get(key)
        if cached is None:
            interconnect = self.config.interconnect
            cached = self._serialization_cache[key] = self.command_ns(
                include_command
            ) + interconnect.link_transfer_ns(payload_bytes, distance_hops=0)
        return cached

    def _route_for(
        self, fc_index: int, destination: Coord
    ) -> Tuple[Tuple[Coord, ...], Tuple[Resource, ...]]:
        """Deterministic resource chain to a chip: injection, links, ejection.

        NoSSD's routing never adapts, so the chain is resolved once per
        destination and cached (the first element is the XY path's node
        sequence, used for hop/occupancy accounting and the fault check).
        """
        cached = self._route_cache.get(destination)
        if cached is None:
            source = self.topology.fc_attach_point(fc_index)
            path = xy_path(self.topology, source, destination)
            chain = [self.injections[fc_index]]
            chain.extend(self.links[(a, b)] for a, b in zip(path, path[1:]))
            chain.append(self.ejections[destination])
            cached = self._route_cache[destination] = (tuple(path), tuple(chain))
        return cached

    def transfer(
        self,
        chip: ChipAddress,
        payload_bytes: int,
        include_command: bool = True,
    ) -> Generator:
        fc_index = self._choose_fc(chip)
        destination = (chip.channel, chip.way)
        path, chain = self._route_for(fc_index, destination)
        path_nodes = len(path)
        hop_latency = max(
            1,
            round(self.config.interconnect.link_cycle_ns)
            + self.config.interconnect.router_pipeline_ns,
        )
        serialization = self.serialization_ns(payload_bytes, include_command)

        start = self.engine.now
        waited = False
        eject_waited = False
        if self._faulted:
            # Dimension-order routing "cannot adapt to the availability of
            # multiple free paths" (§3.2): a dead element on the fixed path
            # blocks the packet until the element is repaired.
            blocked = False
            while self._path_broken(path):
                if not blocked:
                    blocked = True
                    self.stats.blocked_transfers += 1
                yield self._fault_wait()
            waited = blocked
        schedule = self.engine.schedule
        last = len(chain) - 1

        # Virtual cut-through: the head acquires each hop resource in path
        # order and moves on after one hop latency; the hop itself stays
        # busy for the packet's serialization time behind the head (released
        # by a scheduled event, not by this process, so a busy downstream
        # link never blocks the upstream one -- the port buffer absorbs
        # flits).  Waiting at the destination's own ejection port (the final
        # chain element) is chip busyness, not a path conflict (the §3.3
        # ideal-SSD distinction), so it never raises the conflict flag.
        for position, resource in enumerate(chain):
            lease = yield resource.acquire()
            schedule(serialization, lease.release)
            yield hop_latency
            if lease.waited:
                if position == last:
                    eject_waited = True
                else:
                    waited = True

        # The tail drains into the destination once the head has arrived.
        yield serialization

        outcome = TransferOutcome(
            waited=waited or eject_waited,
            conflicted=waited,
            start_ns=start,
            end_ns=self.engine.now,
            fc_index=fc_index,
        )
        self.stats.link_hop_busy_ns += serialization * max(1, path_nodes - 1)
        self.stats.router_active_ns += serialization * path_nodes
        self.stats.record(outcome)
        return outcome
