"""Mesh-wide reservation state and the scout walk.

:class:`VeniceNetwork` is the one owner of Venice's reservation state: which
bidirectional links, chip ejection ports and controller drop points are held
by which circuit, which circuits hold a row of each router's reservation
table (Figure 7), and each router's 2-bit tie-break LFSR (§4.3).
:meth:`VeniceNetwork.try_reserve` performs one complete scout traversal --
Algorithm 1 at every router, link reservation on forward moves, cancel-mode
backtracking, livelock caps -- atomically against the current state.  This
atomicity is faithful because scout packets are two 8-bit flits travelling
at nanosecond scale while the circuits they reserve live for microseconds
(see DESIGN.md §3).

One structural rule follows from Figure 7: the router reservation table has
*one row per packet ID*, so a committed circuit can cross each router at
most once.  The walk therefore never extends the path onto a router that
already holds this scout's row; re-visiting a router is only possible
after backtracking cleared its row (which is also exactly when the paper
allows a revisit).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import ReservationError, RoutingError
from repro.interconnect.topology import (
    MESH_DIRECTIONS,
    Coord,
    MeshTopology,
    edge_key,
)
from repro.sim.rng import Lfsr2

# The walk's ports are Figure 7's codes as plain ints (the values of
# ``Direction``): RIGHT 0, UP 1, DOWN 2, LEFT 3, and EJECT 4.  NO_PORT is the
# flash controller's injection input as an entry port, and "backtrack" as a
# step's output.  The opposite of mesh port ``p`` is ``3 - p``.
EJECT = 4
NO_PORT = -1

# Algorithm 1 lines 5-26: by the signs of (Diff_x, Diff_y), i.e. of
# (dest col - col, dest row - row), the minimal-path ports and then the
# other mesh ports, indexed ``[sign_x][sign_y]`` so that a sign of -1 reads
# the last entry.  A larger row lies DOWN.  The X port precedes the Y port,
# the pseudocode's append order.  Arrival, (0, 0), has no minimal mesh port.
_MINIMAL_PORTS = (
    (((), (0, 1, 2, 3)), ((2,), (0, 1, 3)), ((1,), (0, 2, 3))),
    (((0,), (1, 2, 3)), ((0, 2), (1, 3)), ((0, 1), (2, 3))),
    (((3,), (0, 1, 2)), ((3, 2), (0, 1)), ((3, 1), (0, 2))),
)

# For each bitmask of mesh ports, those ports in code order.
_PORTS_IN = tuple(
    tuple(port for port in range(4) if mask >> port & 1) for mask in range(16)
)

# The paper caps router revisits at "four minus one, i.e., number of ports in
# a router minus the entry port of the scout packet" (footnote 5).
MAX_ROUTER_VISITS = 4


@dataclass
class ReservedCircuit:
    """A conflict-free bidirectional circuit from an FC to a flash chip."""

    circuit_id: int  # unique per live circuit (keys router table rows)
    fc_index: int  # the scout's packet ID (§4.2)
    destination: Coord
    nodes: List[Coord]  # router sequence, FC attach point first
    edges: List[FrozenSet[Coord]]  # mesh links held by the circuit
    minimal_hops: int  # Manhattan distance (non-minimality accounting)

    @property
    def mesh_hops(self) -> int:
        return len(self.edges)

    @property
    def total_hops(self) -> int:
        """Injection link + mesh links + ejection link (Equation 1 distance)."""
        return len(self.edges) + 2

    @property
    def is_minimal(self) -> bool:
        return len(self.edges) == self.minimal_hops


@dataclass
class ScoutResult:
    """Outcome of one scout traversal."""

    circuit: Optional[ReservedCircuit]
    forward_moves: int  # links the scout traversed going forward
    backtracks: int
    failure_reason: Optional[str] = None  # "chip-busy" | "path" | None

    @property
    def succeeded(self) -> bool:
        return self.circuit is not None

    @property
    def failed_on_chip(self) -> bool:
        """The destination chip's own interface was occupied.

        The paper's ideal SSD distinguishes exactly this: a request "does
        not experience path conflicts ... but it can still be delayed if the
        target flash chip is busy" (§3.3).  Chip busyness is therefore not a
        path conflict for Venice either.
        """
        return self.failure_reason == "chip-busy"

    @property
    def scout_hops(self) -> int:
        """Total link traversals of the scout (forward + backtrack legs)."""
        return self.forward_moves + self.backtracks


# The outcomes of scouts that fail before walking, shared: nothing mutates a
# ScoutResult.
_PATH_FAILED = ScoutResult(None, 0, 0, failure_reason="path")
_CHIP_BUSY = ScoutResult(None, 0, 0, failure_reason="chip-busy")
_SOURCE_FULL = ScoutResult(None, 0, 0)


class VeniceNetwork:
    """Reservation ground truth for a ``rows x cols`` Venice mesh.

    ``max_misroutes`` bounds how many *non-minimal* forward moves one scout
    may take.  The paper itself flags the cost of non-minimal paths ("a
    non-minimal path occupies more links ... Venice attempts to find
    path-conflict-free minimal paths as much as possible", §4.3); an
    unbounded misroute budget lets saturated meshes degenerate into long
    link-hogging circuits that destroy concurrency.  The bound is an
    explicit policy knob (ablated in benchmarks/bench_ablation.py).
    """

    #: Cap on one scout's walk length (forward moves plus backtracks), a
    #: simulation-cost guard: a scout that long is failing anyway and the
    #: FC would re-send it.
    MAX_SCOUT_STEPS = 256

    #: Column stride of the flash controllers' injection drops.  Venice
    #: reuses the former shared channel's multi-drop PCB routes as
    #: point-to-point injection links (the paper's §6.6 area analysis counts
    #: injection/ejection links as "the same as flash chips' connectors to
    #: the shared channel bus"), so each controller taps into its row at
    #: every second router rather than only at the west edge.  Without this
    #: the eight column-0 links form an 8 GB/s min-cut below the baseline's
    #: aggregate channel bandwidth and none of the paper's gains are
    #: reachable -- see DESIGN.md.
    INJECTION_STRIDE = 1

    def __init__(
        self,
        rows: int,
        cols: int,
        fc_count: int,
        lfsr_seed: int = 1,
        max_misroutes: int = 2,
    ) -> None:
        self.max_misroutes = max_misroutes
        self.topology = MeshTopology(rows, cols)
        self.fc_count = fc_count
        self.injection_cols = tuple(range(0, cols, self.INJECTION_STRIDE))
        #: Each router's reservation table (Figure 7), as the set of circuits
        #: holding one of its ``fc_count`` rows, in row-major router order.
        self.router_rows: Dict[Coord, Set[int]] = {}
        self._lfsrs: Dict[Coord, Lfsr2] = {}
        for row in range(rows):
            for col in range(cols):
                self.router_rows[(row, col)] = set()
                # Seed each router's LFSR differently so ties do not resolve
                # identically across the whole mesh.
                self._lfsrs[(row, col)] = Lfsr2((lfsr_seed + row * cols + col) % 3 + 1)
        self.link_owner: Dict[FrozenSet[Coord], int] = {}
        self.ejection_owner: Dict[Coord, int] = {}
        self.injection_owner: Dict[Coord, int] = {}  # occupied FC drop points
        self.circuits: Dict[int, ReservedCircuit] = {}
        # Fault masks (mutated through venice.degraded.DegradedVenice): a
        # dead link/router is excluded from usable() exactly like a busy
        # one, which is what lets Algorithm 1's existing backtracking route
        # around permanent failures.  Both sets are empty on a pristine
        # mesh, so every membership test below degenerates to a cheap miss.
        self._dead_links: Set[FrozenSet[Coord]] = set()
        self._dead_routers: Set[Coord] = set()
        self._degraded = None  # lazy DegradedVenice (see degraded_mode())
        # The walk's lookup table: for each node and mesh port code, the
        # neighbour, the canonical edge key and the neighbour's table rows
        # (None past the mesh edge), so the walk never allocates a frozenset,
        # re-derives a coordinate or hashes one to reach a row set.
        self._links: Dict[Coord, tuple] = {}
        for node in self.router_rows:
            links = []
            for direction in MESH_DIRECTIONS:
                other = self.topology.neighbor(node, direction)
                links.append(
                    None
                    if other is None
                    else (other, edge_key(node, other), self.router_rows[other])
                )
            self._links[node] = tuple(links)
        self._injection_rows = tuple(
            tuple((fc % rows, col) for col in self.injection_cols)
            for fc in range(fc_count)
        )
        # Per controller, per destination: its drop points by (distance,
        # position in _injection_rows), filled on first use.
        self._drop_order: List[Dict[Coord, Tuple[Coord, ...]]] = [
            {} for _ in range(fc_count)
        ]
        # accounting
        self.reservations = 0
        self.failed_reservations = 0
        self.non_minimal_circuits = 0
        self.total_scout_hops = 0
        self._next_circuit_id = 0

    # ------------------------------------------------------------------ #
    # link state queries
    # ------------------------------------------------------------------ #

    def ejection_free(self, node: Coord) -> bool:
        return node not in self.ejection_owner

    def injection_free(self, node: Coord) -> bool:
        return node not in self.injection_owner

    def injection_points(self, fc_index: int) -> List[Coord]:
        """Drop points of a controller, nearest row first."""
        return list(self._injection_rows[fc_index])

    def degraded_mode(self):
        """The fault-state controller for this mesh (created on first use).

        Returns a :class:`~repro.venice.degraded.DegradedVenice`; imported
        lazily to keep the pristine-mesh hot path free of the module.
        """
        if self._degraded is None:
            from repro.venice.degraded import DegradedVenice

            self._degraded = DegradedVenice(self)
        return self._degraded

    def is_partitioned(self, destination: Coord) -> bool:
        """True when faults cut ``destination`` off from every injection drop.

        Always ``False`` on a pristine mesh (checked without building the
        degraded-mode state); otherwise delegates to the per-epoch
        reachability oracle in :mod:`repro.venice.degraded`.
        """
        if not self._dead_links and not self._dead_routers:
            return False
        return self.degraded_mode().is_partitioned(destination)

    def best_injection(self, fc_index: int, destination: Coord) -> Optional[Coord]:
        """Free drop point closest to the destination (any drop if all busy).

        Under faults, drop points whose router is dead -- or that faults
        have cut into a different alive component than the destination (a
        guaranteed dead end for the walk, however near its coordinates) --
        are unusable; ``None`` means this controller has no usable drop for
        this destination.  Ties in distance go to the earlier drop point.
        """
        orders = self._drop_order[fc_index]
        order = orders.get(destination)
        if order is None:
            dest_row, dest_col = destination
            # sorted() is stable, so equal distances keep drop-point order.
            order = orders[destination] = tuple(
                sorted(
                    self._injection_rows[fc_index],
                    key=lambda point: abs(point[0] - dest_row) + abs(point[1] - dest_col),
                )
            )
        same_component = (
            self.degraded_mode().same_component
            if self._dead_routers or self._dead_links
            else None
        )
        occupied = self.injection_owner
        nearest = None
        for point in order:
            if same_component is not None and not same_component(point, destination):
                continue
            if point not in occupied:
                return point
            if nearest is None:
                nearest = point
        return nearest

    def links_in_use(self) -> int:
        return len(self.link_owner)

    # ------------------------------------------------------------------ #
    # scout traversal (Algorithm 1 + backtracking + livelock caps)
    # ------------------------------------------------------------------ #

    def try_reserve(self, fc_index: int, destination: Coord) -> ScoutResult:
        """Send one reserve-mode scout from controller ``fc_index``.

        Atomically reserves a circuit to ``destination`` or fails.  Scouts
        are serialised per FC by the fabric (one packet ID in flight per
        controller, §4.2); the *circuits* they establish are keyed by a
        unique circuit id so one controller can hold several live circuits
        at once -- see DESIGN.md on why the published throughput requires
        multi-circuit controllers and how the router reservation table's row
        capacity becomes the per-router constraint.
        """
        if not self.topology.contains(destination):
            raise RoutingError(f"destination {destination} outside mesh")
        if self._dead_routers and destination in self._dead_routers:
            # The destination's own router is dead: no path can terminate
            # here until it is repaired (a true partition for this chip).
            self.failed_reservations += 1
            return _PATH_FAILED
        if destination in self.ejection_owner:
            # Another circuit already terminates at this chip; no path can
            # succeed until it releases, so fail without walking the mesh.
            self.failed_reservations += 1
            return _CHIP_BUSY
        circuit_id = self._next_circuit_id
        self._next_circuit_id = circuit_id + 1

        source = self.best_injection(fc_index, destination)
        if source is None or source in self.injection_owner:
            # Every drop point of this controller sits on a dead router, or
            # every one is carrying a circuit.
            self.failed_reservations += 1
            return _PATH_FAILED
        router_rows = self.router_rows
        if len(router_rows[source]) >= self.fc_count:
            # No free row in the source router's reservation table: the scout
            # cannot even record its first hop.
            self.failed_reservations += 1
            return _SOURCE_FULL
        link_owner = self.link_owner
        links = self._links
        step_at = self._step_at
        max_steps = self.MAX_SCOUT_STEPS
        max_misroutes = self.max_misroutes
        # The backtracking stack holds one (node, entry port, exit port,
        # edge) frame per forward move; used_ports maps a node to the
        # bitmask of the ports this scout has reserved there.
        stack: List[Tuple[Coord, int, int, FrozenSet[Coord]]] = []
        used_ports: Dict[Coord, int] = defaultdict(int)
        visits: Dict[Coord, int] = defaultdict(int)
        visits[source] = 1
        current = source
        input_port = NO_PORT  # arrived from the FC injection port
        forward_moves = 0
        backtracks = 0
        misroutes = 0

        while True:
            if forward_moves + backtracks > max_steps:
                # Walk-length guard: unwind everything and report failure.
                for node, _, _, edge in stack:
                    del link_owner[edge]
                    router_rows[node].remove(circuit_id)
                self.failed_reservations += 1
                self.total_scout_hops += forward_moves + backtracks
                self._assert_clean(circuit_id, visits)
                return ScoutResult(None, forward_moves, backtracks, failure_reason="path")

            output, minimal = step_at(
                circuit_id, current, destination, input_port, used_ports, visits
            )
            if output == EJECT:
                # The destination router records a row (entry port -> its
                # ejection port) only when the scout arrived over a mesh link.
                # A circuit injected at its destination router enters and
                # leaves through the one local port, and a table row needs
                # two different ports, so that circuit takes no row (giving
                # it one would change which scouts find a free row).
                if input_port != NO_PORT:
                    router_rows[current].add(circuit_id)
                circuit = self._commit(fc_index, circuit_id, destination, source, stack)
                self.reservations += 1
                self.total_scout_hops += forward_moves + backtracks
                if not circuit.is_minimal:
                    self.non_minimal_circuits += 1
                return ScoutResult(circuit, forward_moves, backtracks)

            # A misroute past the budget is cancelled into a backtrack, after
            # _step_at's pick has advanced the LFSR.
            if output != NO_PORT and (minimal or misroutes < max_misroutes):
                next_node, edge, _ = links[current][output]
                link_owner[edge] = circuit_id
                used_ports[current] |= 1 << output
                router_rows[current].add(circuit_id)
                stack.append((current, input_port, output, edge))
                visits[next_node] += 1
                input_port = 3 - output
                current = next_node
                forward_moves += 1
                if not minimal:
                    misroutes += 1
                continue

            # BACKTRACK: the scout flips to cancel mode, retreats one hop,
            # and the upstream router clears its reservation row (§4.2).
            if not stack:
                self.failed_reservations += 1
                self.total_scout_hops += forward_moves + backtracks
                self._assert_clean(circuit_id, visits)
                return ScoutResult(None, forward_moves, backtracks, failure_reason="path")
            current, input_port, _, edge = stack.pop()
            del link_owner[edge]
            router_rows[current].remove(circuit_id)
            backtracks += 1

    # ------------------------------------------------------------------ #

    def _step_at(
        self,
        circuit_id: int,
        current: Coord,
        destination: Coord,
        input_port: int,
        used_ports: Dict[Coord, int],
        visits: Dict[Coord, int],
    ) -> Tuple[int, bool]:
        """One Algorithm 1 invocation on the walk's integer port codes.

        Returns ``(port, minimal)``: ``EJECT`` to eject, a mesh port code
        to move forward (``minimal`` says whether it lies on a minimal
        path), or ``NO_PORT`` to backtrack.  ``input_port`` is the code the
        scout arrived on (``NO_PORT`` at the source router) and
        ``used_ports`` holds, per node, the bitmask of the ports this scout
        has reserved there.  A port is usable iff it has an in-mesh *alive*
        neighbour whose reservation table has a free row and no row of this
        circuit, its link is unowned *and not failed*, and this scout has
        not already reserved it at this router.  Candidates are listed in
        Algorithm 1's order and the router's LFSR picks only among two or
        more.  Dead links/routers (fault injection, DESIGN.md §7) are folded
        in exactly like busy ones, so degraded-mode routing is the same
        Algorithm 1.  The differential test checks every decision against
        a reference Algorithm 1 over ``Direction`` ports.
        """
        if visits[current] > MAX_ROUTER_VISITS:
            # Livelock cap (§4.3): after too many revisits the scout traces
            # back to the upstream router.
            return NO_PORT, False

        consumed = used_ports[current]
        links = self._links[current]
        link_owner = self.link_owner
        capacity = self.fc_count  # one table row per flash controller
        dead_links = self._dead_links
        dead_routers = self._dead_routers

        diff_x = destination[1] - current[1]
        diff_y = destination[0] - current[0]
        minimal, others = _MINIMAL_PORTS[(diff_x > 0) - (diff_x < 0)][
            (diff_y > 0) - (diff_y < 0)
        ]
        if not minimal:
            # Case 9: arrived; eject if the chip's I/O pins are free.
            if destination not in self.ejection_owner:
                return EJECT, True
        else:
            # Lines 5-26: each free minimal-direction port joins the list
            # (a bitmask here).  A minimal port always has an in-mesh
            # neighbour.
            free = 0
            for port in minimal:
                if consumed >> port & 1:
                    continue
                neighbor, edge, rows = links[port]
                if (
                    edge in link_owner
                    or circuit_id in rows
                    or len(rows) >= capacity
                    or (dead_links and edge in dead_links)
                    or (dead_routers and neighbor in dead_routers)
                ):
                    continue
                free |= 1 << port
            if free:
                # Lines 27-32: one or two candidates; LFSR picks among two.
                if free & (free - 1):
                    return minimal[self._lfsrs[current].pick(2)], True
                return _PORTS_IN[free][0], True

        # Lines 33-45: misroute through any free port that is neither the
        # ejection port nor the input link.  The minimal ports were just
        # found unusable, so only the others are checked.
        free = 0
        for port in others:
            if port == input_port or consumed >> port & 1:
                continue
            link = links[port]
            if link is None:
                continue
            neighbor, edge, rows = link
            if (
                edge in link_owner
                or circuit_id in rows
                or len(rows) >= capacity
                or (dead_links and edge in dead_links)
                or (dead_routers and neighbor in dead_routers)
            ):
                continue
            free |= 1 << port
        if free:
            non_minimal = _PORTS_IN[free]
            if free & (free - 1):
                return non_minimal[self._lfsrs[current].pick(len(non_minimal))], False
            return non_minimal[0], False

        # Lines 46-47: the only way out is back where we came from.
        return NO_PORT, False

    def _commit(
        self,
        fc_index: int,
        circuit_id: int,
        destination: Coord,
        source: Coord,
        stack: List[Tuple[Coord, int, int, FrozenSet[Coord]]],
    ) -> ReservedCircuit:
        self.ejection_owner[destination] = circuit_id
        self.injection_owner[source] = circuit_id
        links = self._links
        nodes = [source]
        nodes += [links[node][exit_port][0] for node, _, exit_port, _ in stack]
        circuit = ReservedCircuit(
            circuit_id=circuit_id,
            fc_index=fc_index,
            destination=destination,
            nodes=nodes,
            edges=[edge for _, _, _, edge in stack],
            minimal_hops=self.topology.manhattan(source, destination),
        )
        self.circuits[circuit_id] = circuit
        return circuit

    def _assert_clean(self, circuit_id: int, visited: Iterable[Coord] = ()) -> None:
        """A fully backtracked scout must leave no reservations behind.

        Only the routers the scout actually visited can hold its table rows,
        so the check walks ``visited`` (the walk's visit set) instead of the
        whole mesh; live links are scanned in full (the dict is small).
        """
        for owner in self.link_owner.values():
            if owner == circuit_id:
                raise ReservationError(
                    f"failed scout circuit {circuit_id} left a link reserved"
                )
        router_rows = self.router_rows
        for node in visited:
            if circuit_id in router_rows[node]:
                raise ReservationError(
                    f"failed scout circuit {circuit_id} left a router table row"
                )

    # ------------------------------------------------------------------ #
    # circuit teardown
    # ------------------------------------------------------------------ #

    def release(self, circuit: ReservedCircuit) -> None:
        """Tear down a circuit after its transfer completes."""
        stored = self.circuits.pop(circuit.circuit_id, None)
        if stored is not circuit:
            raise ReservationError(
                f"releasing unknown circuit {circuit.circuit_id}"
            )
        for edge in circuit.edges:
            owner = self.link_owner.pop(edge, None)
            if owner != circuit.circuit_id:
                raise ReservationError(
                    f"link {set(edge)} owned by {owner}, not {circuit.circuit_id}"
                )
        owner = self.ejection_owner.pop(circuit.destination, None)
        if owner != circuit.circuit_id:
            raise ReservationError(
                f"ejection at {circuit.destination} owned by {owner}, "
                f"not {circuit.circuit_id}"
            )
        if circuit.nodes:
            owner = self.injection_owner.pop(circuit.nodes[0], None)
            if owner != circuit.circuit_id:
                raise ReservationError(
                    f"injection at {circuit.nodes[0]} owned by {owner}, "
                    f"not {circuit.circuit_id}"
                )
        for node in circuit.nodes:
            self.router_rows[node].discard(circuit.circuit_id)

    # ------------------------------------------------------------------ #
    # invariants (exercised by the property tests)
    # ------------------------------------------------------------------ #

    def assert_consistent(self) -> None:
        """Check global reservation invariants.

        * every held link belongs to exactly one live circuit,
        * circuits are pairwise link-disjoint (conflict-freedom),
        * every circuit is a connected path from its FC attach point to its
          destination,
        * no orphan link or ejection reservations exist,
        * a circuit that crosses two or more routers holds a table row at
          each of them, a local circuit (injected at its destination router)
          holds none, no router holds more than ``fc_count`` rows, and every
          row belongs to a live circuit on that router.
        """
        seen: Dict[FrozenSet[Coord], int] = {}
        expected_rows: Dict[Coord, Set[int]] = {
            node: set() for node in self.router_rows
        }
        for circuit_id, circuit in self.circuits.items():
            if circuit.nodes[0] not in self.injection_points(circuit.fc_index):
                raise ReservationError(
                    f"circuit {circuit_id} starts at {circuit.nodes[0]}, "
                    f"not one of FC {circuit.fc_index}'s drop points"
                )
            if circuit.nodes[-1] != circuit.destination:
                raise ReservationError(
                    f"circuit {circuit_id} ends at {circuit.nodes[-1]}, "
                    f"not its destination {circuit.destination}"
                )
            for node_a, node_b in zip(circuit.nodes, circuit.nodes[1:]):
                if self.topology.manhattan(node_a, node_b) != 1:
                    raise ReservationError(
                        f"circuit {circuit_id} jumps {node_a} -> {node_b}"
                    )
                edge = edge_key(node_a, node_b)
                if edge in seen:
                    raise ReservationError(
                        f"link {set(edge)} shared by circuits "
                        f"{seen[edge]} and {circuit_id}"
                    )
                seen[edge] = circuit_id
                if self.link_owner.get(edge) != circuit_id:
                    raise ReservationError(
                        f"link {set(edge)} not owned by circuit {circuit_id}"
                    )
            if self.ejection_owner.get(circuit.destination) != circuit_id:
                raise ReservationError(
                    f"ejection of circuit {circuit_id} not reserved"
                )
            if len(circuit.nodes) > 1:
                for node in circuit.nodes:
                    expected_rows[node].add(circuit_id)
        for edge, owner in self.link_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan link {set(edge)} owned by {owner}")
        for node, owner in self.ejection_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan ejection at {node} owned by {owner}")
        for node, owner in self.injection_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan injection at {node} owned by {owner}")
        for node, rows in self.router_rows.items():
            if len(rows) > self.fc_count:
                raise ReservationError(
                    f"router {node} holds {len(rows)} rows, "
                    f"more than its {self.fc_count}"
                )
            if rows != expected_rows[node]:
                raise ReservationError(
                    f"router {node} holds rows of circuits {sorted(rows)}, "
                    f"not {sorted(expected_rows[node])}"
                )
