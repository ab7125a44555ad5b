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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import ReservationError, RoutingError
from repro.interconnect.topology import (
    MESH_DIRECTIONS,
    Coord,
    Direction,
    MeshTopology,
    edge_key,
)
from repro.sim.rng import Lfsr2
from repro.venice.routing import (
    MAX_ROUTER_VISITS,
    MINIMAL_DIRECTIONS_BY_SIGN as _MINIMAL_BY_SIGN,
)


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


@dataclass
class _WalkFrame:
    """One forward move on the backtracking stack."""

    node: Coord
    entry_port: Optional[Direction]  # scout's input port when it was at node
    exit_port: Direction
    edge: FrozenSet[Coord]


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
        # Hot-path lookup tables: per-node neighbour coordinate and
        # canonical edge key, indexed by Direction.value (RIGHT/UP/DOWN/
        # LEFT), so the scout walk never allocates a frozenset or re-derives
        # a coordinate.
        self._neighbors: Dict[Coord, tuple] = {}
        self._edges: Dict[Coord, tuple] = {}
        for node in self.router_rows:
            nearby = []
            edges = []
            for direction in MESH_DIRECTIONS:
                other = self.topology.neighbor(node, direction)
                nearby.append(other)
                edges.append(None if other is None else edge_key(node, other))
            self._neighbors[node] = tuple(nearby)
            self._edges[node] = tuple(edges)
        self._injection_rows = tuple(
            tuple((fc % rows, col) for col in self.injection_cols)
            for fc in range(fc_count)
        )
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
        this destination.
        """
        points = self._injection_rows[fc_index]
        if self._dead_routers or self._dead_links:
            degraded = self.degraded_mode()
            points = tuple(
                point
                for point in points
                if degraded.same_component(point, destination)
            )
            if not points:
                return None
        dest_row, dest_col = destination
        occupied = self.injection_owner
        best = None
        best_distance = 1 << 30
        for point in points:
            if point not in occupied:
                distance = abs(point[0] - dest_row) + abs(point[1] - dest_col)
                if distance < best_distance:
                    best_distance = distance
                    best = point
        if best is not None:
            return best
        for point in points:
            distance = abs(point[0] - dest_row) + abs(point[1] - dest_col)
            if distance < best_distance:
                best_distance = distance
                best = point
        return best

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
            return ScoutResult(None, 0, 0, failure_reason="path")
        if not self.ejection_free(destination):
            # Another circuit already terminates at this chip; no path can
            # succeed until it releases, so fail without walking the mesh.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="chip-busy")
        circuit_id = self._next_circuit_id
        self._next_circuit_id += 1

        source = self.best_injection(fc_index, destination)
        if source is None:
            # Every drop point of this controller sits on a dead router.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="path")
        if not self.injection_free(source):
            # Every drop point of this controller is carrying a circuit.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="path")
        router_rows = self.router_rows
        if len(router_rows[source]) >= self.fc_count:
            # No free row in the source router's reservation table: the scout
            # cannot even record its first hop.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0)
        stack: List[_WalkFrame] = []
        used_ports: Dict[Coord, Set[Direction]] = {}
        visits: Dict[Coord, int] = {source: 1}
        current = source
        input_port: Optional[Direction] = None  # arrived from the FC injection port
        forward_moves = 0
        backtracks = 0
        misroutes = 0

        while True:
            if forward_moves + backtracks > self.MAX_SCOUT_STEPS:
                # Walk-length guard: unwind everything and report failure.
                while stack:
                    frame = stack.pop()
                    del self.link_owner[frame.edge]
                    router_rows[frame.node].remove(circuit_id)
                self.failed_reservations += 1
                self.total_scout_hops += forward_moves + backtracks
                self._assert_clean(circuit_id, visits)
                return ScoutResult(None, forward_moves, backtracks, failure_reason="path")

            # _step_at returns (output_port, minimal): EJECT means eject,
            # None means backtrack, a mesh port means forward.
            output, minimal = self._step_at(
                circuit_id, current, destination, input_port, used_ports, visits
            )
            if output is not None and output is not Direction.EJECT:
                if not minimal and misroutes >= self.max_misroutes:
                    # Misroute budget exhausted: treat as no usable output.
                    output = None

            if output is Direction.EJECT:
                # The destination router records a row (entry port -> its
                # ejection port) only when the scout arrived over a mesh link.
                # A circuit injected at its destination router enters and
                # leaves through the one local port, and a table row needs
                # two different ports, so that circuit takes no row (giving
                # it one would change which scouts find a free row).
                if input_port is not None:
                    router_rows[current].add(circuit_id)
                circuit = self._commit(fc_index, circuit_id, destination, source, stack)
                self.reservations += 1
                self.total_scout_hops += forward_moves + backtracks
                if not circuit.is_minimal:
                    self.non_minimal_circuits += 1
                return ScoutResult(circuit, forward_moves, backtracks)

            if output is not None:
                port_value = output._value_
                next_node = self._neighbors[current][port_value]
                assert next_node is not None, "usable() admitted an edge port"
                edge = self._edges[current][port_value]
                self.link_owner[edge] = circuit_id
                used = used_ports.get(current)
                if used is None:
                    used_ports[current] = {output}
                else:
                    used.add(output)
                router_rows[current].add(circuit_id)
                stack.append(_WalkFrame(current, input_port, output, edge))
                visits[next_node] = visits.get(next_node, 0) + 1
                input_port = output.opposite
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
            frame = stack.pop()
            del self.link_owner[frame.edge]
            router_rows[frame.node].remove(circuit_id)
            current = frame.node
            input_port = frame.entry_port
            backtracks += 1

    # ------------------------------------------------------------------ #

    def _step_at(
        self,
        circuit_id: int,
        current: Coord,
        destination: Coord,
        input_port: Optional[Direction],
        used_ports: Dict[Coord, Set[Direction]],
        visits: Dict[Coord, int],
    ) -> Tuple[Optional[Direction], bool]:
        """One Algorithm 1 invocation, inlined for the scout hot path.

        Returns ``(output, minimal)``: ``Direction.EJECT`` to eject, a mesh
        port to move forward (``minimal`` says whether it lies on a minimal
        path), or ``None`` to backtrack.  This is an exact inline of
        :func:`repro.venice.routing.route_step` (the pure, property-tested
        reference) over the usable() predicate: a port is usable iff it has
        an in-mesh *alive* neighbour whose reservation table has a free row
        and no row of this circuit, its link is unowned *and not failed*,
        and this scout has not already reserved it at this router; candidate
        order and LFSR tie-break cadence (advance only on 2+ candidates)
        match exactly.  Dead links/routers (fault injection, DESIGN.md §7)
        are folded in exactly like busy ones, so degraded-mode routing is
        the same Algorithm 1 the property tests cover.
        """
        if visits.get(current, 0) > MAX_ROUTER_VISITS:
            # Livelock cap (§4.3): after too many revisits the scout traces
            # back to the upstream router.
            return None, False

        consumed = used_ports.get(current)
        neighbors = self._neighbors[current]
        edges = self._edges[current]
        router_rows = self.router_rows
        link_owner = self.link_owner
        capacity = self.fc_count  # one table row per flash controller
        dead_links = self._dead_links
        dead_routers = self._dead_routers

        diff_x = destination[1] - current[1]
        diff_y = destination[0] - current[0]
        if diff_x == 0 and diff_y == 0:
            # Case 9: arrived; eject if the chip's I/O pins are free.
            if destination not in self.ejection_owner:
                return Direction.EJECT, True
            candidates: List[Direction] = []
        else:
            # Lines 5-26: each free minimal-direction port joins the list.
            minimal = _MINIMAL_BY_SIGN[
                ((diff_x > 0) - (diff_x < 0), (diff_y > 0) - (diff_y < 0))
            ]
            candidates = []
            for port in minimal:
                if consumed is not None and port in consumed:
                    continue
                value = port._value_  # plain attr: skips the enum descriptor
                neighbor = neighbors[value]
                if neighbor is None or neighbor in dead_routers:
                    continue
                rows = router_rows[neighbor]
                if circuit_id in rows or len(rows) >= capacity:
                    continue
                edge = edges[value]
                if edge not in link_owner and edge not in dead_links:
                    candidates.append(port)
            if candidates:
                # Lines 27-32: one or two candidates; LFSR picks among two.
                if len(candidates) == 1:
                    return candidates[0], True
                return candidates[self._lfsrs[current].pick(len(candidates))], True

        # Lines 33-45: misroute through any free port that is neither the
        # ejection port nor the input link.
        non_minimal: List[Direction] = []
        for port in MESH_DIRECTIONS:
            if port is input_port:
                continue
            if consumed is not None and port in consumed:
                continue
            value = port._value_
            neighbor = neighbors[value]
            if neighbor is None or neighbor in dead_routers:
                continue
            rows = router_rows[neighbor]
            if circuit_id in rows or len(rows) >= capacity:
                continue
            edge = edges[value]
            if edge not in link_owner and edge not in dead_links:
                non_minimal.append(port)
        if non_minimal:
            if len(non_minimal) == 1:
                return non_minimal[0], False
            return non_minimal[self._lfsrs[current].pick(len(non_minimal))], False

        # Lines 46-47: the only way out is back where we came from.
        return None, False

    def _commit(
        self,
        fc_index: int,
        circuit_id: int,
        destination: Coord,
        source: Coord,
        stack: List[_WalkFrame],
    ) -> ReservedCircuit:
        self.ejection_owner[destination] = circuit_id
        self.injection_owner[source] = circuit_id
        nodes: List[Coord] = [source]
        for frame in stack:
            next_node = self._neighbors[frame.node][frame.exit_port._value_]
            assert next_node is not None
            nodes.append(next_node)
        circuit = ReservedCircuit(
            circuit_id=circuit_id,
            fc_index=fc_index,
            destination=destination,
            nodes=nodes,
            edges=[frame.edge for frame in stack],
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
