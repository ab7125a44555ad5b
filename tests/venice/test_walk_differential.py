"""Differential test: the scout walk vs the pure Algorithm 1 reference.

``VeniceNetwork._step_at`` takes Algorithm 1's decisions on integer port
codes (Figure 7's: RIGHT 0, UP 1, DOWN 2, LEFT 3, EJECT 4, and -1 for the
injection input or a backtrack).  ``routing_reference.route_step`` takes
them over ``Direction`` ports and is property-tested against the
pseudocode.  This test proves the two stay decision-for-decision identical
by running complete reservations on a thousand random (topology,
fault-mask) cases twice:

* once through the real ``try_reserve`` (with every ``_step_at`` decision
  recorded and decoded back into ``Direction``s), and
* once through a reference walker that re-implements the *stateful* part of
  the walk (stack, reservations, budgets) but takes every routing decision
  from ``route_step`` over an explicit ``usable()`` predicate.

Both walks run against identically-constructed networks (same LFSR seeds,
same dead links/routers), so any divergence -- an extra LFSR advance, a
different candidate order, a missed fault check -- shows up as a decision
or state mismatch.  A second run caps the walks at a few steps, so the
walk-length guard's unwind is compared too, and a property test compares
``best_injection`` with the two-scan rule it replaced.
"""

import random

from repro.interconnect.topology import Direction, edge_key
from repro.venice.network import MAX_ROUTER_VISITS, ReservedCircuit, VeniceNetwork
from routing_reference import StepKind, route_step


def decode(port):
    """The walk's integer port code as the reference's ``Direction``."""
    return None if port < 0 else Direction(port)


class RecordingNetwork(VeniceNetwork):
    """VeniceNetwork that logs every ``_step_at`` decision, decoded."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions = []

    def _step_at(self, circuit_id, current, destination, input_port, used_ports, visits):
        output, minimal = super()._step_at(
            circuit_id, current, destination, input_port, used_ports, visits
        )
        self.decisions.append((current, decode(input_port), decode(output), minimal))
        return output, minimal


class ShortRecordingNetwork(RecordingNetwork):
    """A recording network whose walk-length guard trips after a few steps."""

    MAX_SCOUT_STEPS = 3


class ShortNetwork(VeniceNetwork):
    MAX_SCOUT_STEPS = 3


def reference_reserve(network, fc_index, destination, decisions):
    """``try_reserve`` re-implemented over the pure ``route_step`` reference.

    Mirrors the stateful walk (budgets, stack, reservations) line for line
    but delegates every routing decision to ``routing.route_step``.
    Returns the committed node list or ``None``; appends each decision as
    ``(current, input_port, output, minimal)`` to ``decisions``.
    """
    if not network.topology.contains(destination):
        raise AssertionError("cases only use in-mesh destinations")
    if network._dead_routers and destination in network._dead_routers:
        return None
    if destination in network.ejection_owner:
        return None
    circuit_id = network._next_circuit_id
    network._next_circuit_id += 1
    source = network.best_injection(fc_index, destination)
    if source is None or source in network.injection_owner:
        return None
    if len(network.router_rows[source]) >= network.fc_count:
        return None

    stack = []
    used_ports = {}
    visits = {source: 1}
    current = source
    input_port = None
    forward_moves = backtracks = misroutes = 0

    def decide():
        if visits.get(current, 0) > MAX_ROUTER_VISITS:
            return None, False  # livelock cap, checked before Algorithm 1

        def usable(port):
            if port is Direction.EJECT:
                return destination not in network.ejection_owner
            consumed = used_ports.get(current)
            if consumed is not None and port in consumed:
                return False
            neighbor = network.topology.neighbor(current, port)
            if neighbor is None or neighbor in network._dead_routers:
                return False
            rows = network.router_rows[neighbor]
            if circuit_id in rows or len(rows) >= network.fc_count:
                return False
            edge = edge_key(current, neighbor)
            return edge not in network.link_owner and edge not in network._dead_links

        step = route_step(
            current=current,
            destination=destination,
            input_port=input_port,
            usable=usable,
            choose=lambda ports: ports[network._lfsrs[current].pick(len(ports))],
        )
        if step.kind is StepKind.EJECT:
            return Direction.EJECT, True
        if step.kind is StepKind.BACKTRACK:
            return None, False
        return step.output, step.minimal

    # Frames are (node, entry port, exit port, edge), over Directions.
    while True:
        if forward_moves + backtracks > network.MAX_SCOUT_STEPS:
            while stack:
                node, _, _, edge = stack.pop()
                del network.link_owner[edge]
                network.router_rows[node].remove(circuit_id)
            return None

        output, minimal = decide()
        decisions.append((current, input_port, output, minimal))
        if output is not None and output is not Direction.EJECT:
            if not minimal and misroutes >= network.max_misroutes:
                output = None

        if output is Direction.EJECT:
            if input_port is not None:  # a local circuit takes no row
                network.router_rows[current].add(circuit_id)
            network.ejection_owner[destination] = circuit_id
            network.injection_owner[source] = circuit_id
            nodes = [source]
            for node, _, exit_port, _ in stack:
                nodes.append(network.topology.neighbor(node, exit_port))
            # Register the circuit so later walks see identical table state.
            network.circuits[circuit_id] = ReservedCircuit(
                circuit_id=circuit_id,
                fc_index=fc_index,
                destination=destination,
                nodes=nodes,
                edges=[edge for _, _, _, edge in stack],
                minimal_hops=network.topology.manhattan(source, destination),
            )
            return nodes

        if output is not None:
            next_node = network.topology.neighbor(current, output)
            edge = edge_key(current, next_node)
            network.link_owner[edge] = circuit_id
            used_ports.setdefault(current, set()).add(output)
            network.router_rows[current].add(circuit_id)
            stack.append((current, input_port, output, edge))
            visits[next_node] = visits.get(next_node, 0) + 1
            input_port = output.opposite
            current = next_node
            forward_moves += 1
            if not minimal:
                misroutes += 1
            continue

        if not stack:
            return None
        current, input_port, _, edge = stack.pop()
        del network.link_owner[edge]
        network.router_rows[current].remove(circuit_id)
        backtracks += 1


def build_pair(rng, real_class=RecordingNetwork, reference_class=VeniceNetwork):
    """Two identically-seeded networks with one random fault mask."""
    rows = rng.randint(2, 5)
    cols = rng.randint(2, 5)
    seed = rng.randint(1, 3)
    misroutes = rng.randint(0, 3)
    real = real_class(rows, cols, rows, lfsr_seed=seed, max_misroutes=misroutes)
    reference = reference_class(rows, cols, rows, lfsr_seed=seed, max_misroutes=misroutes)
    link_p = rng.choice([0.0, 0.15, 0.35])
    for edge in list(real.topology.edges()):
        if rng.random() < link_p:
            a, b = sorted(edge)
            real.degraded_mode().set_link(a, b, down=True)
            reference.degraded_mode().set_link(a, b, down=True)
    for node in list(real.router_rows):
        if rng.random() < 0.08:
            real.degraded_mode().set_router(node, down=True)
            reference.degraded_mode().set_router(node, down=True)
    return real, reference


def compare_random_walks(rng, count, real_class, reference_class):
    """Run ``count`` random walks through both walkers; assert they agree.

    Returns how many of the real walks the walk-length guard ended.
    """
    walks = 0
    guarded = 0
    while walks < count:
        real, reference = build_pair(rng, real_class, reference_class)
        for _ in range(3):
            fc = rng.randrange(real.fc_count)
            destination = (
                rng.randrange(real.topology.rows),
                rng.randrange(real.topology.cols),
            )
            real.decisions.clear()
            reference_decisions = []
            result = real.try_reserve(fc, destination)
            nodes = reference_reserve(reference, fc, destination, reference_decisions)
            context = (
                f"mesh {real.topology.rows}x{real.topology.cols} fc={fc} "
                f"dest={destination} dead_links={len(real._dead_links)} "
                f"dead_routers={sorted(real._dead_routers)}"
            )
            assert real.decisions == reference_decisions, context
            assert result.succeeded == (nodes is not None), context
            if result.succeeded:
                assert result.circuit.nodes == nodes, context
            guarded += result.scout_hops > real.MAX_SCOUT_STEPS
            # Reservation ground truth stays identical walk for walk.
            assert real.link_owner == reference.link_owner, context
            assert real.ejection_owner == reference.ejection_owner, context
            assert real.injection_owner == reference.injection_owner, context
            assert real.router_rows == reference.router_rows, context
            assert [lfsr.state for lfsr in real._lfsrs.values()] == [
                lfsr.state for lfsr in reference._lfsrs.values()
            ], context
            walks += 1
    return guarded


def test_walk_matches_route_step_reference_on_1k_random_fault_cases():
    rng = random.Random(0xD1FF)
    compare_random_walks(rng, 1000, RecordingNetwork, VeniceNetwork)


def test_walk_length_guard_matches_the_reference():
    """With MAX_SCOUT_STEPS at 3 the guard ends every walk longer than
    that (87 of these 1,000; none of the 1k cases above reaches the real
    cap), so its unwind is compared decision by decision and state by
    state."""
    rng = random.Random(0x57E9)
    guarded = compare_random_walks(rng, 1000, ShortRecordingNetwork, ShortNetwork)
    assert guarded == 87


def two_scan_best_injection(network, fc_index, destination):
    """The drop-point rule ``best_injection`` replaced: the nearest free
    drop, else the nearest drop, each by a scan with a strict ``<``."""
    points = network._injection_rows[fc_index]
    if network._dead_routers or network._dead_links:
        degraded = network.degraded_mode()
        points = tuple(
            point for point in points if degraded.same_component(point, destination)
        )
        if not points:
            return None
    dest_row, dest_col = destination
    best = None
    best_distance = 1 << 30
    for point in points:
        if point not in network.injection_owner:
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


def test_best_injection_matches_the_two_scan_rule():
    rng = random.Random(0xB157)
    outcomes = {"none": 0, "all-busy": 0, "free": 0}
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        network = VeniceNetwork(rows, cols, rng.randint(1, 2 * rows))
        degraded = network.degraded_mode()
        edges = [sorted(edge) for edge in network.topology.edges()]
        drops = sorted({point for row in network._injection_rows for point in row})
        for _ in range(4):
            # Toggle a few links and routers, then redraw the occupied drops:
            # the cached drop order must not see either.
            for a, b in edges:
                if rng.random() < 0.1:
                    degraded.set_link(a, b, down=frozenset((a, b)) not in network._dead_links)
            for node in network.router_rows:
                if rng.random() < 0.05:
                    degraded.set_router(node, down=node not in network._dead_routers)
            busy = rng.choice([0.0, 0.5, 0.9, 1.0])
            network.injection_owner = {
                point: 0 for point in drops if rng.random() < busy
            }
            for fc in range(network.fc_count):
                for destination in network.router_rows:
                    expected = two_scan_best_injection(network, fc, destination)
                    assert network.best_injection(fc, destination) == expected, (
                        rows, cols, fc, destination,
                    )
                    if expected is None:
                        outcomes["none"] += 1
                    elif expected in network.injection_owner:
                        outcomes["all-busy"] += 1
                    else:
                        outcomes["free"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_reference_and_walk_agree_on_pristine_mesh_decisions():
    """Fault-free sanity slice: decisions match with busy state from circuits."""
    rng = random.Random(0xD200)
    real = RecordingNetwork(4, 4, 4, lfsr_seed=2)
    reference = VeniceNetwork(4, 4, 4, lfsr_seed=2)
    for _ in range(60):
        fc = rng.randrange(4)
        destination = (rng.randrange(4), rng.randrange(4))
        real.decisions.clear()
        reference_decisions = []
        result = real.try_reserve(fc, destination)
        nodes = reference_reserve(reference, fc, destination, reference_decisions)
        assert real.decisions == reference_decisions
        assert result.succeeded == (nodes is not None)
        assert real.link_owner == reference.link_owner
        assert real.router_rows == reference.router_rows
