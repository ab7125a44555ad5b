"""Differential test: the inlined scout walk vs the pure Algorithm 1 reference.

``VeniceNetwork._step_at`` is a hand-inlined copy of
``routing.route_step`` (the property-tested reference).  This test proves
the two stay decision-for-decision identical by running complete
reservations on a thousand random (topology, fault-mask) cases twice:

* once through the real ``try_reserve`` (with every ``_step_at`` decision
  recorded), and
* once through a reference walker that re-implements the *stateful* part of
  the walk (stack, reservations, budgets) but takes every routing decision
  from ``route_step`` over an explicit ``usable()`` predicate.

Both walks run against identically-constructed networks (same LFSR seeds,
same dead links/routers), so any divergence -- an extra LFSR advance, a
different candidate order, a missed fault check -- shows up as a decision
or state mismatch.
"""

import random

from repro.interconnect.topology import Direction, MESH_DIRECTIONS
from repro.venice.network import VeniceNetwork, _WalkFrame
from repro.venice.routing import MAX_ROUTER_VISITS, StepKind, route_step


class RecordingNetwork(VeniceNetwork):
    """VeniceNetwork that logs every raw ``_step_at`` decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions = []

    def _step_at(self, circuit_id, current, destination, input_port, used_ports, visits):
        output, minimal = super()._step_at(
            circuit_id, current, destination, input_port, used_ports, visits
        )
        self.decisions.append((current, input_port, output, minimal))
        return output, minimal


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
            neighbor = network._neighbors[current][port.value]
            if neighbor is None or neighbor in network._dead_routers:
                return False
            rows = network.router_rows[neighbor]
            if circuit_id in rows or len(rows) >= network.fc_count:
                return False
            edge = network._edges[current][port.value]
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

    while True:
        if forward_moves + backtracks > network.MAX_SCOUT_STEPS:
            while stack:
                frame = stack.pop()
                del network.link_owner[frame.edge]
                network.router_rows[frame.node].remove(circuit_id)
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
            for frame in stack:
                nodes.append(network._neighbors[frame.node][frame.exit_port.value])
            # Register the circuit so later walks see identical table state.
            from repro.venice.network import ReservedCircuit

            network.circuits[circuit_id] = ReservedCircuit(
                circuit_id=circuit_id,
                fc_index=fc_index,
                destination=destination,
                nodes=nodes,
                edges=[frame.edge for frame in stack],
                minimal_hops=network.topology.manhattan(source, destination),
            )
            return nodes

        if output is not None:
            next_node = network._neighbors[current][output.value]
            edge = network._edges[current][output.value]
            network.link_owner[edge] = circuit_id
            used_ports.setdefault(current, set()).add(output)
            network.router_rows[current].add(circuit_id)
            stack.append(_WalkFrame(current, input_port, output, edge))
            visits[next_node] = visits.get(next_node, 0) + 1
            input_port = output.opposite
            current = next_node
            forward_moves += 1
            if not minimal:
                misroutes += 1
            continue

        if not stack:
            return None
        frame = stack.pop()
        del network.link_owner[frame.edge]
        network.router_rows[frame.node].remove(circuit_id)
        current = frame.node
        input_port = frame.entry_port
        backtracks += 1


def build_pair(rng):
    """Two identically-seeded networks with one random fault mask."""
    rows = rng.randint(2, 5)
    cols = rng.randint(2, 5)
    seed = rng.randint(1, 3)
    misroutes = rng.randint(0, 3)
    real = RecordingNetwork(rows, cols, rows, lfsr_seed=seed, max_misroutes=misroutes)
    reference = VeniceNetwork(rows, cols, rows, lfsr_seed=seed, max_misroutes=misroutes)
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


def test_walk_matches_route_step_reference_on_1k_random_fault_cases():
    rng = random.Random(0xD1FF)
    walks = 0
    while walks < 1000:
        real, reference = build_pair(rng)
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
            # Reservation ground truth stays identical walk for walk.
            assert real.link_owner == reference.link_owner, context
            assert real.ejection_owner == reference.ejection_owner, context
            assert real.injection_owner == reference.injection_owner, context
            assert real.router_rows == reference.router_rows, context
            assert [lfsr.state for lfsr in real._lfsrs.values()] == [
                lfsr.state for lfsr in reference._lfsrs.values()
            ], context
            walks += 1
    assert walks >= 1000


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
