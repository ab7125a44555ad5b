"""Degraded-mode Venice: routing around faults, partitions, repairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.venice.network import VeniceNetwork


def make_network(rows=4, cols=4, fc_count=4, **kwargs):
    return VeniceNetwork(rows, cols, fc_count, lfsr_seed=1, **kwargs)


def test_scout_routes_around_a_dead_link():
    network = make_network()
    degraded = network.degraded_mode()
    # Kill the direct link from the nearest drop (1,3) toward... actually
    # kill every horizontal link of row 1 except the ejection column so the
    # walk must leave the row and come back (the Algorithm 1 detour).
    degraded.set_link((1, 2), (1, 3), down=True)
    result = network.try_reserve(1, (1, 3))
    assert result.succeeded
    circuit = result.circuit
    assert all(
        edge not in network._dead_links for edge in circuit.edges
    ), "a committed circuit crossed a dead link"
    network.assert_consistent()
    network.release(circuit)


def test_dead_link_never_carries_a_circuit_under_saturation():
    network = make_network()
    network.degraded_mode().set_link((1, 1), (1, 2), down=True)
    network.degraded_mode().set_link((2, 2), (2, 3), down=True)
    circuits = []
    for fc in range(4):
        for col in range(4):
            result = network.try_reserve(fc, (fc, col))
            if result.succeeded:
                circuits.append(result.circuit)
    assert circuits, "no circuit reserved at all"
    for circuit in circuits:
        assert all(edge not in network._dead_links for edge in circuit.edges)
    network.assert_consistent()
    for circuit in circuits:
        network.release(circuit)


def test_backtracking_unwinds_cleanly_when_faults_block_the_walk():
    """A failed walk against faults leaves zero reservations behind."""
    network = make_network(rows=2, cols=2, fc_count=2)
    degraded = network.degraded_mode()
    # Kill everything around (1,1) so reaching it from row 0 is impossible.
    degraded.set_link((0, 1), (1, 1), down=True)
    degraded.set_link((1, 0), (1, 1), down=True)
    # FC 1's own drops include (1,1) itself, so use FC 0 (row 0): its scout
    # cannot enter (1,1) and must fail without leaking state.
    result = network.try_reserve(0, (1, 1))
    assert not result.succeeded
    assert result.failure_reason == "path"
    assert not network.link_owner and not network.ejection_owner
    network.assert_consistent()


def test_dead_destination_router_fails_reservation():
    network = make_network()
    network.degraded_mode().set_router((2, 2), down=True)
    result = network.try_reserve(2, (2, 2))
    assert not result.succeeded
    assert result.failure_reason == "path"
    assert network.is_partitioned((2, 2))


def test_walk_avoids_dead_intermediate_routers():
    network = make_network()
    degraded = network.degraded_mode()
    degraded.set_router((1, 1), down=True)
    degraded.set_router((1, 2), down=True)
    result = network.try_reserve(1, (1, 3))
    assert result.succeeded
    assert (1, 1) not in result.circuit.nodes
    assert (1, 2) not in result.circuit.nodes
    network.release(result.circuit)


def test_is_partitioned_false_on_pristine_and_connected_mesh():
    network = make_network()
    assert not network.is_partitioned((3, 3))
    network.degraded_mode().set_link((0, 0), (0, 1), down=True)
    for row in range(4):
        for col in range(4):
            assert not network.is_partitioned((row, col))


def test_link_repair_restores_routing_and_epoch_invalidates_cache():
    network = make_network()
    degraded = network.degraded_mode()
    degraded.set_router((3, 3), down=True)
    assert network.is_partitioned((3, 3))
    epoch_before = degraded.epoch
    degraded.set_router((3, 3), down=False)
    assert degraded.epoch == epoch_before + 1
    assert not network.is_partitioned((3, 3))
    result = network.try_reserve(3, (3, 3))
    assert result.succeeded
    network.release(result.circuit)


def test_best_injection_skips_drops_in_foreign_components():
    """A drop cut into a different component is a dead end, not a choice."""
    network = make_network()
    degraded = network.degraded_mode()
    # Isolate drop (0,3): both of its links die.
    degraded.set_link((0, 2), (0, 3), down=True)
    degraded.set_link((0, 3), (1, 3), down=True)
    # Destination (1,3) is in the big component; the nearest drop by
    # coordinates would be (0,3), which can no longer reach it.
    drop = network.best_injection(0, (1, 3))
    assert drop != (0, 3)
    result = network.try_reserve(0, (1, 3))
    assert result.succeeded
    network.release(result.circuit)
    # The isolated chip itself is still served -- via its own tap.
    assert network.best_injection(0, (0, 3)) == (0, 3)


def test_best_injection_returns_none_when_no_drop_can_reach():
    network = make_network()
    degraded = network.degraded_mode()
    for col in range(4):
        degraded.set_router((1, col), down=True)
    assert network.best_injection(1, (2, 2)) is None


def test_set_link_validates_topology():
    network = make_network()
    degraded = network.degraded_mode()
    with pytest.raises(RoutingError):
        degraded.set_link((0, 0), (0, 2), down=True)  # not neighbours
    with pytest.raises(RoutingError):
        degraded.set_link((0, 0), (9, 9), down=True)  # outside mesh
    with pytest.raises(RoutingError):
        degraded.set_router((9, 9), down=True)


def test_components_label_alive_connectivity():
    network = make_network()
    degraded = network.degraded_mode()
    # Cut column 3 off entirely (it has 4 vertical links of its own).
    for row in range(4):
        degraded.set_link((row, 2), (row, 3), down=True)
    labels = degraded.components()
    column = {labels[(row, 3)] for row in range(4)}
    rest = {labels[(row, col)] for row in range(4) for col in range(3)}
    assert len(column) == 1 and len(rest) == 1
    assert column != rest
    assert degraded.same_component((0, 3), (3, 3))
    assert not degraded.same_component((0, 0), (0, 3))


def test_fc_reachability_is_per_controller():
    network = make_network()
    degraded = network.degraded_mode()
    # Wall row 0 off from the rest of the mesh.
    for col in range(4):
        degraded.set_link((0, col), (1, col), down=True)
    assert degraded.fc_can_reach(0, (0, 2))
    assert not degraded.fc_can_reach(0, (2, 2))
    assert degraded.fc_can_reach(1, (2, 2))
    assert not degraded.fc_can_reach(1, (0, 2))
    # Globally nothing is partitioned: each side has its own controllers.
    assert not network.is_partitioned((0, 2))
    assert not network.is_partitioned((2, 2))


@st.composite
def faulted_meshes(draw):
    """A 2x2..8x8 mesh, 1-8 controllers, dead links, up to a third dead routers."""
    rows = draw(st.integers(2, 8))
    cols = draw(st.integers(2, 8))
    fc_count = draw(st.integers(1, 8))
    nodes = [(row, col) for row in range(rows) for col in range(cols)]
    links = [((row, col), (row, col + 1)) for row in range(rows) for col in range(cols - 1)]
    links += [((row, col), (row + 1, col)) for row in range(rows - 1) for col in range(cols)]
    dead_links = draw(st.lists(st.sampled_from(links), unique=True))
    dead_routers = draw(
        st.lists(st.sampled_from(nodes), unique=True, max_size=len(nodes) // 3)
    )
    return rows, cols, fc_count, dead_links, dead_routers


@settings(max_examples=150, deadline=None)
@given(faulted_meshes())
def test_reachability_predicates_match_a_bfs_over_the_alive_mesh(case):
    rows, cols, fc_count, dead_links, dead_routers = case
    network = make_network(rows=rows, cols=cols, fc_count=fc_count)
    degraded = network.degraded_mode()
    for a, b in dead_links:
        degraded.set_link(a, b, down=True)
    dead_edges = {frozenset(link) for link in dead_links}

    def reachable(sources, dead):
        frontier = [point for point in sources if point not in dead]
        seen = set(frontier)
        while frontier:
            row, col = node = frontier.pop()
            for step in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
                if (
                    0 <= step[0] < rows and 0 <= step[1] < cols
                    and step not in seen and step not in dead
                    and frozenset((node, step)) not in dead_edges
                ):
                    seen.add(step)
                    frontier.append(step)
        return seen

    # Check with the links down, then again once the routers fail too: the
    # second round must not be served from the first round's memo.
    for dead in (set(), set(dead_routers)):
        for node in dead:
            degraded.set_router(node, down=True)
        per_fc = [
            reachable(network.injection_points(fc), dead) for fc in range(fc_count)
        ]
        anywhere = set().union(*per_fc)
        for node in network.router_rows:
            assert degraded.is_partitioned(node) == (node not in anywhere)
            for fc in range(fc_count):
                assert degraded.fc_can_reach(fc, node) == (node in per_fc[fc])
