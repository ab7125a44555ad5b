"""VeniceNetwork reservation tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReservationError
from repro.interconnect.topology import edge_key
from repro.venice.network import VeniceNetwork


def make_network(rows=8, cols=8, fcs=8):
    return VeniceNetwork(rows, cols, fcs)


def test_reserve_same_row_uses_drop_point():
    net = make_network()
    result = net.try_reserve(3, (3, 5))
    assert result.succeeded
    circuit = result.circuit
    assert circuit.destination == (3, 5)
    assert circuit.nodes[0] in net.injection_points(3)
    net.assert_consistent()


def test_reserve_and_release_restores_clean_state():
    net = make_network()
    result = net.try_reserve(2, (2, 4))
    assert result.succeeded
    net.release(result.circuit)
    assert net.links_in_use() == 0
    assert not net.ejection_owner
    assert not net.injection_owner
    net.assert_consistent()


def test_two_circuits_to_same_chip_conflict_as_chip_busy():
    net = make_network()
    first = net.try_reserve(1, (1, 1))
    assert first.succeeded
    second = net.try_reserve(2, (1, 1))
    assert not second.succeeded
    assert second.failed_on_chip


def test_cross_row_circuit_reserves_mesh_links():
    net = make_network()
    # FC 0 serving a chip in row 5: must cross rows via mesh links.
    result = net.try_reserve(0, (5, 3))
    assert result.succeeded
    assert result.circuit.mesh_hops >= 5
    net.assert_consistent()


def test_failed_scout_leaves_no_residue():
    net = make_network(rows=2, cols=2, fcs=2)
    # Saturate the tiny mesh, then force a failure.
    results = []
    for fc in range(2):
        for col in range(2):
            outcome = net.try_reserve(fc, (fc, col))
            results.append(outcome)
    links_before = net.links_in_use()
    blocked = net.try_reserve(1, (0, 0))
    assert not blocked.succeeded
    assert net.links_in_use() == links_before
    net.assert_consistent()


def test_release_unknown_circuit_rejected():
    net = make_network()
    result = net.try_reserve(0, (0, 1))
    assert result.succeeded
    net.release(result.circuit)
    with pytest.raises(ReservationError):
        net.release(result.circuit)


def test_circuit_ids_are_unique_per_reservation():
    net = make_network()
    a = net.try_reserve(0, (0, 1)).circuit
    b = net.try_reserve(1, (1, 1)).circuit
    assert a.circuit_id != b.circuit_id


def test_one_fc_can_hold_multiple_circuits():
    """Multi-circuit controllers (see DESIGN.md): FC 0 holds several
    live circuits at once; only its scouts are serialised (by the fabric)."""
    net = make_network()
    circuits = []
    for col in (0, 2, 4):
        result = net.try_reserve(0, (0, col))
        assert result.succeeded
        circuits.append(result.circuit)
    net.assert_consistent()
    for circuit in circuits:
        net.release(circuit)
    assert net.links_in_use() == 0


def test_injection_points_stride():
    net = make_network()
    points = net.injection_points(2)
    assert all(row == 2 for row, _ in points)
    assert len(points) == 8 // VeniceNetwork.INJECTION_STRIDE


def test_total_hops_includes_injection_and_ejection():
    net = make_network()
    result = net.try_reserve(0, (0, 0))
    assert result.succeeded
    # Direct drop at the destination: no mesh links, 2 hops (inject+eject).
    assert result.circuit.mesh_hops == 0
    assert result.circuit.total_hops == 2


def test_router_rows_follow_circuits():
    net = make_network()
    local = net.try_reserve(3, (3, 5)).circuit
    assert local.nodes == [(3, 5)]
    crossing = net.try_reserve(0, (5, 3)).circuit
    assert len(crossing.nodes) > 1
    holders = {node for node, rows in net.router_rows.items() if rows}
    assert holders == set(crossing.nodes)
    for node in crossing.nodes:
        assert net.router_rows[node] == {crossing.circuit_id}
    net.assert_consistent()
    net.release(local)
    net.release(crossing)
    assert not any(net.router_rows.values())


def test_full_router_table_blocks_the_walk():
    """With one controller each router has one row, and a held row blocks."""
    net = make_network(rows=3, cols=3, fcs=1)
    through = net.try_reserve(0, (2, 1)).circuit
    assert through.nodes == [(0, 1), (1, 1), (2, 1)]
    assert net.router_rows[(1, 1)] == {through.circuit_id}
    for side in ((1, 0), (1, 2)):
        assert edge_key(side, (1, 1)) not in net.link_owner
    blocked = net.try_reserve(0, (1, 1))
    assert not blocked.succeeded
    assert blocked.failure_reason == "path"
    net.release(through)
    result = net.try_reserve(0, (1, 1))
    assert result.succeeded
    assert result.circuit.nodes == [(0, 1), (1, 1)]
    net.assert_consistent()


@pytest.mark.parametrize(
    "node,holder,planted",
    [
        ((1, 0), "stranger", True),
        ((1, 1), "crossing", False),
        ((0, 0), "local", True),
        ((1, 1), "local", True),
    ],
    ids=["orphan-row", "missing-row", "local-circuit-row", "second-row"],
)
def test_assert_consistent_checks_router_rows(node, holder, planted):
    net = make_network(rows=3, cols=3, fcs=1)
    crossing = net.try_reserve(0, (2, 1)).circuit
    local = net.try_reserve(0, (0, 0)).circuit
    assert local.nodes == [(0, 0)]
    net.assert_consistent()
    # "stranger" is a circuit id that no live circuit has.
    circuit_id = {
        "crossing": crossing.circuit_id,
        "local": local.circuit_id,
        "stranger": 99,
    }
    if planted:
        net.router_rows[node].add(circuit_id[holder])
    else:
        net.router_rows[node].remove(circuit_id[holder])
    with pytest.raises(ReservationError):
        net.assert_consistent()


# --------------------------------------------------------------------- #
# hypothesis: global invariants under arbitrary reserve/release interleaving
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7),  # destination row
            st.integers(0, 7),  # destination col
            st.integers(0, 7),  # source fc
            st.booleans(),  # release the oldest circuit first?
        ),
        min_size=1,
        max_size=60,
    )
)
def test_reservation_invariants_hold_under_interleaving(operations):
    net = make_network()
    live = []
    for row, col, fc, release_first in operations:
        if release_first and live:
            net.release(live.pop(0))
        result = net.try_reserve(fc, (row, col))
        if result.succeeded:
            live.append(result.circuit)
        net.assert_consistent()
    for circuit in live:
        net.release(circuit)
    net.assert_consistent()
    assert net.links_in_use() == 0
    assert not net.ejection_owner


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30))
def test_small_mesh_circuits_are_link_disjoint(destinations):
    net = make_network(rows=4, cols=4, fcs=4)
    for index, (row, col) in enumerate(destinations):
        net.try_reserve(index % 4, (row, col))
    # assert_consistent checks pairwise link-disjointness (conflict freedom).
    net.assert_consistent()
