"""Mesh topology and XY routing tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.interconnect.topology import (
    Direction,
    MeshTopology,
    edge_key,
    xy_path,
)

MESH = MeshTopology(8, 8)


def test_edge_count_matches_paper():
    # "Venice requires 112 network links" for the 8x8 mesh (§6.6).
    assert MESH.edge_count == 112
    assert len(list(MESH.edges())) == 112


def test_edge_count_rectangular():
    assert MeshTopology(4, 16).edge_count == 4 * 15 + 3 * 16
    assert MeshTopology(16, 4).edge_count == 16 * 3 + 15 * 4


def test_degenerate_mesh_rejected():
    with pytest.raises(ConfigurationError):
        MeshTopology(0, 8)


def test_neighbors_interior_has_four():
    assert len(list(MESH.neighbors((3, 3)))) == 4


def test_neighbors_corner_has_two():
    assert len(list(MESH.neighbors((0, 0)))) == 2


def test_direction_deltas():
    assert MESH.neighbor((3, 3), Direction.RIGHT) == (3, 4)
    assert MESH.neighbor((3, 3), Direction.LEFT) == (3, 2)
    assert MESH.neighbor((3, 3), Direction.UP) == (2, 3)
    assert MESH.neighbor((3, 3), Direction.DOWN) == (4, 3)


def test_neighbor_off_edge_is_none():
    assert MESH.neighbor((0, 0), Direction.UP) is None
    assert MESH.neighbor((0, 0), Direction.LEFT) is None
    assert MESH.neighbor((7, 7), Direction.DOWN) is None


def test_opposites():
    assert Direction.RIGHT.opposite is Direction.LEFT
    assert Direction.UP.opposite is Direction.DOWN


def test_port_encoding_matches_figure7():
    assert Direction.RIGHT.value == 0b00
    assert Direction.UP.value == 0b01
    assert Direction.DOWN.value == 0b10
    assert Direction.LEFT.value == 0b11


def test_fc_attach_points():
    assert MESH.fc_attach_point(0) == (0, 0)
    assert MESH.fc_attach_point(7) == (7, 0)
    with pytest.raises(ConfigurationError):
        MESH.fc_attach_point(8)


def test_edge_key_symmetric():
    assert edge_key((0, 0), (0, 1)) == edge_key((0, 1), (0, 0))


def test_edge_key_self_loop_rejected():
    with pytest.raises(RoutingError):
        edge_key((1, 1), (1, 1))


coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


@given(coords, coords)
def test_xy_path_properties(source, destination):
    path = xy_path(MESH, source, destination)
    assert path[0] == source
    assert path[-1] == destination
    # Dimension order: length equals Manhattan distance + 1 (minimal).
    assert len(path) == MESH.manhattan(source, destination) + 1
    # Consecutive nodes are neighbors; X moves come before Y moves.
    switched_to_y = False
    for a, b in zip(path, path[1:]):
        assert MESH.manhattan(a, b) == 1
        if a[0] != b[0]:
            switched_to_y = True
        else:
            assert not switched_to_y, "X move after a Y move violates XY order"


@given(coords, coords)
def test_path_edges_are_unique(source, destination):
    path = xy_path(MESH, source, destination)
    edges = [edge_key(a, b) for a, b in zip(path, path[1:])]
    assert len(edges) == len(set(edges))


def test_xy_path_rejects_outside():
    with pytest.raises(RoutingError):
        xy_path(MESH, (0, 0), (9, 9))
