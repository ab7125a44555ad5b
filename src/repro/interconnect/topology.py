"""2D-mesh topology helpers shared by NoSSD and Venice.

Coordinates are ``(row, col)`` with row 0 at the top.  Flash controllers
attach on the west edge, one per row (Figure 5(b) / Figure 8): FC ``r``
injects into router ``(r, 0)``.

Directions follow the paper's router port encoding (Figure 7):
RIGHT=00, UP=01, DOWN=10, LEFT=11; plus the local injection/ejection port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, RoutingError

Coord = Tuple[int, int]


class Direction(enum.Enum):
    """Mesh port directions, encoded as in Figure 7 of the paper."""

    RIGHT = 0b00
    UP = 0b01
    DOWN = 0b10
    LEFT = 0b11
    EJECT = 0b100  # local port toward the flash chip (not a 2-bit mesh port)

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]

    @property
    def delta(self) -> Coord:
        return _DELTA[self]


_OPPOSITE = {
    Direction.RIGHT: Direction.LEFT,
    Direction.LEFT: Direction.RIGHT,
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
    Direction.EJECT: Direction.EJECT,
}

# UP decreases the row index (toward row 0), DOWN increases it.
_DELTA = {
    Direction.RIGHT: (0, 1),
    Direction.LEFT: (0, -1),
    Direction.UP: (-1, 0),
    Direction.DOWN: (1, 0),
    Direction.EJECT: (0, 0),
}

MESH_DIRECTIONS = (Direction.RIGHT, Direction.UP, Direction.DOWN, Direction.LEFT)


def edge_key(a: Coord, b: Coord) -> FrozenSet[Coord]:
    """Canonical undirected-edge identifier."""
    if a == b:
        raise RoutingError(f"self edge at {a}")
    return frozenset((a, b))


@dataclass(frozen=True)
class MeshTopology:
    """Geometry of an R x C mesh with west-edge flash controllers."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(f"degenerate mesh {self.rows}x{self.cols}")

    @property
    def node_count(self) -> int:
        return self.rows * self.cols

    @property
    def edge_count(self) -> int:
        """Number of bidirectional mesh links (excludes injection/ejection).

        An R x C mesh has R*(C-1) horizontal plus (R-1)*C vertical links;
        for 8x8 that is 112, matching §6.6.
        """
        return self.rows * (self.cols - 1) + (self.rows - 1) * self.cols

    def contains(self, node: Coord) -> bool:
        row, col = node
        return 0 <= row < self.rows and 0 <= col < self.cols

    def neighbor(self, node: Coord, direction: Direction) -> Optional[Coord]:
        if direction is Direction.EJECT:
            return None
        delta_row, delta_col = direction.delta
        candidate = (node[0] + delta_row, node[1] + delta_col)
        return candidate if self.contains(candidate) else None

    def neighbors(self, node: Coord) -> Iterator[Tuple[Direction, Coord]]:
        for direction in MESH_DIRECTIONS:
            other = self.neighbor(node, direction)
            if other is not None:
                yield direction, other

    def edges(self) -> Iterator[FrozenSet[Coord]]:
        for row in range(self.rows):
            for col in range(self.cols):
                if col + 1 < self.cols:
                    yield edge_key((row, col), (row, col + 1))
                if row + 1 < self.rows:
                    yield edge_key((row, col), (row + 1, col))

    def fc_attach_point(self, fc_index: int) -> Coord:
        """Router that flash controller ``fc_index`` injects into."""
        if not 0 <= fc_index < self.rows:
            raise ConfigurationError(f"fc index {fc_index} out of range [0,{self.rows})")
        return (fc_index, 0)

    def manhattan(self, a: Coord, b: Coord) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])


def xy_path(topology: MeshTopology, source: Coord, destination: Coord) -> List[Coord]:
    """Dimension-order (X then Y) route, inclusive of both endpoints.

    This is NoSSD's deterministic routing algorithm (§3.2): traverse columns
    first, then rows.  Returns the node sequence; consecutive pairs are the
    traversed links.
    """
    if not topology.contains(source) or not topology.contains(destination):
        raise RoutingError(f"route endpoints outside mesh: {source} -> {destination}")
    path = [source]
    row, col = source
    dest_row, dest_col = destination
    step = 1 if dest_col > col else -1
    while col != dest_col:
        col += step
        path.append((row, col))
    step = 1 if dest_row > row else -1
    while row != dest_row:
        row += step
        path.append((row, col))
    return path
