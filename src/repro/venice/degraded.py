"""Degraded-mode state for the Venice mesh: dead links, dead routers, and
the partition oracle.

This is where the paper's path-diversity claim gets its adversarial test
bench: Venice's non-minimal fully-adaptive routing "can steer around busy
links"; a *dead* link or router is simply a link that never becomes free, so
the very same Algorithm 1 backtracking machinery routes around permanent
failures -- no new routing logic is needed, only a fault mask folded into
the ``usable()`` predicate (see DESIGN.md §7).

:class:`DegradedVenice` owns that mask for one
:class:`~repro.venice.network.VeniceNetwork`:

* ``set_link`` / ``set_router`` mutate the network's dead sets (which the
  inlined scout walk consults) and bump a *fault epoch*;
* :meth:`components` labels the alive routers by connected component once
  per epoch, and every reachability question is a label comparison:
  :meth:`is_partitioned` answers "can any scout ever reach this chip"
  (no injection drop point shares its label) -- reservation *failures* on
  a connected mesh retry, true partitions raise
  :class:`~repro.errors.RoutingError` at the fabric layer instead of
  livelocking -- and :meth:`fc_can_reach` asks the same of one
  controller's drop points.

Committed circuits are not torn down by a fault: circuits live for
microseconds while fault timescales are milliseconds, so an in-flight
transfer completes and the dead element is simply never reserved again.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.errors import RoutingError
from repro.interconnect.topology import MESH_DIRECTIONS, Coord, edge_key


class DegradedVenice:
    """Fault mask and partition oracle for one :class:`VeniceNetwork`."""

    def __init__(self, network) -> None:
        self.network = network
        #: Monotone counter bumped on every fault transition; memoised
        #: reachability is valid only for the epoch it was computed in.
        self.epoch = 0
        self._components_epoch = -1
        self._components: Dict[Coord, int] = {}
        #: Component labels of each controller's alive drop points, for the
        #: epoch of ``_components``.
        self._fc_labels: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------ #
    # fault transitions
    # ------------------------------------------------------------------ #

    def set_link(self, a: Coord, b: Coord, down: bool = True) -> None:
        """Fail (``down=True``) or repair one bidirectional mesh link."""
        topology = self.network.topology
        a, b = tuple(a), tuple(b)
        if not (topology.contains(a) and topology.contains(b)):
            raise RoutingError(f"link {a}-{b} outside the {topology.rows}x{topology.cols} mesh")
        edge = edge_key(a, b)  # raises on a self-edge
        if topology.manhattan(a, b) != 1:
            raise RoutingError(f"{a} and {b} are not mesh neighbours")
        if down:
            self.network._dead_links.add(edge)
        else:
            self.network._dead_links.discard(edge)
        self.epoch += 1

    def set_router(self, node: Coord, down: bool = True) -> None:
        """Fail or repair one router chip (all four ports plus ejection)."""
        node = tuple(node)
        if not self.network.topology.contains(node):
            raise RoutingError(
                f"router {node} outside the "
                f"{self.network.topology.rows}x{self.network.topology.cols} mesh"
            )
        if down:
            self.network._dead_routers.add(node)
        else:
            self.network._dead_routers.discard(node)
        self.epoch += 1

    # ------------------------------------------------------------------ #
    # partition oracle
    # ------------------------------------------------------------------ #

    def components(self) -> Dict[Coord, int]:
        """Component label for every alive router (memoised per epoch).

        Two routers share a label iff an alive path connects them.  Dead
        routers carry no label.  Injection-drop selection uses this: a drop
        in a different component than the destination is a guaranteed dead
        end for the scout walk, however close its coordinates look.
        """
        if self._components_epoch == self.epoch:
            return self._components
        network = self.network
        dead_links = network._dead_links
        dead_routers = network._dead_routers
        topology = network.topology
        labels: Dict[Coord, int] = {}
        label = 0
        for start in network.router_rows:
            if start in labels or start in dead_routers:
                continue
            label += 1
            frontier = [start]
            labels[start] = label
            while frontier:
                node = frontier.pop()
                for direction in MESH_DIRECTIONS:
                    neighbor = topology.neighbor(node, direction)
                    if (
                        neighbor is None
                        or neighbor in labels
                        or neighbor in dead_routers
                    ):
                        continue
                    if edge_key(node, neighbor) in dead_links:
                        continue
                    labels[neighbor] = label
                    frontier.append(neighbor)
        self._components = labels
        self._components_epoch = self.epoch
        self._fc_labels = {}
        return labels

    def _labels_of(self, fc_index: int) -> FrozenSet[int]:
        """Component labels of controller ``fc_index``'s alive drop points."""
        labels = self.components()
        fc_labels = self._fc_labels.get(fc_index)
        if fc_labels is None:
            fc_labels = frozenset(
                labels[point]
                for point in self.network._injection_rows[fc_index]
                if point in labels
            )
            self._fc_labels[fc_index] = fc_labels
        return fc_labels

    def fc_can_reach(self, fc_index: int, destination: Coord) -> bool:
        """True when controller ``fc_index`` has an alive path to ``destination``.

        Used to keep a transfer from being handed a controller that faults
        have cut off from its destination.
        """
        label = self.components().get(tuple(destination))
        return label is not None and label in self._labels_of(fc_index)

    def same_component(self, a: Coord, b: Coord) -> bool:
        """True when ``a`` and ``b`` are alive and connected by alive links."""
        labels = self.components()
        label = labels.get(tuple(a))
        return label is not None and label == labels.get(tuple(b))

    def is_partitioned(self, destination: Coord) -> bool:
        """True when no alive path from any injection drop reaches ``destination``.

        This is the loud-failure criterion: a scout failing on a connected
        mesh will eventually succeed once circuits release, so the fabric
        retries; a destination outside the alive component can never be
        reached and the fabric raises :class:`~repro.errors.RoutingError`.
        """
        label = self.components().get(tuple(destination))
        return label is None or not any(
            label in self._labels_of(fc)
            for fc in range(len(self.network._injection_rows))
        )
