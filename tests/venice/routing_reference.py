"""Algorithm 1 as a pure reference function, for the tests.

Given the local view a router has -- its coordinate, the scout's
destination, the input port, and which output ports are currently usable --
:func:`route_step` returns what the scout does next, over
:class:`~repro.interconnect.topology.Direction` ports.  The scout walk in
:mod:`repro.venice.network` takes the same decisions on integer port codes;
``test_routing*.py`` check this function against the pseudocode, and
``test_walk_differential.py`` checks the walk against it decision by
decision.

Coordinate convention: ``Diff_y = dest_row - current_row``; positive means
the destination lies at a larger row index, i.e. in our
:class:`~repro.interconnect.topology.Direction` convention the scout must
move ``DOWN``.  The paper's Algorithm 1 names that port "Up"; the mapping is
a pure relabeling (the mesh has no intrinsic orientation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import RoutingError
from repro.interconnect.topology import Coord, Direction, MESH_DIRECTIONS


class StepKind(enum.Enum):
    FORWARD = "forward"  # reserve Output_port and move to the downstream router
    EJECT = "eject"  # arrived: reserve the ejection port
    BACKTRACK = "backtrack"  # no usable output: travel back to the upstream router


@dataclass(frozen=True)
class RouteStep:
    """Decision of one Algorithm 1 invocation."""

    kind: StepKind
    output: Optional[Direction] = None  # set for FORWARD
    minimal: bool = False  # FORWARD chose a minimal-path port
    candidates: int = 0  # size of the list the output was drawn from

    def __post_init__(self) -> None:
        if self.kind is StepKind.FORWARD and self.output is None:
            raise RoutingError("FORWARD step without an output port")


# The nine-way case split of Algorithm 1 lines 5-26, precomputed by the
# signs of (Diff_x, Diff_y): the sign of Diff_x selects RIGHT/LEFT/neither,
# the sign of Diff_y selects DOWN/UP/neither, and (0, 0) means the scout
# has arrived (ejection).  X-direction ports precede Y-direction ports,
# matching the pseudocode's append order.
_EJECT_ONLY = (Direction.EJECT,)
_MINIMAL_BY_SIGN = {
    (0, 0): _EJECT_ONLY,
    (1, 0): (Direction.RIGHT,),
    (-1, 0): (Direction.LEFT,),
    (0, 1): (Direction.DOWN,),
    (0, -1): (Direction.UP,),
    (1, 1): (Direction.RIGHT, Direction.DOWN),
    (1, -1): (Direction.RIGHT, Direction.UP),
    (-1, 1): (Direction.LEFT, Direction.DOWN),
    (-1, -1): (Direction.LEFT, Direction.UP),
}


def minimal_directions(current: Coord, destination: Coord) -> List[Direction]:
    """Output ports on *minimal* paths from ``current`` to ``destination``."""
    diff_x = destination[1] - current[1]
    diff_y = destination[0] - current[0]
    return list(
        _MINIMAL_BY_SIGN[((diff_x > 0) - (diff_x < 0), (diff_y > 0) - (diff_y < 0))]
    )


def route_step(
    *,
    current: Coord,
    destination: Coord,
    input_port: Optional[Direction],
    usable: Callable[[Direction], bool],
    choose: Callable[[Sequence[Direction]], Direction],
) -> RouteStep:
    """One invocation of Algorithm 1 at ``current``.

    Args:
        current / destination: router coordinates.
        input_port: the port the scout arrived on (``None`` at the source
            router, where the scout came from the flash controller's
            injection port).
        usable: predicate deciding whether an output port can be reserved
            right now.  The caller folds together link existence, link
            busyness, *and* the livelock rule that a scout may reserve each
            output port of a router only once (§4.3).
        choose: tie-breaker over candidate lists -- the router's 2-bit LFSR
            in the real hardware.

    Returns:
        The scout's action: eject, forward through a port, or backtrack.
    """
    diff_x = destination[1] - current[1]
    diff_y = destination[0] - current[0]
    minimal = _MINIMAL_BY_SIGN[
        ((diff_x > 0) - (diff_x < 0), (diff_y > 0) - (diff_y < 0))
    ]
    if minimal is _EJECT_ONLY:
        # Case 9 (Diff_x == 0 and Diff_y == 0): the output list holds the
        # ejection port.  Whether ejection is possible (the chip's I/O pins
        # are not held by another circuit) is the caller's usable() check.
        if usable(Direction.EJECT):
            return _EJECT_STEP
        output_list: List[Direction] = []
    else:
        # Lines 5-26: add each free minimal-direction port to the output list.
        output_list = [port for port in minimal if usable(port)]

    if output_list:
        # Lines 27-32: one or two candidates; LFSR picks among two.
        output = choose(output_list) if len(output_list) > 1 else output_list[0]
        return RouteStep(
            kind=StepKind.FORWARD,
            output=output,
            minimal=True,
            candidates=len(output_list),
        )

    # Lines 33-45: misroute through any free port that is neither the
    # ejection port nor the input link.
    non_minimal = [
        port
        for port in MESH_DIRECTIONS
        if port is not input_port and usable(port)
    ]
    if non_minimal:
        output = choose(non_minimal) if len(non_minimal) > 1 else non_minimal[0]
        return RouteStep(
            kind=StepKind.FORWARD,
            output=output,
            minimal=False,
            candidates=len(non_minimal),
        )

    # Lines 46-47: the only way out is back where we came from; the upstream
    # router clears this scout's reservation entry and tries another port.
    return _BACKTRACK_STEP


# RouteStep is frozen, so the two field-free outcomes are shared singletons
# (FORWARD steps carry per-call fields and stay per-call instances).
_EJECT_STEP = RouteStep(kind=StepKind.EJECT, output=Direction.EJECT, candidates=1)
_BACKTRACK_STEP = RouteStep(kind=StepKind.BACKTRACK)
