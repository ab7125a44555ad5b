"""Algorithm 1 decision-function tests."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect.topology import Direction, MESH_DIRECTIONS
from repro.venice.network import MAX_ROUTER_VISITS
from routing_reference import RouteStep, StepKind, minimal_directions, route_step


def pick_first(candidates):
    return candidates[0]


def all_usable(port):
    return True


def none_usable(port):
    return False


def test_minimal_directions_nine_cases():
    # The nine sign combinations of (Diff_x, Diff_y), Algorithm 1 lines 5-26.
    assert minimal_directions((3, 3), (3, 3)) == [Direction.EJECT]
    assert minimal_directions((3, 3), (3, 5)) == [Direction.RIGHT]
    assert minimal_directions((3, 3), (3, 1)) == [Direction.LEFT]
    assert minimal_directions((3, 3), (5, 3)) == [Direction.DOWN]
    assert minimal_directions((3, 3), (1, 3)) == [Direction.UP]
    assert set(minimal_directions((3, 3), (5, 5))) == {Direction.RIGHT, Direction.DOWN}
    assert set(minimal_directions((3, 3), (1, 5))) == {Direction.RIGHT, Direction.UP}
    assert set(minimal_directions((3, 3), (5, 1))) == {Direction.LEFT, Direction.DOWN}
    assert set(minimal_directions((3, 3), (1, 1))) == {Direction.LEFT, Direction.UP}


def test_arrival_ejects_when_chip_free():
    step = route_step(
        current=(2, 2),
        destination=(2, 2),
        input_port=Direction.LEFT,
        usable=lambda port: port is Direction.EJECT,
        choose=pick_first,
    )
    assert step.kind is StepKind.EJECT


def test_arrival_with_busy_chip_misroutes_or_backtracks():
    # Case 9 with a busy ejection port: the output list is empty, so the
    # scout misroutes via any free non-input port.
    step = route_step(
        current=(2, 2),
        destination=(2, 2),
        input_port=Direction.LEFT,
        usable=lambda port: port is Direction.UP,
        choose=pick_first,
    )
    assert step.kind is StepKind.FORWARD
    assert step.output is Direction.UP
    assert not step.minimal


def test_minimal_port_preferred():
    step = route_step(
        current=(0, 0),
        destination=(0, 5),
        input_port=None,
        usable=all_usable,
        choose=pick_first,
    )
    assert step.kind is StepKind.FORWARD
    assert step.output is Direction.RIGHT
    assert step.minimal


def test_two_minimal_candidates_tie_broken_by_chooser():
    chosen = []

    def record_choice(candidates):
        chosen.append(list(candidates))
        return candidates[-1]

    step = route_step(
        current=(0, 0),
        destination=(3, 3),
        input_port=None,
        usable=all_usable,
        choose=record_choice,
    )
    assert step.kind is StepKind.FORWARD
    assert step.candidates == 2
    assert set(chosen[0]) == {Direction.RIGHT, Direction.DOWN}


def test_misroute_when_minimal_blocked():
    # Minimal direction RIGHT is busy; UP is free: lines 33-45 misroute.
    step = route_step(
        current=(3, 3),
        destination=(3, 5),
        input_port=Direction.DOWN,
        usable=lambda port: port is Direction.UP,
        choose=pick_first,
    )
    assert step.kind is StepKind.FORWARD
    assert step.output is Direction.UP
    assert not step.minimal


def test_misroute_never_selects_input_port():
    # Only the input port is free: the scout must backtrack, not reuse it as
    # a misroute (lines 46-47).
    step = route_step(
        current=(3, 3),
        destination=(3, 5),
        input_port=Direction.LEFT,
        usable=lambda port: port is Direction.LEFT,
        choose=pick_first,
    )
    assert step.kind is StepKind.BACKTRACK


def test_backtrack_when_nothing_usable():
    step = route_step(
        current=(3, 3),
        destination=(0, 0),
        input_port=Direction.UP,
        usable=none_usable,
        choose=pick_first,
    )
    assert step.kind is StepKind.BACKTRACK


def test_forward_step_requires_output():
    with pytest.raises(Exception):
        RouteStep(kind=StepKind.FORWARD)


def test_max_router_visits_is_four():
    # Footnote 5: "four minus one" revisits => at most 4 total visits.
    assert MAX_ROUTER_VISITS == 4


coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


@given(coords, coords)
def test_minimal_directions_reduce_manhattan(current, destination):
    if current == destination:
        return
    for direction in minimal_directions(current, destination):
        moved = (
            current[0] + direction.delta[0],
            current[1] + direction.delta[1],
        )
        before = abs(destination[0] - current[0]) + abs(destination[1] - current[1])
        after = abs(destination[0] - moved[0]) + abs(destination[1] - moved[1])
        assert after == before - 1


@given(coords, coords, st.sets(st.sampled_from(MESH_DIRECTIONS)))
def test_route_step_never_returns_unusable_port(current, destination, free):
    step = route_step(
        current=current,
        destination=destination,
        input_port=None,
        usable=lambda port: port in free,
        choose=pick_first,
    )
    if step.kind is StepKind.FORWARD:
        assert step.output in free
