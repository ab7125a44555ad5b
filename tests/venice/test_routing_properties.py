"""Property-based tests for Algorithm 1's pure decision function.

``routing_reference.route_step`` is driven with randomized usable-port masks (a
seeded, hypothesis-style generator -- plain ``random.Random``, no new
runtime dependency) and checked against the properties the pseudocode
promises: forward steps never pick an unusable port, an arrived scout with
a free ejection port always ejects, and full blockage always backtracks.
"""

import random

from repro.interconnect.topology import Coord, Direction, MESH_DIRECTIONS
from routing_reference import RouteStep, StepKind, minimal_directions, route_step

CASES = 500


def random_case(rng):
    """One random (current, destination, input_port, usable-mask) tuple."""
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    current = (rng.randrange(rows), rng.randrange(cols))
    destination = (rng.randrange(rows), rng.randrange(cols))
    input_port = rng.choice([None, *MESH_DIRECTIONS])
    mask = {port: rng.random() < 0.5 for port in MESH_DIRECTIONS}
    mask[Direction.EJECT] = rng.random() < 0.5
    return current, destination, input_port, mask


def first_choice(candidates):
    return candidates[0]


def run_case(case):
    current, destination, input_port, mask = case
    return route_step(
        current=current,
        destination=destination,
        input_port=input_port,
        usable=mask.__getitem__,
        choose=first_choice,
    )


def test_forward_steps_never_pick_an_unusable_port():
    rng = random.Random(0xF417)
    forwards = 0
    for _ in range(CASES):
        case = random_case(rng)
        step = run_case(case)
        if step.kind is StepKind.FORWARD:
            forwards += 1
            assert case[3][step.output], f"unusable output in {case}"
            assert step.output is not Direction.EJECT
    assert forwards > CASES // 4  # the generator exercises the property


def test_minimal_forwards_lie_on_minimal_paths():
    rng = random.Random(0xF418)
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        step = run_case((current, destination, input_port, mask))
        if step.kind is StepKind.FORWARD and step.minimal:
            assert step.output in minimal_directions(current, destination)


def test_non_minimal_forwards_never_reuse_the_input_port():
    rng = random.Random(0xF419)
    seen = 0
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        step = run_case((current, destination, input_port, mask))
        if step.kind is StepKind.FORWARD and not step.minimal:
            seen += 1
            assert step.output is not input_port
            # A misroute only happens when every minimal port was unusable.
            for port in minimal_directions(current, destination):
                if port is not Direction.EJECT:
                    assert not mask[port]
    assert seen > 0


def test_arrived_scouts_with_free_ejection_always_eject():
    rng = random.Random(0xF41A)
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        if current != destination:
            continue
        mask = dict(mask)
        mask[Direction.EJECT] = True
        step = run_case((current, destination, input_port, mask))
        assert step.kind is StepKind.EJECT
        assert step.output is Direction.EJECT


def test_full_blockage_always_backtracks():
    rng = random.Random(0xF41B)
    for _ in range(CASES):
        current, destination, input_port, _ = random_case(rng)
        mask = {port: False for port in [*MESH_DIRECTIONS, Direction.EJECT]}
        step = run_case((current, destination, input_port, mask))
        assert step.kind is StepKind.BACKTRACK
        assert step.output is None


def test_blocked_ejection_falls_through_to_misroute_or_backtrack():
    rng = random.Random(0xF41C)
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        mask = dict(mask)
        mask[Direction.EJECT] = False
        step = run_case((current, destination, input_port, mask))
        if current == destination:
            usable_non_input = [
                port
                for port in MESH_DIRECTIONS
                if port is not input_port and mask[port]
            ]
            if usable_non_input:
                assert step.kind is StepKind.FORWARD and not step.minimal
            else:
                assert step.kind is StepKind.BACKTRACK


def test_choose_is_consulted_exactly_on_multi_candidate_lists():
    rng = random.Random(0xF41D)
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        calls = []

        def choose(candidates):
            calls.append(list(candidates))
            return candidates[0]

        step = route_step(
            current=current,
            destination=destination,
            input_port=input_port,
            usable=mask.__getitem__,
            choose=choose,
        )
        for candidates in calls:
            assert len(candidates) >= 2
        if step.kind is StepKind.FORWARD and step.candidates >= 2:
            assert len(calls) == 1
        else:
            assert not calls


def test_decisions_are_deterministic():
    rng = random.Random(0xF41E)
    for _ in range(CASES // 5):
        case = random_case(rng)
        assert run_case(case) == run_case(case)


def test_candidate_count_matches_the_usable_mask():
    rng = random.Random(0xF41F)
    for _ in range(CASES):
        current, destination, input_port, mask = random_case(rng)
        step = run_case((current, destination, input_port, mask))
        if step.kind is not StepKind.FORWARD:
            continue
        if step.minimal:
            expected = sum(
                1
                for port in minimal_directions(current, destination)
                if port is not Direction.EJECT and mask[port]
            )
        else:
            expected = sum(
                1
                for port in MESH_DIRECTIONS
                if port is not input_port and mask[port]
            )
        assert step.candidates == expected


def test_route_step_singletons_are_shared():
    eject = route_step(
        current=(0, 0),
        destination=(0, 0),
        input_port=None,
        usable=lambda port: True,
        choose=first_choice,
    )
    backtrack = route_step(
        current=(0, 0),
        destination=(0, 0),
        input_port=None,
        usable=lambda port: False,
        choose=first_choice,
    )
    assert isinstance(eject, RouteStep) and eject.kind is StepKind.EJECT
    assert backtrack.kind is StepKind.BACKTRACK
