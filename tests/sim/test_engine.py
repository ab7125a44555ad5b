"""Unit tests for the discrete-event engine."""

import sys

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_schedule_runs_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(30, lambda: seen.append("c"))
    engine.schedule(10, lambda: seen.append("a"))
    engine.schedule(20, lambda: seen.append("b"))
    engine.run()
    assert seen == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    engine = Engine()
    seen = []
    for tag in range(5):
        engine.schedule(7, lambda tag=tag: seen.append(tag))
    engine.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_process_timeout_advances_clock():
    engine = Engine()
    marks = []

    def proc():
        yield 100
        marks.append(engine.now)
        yield 50
        marks.append(engine.now)

    engine.process(proc())
    engine.run()
    assert marks == [100, 150]


def test_process_return_value_exposed():
    engine = Engine()

    def proc():
        yield 1
        return 42

    handle = engine.process(proc())
    engine.run()
    assert handle.done
    assert handle.result == 42


def test_event_wakes_waiter_with_value():
    engine = Engine()
    event = engine.event("signal")
    got = []

    def waiter():
        value = yield event
        got.append((engine.now, value))

    def trigger():
        yield 500
        event.succeed("payload")

    engine.process(waiter())
    engine.process(trigger())
    engine.run()
    assert got == [(500, "payload")]


def test_yield_on_already_triggered_event_resumes_immediately():
    engine = Engine()
    event = engine.event()
    event.succeed(7)
    got = []

    def waiter():
        value = yield event
        got.append(value)

    engine.process(waiter())
    engine.run()
    assert got == [7]


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = engine.event()
    event.succeed(None)
    with pytest.raises(SimulationError):
        event.succeed(None)


def test_process_joins_child_process():
    engine = Engine()
    order = []

    def child():
        yield 10
        order.append("child")
        return "child-result"

    def parent():
        result = yield engine.process(child())
        order.append(f"parent-saw-{result}")

    engine.process(parent())
    engine.run()
    assert order == ["child", "parent-saw-child-result"]


def test_yielding_non_waitable_raises():
    # ``True`` is an ``int`` subclass, but not a delay.
    for target in ("not-a-waitable", True):
        engine = Engine()

        def bad():
            yield target

        engine.process(bad())
        with pytest.raises(SimulationError, match="non-waitable"):
            engine.run()


def test_processed_event_count_increments():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    engine.run()
    assert engine.processed_events == 2
    assert engine.pending_events == 0


# --------------------------------------------------------------------- #
# Plain-int timeouts and Grant (hot-path waitables)
# --------------------------------------------------------------------- #


def test_yielding_plain_int_is_a_timeout():
    engine = Engine()
    marks = []

    def proc():
        yield 100
        marks.append(engine.now)
        yield 0  # micro-queue: resumes at the same timestamp
        marks.append(engine.now)

    engine.process(proc())
    engine.run()
    assert marks == [100, 100]


def test_yielding_negative_int_raises():
    engine = Engine()

    def proc():
        yield -3

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_grant_resumes_immediately_with_value():
    from repro.sim.engine import Grant

    engine = Engine()
    got = []

    def proc():
        value = yield Grant("payload")
        got.append((engine.now, value))
        yield 10
        got.append((engine.now, None))

    engine.process(proc())
    engine.run()
    assert got == [(0, "payload"), (10, None)]


def test_zero_delay_schedules_run_after_same_time_heap_events():
    """Micro-queue entries never overtake already-queued events at now."""
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: seen.append("first"))
    engine.schedule(5, lambda: (seen.append("second"), engine.schedule(0, lambda: seen.append("micro"))))
    engine.schedule(5, lambda: seen.append("third"))
    engine.run()
    assert seen == ["first", "second", "third", "micro"]


# --------------------------------------------------------------------- #
# Fan-out joins: spawn every child, then yield each in turn
# --------------------------------------------------------------------- #


def child_after(delay):
    yield delay
    return delay


def test_fan_out_joins_children_in_spawn_order():
    engine = Engine()
    seen = []

    def parent():
        children = [engine.process(child_after(delay)) for delay in (30, 10, 20)]
        values = []
        for child in children:
            values.append((yield child))
        seen.append((engine.now, values))

    engine.process(parent())
    engine.run()
    assert seen == [(30, [30, 10, 20])]
    # One start per process and one timer per child: joining adds no event.
    assert engine.processed_events == 7


def test_joining_many_finished_children_nests_no_call_per_child():
    """The first child finishes last, so every later one is already done."""
    engine = Engine()
    width = 3 * sys.getrecursionlimit()
    seen = []

    def parent():
        children = [engine.process(child_after(width - index)) for index in range(width)]
        for child in children:
            yield child
        seen.append(engine.now)

    engine.process(parent())
    engine.run()
    assert seen == [width]
