"""Unit tests for FIFO resources and the controller pool."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import Resource, ResourcePool


def hold(engine, resource, duration, log, tag):
    lease = yield resource.acquire()
    log.append(("got", tag, engine.now, lease.waited))
    yield duration
    lease.release()


def test_uncontended_acquire_is_immediate_and_unwaited():
    engine = Engine()
    resource = Resource(engine, "r")
    log = []
    engine.process(hold(engine, resource, 10, log, "a"))
    engine.run()
    assert log == [("got", "a", 0, False)]


def test_contended_acquires_serialize_fifo():
    engine = Engine()
    resource = Resource(engine, "r")
    log = []
    for tag in ("a", "b", "c"):
        engine.process(hold(engine, resource, 10, log, tag))
    engine.run()
    assert log == [
        ("got", "a", 0, False),
        ("got", "b", 10, True),
        ("got", "c", 20, True),
    ]


def test_capacity_two_allows_two_concurrent_holders():
    engine = Engine()
    resource = Resource(engine, "r", capacity=2)
    log = []
    for tag in ("a", "b", "c"):
        engine.process(hold(engine, resource, 10, log, tag))
    engine.run()
    grant_times = [entry[2] for entry in log]
    assert grant_times == [0, 0, 10]


def test_wait_accounting():
    engine = Engine()
    resource = Resource(engine, "r")
    log = []
    engine.process(hold(engine, resource, 25, log, "a"))
    engine.process(hold(engine, resource, 5, log, "b"))
    engine.run()
    assert resource.total_acquisitions == 2
    assert resource.contended_acquisitions == 1
    assert resource.total_wait_time == 25


def test_double_release_rejected():
    engine = Engine()
    resource = Resource(engine, "r")
    lease = resource.try_acquire()
    assert lease is not None
    lease.release()
    with pytest.raises(SimulationError):
        lease.release()


def test_try_acquire_returns_none_when_full():
    engine = Engine()
    resource = Resource(engine, "r")
    first = resource.try_acquire()
    assert first is not None
    assert resource.try_acquire() is None
    first.release()
    assert resource.try_acquire() is not None


def test_utilization_tracks_busy_time():
    engine = Engine()
    resource = Resource(engine, "r")
    log = []
    engine.process(hold(engine, resource, 40, log, "a"))
    engine.run()
    engine.schedule(60, lambda: None)  # idle tail
    engine.run()
    assert resource.utilization(100) == pytest.approx(0.4)


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        Resource(Engine(), "r", capacity=0)


# --------------------------------------------------------------------- #
# ResourcePool
# --------------------------------------------------------------------- #


def test_pool_prefers_listed_order():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 4)
    got = []

    def proc():
        index, lease = yield pool.acquire_preferring((2, 1, 0, 3))
        got.append(index)
        pool.release(index, lease)

    engine.process(proc())
    engine.run()
    assert got == [2]


def test_pool_falls_back_to_next_preference_when_busy():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 3)
    held = pool.members[1].try_acquire()
    got = []

    def proc():
        index, lease = yield pool.acquire_preferring((1, 2, 0))
        got.append(index)
        pool.release(index, lease)

    engine.process(proc())
    engine.run()
    assert got == [2]
    held.release()


def test_pool_queues_when_all_busy_and_wakes_fifo():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 1)
    order = []

    def proc(tag, duration):
        index, lease = yield pool.acquire_preferring((0,))
        order.append((tag, engine.now))
        yield duration
        pool.release(index, lease)

    engine.process(proc("a", 10))
    engine.process(proc("b", 10))
    engine.process(proc("c", 10))
    engine.run()
    assert order == [("a", 0), ("b", 10), ("c", 20)]
    assert pool.contended_acquisitions == 2


def test_pool_size_validation():
    with pytest.raises(SimulationError):
        ResourcePool(Engine(), "fc", 0)


# --------------------------------------------------------------------- #
# Grant fast path
# --------------------------------------------------------------------- #


def test_uncontended_acquire_returns_pretriggered_grant():
    from repro.sim.engine import Grant

    engine = Engine()
    resource = Resource(engine, "r")
    waitable = resource.acquire()
    assert isinstance(waitable, Grant)
    lease = waitable.value
    assert lease.waited is False
    assert resource.in_use == 1
    lease.release()
    assert resource.in_use == 0


def test_contended_acquire_returns_event_and_accounts_wait():
    from repro.sim.engine import OneShotEvent

    engine = Engine()
    resource = Resource(engine, "r")
    first = resource.acquire().value
    second = resource.acquire()
    assert isinstance(second, OneShotEvent)
    assert not second.triggered
    engine.schedule(40, first.release)
    engine.run()
    assert second.triggered
    lease = second.value
    assert lease.waited is True
    assert lease.wait_time == 40
    assert resource.contended_acquisitions == 1
    assert resource.total_wait_time == 40


# --------------------------------------------------------------------- #
# Busy-interval accounting and the utilization over-horizon guard
# --------------------------------------------------------------------- #


def test_busy_accounting_across_overlapping_leases():
    """Overlapping leases on a capacity-2 resource merge into one interval."""
    engine = Engine()
    resource = Resource(engine, "r", capacity=2)
    log = []
    # a holds [0, 30); b holds [10, 50) -> busy interval is [0, 50).
    engine.process(hold(engine, resource, 30, log, "a"))

    def delayed():
        yield 10
        yield from hold(engine, resource, 40, log, "b")

    engine.process(delayed())
    engine.run()
    engine.schedule(50, lambda: None)  # idle tail to now=100
    engine.run()
    assert resource.busy_time == 50
    assert resource.utilization(100) == pytest.approx(0.5)


def test_utilization_raises_when_busy_exceeds_horizon():
    """Clamping used to hide accounting bugs; now they raise loudly."""
    engine = Engine()
    resource = Resource(engine, "r")
    log = []
    engine.process(hold(engine, resource, 80, log, "a"))
    engine.run()
    with pytest.raises(SimulationError):
        resource.utilization(40)  # busy 80ns over a 40ns horizon


def test_utilization_counts_open_interval_up_to_now():
    engine = Engine()
    resource = Resource(engine, "r")
    lease = resource.try_acquire()
    assert lease is not None
    engine.schedule(60, lambda: None)
    engine.run()
    assert resource.utilization(100) == pytest.approx(0.6)
    lease.release()


# --------------------------------------------------------------------- #
# ResourcePool: fairness, preference validation, handoff accounting
# --------------------------------------------------------------------- #


def test_pool_fifo_fairness_under_contention():
    """Waiters are served strictly in arrival order, whatever they prefer."""
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    order = []

    def proc(tag, preference, duration):
        index, lease = yield pool.acquire_preferring(preference)
        order.append((tag, engine.now, index))
        yield duration
        pool.release(index, lease)

    engine.process(proc("a", (0,), 10))
    engine.process(proc("b", (1,), 10))
    engine.process(proc("c", (1, 0), 10))  # queued: pool full
    engine.process(proc("d", (0, 1), 10))  # queued behind c
    engine.process(proc("e", (0,), 10))  # queued behind d
    engine.run()
    tags = [entry[0] for entry in order]
    assert tags == ["a", "b", "c", "d", "e"]
    grant_times = [entry[1] for entry in order]
    assert grant_times == [0, 0, 10, 10, 20]
    assert pool.contended_acquisitions == 3


def test_pool_out_of_range_preferences_fall_back_to_ascending_order():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 3)
    got = []

    def proc(preference):
        index, lease = yield pool.acquire_preferring(preference)
        got.append(index)
        pool.release(index, lease)

    # Entirely out-of-range indices: ascending fallback picks member 0.
    engine.process(proc((7, -2, 99)))
    engine.run()
    assert got == [0]
    # Out-of-range preferred, in-range later in the list still wins.
    held = pool.members[0].try_acquire()
    engine.process(proc((42, 2, 1)))
    engine.run()
    assert got == [0, 2]
    held.release()


def test_pool_release_hands_off_to_waiter_with_accounting():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 1)
    waits = []

    def proc(tag, duration):
        index, lease = yield pool.acquire_preferring((0,))
        waits.append((tag, lease.waited, lease.wait_time))
        yield duration
        pool.release(index, lease)

    engine.process(proc("first", 25))
    engine.process(proc("second", 5))
    engine.run()
    assert waits == [("first", False, 0), ("second", True, 25)]
    member = pool.members[0]
    # Handoff grants go through the member's accounting too.
    assert member.total_acquisitions == 2
    assert member.total_wait_time == 25
    assert pool.total_acquisitions == 2
    assert pool.contended_acquisitions == 1


def test_pool_waiter_takes_any_member_freed_first():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    got = []

    def holder(index, duration):
        lease = pool.members[index].try_acquire()
        yield duration
        pool.release(index, lease)

    def waiter():
        index, lease = yield pool.acquire_preferring((0, 1))
        got.append((engine.now, index))
        pool.release(index, lease)

    engine.process(holder(0, 30))
    engine.process(holder(1, 10))
    engine.process(waiter())
    engine.run()
    # Member 1 frees first at t=10; the waiter takes it despite preferring 0.
    assert got == [(10, 1)]


def test_restricted_acquire_never_falls_back_to_unlisted_members():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 3)
    # Member 0 is busy; members 1 and 2 are free but unacceptable.
    hold = pool.members[0].try_acquire()
    got = []

    def waiter():
        index, lease = yield pool.acquire_preferring((0,), restrict=True)
        got.append((engine.now, index))
        pool.release(index, lease)

    engine.process(waiter())
    engine.schedule(40, lambda: pool.release(0, hold))
    engine.run()
    assert got == [(40, 0)]


def test_restricted_waiter_keeps_fifo_position_while_skipped():
    """A skipped restricted waiter must not starve behind later arrivals."""
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    hold0 = pool.members[0].try_acquire()
    hold1 = pool.members[1].try_acquire()
    order = []

    def restricted():
        index, lease = yield pool.acquire_preferring((0,), restrict=True)
        order.append(("restricted", engine.now, index))
        pool.release(index, lease)

    def unrestricted():
        index, lease = yield pool.acquire_preferring((1,))
        order.append(("unrestricted", engine.now, index))
        pool.release(index, lease)

    engine.process(restricted())
    engine.process(unrestricted())
    # Member 1 frees first: the restricted head waiter cannot take it, the
    # unrestricted one behind it can; member 0 frees later for the head.
    engine.schedule(10, lambda: pool.release(1, hold1))
    engine.schedule(30, lambda: pool.release(0, hold0))
    engine.run()
    assert order == [("unrestricted", 10, 1), ("restricted", 30, 0)]


def test_restricted_grant_is_immediate_when_a_listed_member_is_free():
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    waitable = pool.acquire_preferring((1,), restrict=True)
    index, lease = waitable.value  # Grant: completed synchronously
    assert index == 1
    pool.release(index, lease)


def test_regrant_rescans_after_a_nested_release_frees_a_skipped_member():
    """A member freed synchronously inside a grant must still reach a
    restricted waiter that was skipped (held out of the queue) mid-pass."""
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    lease0 = pool.members[0].try_acquire()
    lease1 = pool.members[1].try_acquire()
    got = []

    def restricted():
        index, lease = yield pool.acquire_preferring((0,), restrict=True)
        got.append(("restricted", index))
        pool.release(index, lease)

    def chained():
        index, lease = yield pool.acquire_preferring((1,))
        got.append(("chained", index))
        pool.release(0, lease0)  # nested release while `restricted` is skipped
        pool.release(index, lease)

    engine.process(restricted())
    engine.process(chained())
    engine.schedule(10, lambda: pool.release(1, lease1))
    engine.run()
    assert ("chained", 1) in got
    assert ("restricted", 0) in got


def test_nested_release_grants_the_earliest_restricted_waiter_first():
    """FIFO must hold even when a member frees inside a nested grant: the
    skipped restricted head waiter beats later unrestricted waiters."""
    engine = Engine()
    pool = ResourcePool(engine, "fc", 2)
    lease0 = pool.members[0].try_acquire()
    lease1 = pool.members[1].try_acquire()
    order = []

    def w1():
        index, lease = yield pool.acquire_preferring((1,), restrict=True)
        order.append(("w1", index))
        pool.release(index, lease)

    def w2():
        index, lease = yield pool.acquire_preferring((0, 1))
        order.append(("w2", index))
        pool.release(1, lease1)  # frees fc1 while w1 was skipped mid-scan
        pool.release(index, lease)

    def w3():
        index, lease = yield pool.acquire_preferring((0, 1))
        order.append(("w3", index))
        pool.release(index, lease)

    engine.process(w1())
    engine.process(w2())
    engine.process(w3())
    engine.schedule(10, lambda: pool.release(0, lease0))
    engine.run()
    assert order[0] == ("w2", 0)
    assert order[1] == ("w1", 1)  # w1 was queued before w3 and gets fc1
    assert ("w3", 0) in order or ("w3", 1) in order
