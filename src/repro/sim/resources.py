"""FIFO resources with waiter accounting.

The SSD model serialises on many physical resources: shared channels, mesh
links, flash dies, flash controllers.  All of them are modelled with
:class:`Resource` -- a capacity-limited FIFO semaphore whose ``acquire``
returns a waitable carrying a :class:`Lease`.

Uncontended acquisitions take an allocation-free fast path: ``acquire``
hands back a pre-completed :class:`~repro.sim.engine.Grant` and the process
resumes immediately when it yields, never touching the scheduler.  Only a
caller that must actually wait gets a :class:`~repro.sim.engine.OneShotEvent`
parked on the FIFO waiter queue.  FIFO order and all accounting are
identical on both paths.

The crucial extra over a plain semaphore is *contention accounting*: the
metrics layer asks "did this acquisition have to wait?" to classify an I/O
request as having experienced a path conflict (paper §3.1, §6.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.engine import Engine, Grant, OneShotEvent

AcquireWaitable = Union[Grant, OneShotEvent]


class Lease:
    """A granted unit of a resource; release it exactly once."""

    __slots__ = ("resource", "granted_at", "requested_at", "released", "waited")

    def __init__(self, resource: "Resource", requested_at: int, granted_at: int) -> None:
        self.resource = resource
        self.requested_at = requested_at
        self.granted_at = granted_at
        self.released = False
        self.waited = granted_at > requested_at

    @property
    def wait_time(self) -> int:
        """Nanoseconds this acquisition queued before being granted."""
        return self.granted_at - self.requested_at

    def release(self) -> None:
        """Return the unit to the resource; double release raises."""
        if self.released:
            raise SimulationError(f"double release of {self.resource.name!r}")
        self.released = True
        self.resource._on_release(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lease({self.resource.name!r}, waited={self.wait_time})"


class Resource:
    """Capacity-limited FIFO resource."""

    def __init__(self, engine: Engine, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource {name!r} needs capacity >= 1")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._event_name = "acq:" + name  # built once; contended acquires are hot
        self._waiters: Deque[Tuple[OneShotEvent, int]] = deque()
        # accounting
        self.total_acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_time = 0
        self.busy_time = 0
        self._busy_since: Optional[int] = None

    # ------------------------------------------------------------------ #

    def acquire(self) -> AcquireWaitable:
        """Request one unit; the waitable's value is the granted :class:`Lease`.

        Free capacity returns a pre-completed :class:`Grant` (no event, no
        scheduler round-trip); a full resource parks a fresh event on the
        FIFO waiter queue.
        """
        self.total_acquisitions += 1
        if self.in_use < self.capacity:
            now = self.engine.now
            lease = Lease(self, now, now)
            self.in_use += 1
            if self._busy_since is None:
                self._busy_since = now
            return Grant(lease)
        self.contended_acquisitions += 1
        event = OneShotEvent(self.engine, name=self._event_name)
        self._waiters.append((event, self.engine.now))
        return event

    def try_acquire(self) -> Optional[Lease]:
        """Non-blocking acquire: a lease if free capacity exists, else None."""
        if self.in_use < self.capacity:
            self.total_acquisitions += 1
            lease = Lease(self, self.engine.now, self.engine.now)
            self._account_grant(lease)
            return lease
        return None

    @property
    def is_free(self) -> bool:
        """True when an acquire would be granted without waiting."""
        return self.in_use < self.capacity

    @property
    def queue_length(self) -> int:
        """Number of acquisitions currently parked on the FIFO queue."""
        return len(self._waiters)

    # ------------------------------------------------------------------ #

    def _grant(self, event: OneShotEvent, requested_at: int) -> None:
        lease = Lease(self, requested_at, self.engine.now)
        self._account_grant(lease)
        event.succeed(lease)

    def _account_grant(self, lease: Lease) -> None:
        self.in_use += 1
        self.total_wait_time += lease.wait_time
        if self._busy_since is None:
            self._busy_since = self.engine.now

    def _on_release(self, lease: Lease) -> None:
        self.in_use -= 1
        if self._waiters:
            event, requested_at = self._waiters.popleft()
            self._grant(event, requested_at)
        if self.in_use == 0 and self._busy_since is not None:
            self.busy_time += self.engine.now - self._busy_since
            self._busy_since = None

    def utilization(self, horizon: int) -> float:
        """Fraction of [0, horizon] during which the resource was in use.

        Busy time exceeding the horizon is an accounting bug (a lease
        held longer than the window it is measured against) and raises
        instead of being silently clamped.
        """
        if horizon <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += max(0, self.engine.now - self._busy_since)
        if busy > horizon:
            raise SimulationError(
                f"resource {self.name!r} accounted {busy}ns busy over a "
                f"{horizon}ns horizon"
            )
        return busy / horizon

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, {self.in_use}/{self.capacity} used, "
            f"{len(self._waiters)} waiting)"
        )


class ResourcePool:
    """A named collection of single-capacity resources with free-search.

    Used for Venice's flash-controller pool: "Venice checks if the closest
    flash controller to the target flash chip is available; otherwise it uses
    the nearest free flash controller" (paper §4.2).
    """

    def __init__(self, engine: Engine, name: str, size: int) -> None:
        if size < 1:
            raise SimulationError(f"pool {name!r} needs size >= 1")
        self.engine = engine
        self.name = name
        self.members: List[Resource] = [
            Resource(engine, f"{name}[{index}]") for index in range(size)
        ]
        self._event_name = "acq:" + name
        self._waiters: Deque[Tuple[OneShotEvent, int, Tuple[int, ...], bool]] = deque()
        self.total_acquisitions = 0
        self.contended_acquisitions = 0

    def __len__(self) -> int:
        return len(self.members)

    def acquire_preferring(
        self, preference: Tuple[int, ...], restrict: bool = False
    ) -> AcquireWaitable:
        """Acquire any member, preferring the given index order.

        The waitable's value is ``(index, lease)``.  ``preference`` lists
        member indices from most to least preferred; indices not listed are
        considered afterwards in ascending order -- unless ``restrict`` is
        true, in which case *only* the listed indices are acceptable (fault
        injection uses this: a transfer must not be handed a controller that
        cannot reach its destination).  A free member comes back as a
        pre-completed :class:`Grant`; otherwise a fresh event parks on the
        FIFO waiter queue.
        """
        self.total_acquisitions += 1
        index = self._pick_free(preference, restrict)
        if index is None:
            self.contended_acquisitions += 1
            event = OneShotEvent(self.engine, name=self._event_name)
            self._waiters.append((event, self.engine.now, preference, restrict))
            return event
        lease = self.members[index].try_acquire()
        assert lease is not None
        return Grant((index, lease))

    def release(self, index: int, lease: Lease) -> None:
        """Release member ``index`` and re-grant waiters in FIFO order.

        Waiting acquirers are granted with their *original* request time so
        the lease and the member's accounting record the queueing delay
        (re-acquiring through ``try_acquire`` would stamp request == grant
        and lose the wait).  A restricted waiter whose acceptable members
        are all still busy is skipped (it keeps its queue position); with no
        restricted waiters the head waiter always takes the freed member,
        exactly the historical behaviour.
        """
        lease.release()
        self._grant_ready_waiters()

    def _grant_ready_waiters(self) -> None:
        """Grant every queued waiter a free acceptable member, FIFO-first.

        The scan walks the queue *in place* and removes an entry only at
        the moment it is granted, so waiters are never hidden from a
        nested call: ``event.succeed`` resumes the granted process
        synchronously, and if that process releases members (re-entering
        this method), the nested scan sees the complete remaining queue and
        grants the earliest acceptable waiter.  After every grant the scan
        restarts from the queue head -- reentrant mutations may have made
        an earlier waiter grantable -- so the earliest grantable waiter
        always wins, preserving FIFO order for restricted and unrestricted
        waiters alike.
        """
        waiters = self._waiters
        members = self.members
        index = 0
        while index < len(waiters):
            if not any(member.is_free for member in members):
                return
            event, requested_at, preference, restrict = waiters[index]
            free = self._pick_free(preference, restrict)
            if free is None:
                index += 1
                continue
            del waiters[index]
            member = members[free]
            member.total_acquisitions += 1
            new_lease = Lease(member, requested_at, self.engine.now)
            member._account_grant(new_lease)
            event.succeed((free, new_lease))
            index = 0

    def _pick_free(
        self, preference: Tuple[int, ...], restrict: bool = False
    ) -> Optional[int]:
        members = self.members
        size = len(members)
        for index in preference:
            if 0 <= index < size and members[index].is_free:
                return index
        if restrict:
            return None
        seen = set(preference)
        for index, member in enumerate(members):
            if index not in seen and member.is_free:
                return index
        return None
