"""Generator-based discrete-event engine with integer-nanosecond time.

The engine executes *processes*: Python generators that yield *waitables*.
There are exactly four:

* a plain non-negative ``int`` -- resume the process after that many
  nanoseconds (the dominant yield; nothing is allocated for it),
* :class:`Grant` -- an already-completed waitable carrying its value;
  yielding one resumes the process immediately without touching the
  scheduler (resources hand these out on their uncontended fast path),
* :class:`OneShotEvent` -- resume when another process triggers the event;
  the value passed to :meth:`OneShotEvent.succeed` becomes the value of the
  ``yield`` expression,
* :class:`Process` -- resume when the child process finishes; the child's
  return value (via ``return value`` in the generator) becomes the value of
  the ``yield`` expression.

Yielding anything else (a ``bool`` included) raises
:class:`~repro.errors.SimulationError`.  A fan-out joins its children by
spawning them all and then yielding each in turn: a finished child resumes
the parent at once and a pending one parks it, so the parent resumes
exactly once, inside the last child's completion.

Scheduling internals (see DESIGN.md "Engine internals"): the event loop is
a binary heap of type-tagged tuples ``(time, seq, kind, a, b)`` -- kind 0
resumes process ``a`` with value ``b``, kind 1 invokes the zero-argument
callback ``a``.  No closure is allocated per event.  Same-timestamp
``delay == 0`` schedules (process starts, deferred resumes) bypass the heap
entirely through a FIFO *micro-queue*; because a zero-delay entry created
at time T always carries a higher sequence number than every heap entry at
T, draining heap-at-T before the micro-queue reproduces the exact global
sequence order of a single-heap scheduler.

Resources (see :mod:`repro.sim.resources`) produce :class:`Grant` values on
their uncontended path and :class:`OneShotEvent` instances when the caller
must wait, so they compose with the same machinery.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Deque, Generator, List, Tuple

from repro.errors import SimulationError

# Type tags for heap / micro-queue entries.
_STEP = 0  # resume process `a` with value `b`
_CALL = 1  # invoke zero-argument callback `a`


class Grant:
    """An already-completed waitable carrying its ``value``.

    Yielding a Grant resumes the process at the current simulation time,
    synchronously (run-to-completion), without allocating an event or
    re-entering the scheduler.  Identical in observable behaviour to
    yielding an already-triggered :class:`OneShotEvent`.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Grant({self.value!r})"


class OneShotEvent:
    """An event that can be triggered exactly once.

    Processes yielding on a pending event are parked; when the event is
    triggered every parked process is resumed (in FIFO order) with the
    trigger value.  Yielding on an already-triggered event resumes the
    process immediately.
    """

    __slots__ = ("engine", "_waiters", "triggered", "value", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._waiters: List[Process] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking all waiters at the current sim time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            step = self.engine._step
            for waiter in waiters:
                step(waiter, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"OneShotEvent({self.name!r}, {state})"


class Process:
    """A running generator; also waitable so processes can join each other."""

    __slots__ = ("generator", "name", "done", "result", "_waiters")

    def __init__(self, generator: Generator, name: str = "") -> None:
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self._waiters: List[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Engine:
    """The event loop: a heap of type-tagged entries plus a micro-queue."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, int, Any, Any]] = []
        self._micro: Deque[Tuple[int, Any, Any]] = deque()
        self._sequence = 0
        self._processed = 0

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` nanoseconds from now."""
        if delay > 0:
            self._sequence += 1
            _heappush(
                self._heap,
                (self.now + int(delay), self._sequence, _CALL, callback, None),
            )
        elif delay == 0:
            self._micro.append((_CALL, callback, None))
        else:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")

    def event(self, name: str = "") -> OneShotEvent:
        """Create a fresh one-shot event bound to this engine."""
        return OneShotEvent(self, name=name)

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process and start it immediately.

        "Immediately" means at the current simulation time but *after* the
        caller returns to the event loop, preserving run-to-completion
        semantics for the spawning process.
        """
        proc = Process(generator, name=name)
        self._micro.append((_STEP, proc, None))
        return proc

    def _step(self, proc: Process, value: Any) -> None:
        """Advance a process by sending ``value`` into its generator.

        An already-completed waitable resumes the process in this same
        loop, so a fan-out joining many finished children nests no call
        per child.
        """
        generator = proc.generator
        while True:
            try:
                target = generator.send(value)
            except StopIteration as stop:
                proc.done = True
                proc.result = result = stop.value
                waiters = proc._waiters
                if waiters:
                    proc._waiters = []
                    for waiter in waiters:
                        self._step(waiter, result)
                return
            # Exact-type dispatch, in hot-path frequency order.
            tcls = target.__class__
            if tcls is int:
                if target > 0:
                    self._sequence += 1
                    _heappush(
                        self._heap,
                        (self.now + target, self._sequence, _STEP, proc, None),
                    )
                elif target == 0:
                    self._micro.append((_STEP, proc, None))
                else:
                    raise SimulationError(
                        f"process {proc.name!r} yielded negative delay {target}"
                    )
                return
            if tcls is Grant:
                value = target.value
            elif tcls is OneShotEvent:
                if not target.triggered:
                    target._waiters.append(proc)
                    return
                value = target.value
            elif tcls is Process:
                if not target.done:
                    target._waiters.append(proc)
                    return
                value = target.result
            else:
                raise SimulationError(
                    f"process {proc.name!r} yielded non-waitable {target!r}"
                )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Drain the event heap and micro-queue until no event is left."""
        heap = self._heap
        micro = self._micro
        step = self._step
        pop = micro.popleft
        # Ordering invariant: heap pushes are strictly future (delay 0 goes
        # to the micro-queue), so every heap entry at the current timestamp
        # predates (lower sequence) every queued micro entry.  Draining all
        # heap entries at one timestamp, then the micro-queue to exhaustion,
        # then advancing the clock therefore reproduces the exact global
        # sequence order of a single-heap scheduler.
        while True:
            while micro:
                kind, a, b = pop()
                if kind == _STEP:
                    step(a, b)
                else:
                    a()
                self._processed += 1
            if not heap:
                return
            event_time = heap[0][0]
            self.now = event_time
            while heap and heap[0][0] == event_time:
                entry = _heappop(heap)
                if entry[2] == _STEP:
                    step(entry[3], entry[4])
                else:
                    entry[3]()
                self._processed += 1

    @property
    def pending_events(self) -> int:
        """Events waiting in the heap plus the zero-delay micro-queue."""
        return len(self._heap) + len(self._micro)

    @property
    def processed_events(self) -> int:
        """Total events executed over the engine's lifetime."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self.now}, pending={self.pending_events})"
