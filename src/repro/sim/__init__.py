"""Discrete-event simulation kernel.

A small, dependency-free, generator-based discrete-event engine in the style
of SimPy, specialised for the needs of an SSD simulator:

* integer-nanosecond timestamps (no floating-point event reordering),
* deterministic FIFO tie-breaking for simultaneous events,
* a closure-free event loop: heap entries are type-tagged tuples and
  ``delay == 0`` schedules bypass the heap through a micro-queue,
* processes written as generators that ``yield`` one of four waitables
  (plain integer delays, :class:`Grant`, :class:`OneShotEvent`,
  :class:`Process`); a resource acquisition is a Grant or an event,
* FIFO :class:`~repro.sim.resources.Resource` with waiter accounting so the
  metrics layer can count path conflicts, and an allocation-free
  uncontended acquire fast path.
"""

from repro.sim.engine import Engine, OneShotEvent, Grant, Process
from repro.sim.resources import Resource, ResourcePool, Lease
from repro.sim.rng import DeterministicRng, Lfsr2
from repro.sim.stats import (
    HISTOGRAM_RELATIVE_ERROR,
    RunningStat,
    LatencyRecorder,
    exact_stats_default,
    percentile,
)

__all__ = [
    "Engine",
    "OneShotEvent",
    "Grant",
    "Process",
    "Resource",
    "ResourcePool",
    "Lease",
    "DeterministicRng",
    "Lfsr2",
    "HISTOGRAM_RELATIVE_ERROR",
    "RunningStat",
    "LatencyRecorder",
    "exact_stats_default",
    "percentile",
]
