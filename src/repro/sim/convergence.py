"""Steady-state detection: stop a measured phase once quantiles converge.

Long synthetic runs spend most of their events confirming quantiles that
stopped moving thousands of requests earlier.  :class:`ConvergenceMonitor`
watches a streaming :class:`~repro.sim.stats.LatencyRecorder` and reports
convergence when the cumulative p50 *and* p99 latencies move by less than a
relative tolerance across consecutive observation windows -- the same 1%
bound DESIGN.md §5 documents for the bucketed histogram itself, so stopping
early never adds error beyond what the recorder already guarantees.

The policy is a *value* with the same ergonomics as
:class:`~repro.sim.faults.FaultSchedule`: frozen, hashable, and
round-trippable through a small text grammar so a run spec can carry one in
its content digest::

    window 100; tolerance 0.01; patience 2; min 200

Clauses may appear in any order and any subset; omitted clauses take the
defaults above.  ``window`` is the number of completed requests between
quantile checks, ``tolerance`` the maximum relative p50/p99 delta that
counts as stable, ``patience`` the number of consecutive stable checks
required, and ``min`` a floor on completed requests before the monitor may
fire (guarding against lucky early agreement on a short prefix).

The device layer (see :meth:`repro.ssd.device.SsdDevice.run_trace`) calls
:meth:`ConvergenceMonitor.observe` after every completed request, halts
request fetch when it returns ``True``, and extrapolates throughput and
energy to the full requested horizon; quantiles are reported from the
simulated prefix unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.clauses import parse_clauses
from repro.sim.stats import LatencyRecorder

DEFAULT_WINDOW = 100
DEFAULT_TOLERANCE = 0.01
DEFAULT_PATIENCE = 2
DEFAULT_MIN_REQUESTS = 200


@dataclass(frozen=True)
class EarlyStopPolicy:
    """When to declare a measured phase converged.

    Instances are immutable values; :meth:`parse` and :meth:`to_spec` make
    the policy round-trippable through the spec grammar so two policies
    that mean the same thing always serialise to the same canonical string
    (and therefore the same run-spec digest).
    """

    #: Completed requests between consecutive quantile checks.
    window: int = DEFAULT_WINDOW
    #: Maximum relative p50/p99 movement that still counts as stable.
    tolerance: float = DEFAULT_TOLERANCE
    #: Consecutive stable checks required before stopping.
    patience: int = DEFAULT_PATIENCE
    #: Minimum completed requests before the monitor may fire.
    min_requests: int = DEFAULT_MIN_REQUESTS

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("early-stop window must be >= 1")
        if not 0.0 < self.tolerance < 1.0:
            raise ConfigurationError(
                "early-stop tolerance must be in (0, 1), got "
                f"{self.tolerance!r}"
            )
        if self.patience < 1:
            raise ConfigurationError("early-stop patience must be >= 1")
        if self.min_requests < 1:
            raise ConfigurationError("early-stop min must be >= 1")

    @classmethod
    def parse(cls, spec: str) -> "EarlyStopPolicy":
        """Parse ``"window W; tolerance T; patience P; min M"`` (any subset)."""
        values = parse_clauses(
            spec,
            "early-stop",
            {"window": int, "tolerance": float, "patience": int, "min": int},
        )
        return cls(
            window=values.get("window", DEFAULT_WINDOW),
            tolerance=values.get("tolerance", DEFAULT_TOLERANCE),
            patience=values.get("patience", DEFAULT_PATIENCE),
            min_requests=values.get("min", DEFAULT_MIN_REQUESTS),
        )

    def to_spec(self) -> str:
        """Canonical grammar string: all four clauses in fixed order."""
        return (
            f"window {self.window}; tolerance {self.tolerance:g}; "
            f"patience {self.patience}; min {self.min_requests}"
        )


class ConvergenceMonitor:
    """Streaming p50/p99 convergence detector over a latency recorder.

    The monitor samples the recorder's cumulative p50 and p99 every
    ``policy.window`` completions and counts consecutive checks where both
    quantiles moved by at most ``policy.tolerance`` relative to the previous
    check.  Once ``policy.patience`` consecutive stable checks have been
    seen *and* at least ``policy.min_requests`` requests completed,
    :meth:`observe` returns ``True`` exactly once per convergence.

    Cumulative (not per-window) quantiles are compared: each check folds the
    new window into the running histogram, so agreement means the estimate
    itself has stopped moving -- the property the §5 error bound is stated
    over -- rather than two noisy windows happening to agree.
    """

    __slots__ = ("policy", "recorder", "_previous", "_stable", "checks",
                 "converged")

    def __init__(self, policy: EarlyStopPolicy, recorder: LatencyRecorder):
        self.policy = policy
        self.recorder = recorder
        self._previous: Optional[Tuple[float, float]] = None
        self._stable = 0
        #: Number of quantile checks performed so far.
        self.checks = 0
        #: Latched true once convergence has been declared.
        self.converged = False

    def observe(self) -> bool:
        """Called after each completion; ``True`` when the run may stop."""
        if self.converged:
            return False
        count = self.recorder.count
        if count == 0 or count % self.policy.window != 0:
            return False
        current = (self.recorder.p(0.5), self.recorder.p(0.99))
        self.checks += 1
        if self._previous is not None:
            if self._within_tolerance(self._previous, current):
                self._stable += 1
            else:
                self._stable = 0
        self._previous = current
        if (self._stable >= self.policy.patience
                and count >= self.policy.min_requests):
            self.converged = True
            return True
        return False

    def _within_tolerance(self, previous: Tuple[float, float],
                          current: Tuple[float, float]) -> bool:
        """Both quantiles moved by at most ``tolerance``, relatively."""
        for before, after in zip(previous, current):
            if before == 0.0:
                if after != 0.0:
                    return False
                continue
            if abs(after - before) / before > self.policy.tolerance:
                return False
        return True
