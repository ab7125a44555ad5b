"""Latency statistics for the metrics layer.

:class:`LatencyRecorder` is a streaming log-bucketed histogram
(DDSketch-style): O(1) memory per distinct magnitude, exact
count/mean/min/max, and quantiles with a guaranteed relative error of
:data:`HISTOGRAM_RELATIVE_ERROR` (1%).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError

#: Guaranteed relative error bound of the recorder's quantiles and CDF
#: points: every reported latency v' satisfies |v' - v| <= 0.01 * v for the
#: true order statistic v.  (Log-bucketed sketch with gamma = 1.01/0.99;
#: estimates are the geometric bucket midpoint 2*gamma^i/(gamma+1), clamped
#: to the exact observed [min, max].)
HISTOGRAM_RELATIVE_ERROR = 0.01

_GAMMA = (1.0 + HISTOGRAM_RELATIVE_ERROR) / (1.0 - HISTOGRAM_RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)
_BUCKET_MID = 2.0 / (_GAMMA + 1.0)  # estimate(i) = gamma**i * _BUCKET_MID


class LatencyRecorder:
    """Latency store with percentile and CDF extraction.

    A streaming log-bucketed histogram: constant memory, exact
    count/mean/min/max, quantiles within :data:`HISTOGRAM_RELATIVE_ERROR`.
    """

    __slots__ = ("count", "_sum", "_min", "_max", "_buckets", "_zeros")

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    def record(self, latency: float) -> None:
        """Record one latency sample.

        Updates the running sum/extrema and increments the sample's log
        bucket (``ceil(log(v) / log(gamma))``; zero latencies get a
        dedicated bucket and are reported exactly).
        """
        if latency < 0:
            raise SimulationError(f"negative latency: {latency}")
        self.count += 1
        self._sum += latency
        if latency < self._min:
            self._min = latency
        if latency > self._max:
            self._max = latency
        if latency == 0:
            self._zeros += 1
        else:
            index = math.ceil(math.log(latency) / _LOG_GAMMA)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Exact arithmetic mean; 0.0 with no samples."""
        if not self.count:
            return 0.0
        return self._sum / self.count

    @property
    def minimum(self) -> float:
        """Exact smallest recorded latency; 0.0 when empty."""
        if not self.count:
            return 0.0
        return self._min

    @property
    def maximum(self) -> float:
        """Exact largest recorded latency; 0.0 when empty."""
        if not self.count:
            return 0.0
        return self._max

    # ---------------------------------------------------------------- #
    # quantiles
    # ---------------------------------------------------------------- #

    def p(self, fraction: float) -> float:
        """Latency at quantile ``fraction`` (linear interpolation).

        Within :data:`HISTOGRAM_RELATIVE_ERROR` of the linear-interpolation
        percentile of the recorded samples.  Raises on an empty recorder.
        """
        if not self.count:
            raise SimulationError("percentile of empty sample set")
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError(f"fraction out of range: {fraction}")
        position = fraction * (self.count - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        values = self._order_values((lower, upper))
        if lower == upper:
            return values[lower]
        weight = position - lower
        return values[lower] * (1.0 - weight) + values[upper] * weight

    @property
    def p99(self) -> float:
        """The 99th-percentile latency (the paper's tail metric)."""
        return self.p(0.99)

    @property
    def p999(self) -> float:
        """The 99.9th-percentile latency (fleet-level extreme tail)."""
        return self.p(0.999)

    # ---------------------------------------------------------------- #
    # serialization and merging (fleet roll-ups)
    # ---------------------------------------------------------------- #

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe snapshot of the recorder's state.

        Exports the running sum/extrema, the zero-bucket count, and the
        log buckets (keys stringified for JSON) under ``"mode":
        "histogram"``.  :meth:`from_payload` inverts it losslessly, so
        payloads can travel through the result store and be merged across
        devices without losing the documented
        :data:`HISTOGRAM_RELATIVE_ERROR` quantile bound.
        """
        return {
            "mode": "histogram",
            "count": self.count,
            "sum": self._sum,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "zeros": self._zeros,
            "buckets": {str(index): self._buckets[index]
                        for index in sorted(self._buckets)},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LatencyRecorder":
        """Rebuild a recorder from :meth:`to_payload` output.

        Any other ``mode`` -- such as the raw-sample ``"exact"`` payloads
        of older versions -- raises :class:`~repro.errors.SimulationError`
        naming it.
        """
        mode = payload.get("mode")
        if mode != "histogram":
            raise SimulationError(f"unknown latency payload mode {mode!r}")
        recorder = cls()
        recorder.count = int(payload["count"])
        recorder._sum = float(payload["sum"])
        recorder._min = math.inf if payload["min"] is None else float(payload["min"])
        recorder._max = -math.inf if payload["max"] is None else float(payload["max"])
        recorder._zeros = int(payload["zeros"])
        recorder._buckets = {
            int(index): int(count)
            for index, count in dict(payload["buckets"]).items()
        }
        return recorder

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one.

        Exact for count/mean/min/max and preserves the 1% relative
        quantile bound: bucket counts simply add, so the result equals one
        recorder that recorded both sample sets.
        """
        self.count += other.count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self._zeros += other._zeros
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count

    def _order_values(self, ranks: Sequence[int]) -> Dict[int, float]:
        """Estimate the 0-based order statistics at ``ranks`` in one walk.

        Each estimate is the geometric midpoint of the log bucket holding
        that order statistic, clamped to the exact observed [min, max]; the
        result is therefore within ``HISTOGRAM_RELATIVE_ERROR`` of the true
        sample value.
        """
        wanted = sorted(set(ranks))
        out: Dict[int, float] = {}
        cumulative = self._zeros
        position = 0
        while position < len(wanted) and wanted[position] < cumulative:
            out[wanted[position]] = 0.0
            position += 1
        if position < len(wanted):
            low, high = self._min, self._max
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if position >= len(wanted) or wanted[position] >= cumulative:
                    continue
                estimate = _GAMMA ** index * _BUCKET_MID
                value = low if estimate < low else (high if estimate > high else estimate)
                while position < len(wanted) and wanted[position] < cumulative:
                    out[wanted[position]] = value
                    position += 1
                if position >= len(wanted):
                    break
        # Ranks beyond the recorded population (defensive; callers clamp).
        for rank in wanted[position:]:
            out[rank] = self._max if self.count else 0.0
        return out

    # ---------------------------------------------------------------- #
    # CDF extraction
    # ---------------------------------------------------------------- #

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Return ``points`` (latency, cumulative_fraction) pairs.

        Matches the presentation of the paper's Figure 11: a CDF of request
        latencies from which the p99 tail is read off.
        """
        if not self.count:
            return []
        total = self.count
        fractions = [step / points for step in range(1, points + 1)]
        ranks = [
            min(total - 1, max(0, int(round(fraction * total)) - 1))
            for fraction in fractions
        ]
        values = self._order_values(ranks)
        return [(values[rank], fraction) for rank, fraction in zip(ranks, fractions)]

    def tail_cdf(self, start_fraction: float = 0.99, points: int = 50) -> List[Tuple[float, float]]:
        """CDF zoomed into the tail (Figure 11 plots the 99th percentile)."""
        if not self.count:
            return []
        fractions = [
            min(start_fraction + (1.0 - start_fraction) * step / points, 1.0)
            for step in range(points + 1)
        ]
        # One bucket walk for every interpolation rank of every fraction,
        # instead of a walk (and sort) per point.
        positions = [fraction * (self.count - 1) for fraction in fractions]
        ranks = set()
        for position in positions:
            ranks.add(int(math.floor(position)))
            ranks.add(int(math.ceil(position)))
        values = self._order_values(sorted(ranks))
        out: List[Tuple[float, float]] = []
        for position, fraction in zip(positions, fractions):
            lower = int(math.floor(position))
            upper = int(math.ceil(position))
            if lower == upper:
                out.append((values[lower], fraction))
            else:
                weight = position - lower
                out.append(
                    (values[lower] * (1.0 - weight) + values[upper] * weight, fraction)
                )
        return out
