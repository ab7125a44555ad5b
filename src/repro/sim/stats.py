"""Statistics primitives for the metrics layer.

Small, dependency-light accumulators:

* :func:`percentile` -- linear-interpolation percentile on a sorted copy,
* :class:`RunningStat` -- streaming count/mean/min/max/variance (Welford),
* :class:`LatencyRecorder` -- latency accumulator with percentile and CDF
  extraction.  The default mode is a streaming log-bucketed histogram
  (DDSketch-style): O(1) memory per distinct magnitude, exact
  count/mean/min/max, and quantiles with a guaranteed relative error of
  :data:`HISTOGRAM_RELATIVE_ERROR` (1%).  ``exact=True`` retains every raw
  sample and reproduces the historical bit-exact percentiles -- the mode
  equivalence tests and the ``VENICE_EXACT_STATS=1`` environment switch
  rely on it.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Guaranteed relative error bound of histogram-mode quantiles and CDF
#: points: every reported latency v' satisfies |v' - v| <= 0.01 * v for the
#: true order statistic v.  (Log-bucketed sketch with gamma = 1.01/0.99;
#: estimates are the geometric bucket midpoint 2*gamma^i/(gamma+1), clamped
#: to the exact observed [min, max].)
HISTOGRAM_RELATIVE_ERROR = 0.01

_GAMMA = (1.0 + HISTOGRAM_RELATIVE_ERROR) / (1.0 - HISTOGRAM_RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)
_BUCKET_MID = 2.0 / (_GAMMA + 1.0)  # estimate(i) = gamma**i * _BUCKET_MID


def exact_stats_default() -> bool:
    """Process-wide default for exact-mode stats (``VENICE_EXACT_STATS``)."""
    return os.environ.get("VENICE_EXACT_STATS", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile; ``fraction`` in [0, 1]."""
    if not samples:
        raise SimulationError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError(f"fraction out of range: {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


class RunningStat:
    """Streaming count / mean / variance / extrema (Welford's algorithm)."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the running statistics (O(1))."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected); 0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunningStat(n={self.count}, mean={self.mean:.3f})"


class LatencyRecorder:
    """Latency store with percentile and CDF extraction.

    ``exact=False`` (default): streaming log-bucketed histogram -- constant
    memory, exact count/mean/min/max, quantiles within
    :data:`HISTOGRAM_RELATIVE_ERROR`.  ``exact=True``: keeps every raw
    sample (the pre-histogram behaviour, bit-identical percentiles).
    """

    __slots__ = ("exact", "samples", "count", "_sum", "_min", "_max", "_buckets", "_zeros")

    def __init__(self, exact: Optional[bool] = None) -> None:
        self.exact = exact_stats_default() if exact is None else bool(exact)
        self.samples: Optional[List[float]] = [] if self.exact else None
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    def record(self, latency: float) -> None:
        """Record one latency sample.

        Exact mode appends to the raw sample list; histogram mode updates
        the running sum/extrema and increments the sample's log bucket
        (``ceil(log(v) / log(gamma))``; zero latencies get a dedicated
        bucket and are reported exactly).
        """
        if latency < 0:
            raise SimulationError(f"negative latency: {latency}")
        self.count += 1
        if self.exact:
            self.samples.append(latency)
            return
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
        """Exact arithmetic mean (both modes); 0.0 with no samples."""
        if not self.count:
            return 0.0
        if self.exact:
            return sum(self.samples) / len(self.samples)
        return self._sum / self.count

    @property
    def minimum(self) -> float:
        """Exact smallest recorded latency (both modes); 0.0 when empty."""
        if not self.count:
            return 0.0
        return min(self.samples) if self.exact else self._min

    @property
    def maximum(self) -> float:
        """Exact largest recorded latency (both modes); 0.0 when empty."""
        if not self.count:
            return 0.0
        return max(self.samples) if self.exact else self._max

    # ---------------------------------------------------------------- #
    # quantiles
    # ---------------------------------------------------------------- #

    def p(self, fraction: float) -> float:
        """Latency at quantile ``fraction`` (linear interpolation).

        Bit-exact in exact mode; within
        :data:`HISTOGRAM_RELATIVE_ERROR` of the true order statistic in
        histogram mode.  Raises on an empty recorder.
        """
        if self.exact:
            return percentile(self.samples, fraction)
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

        Exact mode exports the raw sample list; histogram mode exports the
        running sum/extrema, the zero-bucket count, and the log buckets
        (keys stringified for JSON).  :meth:`from_payload` inverts either
        form losslessly, so payloads can travel through the result store
        and be merged across devices without losing the documented
        :data:`HISTOGRAM_RELATIVE_ERROR` quantile bound.
        """
        if self.exact:
            return {"mode": "exact", "samples": list(self.samples)}
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
        """Rebuild a recorder from :meth:`to_payload` output."""
        mode = payload.get("mode")
        if mode == "exact":
            recorder = cls(exact=True)
            for sample in payload["samples"]:
                recorder.record(float(sample))
            return recorder
        if mode != "histogram":
            raise SimulationError(f"unknown latency payload mode {mode!r}")
        recorder = cls(exact=False)
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
        """Fold another recorder's samples into this one (same mode only).

        Merging histograms is exact for count/mean/min/max and preserves
        the 1% relative quantile bound (bucket counts simply add); merging
        exact recorders concatenates the raw samples.  Mixing modes would
        silently change the error bound of the result, so it raises
        :class:`~repro.errors.SimulationError` instead.
        """
        if self.exact != other.exact:
            raise SimulationError(
                "cannot merge exact-mode and histogram-mode recorders"
            )
        if self.exact:
            self.samples.extend(other.samples)
            self.count += other.count
            return
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
        if self.exact:
            ordered = sorted(self.samples)
            return [
                (float(ordered[rank]), fraction)
                for rank, fraction in zip(ranks, fractions)
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
        if self.exact:
            return [(self.p(fraction), fraction) for fraction in fractions]
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
