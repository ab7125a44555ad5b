"""Trace container with derived statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.config.ssd_config import NS_PER_US
from repro.errors import WorkloadError
from repro.hil.request import IoKind, IoRequest


@dataclass
class Trace:
    """An ordered list of I/O requests plus identification."""

    name: str
    requests: List[IoRequest]

    def __post_init__(self) -> None:
        if not self.requests:
            raise WorkloadError(f"trace {self.name!r} is empty")
        self.requests.sort(key=lambda request: request.arrival_ns)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    # ------------------------------------------------------------------ #
    # Table 2-style characteristics
    # ------------------------------------------------------------------ #

    @property
    def read_fraction(self) -> float:
        """Fraction of requests that are reads (Table 2 'read %')."""
        return sum(1 for request in self.requests if request.is_read) / len(self)

    @property
    def mean_size_bytes(self) -> float:
        """Average request size in bytes (Table 2 'avg size')."""
        return sum(request.size_bytes for request in self.requests) / len(self)

    @property
    def mean_interarrival_ns(self) -> float:
        """Average inter-request gap in nanoseconds (0.0 below 2 requests)."""
        if len(self.requests) < 2:
            return 0.0
        span = self.requests[-1].arrival_ns - self.requests[0].arrival_ns
        return span / (len(self.requests) - 1)

    @property
    def mean_interarrival_us(self) -> float:
        """Average inter-request gap in microseconds (Table 2 units)."""
        return self.mean_interarrival_ns / NS_PER_US

    @property
    def duration_ns(self) -> int:
        """Arrival time of the last request."""
        return self.requests[-1].arrival_ns

    def characteristics(self) -> dict:
        """Table 2-style summary row (name, count, read %, size, gap)."""
        return {
            "name": self.name,
            "requests": len(self),
            "read_pct": round(100.0 * self.read_fraction, 1),
            "avg_size_kb": round(self.mean_size_bytes / 1024.0, 1),
            "avg_interarrival_us": round(self.mean_interarrival_us, 1),
        }

    def scaled_arrivals(self, factor: float, name: str = "") -> "Trace":
        """New trace with inter-arrival gaps scaled by ``factor`` (<1 is
        more intense).  Used to hit the Table 3 mix intensities."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive: {factor}")
        scaled = [
            IoRequest(
                kind=request.kind,
                offset_bytes=request.offset_bytes,
                size_bytes=request.size_bytes,
                arrival_ns=int(round(request.arrival_ns * factor)),
                queue_id=request.queue_id,
            )
            for request in self.requests
        ]
        return Trace(name or f"{self.name}@x{factor:.3g}", scaled)


def trace_from_rows(name: str, rows: Iterable[Sequence]) -> Trace:
    """Build a trace from ``(arrival_ns, kind, offset, size)`` rows."""
    requests = []
    for row in rows:
        if len(row) != 4:
            raise WorkloadError(f"trace row needs 4 fields, got {row!r}")
        arrival, kind, offset, size = row
        requests.append(
            IoRequest(
                kind=kind if isinstance(kind, IoKind) else IoKind.from_str(str(kind)),
                offset_bytes=int(offset),
                size_bytes=int(size),
                arrival_ns=int(arrival),
            )
        )
    return Trace(name, requests)
