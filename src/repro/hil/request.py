"""Host I/O request representation."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadError

_request_ids = itertools.count()


class IoKind(enum.Enum):
    READ = "read"
    WRITE = "write"

    @classmethod
    def from_str(cls, text: str) -> "IoKind":
        normalized = text.strip().lower()
        if normalized in ("r", "read", "rd", "0"):
            return cls.READ
        if normalized in ("w", "write", "wr", "1"):
            return cls.WRITE
        raise WorkloadError(f"unknown I/O kind {text!r}")


@dataclass
class IoRequest:
    """One host I/O request as replayed from a trace."""

    kind: IoKind
    offset_bytes: int
    size_bytes: int
    arrival_ns: int
    queue_id: int = 0
    #: Fleet tenant that issued this request (None outside fleet fan-out).
    #: Identity, not service state: ``reset_service_state`` keeps it.
    tenant: Optional[int] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    # filled during service
    submitted_ns: Optional[int] = None
    completed_ns: Optional[int] = None
    path_conflict: bool = False

    def __post_init__(self) -> None:
        if self.offset_bytes < 0:
            raise WorkloadError(f"negative offset {self.offset_bytes}")
        if self.size_bytes <= 0:
            raise WorkloadError(f"non-positive size {self.size_bytes}")
        if self.arrival_ns < 0:
            raise WorkloadError(f"negative arrival time {self.arrival_ns}")

    def reset_service_state(self) -> None:
        """Clear per-run mutable state so one trace can replay on several
        devices (the figure harness runs every design over the same trace)."""
        self.submitted_ns = None
        self.completed_ns = None
        self.path_conflict = False

    @property
    def is_read(self) -> bool:
        return self.kind is IoKind.READ

    @property
    def latency_ns(self) -> Optional[int]:
        """End-to-end latency from arrival to completion."""
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.arrival_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IoRequest#{self.request_id}({self.kind.value}, off={self.offset_bytes}, "
            f"size={self.size_bytes}, t={self.arrival_ns})"
        )
