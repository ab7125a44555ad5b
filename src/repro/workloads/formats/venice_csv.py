"""The simulator's own canonical CSV trace format.

``arrival_ns,kind,offset_bytes,size_bytes`` with a mandatory header row --
exactly what ``venice-sim trace convert`` writes.  Because every field is
already in canonical units, this format round-trips losslessly: converting
any supported trace to venice CSV preserves its content digest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import WorkloadError
from repro.hil.request import IoKind
from repro.workloads.formats.base import TraceFormat, TraceRecord

HEADER = "arrival_ns,kind,offset_bytes,size_bytes"


class VeniceCsvFormat(TraceFormat):
    """Canonical ``arrival_ns,kind,offset_bytes,size_bytes`` CSV."""

    name = "venice-csv"
    description = "canonical venice-sim CSV (nanoseconds, byte offsets)"

    def sniff(self, sample_lines: Sequence[str]) -> bool:
        """Match on the exact canonical header row."""
        return bool(sample_lines) and sample_lines[0].strip() == HEADER

    def parse_line(self, line: str, row: int) -> Optional[TraceRecord]:
        """One CSV row to a record; the header row is required and skipped."""
        stripped = line.strip()
        if row == 1:
            if stripped != HEADER:
                raise WorkloadError(
                    f"expected header {HEADER!r}, got {stripped!r}"
                )
            return None
        fields = stripped.split(",")
        if len(fields) != 4:
            raise WorkloadError(
                f"venice CSV row needs 4 fields, got {len(fields)}"
            )
        return TraceRecord(
            arrival_ns=int(fields[0]),
            kind=IoKind.from_str(fields[1]),
            offset_bytes=int(fields[2]),
            size_bytes=int(fields[3]),
        )
