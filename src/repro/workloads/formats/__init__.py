"""Streaming readers for real block-trace file formats.

The paper evaluates nineteen *real* traces; this package lets the simulator
replay the actual archives instead of (or alongside) the synthetic Table 2
approximations.  Supported formats (see docs/trace-formats.md for the
grammars):

* ``msr`` -- MSR Cambridge CSV (SNIA archive; filetime ticks, byte offsets),
* ``fio-log`` -- fio per-I/O logs (``time, value, ddir, bs, offset``),
* ``blkparse`` -- blktrace/blkparse text output (queue events, sectors),
* ``venice-csv`` -- the simulator's own canonical CSV round-trip format.

All readers stream: files are parsed line by line (gzip transparently
decompressed), errors carry 1-based row numbers, and a canonical
format-independent SHA-256 digest (:func:`trace_digest`) identifies a
trace's *content* so run specs and the content-addressed result store stay
sound when traces enter the matrix.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.errors import WorkloadError
from repro.workloads.formats.base import (
    PathLike,
    TraceFormat,
    TraceRecord,
    open_trace_text,
    read_records,
    sample_lines,
)
from repro.workloads.formats.blkparse import BlkparseFormat
from repro.workloads.formats.fio import FioLogFormat
from repro.workloads.formats.msr import MsrFormat
from repro.workloads.formats.venice_csv import VeniceCsvFormat

#: Registered formats in sniffing order: the canonical CSV has an exact
#: header match, MSR and fio are field-count/type constrained, blkparse is
#: the loosest and sniffs last.
FORMATS: Dict[str, TraceFormat] = {
    fmt.name: fmt
    for fmt in (VeniceCsvFormat(), MsrFormat(), FioLogFormat(), BlkparseFormat())
}


def format_names() -> Tuple[str, ...]:
    """The registered trace format names, in sniffing order."""
    return tuple(FORMATS)


def format_by_name(name: str) -> TraceFormat:
    """Look up a registered format; raises :class:`WorkloadError` if unknown."""
    fmt = FORMATS.get(name)
    if fmt is None:
        raise WorkloadError(
            f"unknown trace format {name!r}; known: {', '.join(FORMATS)}"
        )
    return fmt


def detect_format(path: PathLike) -> TraceFormat:
    """Auto-detect the format of a trace file from its first lines.

    Raises :class:`WorkloadError` when the file is empty or no registered
    format recognises it.
    """
    lines = sample_lines(path)
    if not lines:
        raise WorkloadError(f"{Path(path)}: trace contains no records")
    for fmt in FORMATS.values():
        if fmt.sniff(lines):
            return fmt
    raise WorkloadError(
        f"{Path(path)}: unrecognised trace format (known formats: "
        f"{', '.join(FORMATS)})"
    )


def iter_trace_records(
    path: PathLike,
    fmt: Optional[Union[str, TraceFormat]] = None,
    *,
    limit: Optional[int] = None,
) -> Iterator[TraceRecord]:
    """Stream validated :class:`TraceRecord`\\ s from a trace file.

    ``fmt`` may be a format name, a :class:`TraceFormat`, or ``None`` to
    auto-detect.  At most ``limit`` records are yielded.
    """
    if fmt is None:
        fmt = detect_format(path)
    elif isinstance(fmt, str):
        fmt = format_by_name(fmt)
    return read_records(path, fmt, limit=limit)


# Digest results keyed by (resolved path, size, mtime_ns, format name):
# spec construction digests the same file once per matrix, not once per
# spec.  The format is part of the key because forcing a different parser
# over the same bytes is a different (possibly failing) record stream.
_DIGEST_CACHE: Dict[Tuple[str, int, int, str], str] = {}

#: Version tag mixed into every trace digest; bump when the canonical record
#: serialisation changes so stale spec digests cannot collide.
DIGEST_SCHEMA = "venice-trace-v1"


def trace_digest(
    path: PathLike, fmt: Optional[Union[str, TraceFormat]] = None
) -> str:
    """Canonical SHA-256 content digest of a trace file.

    The digest covers the *parsed records* (one ``arrival kind offset size``
    line per record), not the file bytes, so it is independent of the
    on-disk format: an MSR CSV, its gzipped copy, and its ``venice-sim
    trace convert`` output all share one digest.  Recording this digest in
    a :class:`~repro.experiments.spec.RunSpec` is what keeps the
    content-addressed result store sound when runs replay files from disk.

    Digesting requires one full streaming parse; results are memoized by
    (path, size, mtime) for the life of the process.
    """
    resolved = Path(path).resolve()
    try:
        stat = resolved.stat()
    except OSError as error:
        raise WorkloadError(f"cannot stat trace {resolved}: {error}")
    if fmt is None:
        fmt = detect_format(resolved)
    elif isinstance(fmt, str):
        fmt = format_by_name(fmt)
    key = (str(resolved), stat.st_size, stat.st_mtime_ns, fmt.name)
    cached = _DIGEST_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256(DIGEST_SCHEMA.encode("ascii"))
    for record in iter_trace_records(resolved, fmt):
        digest.update(
            b"%d %s %d %d\n"
            % (
                record.arrival_ns,
                record.kind.value.encode("ascii"),
                record.offset_bytes,
                record.size_bytes,
            )
        )
    value = digest.hexdigest()
    _DIGEST_CACHE[key] = value
    return value


#: Environment variable naming a directory of real trace files; the catalog
#: and spec layer prefer `$VENICE_TRACE_DIR/<workload><ext>` over synthetic
#: generation when such a file exists.
TRACE_DIR_ENV = "VENICE_TRACE_DIR"

#: Extensions probed (in order) when resolving a workload name to a file.
TRACE_EXTENSIONS = (
    ".csv",
    ".csv.gz",
    ".trace",
    ".trace.gz",
    ".txt",
    ".txt.gz",
    ".log",
    ".log.gz",
    ".blkparse",
    ".blkparse.gz",
)


def resolve_trace_path(workload: str) -> Optional[Path]:
    """Find a real trace file for a workload name, if one is available.

    Looks for ``<dir>/<workload><ext>`` for each registered extension, where
    ``<dir>`` is the :data:`TRACE_DIR_ENV` environment variable.  Returns
    ``None`` when no directory is configured or no file matches -- the
    caller falls back to synthetic generation.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    base = Path(directory)
    for extension in TRACE_EXTENSIONS:
        candidate = base / f"{workload}{extension}"
        if candidate.is_file():
            return candidate
    return None


def trace_stem(path: PathLike) -> str:
    """Workload name for a trace file: the stem with ``.gz`` stripped first."""
    path = Path(path)
    if path.suffix == ".gz":
        path = path.with_suffix("")
    return path.stem


__all__ = [
    "FORMATS",
    "DIGEST_SCHEMA",
    "TRACE_DIR_ENV",
    "TRACE_EXTENSIONS",
    "TraceFormat",
    "TraceRecord",
    "detect_format",
    "format_by_name",
    "format_names",
    "iter_trace_records",
    "open_trace_text",
    "read_records",
    "resolve_trace_path",
    "sample_lines",
    "trace_digest",
    "trace_stem",
]
