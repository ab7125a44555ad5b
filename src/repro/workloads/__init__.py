"""Workload substrate: traces, synthetic generators, and the paper's catalog.

The paper evaluates nineteen real-world traces (MSR Cambridge, YCSB,
Slacker, SYSTOR '17, YCSB RocksDB) plus six mixes.  The traces themselves
are not redistributable; the generators here synthesise traces matching the
published Table 2 / Table 3 characteristics (read fraction, average request
size, average inter-arrival time) with realistic size and address
distributions -- see DESIGN.md for the substitution argument.

When the real archives *are* available, :mod:`repro.workloads.formats`
parses them (MSR CSV, fio logs, blkparse text) as streams and
:class:`~repro.workloads.replay.TraceWorkload` replays them through the
same interface as the synthetic generators; pointing ``VENICE_TRACE_DIR``
at a directory of trace files makes the catalog prefer real traces with
synthetic fallback (docs/trace-formats.md).
"""

from repro.workloads.trace import Trace, trace_from_rows
from repro.workloads.synthetic import WorkloadSpec, SyntheticGenerator, AddressPattern
from repro.workloads.catalog import (
    WORKLOAD_CATALOG,
    workload_names,
    spec_by_name,
    generate_workload,
)
from repro.workloads.mixes import MIX_CATALOG, mix_names, generate_mix
from repro.workloads.replay import TraceWorkload
from repro.workloads.formats import (
    TraceRecord,
    detect_format,
    format_names,
    iter_trace_records,
    resolve_trace_path,
    trace_digest,
)

__all__ = [
    "Trace",
    "trace_from_rows",
    "WorkloadSpec",
    "SyntheticGenerator",
    "AddressPattern",
    "WORKLOAD_CATALOG",
    "workload_names",
    "spec_by_name",
    "generate_workload",
    "MIX_CATALOG",
    "mix_names",
    "generate_mix",
    "TraceWorkload",
    "TraceRecord",
    "detect_format",
    "format_names",
    "iter_trace_records",
    "resolve_trace_path",
    "trace_digest",
]
