"""Command-line front end: ``python -m repro`` / ``venice-sim``.

Subcommands:

* ``run``     -- one workload on one design, print the run metrics,
* ``compare`` -- one workload across all designs, print the speedup table,
* ``figure``  -- regenerate a paper figure (fig4, fig9a, fig9b, fig10,
  fig11, fig12, fig13, fig14, fig15, table4),
* ``matrix``  -- regenerate every figure from one deduplicated spec pass,
* ``bench``   -- core perf micro-benchmarks, written to ``BENCH_core.json``
  (``--baseline`` compares against a stored payload and exits 3 on >20%
  throughput regression),
* ``trace``   -- work with real trace files: ``inspect`` (detect format,
  summarize, digest), ``replay`` (run a file on a design, cache-aware),
  ``convert`` (rewrite any supported format as canonical venice CSV),
* ``faults``  -- fault injection (docs/faults.md): ``sweep`` runs the
  throughput/p99-vs-failed-links degradation curve across the five real
  fabrics, ``check`` parses a schedule and echoes its canonical form,
* ``ftl``     -- sustained-write realism (docs/ftl.md): ``sweep`` charts
  the write cliff (throughput/p99/GC stall time vs preconditioned fill),
  write amplification vs over-provisioning, and the GC x faults
  composition cell across the five fabrics; warm-ups (``fill F; churn
  C``) are checkpointed and shared between cells,
* ``fleet``   -- multi-SSD arrays behind a host dispatcher (docs/fleet.md):
  ``run`` simulates one fleet (mixed designs allowed, tenant traffic
  fan-out, pluggable placement) and prints the roll-up, ``sweep`` charts
  throughput/p99 versus device count and placement policy; ``--sample K``
  simulates K stratified representatives and extrapolates with
  confidence intervals; ``--qos POLICY`` applies a dispatcher QoS policy
  and ``--burst TxF`` an adversarial burst clause,
* ``qos``     -- multi-tenant isolation (docs/qos.md): ``sweep`` charts
  the victim tenants' p99 versus an adversarial tenant's offered-load
  multiplier across the five fabrics, the placement policies, and the
  dispatcher QoS policies (none, fair-share token bucket, weighted fair
  queueing, SLO-aware admission control),
* ``store``   -- result-store maintenance: ``stats`` reports entry and
  checkpoint counts, byte totals, and session cache counters; ``verify``
  checks every result's content hash, and every warm-up checkpoint's
  digest, against its digest key (``--repair`` quarantines mismatches);
  ``gc`` drops quarantined entries and stale temp files; ``compact``
  minifies the JSON result entries,
* ``worker``  -- drain a crash-safe work queue (docs/distributed.md):
  lease tasks by spec digest, heartbeat while simulating, write results
  into the queue's bound store, retry with exponential backoff,
* ``queue``   -- work-queue observability: ``status`` (task-state
  counts), ``dead`` (dead-lettered tasks with captured tracebacks),
* ``list``    -- enumerate workloads, mixes, designs, presets, formats,
  placements, QoS policies.

``figure|matrix|faults sweep|fleet sweep --queue DIR`` run their spec
batch through the work queue instead of an in-process executor: the sweep
enqueues, participates, and waits, while any number of ``venice-sim
worker --queue DIR`` processes -- on this or other hosts sharing the
directory -- share the load.  A sweep whose workers are killed mid-run
completes on re-run with zero lost and zero duplicated simulations.
``--timeout SECONDS`` bounds each simulation's wall clock everywhere.

``figure --faults SCHEDULE`` regenerates any figure on a degraded fabric
(the same schedule applied to every run).  ``figure --warmup SPEC
--early-stop SPEC`` (also on ``matrix``) turn on the sweep-throughput
amortizations of docs/performance.md: checkpointed warm-up shared across
the figure's cells and steady-state early-stop of each measured phase.

``figure --trace FILE …`` replays real trace files in place of the
figure's workload set (fig11 tail latencies and fig12 multi-tenant runs
are the paper's trace-sensitive figures); catalog workload names resolve
to real traces automatically when ``VENICE_TRACE_DIR`` points at an
archive directory.

``--jobs N`` runs the simulations of a figure/matrix in parallel worker
processes; ``--cache DIR`` persists results content-addressed by run spec so
repeat invocations simulate nothing that is already on disk.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config.presets import PRESET_NAMES
from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError, ReproError
from repro.experiments import figures
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.reporting import format_table, speedup_table
from repro.experiments.runner import run_suite
from repro.experiments.spec import (
    TRACE_WORKLOAD_PREFIX,
    ExperimentScale,
    make_spec,
)
from repro.experiments.store import ResultStore
from repro.ssd.factory import design_names
from repro.workloads import formats as trace_formats
from repro.workloads.catalog import workload_names
from repro.workloads.mixes import mix_names


def _add_amortization_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--warmup",
        default=None,
        metavar="SPEC",
        help="checkpointed warm-up shared by every cell, e.g. "
        "'fill 0.8; steps 2000' (docs/performance.md)",
    )
    parser.add_argument(
        "--early-stop",
        default=None,
        metavar="SPEC",
        help="steady-state early-stop of the measured phase, e.g. "
        "'window 60; tolerance 0.03; patience 2; min 240'",
    )


def _add_orchestration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate up to N runs in parallel worker processes",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result store; repeat runs are read from it",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock limit; a hung simulation is killed and "
        "reported without stalling the rest of the batch",
    )
    parser.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="run through a crash-safe work queue in DIR: enqueue, "
        "participate, and wait; external `venice-sim worker --queue DIR` "
        "processes share the load (docs/distributed.md)",
    )
    parser.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="worker lease length when creating a new queue (default 30)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts before a queued task dead-letters (new queues only, "
        "default 3)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venice-sim",
        description="Venice (ISCA 2023) SSD simulator reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload on one design")
    run.add_argument("--design", default="venice", choices=design_names())
    run.add_argument("--workload", default="hm_0")
    run.add_argument("--preset", default="performance-optimized")
    run.add_argument("--requests", type=int, default=1200)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--json", action="store_true", help="emit JSON")
    run.add_argument(
        "--cache", default=None, metavar="DIR", help="result store directory"
    )
    run.add_argument(
        "--wear-leveling",
        action="store_true",
        help="enable erase-count wear leveling (digest-joining knob; "
        "absent leaves the spec byte-identical)",
    )
    run.add_argument(
        "--over-provisioning",
        type=float,
        default=None,
        metavar="FRACTION",
        help="spare-area fraction override, e.g. 0.2 (digest-joining knob)",
    )
    run.add_argument(
        "--gc-threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="free-page fraction that starts GC (digest-joining knob)",
    )
    run.add_argument(
        "--gc-stop",
        type=float,
        default=None,
        metavar="FRACTION",
        help="free-page fraction at which GC stops (digest-joining knob)",
    )
    run.set_defaults(handler=_cmd_run)

    compare = sub.add_parser("compare", help="one workload across all designs")
    compare.add_argument("--workload", default="hm_0")
    compare.add_argument("--preset", default="performance-optimized")
    compare.add_argument("--requests", type=int, default=1200)
    compare.add_argument("--seed", type=int, default=42)
    _add_orchestration_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=sorted(figures.FIGURES))
    figure.add_argument("--requests", type=int, default=600)
    figure.add_argument("--seed", type=int, default=42)
    figure.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="subset of Table 2 traces (fig12: Table 3 mix names)",
    )
    figure.add_argument(
        "--trace",
        nargs="*",
        default=None,
        metavar="FILE",
        help="replay real trace files as the figure's workload set "
        "(MSR CSV, fio log, blkparse, venice CSV; .gz accepted)",
    )
    figure.add_argument(
        "--faults",
        default=None,
        metavar="SCHEDULE",
        help="fault schedule applied to every run of the figure "
        "(grammar: docs/faults.md, e.g. '0 link (0,3)-(0,4) down')",
    )
    _add_amortization_flags(figure)
    figure.add_argument("--json", action="store_true")
    _add_orchestration_flags(figure)
    figure.set_defaults(handler=_cmd_figure)

    matrix = sub.add_parser(
        "matrix", help="regenerate every figure in one shared pass"
    )
    matrix.add_argument("--requests", type=int, default=600)
    matrix.add_argument("--seed", type=int, default=42)
    matrix.add_argument(
        "--figures",
        nargs="*",
        default=None,
        metavar="NAME",
        choices=sorted(figures.FIGURES),
        help="subset of figures to regenerate (default: all)",
    )
    matrix.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="override the Table 2 trace set of the trace figures",
    )
    matrix.add_argument(
        "--mixes", nargs="*", default=None, help="override fig12's mix list"
    )
    _add_amortization_flags(matrix)
    matrix.add_argument("--json", action="store_true")
    _add_orchestration_flags(matrix)
    matrix.set_defaults(handler=_cmd_matrix)

    bench = sub.add_parser(
        "bench", help="run the core perf micro-benchmarks (BENCH_core.json)"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    bench.add_argument(
        "--speedup",
        action="store_true",
        help="also measure the fig9a/10/13/14 sweep cost, exact vs "
        "checkpointed+early-stopped (docs/performance.md)",
    )
    bench.add_argument(
        "--out",
        default="BENCH_core.json",
        metavar="PATH",
        help="where to write the benchmark payload (default: BENCH_core.json)",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline payload to compare against; exit 3 on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        metavar="FRACTION",
        help="allowed fractional regression vs the baseline (default 0.20)",
    )
    bench.add_argument("--json", action="store_true", help="print the payload")
    bench.set_defaults(handler=_cmd_bench)

    trace = sub.add_parser(
        "trace", help="inspect, replay, or convert real trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    inspect = trace_sub.add_parser(
        "inspect", help="detect format, summarize, and digest a trace file"
    )
    inspect.add_argument("path")
    inspect.add_argument(
        "--format",
        dest="trace_format",
        choices=trace_formats.format_names(),
        default=None,
        help="parse as this format instead of auto-detecting",
    )
    inspect.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="summarize only the first N records",
    )
    inspect.add_argument("--json", action="store_true")
    inspect.set_defaults(handler=_cmd_trace_inspect)

    replay = trace_sub.add_parser(
        "replay", help="replay a trace file on one design (cache-aware)"
    )
    replay.add_argument("path")
    replay.add_argument("--design", default="venice", choices=design_names())
    replay.add_argument("--preset", default="performance-optimized")
    replay.add_argument("--requests", type=int, default=1200)
    replay.add_argument("--seed", type=int, default=42)
    replay.add_argument(
        "--time-scale", type=float, default=None, metavar="FACTOR",
        help="multiply inter-arrival gaps (<1 compresses the trace)",
    )
    replay.add_argument(
        "--lba-policy", choices=("wrap", "scale"), default=None,
        help="how recorded offsets are fitted into the device footprint",
    )
    replay.add_argument("--json", action="store_true")
    replay.add_argument(
        "--cache", default=None, metavar="DIR", help="result store directory"
    )
    replay.set_defaults(handler=_cmd_trace_replay)

    convert = trace_sub.add_parser(
        "convert", help="rewrite a trace as canonical venice CSV"
    )
    convert.add_argument("path")
    convert.add_argument("out")
    convert.add_argument(
        "--format",
        dest="trace_format",
        choices=trace_formats.format_names(),
        default=None,
        help="parse the input as this format instead of auto-detecting",
    )
    convert.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="convert only the first N records",
    )
    convert.set_defaults(handler=_cmd_trace_convert)

    faults = sub.add_parser(
        "faults", help="fault injection: degradation sweeps, schedule checking"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    sweep = faults_sub.add_parser(
        "sweep",
        help="throughput/p99 vs failed links across the five real fabrics",
    )
    sweep.add_argument("--preset", default="performance-optimized")
    sweep.add_argument("--workload", default="hm_0")
    sweep.add_argument("--requests", type=int, default=600)
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument(
        "--link-counts",
        nargs="*",
        type=int,
        default=None,
        metavar="N",
        help="failed-link counts of the curve (default: 0 1 2 4 8)",
    )
    sweep.add_argument("--json", action="store_true")
    _add_orchestration_flags(sweep)
    sweep.set_defaults(handler=_cmd_faults_sweep)

    check = faults_sub.add_parser(
        "check", help="parse a fault schedule and echo its canonical form"
    )
    check.add_argument("schedule")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_faults_check)

    ftl = sub.add_parser(
        "ftl",
        help="sustained-write realism: write cliffs, WA vs OP, GC x faults",
    )
    ftl_sub = ftl.add_subparsers(dest="ftl_command", required=True)

    ftl_sweep = ftl_sub.add_parser(
        "sweep",
        help="write cliff, WA-vs-over-provisioning, and GC x faults "
        "curves across the five real fabrics (docs/ftl.md)",
    )
    ftl_sweep.add_argument("--preset", default="performance-optimized")
    ftl_sweep.add_argument(
        "--workload",
        default=None,
        help="trace or Table 3 mix to sustain (default prxy_0, the "
        "write-heaviest trace)",
    )
    ftl_sweep.add_argument("--requests", type=int, default=600)
    ftl_sweep.add_argument("--seed", type=int, default=42)
    ftl_sweep.add_argument(
        "--fills",
        nargs="*",
        type=float,
        default=None,
        metavar="F",
        help="preconditioned fill levels of the write-cliff curve "
        "(default: 0.5 0.7 0.85 0.9)",
    )
    ftl_sweep.add_argument(
        "--op",
        nargs="*",
        type=float,
        default=None,
        metavar="FRACTION",
        help="over-provisioning levels of the WA curve "
        "(default: 0.07 0.2 0.35)",
    )
    ftl_sweep.add_argument(
        "--fill",
        type=float,
        default=None,
        metavar="F",
        help="fill level of the WA-vs-OP curve (default 0.85)",
    )
    ftl_sweep.add_argument(
        "--churn",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of the fill overwritten before measuring, putting "
        "the device in GC steady state (default 0.35)",
    )
    ftl_sweep.add_argument(
        "--link-faults",
        type=int,
        default=1,
        metavar="N",
        help="dead links of the GC x faults composition cell (default 1)",
    )
    ftl_sweep.add_argument(
        "--blocks-per-plane",
        type=int,
        default=16,
        help="plane capacity in blocks (default 16; small planes make a "
        "few hundred requests a meaningful fraction of the array)",
    )
    ftl_sweep.add_argument(
        "--pages-per-block",
        type=int,
        default=8,
        help="block capacity in pages (default 8)",
    )
    ftl_sweep.add_argument("--json", action="store_true")
    _add_orchestration_flags(ftl_sweep)
    ftl_sweep.set_defaults(handler=_cmd_ftl_sweep)

    fleet = sub.add_parser(
        "fleet", help="multi-SSD fleets: tenant fan-out, placement, roll-ups"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="simulate one fleet and print the rolled-up metrics"
    )
    fleet_run.add_argument(
        "--devices", type=int, default=2, metavar="N",
        help="fleet size when --designs is not given (default 2)",
    )
    fleet_run.add_argument(
        "--design", default="venice", choices=design_names(),
        help="fabric replicated across all members (default venice)",
    )
    fleet_run.add_argument(
        "--designs", nargs="*", default=None, metavar="DESIGN",
        help="explicit per-member fabrics (mixed fleets; overrides "
        "--design/--devices)",
    )
    fleet_run.add_argument("--preset", default="performance-optimized")
    fleet_run.add_argument("--workload", default="hm_0")
    fleet_run.add_argument(
        "--tenants", type=int, default=8, metavar="T",
        help="simulated tenant streams fanned out over the fleet (default 8)",
    )
    fleet_run.add_argument(
        "--placement", default="round-robin", metavar="POLICY",
        help="round-robin | stripe[:BYTES] | hash-tenant (default round-robin)",
    )
    fleet_run.add_argument("--requests", type=int, default=600)
    fleet_run.add_argument("--seed", type=int, default=42)
    fleet_run.add_argument(
        "--faults", nargs="*", default=None, metavar="[IDX:]SCHEDULE",
        dest="member_faults",
        help="fault schedules; 'IDX:SCHEDULE' degrades member IDX only, a "
        "bare SCHEDULE degrades every member",
    )
    fleet_run.add_argument(
        "--sample", type=int, default=0, metavar="K",
        help="simulate only K stratified representative members and "
        "extrapolate fleet totals with 95%% confidence intervals "
        "(0 = exact)",
    )
    fleet_run.add_argument(
        "--qos", default="", metavar="POLICY",
        help="dispatcher QoS policy: none | token-bucket:RATE[,BURST] | "
        "wfq:W0,W1,... | slo:P99_US[,ADMIT] (default: arrival order)",
    )
    fleet_run.add_argument(
        "--burst", default="", metavar="TxF",
        help="adversarial burst clause: tenant T offers F times its fair "
        "share, e.g. 0x8 (default: all tenants fair)",
    )
    fleet_run.add_argument("--json", action="store_true")
    _add_orchestration_flags(fleet_run)
    fleet_run.set_defaults(handler=_cmd_fleet_run)

    fleet_sweep = fleet_sub.add_parser(
        "sweep", help="throughput/p99 vs device count and placement policy"
    )
    fleet_sweep.add_argument(
        "--devices", nargs="*", type=int, default=None, metavar="N",
        help="device counts of the curve (default: 1 2 4)",
    )
    fleet_sweep.add_argument(
        "--placements", nargs="*", default=None, metavar="POLICY",
        help="placement policies to compare (default: round-robin)",
    )
    fleet_sweep.add_argument("--design", default="venice", choices=design_names())
    fleet_sweep.add_argument("--preset", default="performance-optimized")
    fleet_sweep.add_argument("--workload", default="hm_0")
    fleet_sweep.add_argument("--tenants", type=int, default=8, metavar="T")
    fleet_sweep.add_argument("--requests", type=int, default=600)
    fleet_sweep.add_argument("--seed", type=int, default=42)
    fleet_sweep.add_argument(
        "--sample", type=int, default=0, metavar="K",
        help="simulate K stratified representatives per cell and "
        "extrapolate (cells with <= K devices run exact; 0 = exact)",
    )
    fleet_sweep.add_argument(
        "--qos", default="", metavar="POLICY",
        help="dispatcher QoS policy applied to every cell "
        "(grammar as for fleet run --qos)",
    )
    fleet_sweep.add_argument(
        "--burst", default="", metavar="TxF",
        help="adversarial burst clause applied to every cell, e.g. 0x8",
    )
    fleet_sweep.add_argument("--json", action="store_true")
    _add_orchestration_flags(fleet_sweep)
    fleet_sweep.set_defaults(handler=_cmd_fleet_sweep)

    qos = sub.add_parser(
        "qos",
        help="multi-tenant QoS isolation: victim p99 vs noisy neighbour",
    )
    qos_sub = qos.add_subparsers(dest="qos_command", required=True)

    qos_sweep = qos_sub.add_parser(
        "sweep",
        help="victim-tenant p99 vs adversarial offered load, per fabric x "
        "placement x dispatcher policy (docs/qos.md)",
    )
    qos_sweep.add_argument("--preset", default="performance-optimized")
    qos_sweep.add_argument(
        "--workload",
        default=None,
        help="trace or Table 3 mix each tenant replays (default hm_0)",
    )
    qos_sweep.add_argument("--requests", type=int, default=300)
    qos_sweep.add_argument("--seed", type=int, default=42)
    qos_sweep.add_argument(
        "--levels",
        nargs="*",
        type=float,
        default=None,
        metavar="F",
        help="offered-load multipliers of the burst tenant "
        "(default: 1 2 4 8; 1 = fair share)",
    )
    qos_sweep.add_argument(
        "--policies",
        nargs="*",
        default=None,
        metavar="POLICY",
        help="QoS policies to compare (grammar as for fleet run --qos; "
        "default: none, the calibrated fair-share token bucket, "
        "victim-weighted wfq, and slo admission)",
    )
    qos_sweep.add_argument(
        "--designs",
        nargs="*",
        default=None,
        metavar="DESIGN",
        choices=design_names(),
        help="fabrics to sweep (default: all five)",
    )
    qos_sweep.add_argument(
        "--placements",
        nargs="*",
        default=None,
        metavar="POLICY",
        help="placement policies to sweep (default: all)",
    )
    qos_sweep.add_argument(
        "--devices", type=int, default=2, metavar="N",
        help="devices per fleet cell (default 2)",
    )
    qos_sweep.add_argument(
        "--tenants", type=int, default=4, metavar="T",
        help="tenant streams per cell (default 4)",
    )
    qos_sweep.add_argument(
        "--burst-tenant", type=int, default=0, metavar="T",
        help="the tenant that misbehaves (default 0)",
    )
    qos_sweep.add_argument("--json", action="store_true")
    _add_orchestration_flags(qos_sweep)
    qos_sweep.set_defaults(handler=_cmd_qos_sweep)

    store = sub.add_parser(
        "store", help="result-store maintenance and observability"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats",
        help="entry/checkpoint counts, byte totals, session cache counters",
    )
    store_stats.add_argument(
        "--cache", required=True, metavar="DIR",
        help="result store directory to inspect",
    )
    store_stats.add_argument("--json", action="store_true")
    store_stats.set_defaults(handler=_cmd_store_stats)

    store_verify = store_sub.add_parser(
        "verify",
        help="check every entry's content hash against its digest key",
    )
    store_verify.add_argument(
        "--cache", required=True, metavar="DIR",
        help="result store directory to verify",
    )
    store_verify.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt entries (they re-simulate as cache misses)",
    )
    store_verify.add_argument("--json", action="store_true")
    store_verify.set_defaults(handler=_cmd_store_verify)

    store_gc = store_sub.add_parser(
        "gc", help="drop quarantined entries and stale temp files"
    )
    store_gc.add_argument(
        "--cache", required=True, metavar="DIR",
        help="result store directory to collect",
    )
    store_gc.add_argument("--json", action="store_true")
    store_gc.set_defaults(handler=_cmd_store_gc)

    store_compact = store_sub.add_parser(
        "compact",
        help="rewrite every entry as minified JSON",
    )
    store_compact.add_argument(
        "--cache", required=True, metavar="DIR",
        help="result store directory to compact",
    )
    store_compact.add_argument("--json", action="store_true")
    store_compact.set_defaults(handler=_cmd_store_compact)

    worker = sub.add_parser(
        "worker",
        help="drain a work queue: lease tasks, heartbeat, execute, retry "
        "(docs/distributed.md)",
    )
    worker.add_argument(
        "--queue", required=True, metavar="DIR",
        help="queue directory shared with the enqueuing sweep",
    )
    worker.add_argument(
        "--owner", default=None, metavar="ID",
        help="worker identity recorded in claims (default host-pid-nonce)",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after N tasks (default: unbounded)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit once the queue stays empty this long (default: poll "
        "forever)",
    )
    worker.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock limit; a hung simulation is killed and "
        "counted as a failed attempt",
    )
    worker.add_argument("--json", action="store_true")
    worker.set_defaults(handler=_cmd_worker)

    queue = sub.add_parser(
        "queue", help="work-queue observability: task states, dead letters"
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    queue_status = queue_sub.add_parser(
        "status", help="task-state counts and the queue's frozen policy"
    )
    queue_status.add_argument("--queue", required=True, metavar="DIR")
    queue_status.add_argument("--json", action="store_true")
    queue_status.set_defaults(handler=_cmd_queue_status)
    queue_dead = queue_sub.add_parser(
        "dead", help="dead-lettered tasks with their captured errors"
    )
    queue_dead.add_argument("--queue", required=True, metavar="DIR")
    queue_dead.add_argument("--json", action="store_true")
    queue_dead.set_defaults(handler=_cmd_queue_dead)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP control plane: accept run/fleet/sweep specs "
        "over JSON, execute them on a worker pool, survive restarts "
        "(docs/service.md)",
    )
    serve.add_argument(
        "--state", required=True, metavar="DIR",
        help="service state directory (job table + result store); any "
        "daemon pointed at the same DIR serves the same jobs and cache",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8423, metavar="P",
        help="bind port; 0 picks an ephemeral port, written to "
        "service.json in the state directory (default 8423)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="background worker threads executing accepted jobs "
        "(default 2)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-spec wall-clock limit inside job execution",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log requests and job transitions to stderr",
    )
    serve.set_defaults(handler=_cmd_serve)

    list_parser = sub.add_parser(
        "list",
        help="list workloads, mixes, designs, presets, trace formats, "
        "placements",
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable name catalog (what the service dashboard "
        "and scripts consume)",
    )
    list_parser.set_defaults(handler=_cmd_list)
    return parser


def _orchestration(args: argparse.Namespace):
    """Resolve the (executor, store) pair the commands share.

    Opening a store or queue writes nothing -- each appears with its first
    entry or task -- so a request the library rejects leaves no directory.
    ``--queue DIR`` routes the batch through a crash-safe work queue
    (enqueue-and-wait, participating as a worker); the queue binds the
    result store, so ``--cache`` names the same store every external
    worker writes into.  Without it, ``--jobs``/``--timeout`` configure
    the in-process :class:`~repro.experiments.executor.Executor`.
    """
    executor = Executor(
        getattr(args, "jobs", 1), getattr(args, "timeout", None)
    )
    cache = getattr(args, "cache", None)
    queue_dir = getattr(args, "queue", None)
    if not queue_dir:
        return executor, ResultStore(cache) if cache else None
    from repro.experiments.queue import WorkQueue
    from repro.experiments.worker import QueueExecutor

    queue = WorkQueue(
        queue_dir,
        store_dir=cache,
        lease_seconds=getattr(args, "lease", 30.0),
        max_attempts=getattr(args, "max_attempts", 3),
    )
    queued = QueueExecutor(queue, timeout=executor.timeout)
    # Serve figure-level cache hits from the queue's bound store, so a
    # warm re-run enqueues nothing that is already computed.
    return queued, queued.worker.store


def _emit_run_result(result, as_json: bool) -> int:
    """Print one RunResult as a metrics table or JSON payload."""
    if as_json:
        payload = {
            "design": result.design,
            "workload": result.workload,
            "config": result.config_name,
            "requests": result.requests_completed,
            "execution_time_ns": result.execution_time_ns,
            "iops": result.iops,
            "mean_latency_ns": result.mean_latency_ns,
            "p99_latency_ns": result.p99_latency_ns,
            "conflict_fraction": result.conflict_fraction,
            "energy_mj": result.energy_mj,
            "average_power_mw": result.average_power_mw,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        format_table(
            ["metric", "value"],
            [
                ["design", result.design],
                ["workload", result.workload],
                ["requests", result.requests_completed],
                ["execution time (ms)", result.execution_time_ns / 1e6],
                ["IOPS", result.iops],
                ["mean latency (us)", result.mean_latency_ns / 1e3],
                ["p99 latency (us)", result.p99_latency_ns / 1e3],
                ["conflict fraction", result.conflict_fraction],
                ["energy (mJ)", result.energy_mj],
                ["avg power (mW)", result.average_power_mw],
            ],
            title=f"{result.design} on {result.workload} ({result.config_name})",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scale = ExperimentScale.for_requests(args.requests, args.seed)
    # FTL knobs join the spec digest only when given on the command line;
    # a knob-free invocation produces byte-identical specs and results.
    device_kwargs = {}
    if args.wear_leveling:
        device_kwargs["enable_wear_leveling"] = True
    for name, value in (
        ("over_provisioning", args.over_provisioning),
        ("gc_threshold_free_fraction", args.gc_threshold),
        ("gc_stop_free_fraction", args.gc_stop),
    ):
        if value is not None:
            device_kwargs[name] = value
    spec = make_spec(
        DesignKind.from_name(args.design),
        args.preset,
        args.workload,
        scale,
        **device_kwargs,
    )
    executor, store = _orchestration(args)
    result = execute_specs([spec], executor=executor, store=store)[spec]
    return _emit_run_result(result, args.json)


def _cmd_compare(args: argparse.Namespace) -> int:
    scale = ExperimentScale.for_requests(args.requests, args.seed)
    executor, store = _orchestration(args)
    results = run_suite(
        args.preset,
        args.workload,
        scale,
        executor=executor,
        store=store,
    )
    baseline = results["baseline"]
    rows = [
        [
            name,
            result.speedup_over(baseline),
            result.iops,
            result.p99_latency_ns / 1e3,
            result.conflict_fraction,
        ]
        for name, result in results.items()
    ]
    print(
        format_table(
            ["design", "speedup", "IOPS", "p99 (us)", "conflicts"],
            rows,
            title=f"{args.workload} on {args.preset}",
        )
    )
    return 0


def _print_figure(name: str, result: dict) -> None:
    if "speedups" in result:
        designs = sorted({d for v in result["speedups"].values() for d in v})
        print(speedup_table(result["speedups"], designs, title=name))
    elif "normalized_throughput" in result:
        designs = sorted(
            {d for v in result["normalized_throughput"].values() for d in v}
        )
        print(
            speedup_table(
                result["normalized_throughput"],
                designs,
                title=name,
                mean_label="AVG",
            )
        )
    else:
        print(json.dumps(result, indent=2, default=str))


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = ExperimentScale.for_requests(args.requests, args.seed)
    requested = args.workloads
    if args.trace is not None:
        if not args.trace:
            raise ConfigurationError(
                "--trace needs at least one file (omit the flag to use the "
                "default workload set)"
            )
        if requested is not None:
            raise ConfigurationError(
                "--trace and --workloads are mutually exclusive"
            )
        requested = [TRACE_WORKLOAD_PREFIX + path for path in args.trace]
    executor, store = _orchestration(args)
    result = figures.run_figure(
        args.name,
        scale,
        requested,
        executor=executor,
        store=store,
        faults=args.faults,
        warmup=args.warmup,
        early_stop=args.early_stop,
    )
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0
    _print_figure(args.name, result)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    scale = ExperimentScale.for_requests(args.requests, args.seed)
    executor, store = _orchestration(args)
    results = figures.run_all_figures(
        scale,
        workloads=args.workloads,
        mixes=args.mixes,
        figures=args.figures,
        executor=executor,
        store=store,
        warmup=args.warmup,
        early_stop=args.early_stop,
    )
    if args.json:
        print(json.dumps(results, indent=2, default=str))
        return 0
    for name, result in results.items():
        _print_figure(name, result)
        print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import check_regression, run_bench

    payload = run_bench(quick=args.quick, speedup=args.speedup)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        engine = payload["engine"]
        print(f"engine events/sec:    {engine['events_per_sec']:,.0f}")
        print(f"resource cycles/sec:  {payload['resources']['cycles_per_sec']:,.0f}")
        print(f"fan-out procs/sec:    {payload['fanout']['processes_per_sec']:,.0f}")
        for design, stats in payload["end_to_end"].items():
            print(f"e2e {design:9s} req/sec: {stats['requests_per_sec']:,.1f}")
        print(f"aggregate req/sec:    {payload['requests_per_sec']:,.1f}")
        if payload["peak_rss_kb"] is not None:
            print(f"peak RSS:             {payload['peak_rss_kb']:,} KiB")
        sweep = payload.get("sweep_speedup")
        if sweep:
            print(
                f"sweep events exact:   {sweep['exact_events']:,} "
                f"({sweep['exact_cells']} cells)"
            )
            print(
                f"sweep events opt:     {sweep['optimized_events']:,} "
                f"({sweep['optimized_cells']} cells, "
                f"{sweep['early_stopped_cells']} early-stopped, "
                f"{sweep['warmups_computed']} warm-ups)"
            )
            print(f"sweep event speedup:  {sweep['event_speedup']:.2f}x")
        print(f"wrote {args.out}")
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read bench baseline {args.baseline!r}: {error}"
            )
        failures = check_regression(payload, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 3
        print(f"no regression vs {args.baseline} (tolerance {args.tolerance:.0%})")
    return 0


def _trace_summary(args: argparse.Namespace) -> dict:
    """Stream a trace file once and summarize it (inspect payload)."""
    fmt = (
        trace_formats.format_by_name(args.trace_format)
        if args.trace_format
        else trace_formats.detect_format(args.path)
    )
    count = reads = size_total = 0
    first_arrival = last_arrival = 0
    for record in trace_formats.iter_trace_records(
        args.path, fmt, limit=args.limit
    ):
        if count == 0:
            first_arrival = record.arrival_ns
        last_arrival = record.arrival_ns
        count += 1
        reads += record.kind.value == "read"
        size_total += record.size_bytes
    span_ns = last_arrival - first_arrival
    return {
        "path": args.path,
        "format": fmt.name,
        "format_description": fmt.description,
        "records": count,
        "read_pct": round(100.0 * reads / count, 1),
        "avg_size_kb": round(size_total / count / 1024.0, 1),
        "avg_interarrival_us": round(
            span_ns / max(1, count - 1) / 1e3, 1
        ),
        "duration_ms": round(span_ns / 1e6, 3),
        "digest": trace_formats.trace_digest(args.path, fmt),
    }


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    summary = _trace_summary(args)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(
        format_table(
            ["field", "value"],
            [[key, value] for key, value in summary.items()],
            title=f"trace {args.path}",
        )
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    scale = ExperimentScale.for_requests(args.requests, args.seed)
    options = {}
    if args.time_scale is not None:
        options["time_scale"] = args.time_scale
    if args.lba_policy is not None:
        options["lba_policy"] = args.lba_policy
    spec = make_spec(
        DesignKind.from_name(args.design),
        args.preset,
        TRACE_WORKLOAD_PREFIX + args.path,
        scale,
        trace_options=options or None,
    )
    executor, store = _orchestration(args)
    result = execute_specs([spec], executor=executor, store=store)[spec]
    return _emit_run_result(result, args.json)


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    import csv
    import os

    fmt = args.trace_format or trace_formats.detect_format(args.path)
    written = 0
    # Write-then-rename: a parse error mid-file must not leave a truncated
    # (but well-formed-looking) canonical CSV at the target path.
    tmp = f"{args.out}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["arrival_ns", "kind", "offset_bytes", "size_bytes"])
            for record in trace_formats.iter_trace_records(
                args.path, fmt, limit=args.limit
            ):
                writer.writerow(
                    [
                        record.arrival_ns,
                        record.kind.value,
                        record.offset_bytes,
                        record.size_bytes,
                    ]
                )
                written += 1
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    print(f"wrote {written} records to {args.out}")
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.faults import DEFAULT_LINK_COUNTS, run_faults_sweep

    scale = ExperimentScale.for_requests(args.requests, args.seed)
    link_counts = (
        args.link_counts if args.link_counts else list(DEFAULT_LINK_COUNTS)
    )
    executor, store = _orchestration(args)
    result = run_faults_sweep(
        preset=args.preset,
        workload=args.workload,
        scale=scale,
        link_counts=link_counts,
        seed=args.seed,
        executor=executor,
        store=store,
    )
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0
    designs = result["designs"]
    curve = result["curve"]
    counts = result["link_counts"]
    for metric, label, scale_by in (
        ("iops", "throughput (IOPS)", 1.0),
        ("p99_latency_ns", "p99 latency (us)", 1e-3),
        ("completed_fraction", "completed fraction", 1.0),
    ):
        rows = [
            [count]
            + [curve[count][design][metric] * scale_by for design in designs]
            for count in counts
        ]
        print(
            format_table(
                ["failed links"] + list(designs),
                rows,
                title=f"{label} -- {args.workload} on {args.preset} "
                f"({result['mesh']} mesh)",
            )
        )
        print()
    return 0


def _cmd_faults_check(args: argparse.Namespace) -> int:
    from repro.sim.faults import FaultSchedule

    schedule = FaultSchedule.parse(args.schedule)
    if args.json:
        print(
            json.dumps(
                {
                    "canonical": schedule.to_spec(),
                    "events": [event.to_clause() for event in schedule],
                },
                indent=2,
            )
        )
        return 0
    print(f"events: {len(schedule)}")
    print(f"canonical: {schedule.to_spec()}")
    return 0


def _cmd_ftl_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.ftl import (
        DEFAULT_CHURN,
        DEFAULT_FILL_LEVELS,
        DEFAULT_OP_LEVELS,
        DEFAULT_WA_FILL,
        DEFAULT_WORKLOAD,
        run_ftl_sweep,
        sustained_scale,
    )

    scale = sustained_scale(
        requests=args.requests,
        seed=args.seed,
        blocks_per_plane=args.blocks_per_plane,
        pages_per_block=args.pages_per_block,
    )
    executor, store = _orchestration(args)
    result = run_ftl_sweep(
        preset=args.preset,
        workload=args.workload or DEFAULT_WORKLOAD,
        scale=scale,
        fill_levels=args.fills or DEFAULT_FILL_LEVELS,
        op_levels=args.op or DEFAULT_OP_LEVELS,
        wa_fill=args.fill if args.fill is not None else DEFAULT_WA_FILL,
        churn=args.churn if args.churn is not None else DEFAULT_CHURN,
        seed=args.seed,
        faulted_links=args.link_faults,
        executor=executor,
        store=store,
    )
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0
    designs = result["designs"]
    title_suffix = f"{result['workload']} on {args.preset}"

    cliff = result["write_cliff"]
    for metric, label, scale_by in (
        ("iops", "throughput (IOPS)", 1.0),
        ("p99_latency_ns", "p99 latency (us)", 1e-3),
        ("gc_stall_ns", "GC stall time (us)", 1e-3),
        ("write_amplification", "write amplification", 1.0),
    ):
        rows = [
            [cell["fill"]]
            + [cliff[design][index][metric] * scale_by for design in designs]
            for index, cell in enumerate(cliff[designs[0]])
        ]
        print(
            format_table(
                ["fill"] + list(designs),
                rows,
                title=f"write cliff: {label} -- {title_suffix}",
            )
        )
        print()

    wa = result["wa_op"]
    rows = [
        [cell["over_provisioning"]]
        + [wa[design][index]["write_amplification"] for design in designs]
        for index, cell in enumerate(wa[designs[0]])
    ]
    print(
        format_table(
            ["over-provisioning"] + list(designs),
            rows,
            title=f"write amplification vs OP at fill {result['wa_fill']:g} "
            f"-- {title_suffix}",
        )
    )
    print()

    gc_faults = result["gc_faults"]
    rows = [
        [
            design,
            gc_faults[design]["clean"]["p999_latency_ns"] * 1e-3,
            gc_faults[design]["faulted"]["p999_latency_ns"] * 1e-3,
            gc_faults[design]["p999_ratio"],
        ]
        for design in designs
    ]
    print(
        format_table(
            ["design", "clean p999 (us)", "faulted p999 (us)", "ratio"],
            rows,
            title=f"GC x faults at fill {result['gc_fill']:g} "
            f"({result['faulted_links']} dead link(s)) -- {title_suffix}",
        )
    )
    return 0


def _parse_member_faults(entries, count: int):
    """``--faults`` grammar: ``IDX:SCHEDULE`` targets one member, a bare
    ``SCHEDULE`` targets every member.  Returns a per-member list.

    Bare entries are the fleet-wide default and indexed entries override
    them, independent of argument order -- otherwise a bare schedule
    appearing after an indexed one would silently wipe it.
    """
    if not entries:
        return None
    fleet_wide = None
    indexed = {}
    for entry in entries:
        head, _, tail = entry.partition(":")
        if tail and head.strip().isdigit():
            index = int(head)
            if not 0 <= index < count:
                raise ConfigurationError(
                    f"--faults member index {index} outside fleet of {count}"
                )
            indexed[index] = tail
        else:
            fleet_wide = entry
    member_faults = [fleet_wide] * count
    for index, schedule in indexed.items():
        member_faults[index] = schedule
    return member_faults


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet import make_fleet_spec, run_fleet

    scale = ExperimentScale.for_requests(args.requests, args.seed)
    designs = args.designs if args.designs else args.design
    count = len(args.designs) if args.designs else args.devices
    fleet = make_fleet_spec(
        designs,
        args.preset,
        args.workload,
        scale,
        devices=count,
        placement=args.placement,
        tenants=args.tenants,
        sample=args.sample,
        qos=args.qos,
        burst=args.burst,
        faults=_parse_member_faults(args.member_faults, count),
    )
    executor, store = _orchestration(args)
    payload = run_fleet(fleet, executor=executor, store=store)
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0
    latency = payload["latency"]
    imbalance = payload["imbalance"]
    print(
        format_table(
            ["metric", "value"],
            [
                ["devices", payload["devices"]],
                ["placement", payload["placement"]],
                ["tenants", payload["tenants"]],
                ["requests completed", payload["requests_completed"]],
                ["makespan (ms)", payload["makespan_ns"] / 1e6],
                ["aggregate IOPS", payload["aggregate_iops"]],
                ["sum of device IOPS", payload["sum_device_iops"]],
                ["fleet mean latency (us)", latency["mean_ns"] / 1e3],
                ["fleet p50 latency (us)", latency["p50_ns"] / 1e3],
                ["fleet p99 latency (us)", latency["p99_ns"] / 1e3],
                ["fleet p999 latency (us)", latency["p999_ns"] / 1e3],
                ["imbalance (max/mean)", imbalance["max_over_mean"]],
                ["imbalance (cv)", imbalance["cv"]],
            ],
            title=f"{fleet.label()} on {args.workload}",
        )
    )
    sample = payload.get("sample")
    if sample:
        iops_ci = sample["iops_per_device_ci"]
        p99_ci = sample["p99_ns_ci"]
        print()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["devices simulated", sample["devices_simulated"]],
                    ["scale factor", sample["scale_factor"]],
                    [
                        "IOPS/device (95% CI)",
                        f"{iops_ci['mean']:,.1f} +/- {iops_ci['half_width']:,.1f}",
                    ],
                    [
                        "p99 us (95% CI)",
                        f"{p99_ci['mean'] / 1e3:,.1f} +/- "
                        f"{p99_ci['half_width'] / 1e3:,.1f}",
                    ],
                ],
                title="sampled extrapolation",
            )
        )
    rows = [
        [
            index,
            cell["design"],
            cell["requests_completed"],
            cell["iops"],
            cell["p99_latency_ns"] / 1e3,
        ]
        for index, cell in enumerate(payload["per_device"])
    ]
    print()
    print(
        format_table(
            ["device", "design", "requests", "IOPS", "p99 (us)"],
            rows,
            title="per-device",
        )
    )
    tenant_latency = payload.get("tenant_latency")
    if tenant_latency:
        rows = [
            [
                tenant,
                cell["count"],
                cell["mean_ns"] / 1e3,
                cell["p50_ns"] / 1e3,
                cell["p99_ns"] / 1e3,
            ]
            for tenant, cell in tenant_latency.items()
        ]
        print()
        print(
            format_table(
                ["tenant", "requests", "mean (us)", "p50 (us)", "p99 (us)"],
                rows,
                title="per-tenant",
            )
        )
    return 0


def _cmd_fleet_sweep(args: argparse.Namespace) -> int:
    from repro.fleet import (
        DEFAULT_DEVICE_COUNTS,
        DEFAULT_PLACEMENTS,
        run_fleet_sweep,
    )

    scale = ExperimentScale.for_requests(args.requests, args.seed)
    executor, store = _orchestration(args)
    payload = run_fleet_sweep(
        args.design,
        args.preset,
        args.workload,
        scale,
        device_counts=args.devices or DEFAULT_DEVICE_COUNTS,
        placements=args.placements or DEFAULT_PLACEMENTS,
        tenants=args.tenants,
        sample=args.sample,
        qos=args.qos,
        burst=args.burst,
        executor=executor,
        store=store,
    )
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0
    counts = payload["device_counts"]
    for placement in payload["placements"]:
        cells = payload["curve"][placement]
        rows = [
            [
                count,
                cells[count]["aggregate_iops"],
                cells[count]["latency"]["p99_ns"] / 1e3,
                cells[count]["latency"]["p999_ns"] / 1e3,
                cells[count]["imbalance"]["max_over_mean"],
            ]
            for count in counts
        ]
        print(
            format_table(
                ["devices", "aggregate IOPS", "p99 (us)", "p999 (us)",
                 "imbalance"],
                rows,
                title=f"{placement} -- {args.design} on {args.workload} "
                f"({payload['tenants']} tenants)",
            )
        )
        print()
    return 0


def _cmd_qos_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.faults import SWEEP_DESIGNS
    from repro.experiments.qos import (
        DEFAULT_BURST_LEVELS,
        DEFAULT_WORKLOAD,
        qos_scale,
        run_qos_sweep,
    )

    scale = qos_scale(requests=args.requests, seed=args.seed)
    executor, store = _orchestration(args)
    result = run_qos_sweep(
        preset=args.preset,
        workload=args.workload or DEFAULT_WORKLOAD,
        scale=scale,
        levels=args.levels or DEFAULT_BURST_LEVELS,
        policies=args.policies,
        designs=args.designs or SWEEP_DESIGNS,
        placements=args.placements,
        seed=args.seed,
        devices=args.devices,
        tenants=args.tenants,
        burst_tenant=args.burst_tenant,
        executor=executor,
        store=store,
    )
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0
    designs = result["designs"]
    levels = result["levels"]
    for placement in result["placements"]:
        per_policy = result["curve"][placement]
        for label, spec in result["policies"].items():
            per_design = per_policy[label]
            rows = [
                [f"{level:g}x"]
                + [
                    per_design[design][index]["victim_p99_ns"] / 1e3
                    for design in designs
                ]
                for index, level in enumerate(levels)
            ]
            shown = spec or "arrival order"
            print(
                format_table(
                    ["burst"] + list(designs),
                    rows,
                    title=f"victim p99 (us) -- {label} ({shown}) -- "
                    f"{placement} -- {result['workload']} on "
                    f"{result['preset']}",
                )
            )
            print()
    return 0


def _open_store(args: argparse.Namespace) -> ResultStore:
    import os

    if not os.path.isdir(args.cache):
        raise ConfigurationError(
            f"{args.cache!r} is not a result-store directory"
        )
    return ResultStore(args.cache)


def _emit_payload(payload: dict, as_json: bool, title: str) -> int:
    if as_json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        format_table(
            ["field", "value"],
            [[key, value] for key, value in payload.items()],
            title=title,
        )
    )
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    stats = _open_store(args).stats()
    return _emit_payload(stats, args.json, f"store {args.cache}")


def _cmd_store_verify(args: argparse.Namespace) -> int:
    report = _open_store(args).verify(repair=args.repair)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"checked {report['checked']} entries: {report['ok']} ok, "
            f"{len(report['corrupt'])} corrupt, "
            f"{report['quarantined']} quarantined"
        )
        for entry in report["corrupt"]:
            print(f"  corrupt {entry['digest'][:12]}: {entry['error']}")
        if report["corrupt"] and not args.repair:
            print("run again with --repair to quarantine them")
    # Corruption found but left in place is an error condition; a repaired
    # store exits 0 because the bad entries can no longer be served.
    return 4 if report["corrupt"] and not args.repair else 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    report = _open_store(args).gc()
    return _emit_payload(report, args.json, f"store gc {args.cache}")


def _cmd_store_compact(args: argparse.Namespace) -> int:
    report = _open_store(args).compact()
    return _emit_payload(report, args.json, f"store compact {args.cache}")


def _join_queue(directory):
    """Open an *existing* queue; joining must never invent a config.

    A worker that raced ahead of the sweep would otherwise freeze
    ``queue.json`` with default policy and the wrong store binding, and
    the sweep would then refuse its own queue directory.
    """
    from pathlib import Path

    from repro.errors import QueueError
    from repro.experiments.queue import WorkQueue

    if not (Path(directory) / "queue.json").exists():
        raise QueueError(
            f"{directory} is not an initialized queue (no queue.json); "
            "start a sweep with --queue DIR first -- it freezes the "
            "queue's store binding and lease/retry policy"
        )
    return WorkQueue(directory)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.experiments.worker import QueueWorker

    # The executor checks --timeout before the queue is joined.
    timeout = Executor(timeout=args.timeout).timeout
    stats = QueueWorker(
        _join_queue(args.queue),
        owner=args.owner,
        max_tasks=args.max_tasks,
        idle_exit=args.idle_exit,
        timeout=timeout,
    ).run()
    return _emit_payload(stats, args.json, f"worker on {args.queue}")


def _cmd_queue_status(args: argparse.Namespace) -> int:
    status = _join_queue(args.queue).status()
    return _emit_payload(status, args.json, f"queue {args.queue}")


def _cmd_queue_dead(args: argparse.Namespace) -> int:
    letters = _join_queue(args.queue).dead_letters()
    if args.json:
        print(json.dumps(letters, indent=2))
        return 0
    if not letters:
        print("no dead-lettered tasks")
        return 0
    for digest, letter in letters.items():
        errors = letter.get("errors") or []
        print(f"{digest[:12]} after {letter.get('attempts')} attempts:")
        if errors:
            print("  " + errors[-1].strip().replace("\n", "\n  "))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, SimulationService

    service = SimulationService(
        ServiceConfig(
            state_dir=args.state,
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            timeout=args.timeout,
            verbose=args.verbose,
        )
    )
    service.start()
    print(
        f"venice-sim service on http://{service.host}:{service.port} "
        f"(state: {args.state})",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.fleet import placement_names, qos_names

    catalog = {
        "designs": list(design_names()),
        "presets": list(PRESET_NAMES),
        "workloads": list(workload_names()),
        "mixes": list(mix_names()),
        "formats": list(trace_formats.format_names()),
        "placements": list(placement_names()),
        "qos": list(qos_names()),
    }
    if args.json:
        print(json.dumps(catalog, indent=2))
        return 0
    width = max(len(name) for name in catalog)
    for name, values in catalog.items():
        print(f"{name + ':':<{width + 1}} " + ", ".join(values))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
