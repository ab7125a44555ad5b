"""Core simulator micro-benchmarks: the hot-path perf contract.

Unlike the figure benches (which reproduce paper results), this bench
measures the simulator itself: raw event-loop throughput, resource
acquire/release cycles, process fan-out, and end-to-end requests/sec per
design.  The same measurements back the ``venice-sim bench`` subcommand and
the CI perf-smoke gate (``benchmarks/BENCH_baseline.json``).

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/bench_core.py -s``
"""

import json

import pytest

from repro.experiments.bench import (
    BENCH_DESIGNS,
    bench_end_to_end,
    bench_engine_events,
    bench_fanout,
    bench_resource_cycles,
    run_bench,
)

from conftest import emit


def test_engine_event_throughput():
    result = bench_engine_events(events=120_000, repeats=2)
    emit(
        "engine event throughput",
        f"{result['events_per_sec']:,.0f} events/sec "
        f"({result['events']:,.0f} events in {result['seconds']*1e3:.1f} ms)",
    )
    # Sanity floor, far below any real machine: catches accidental
    # quadratic behaviour, not hardware variance.
    assert result["events_per_sec"] > 50_000


def test_resource_cycle_throughput():
    result = bench_resource_cycles(cycles=60_000, repeats=2)
    emit(
        "resource acquire/release",
        f"{result['cycles_per_sec']:,.0f} cycles/sec "
        f"(uncontended Grant fast path + contended FIFO handoff)",
    )
    assert result["cycles_per_sec"] > 20_000


def test_process_fanout_throughput():
    result = bench_fanout(processes=10_000, repeats=2)
    emit(
        "process fan-out (spawn + per-child join)",
        f"{result['processes_per_sec']:,.0f} processes/sec",
    )
    assert result["processes_per_sec"] > 10_000


@pytest.mark.parametrize("design", BENCH_DESIGNS)
def test_end_to_end_requests_per_sec(design):
    result = bench_end_to_end(design, requests=220, repeats=2)
    emit(
        f"end-to-end ({design})",
        f"{result['requests_per_sec']:,.1f} requests/sec "
        f"({result['requests']:.0f} requests in {result['seconds']*1e3:.0f} ms)",
    )
    assert result["requests"] > 0
    assert result["requests_per_sec"] > 50


def test_bench_payload_shape():
    """The CLI payload (BENCH_core.json) is JSON-safe and complete."""
    payload = run_bench(quick=True, repeats=1)
    encoded = json.loads(json.dumps(payload))
    assert encoded["schema_version"] >= 2
    assert encoded["events_per_sec"] > 0
    assert encoded["requests_per_sec"] > 0
    assert set(encoded["end_to_end"]) == set(BENCH_DESIGNS)
    emit(
        "bench payload",
        f"events/sec={encoded['events_per_sec']:,.0f} "
        f"aggregate req/sec={encoded['requests_per_sec']:,.1f} "
        f"peak RSS={encoded['peak_rss_kb']} KiB",
    )
