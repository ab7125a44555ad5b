#!/usr/bin/env python3
"""Garbage-collection interference on an aged device (paper §8).

Fills the device completely (logical space), then overwrites a small logical range until
garbage collection must run.  GC's valid-page migrations travel the same
communication fabric as host I/O -- the paper's §8 argues Venice's path
diversity lets both proceed in parallel where the baseline's shared buses
serialize them.

Run:  python examples/gc_interference.py
"""

from repro.config.ssd_config import DesignKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import make_device
from repro.experiments.spec import ExperimentScale, build_config
from repro.hil.request import IoKind, IoRequest


def overwrite_trace(page_size: int, count: int = 512):
    # A pseudo-random walk over a 640-page region: old copies die scattered
    # across many blocks, so GC victims are partially valid and must migrate
    # live pages before erasing.
    requests = []
    t = 0
    for index in range(count):
        requests.append(
            IoRequest(
                kind=IoKind.WRITE,
                offset_bytes=((index * 37) % 256) * page_size,
                size_bytes=page_size,
                arrival_ns=t,
            )
        )
        t += 5_000
    return requests


def main() -> None:
    scale = ExperimentScale(blocks_per_plane=8, pages_per_block=8)
    config = build_config("performance-optimized", scale)
    page = config.geometry.page_size

    rows = []
    for design in (DesignKind.BASELINE, DesignKind.VENICE, DesignKind.IDEAL):
        device = make_device(config, design, scale)
        filled = device.precondition(1.0)
        result = device.run_trace(overwrite_trace(page), f"gc-{design.value}")
        rows.append(
            [
                design.value,
                result.execution_time_ns / 1e6,
                result.p99_latency_ns / 1e3,
                device.gc.blocks_reclaimed,
                device.gc.pages_migrated,
            ]
        )
        device.ftl.assert_consistent()  # GC lost nothing

    print(f"Device fully preconditioned ({filled} pages) before each run.\n")
    print(
        format_table(
            ["design", "execution (ms)", "p99 (us)", "blocks reclaimed",
             "pages migrated"],
            rows,
            title="Overwrite-heavy workload with live garbage collection",
        )
    )
    print(
        "\nGC migrations (internal reads + programs) contend with host"
        "\nwrites for paths; the FTL state stays consistent throughout"
        "\n(checked by assert_consistent after each run)."
    )


if __name__ == "__main__":
    main()
