#!/usr/bin/env python3
"""Compare all six SSD designs on a read-intensive enterprise workload.

Reproduces the paper's core comparison (Figure 9 methodology) on a single
workload: Baseline, pSSD, pnSSD, NoSSD, Venice, and the ideal
path-conflict-free SSD all replay the same accelerated ``proj_3`` trace
(95% reads -- the class of workload path conflicts hurt most, §3.1).

Run:  python examples/design_comparison.py [workload]
"""

import sys

from repro.config.ssd_config import DesignKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_design_suite
from repro.experiments.spec import (
    ALL_DESIGNS,
    ExperimentScale,
    build_config,
    channel_pressure,
    trace_for,
)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "proj_3"
    scale = ExperimentScale(
        requests=400, blocks_per_plane=16, pages_per_block=16
    )
    config = build_config("performance-optimized", scale)
    trace = trace_for(workload, config, scale)
    print(
        f"Replaying {len(trace)} requests of {workload} "
        f"(channel pressure {channel_pressure(trace, config):.2f}x) "
        f"on {config.name}...\n"
    )

    results = run_design_suite(config, trace, scale, ALL_DESIGNS)
    baseline = results[DesignKind.BASELINE.value]

    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.speedup_over(baseline),
                result.iops,
                result.mean_latency_ns / 1e3,
                result.p99_latency_ns / 1e3,
                f"{result.conflict_fraction:.1%}",
                result.energy_mj,
            ]
        )
    print(
        format_table(
            ["design", "speedup", "IOPS", "mean (us)", "p99 (us)",
             "conflicts", "energy (mJ)"],
            rows,
            title=f"{workload} across all designs",
        )
    )
    print(
        "\nReading the table: the ideal SSD bounds what eliminating path"
        "\nconflicts can buy; Venice approaches it with an 8x8 router mesh,"
        "\nwhile pSSD/pnSSD/NoSSD recover less of the gap (paper Figure 9)."
    )


if __name__ == "__main__":
    main()
