#!/usr/bin/env python3
"""Tail-latency analysis: how path conflicts inflate the p99 (Figure 11).

Replays ``src1_0`` (mixed read/write, large requests) on the baseline and
Venice devices, then prints the tail of the latency CDF side by side --
the view the paper uses to show Venice cutting the 99th percentile.

Run:  python examples/tail_latency_analysis.py
"""

from repro.config.ssd_config import DesignKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload_on
from repro.experiments.spec import ExperimentScale, build_config, trace_for


def main() -> None:
    scale = ExperimentScale(requests=500, blocks_per_plane=16, pages_per_block=16)
    config = build_config("performance-optimized", scale)
    trace = trace_for("src1_0", config, scale)

    print(f"Replaying {len(trace)} requests of src1_0 on {config.name}...\n")
    runs = {
        design.value: run_workload_on(design, config, trace, scale, with_cdf=True)
        for design in (DesignKind.BASELINE, DesignKind.NOSSD, DesignKind.VENICE)
    }

    fractions = [point[1] for point in runs["baseline"].tail_cdf]
    rows = []
    for index, fraction in enumerate(fractions):
        if index % 10 != 0 and fraction != fractions[-1]:
            continue
        rows.append(
            [f"p{fraction * 100:.1f}"]
            + [runs[name].tail_cdf[index][0] / 1e3 for name in runs]
        )
    print(
        format_table(
            ["percentile"] + [f"{name} (us)" for name in runs],
            rows,
            title="Latency CDF tail (Figure 11 view)",
        )
    )

    base_p99 = runs["baseline"].p99_latency_ns
    for name, run in runs.items():
        if name == "baseline":
            continue
        change = 1.0 - run.p99_latency_ns / base_p99
        print(f"\n{name}: p99 {change:+.1%} vs baseline")


if __name__ == "__main__":
    main()
