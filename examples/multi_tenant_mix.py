#!/usr/bin/env python3
"""Multi-tenant mixed workloads (Table 3 / Figure 12).

"Real-world scenarios, where multiple workloads access the same SSD":
three tenants -- a write-heavy proxy (prxy_0), a read-heavy source volume
(src2_1), and a mixed user volume (usr_0) -- share one device through
separate NVMe queue pairs.  The default is the paper's mix2 (three
read-intensive tenants); pass mix1..mix6 to try the others.

Run:  python examples/multi_tenant_mix.py [mix1..mix6]
"""

import sys

from repro.config.ssd_config import DesignKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_design_suite
from repro.experiments.spec import ExperimentScale, build_config, trace_for
from repro.workloads.mixes import MIX_CATALOG


def main() -> None:
    mix_name = sys.argv[1] if len(sys.argv) > 1 else "mix2"
    spec = MIX_CATALOG[mix_name]
    print(f"{mix_name}: {spec.description}")
    print(f"constituents: {', '.join(spec.constituents)}\n")

    scale = ExperimentScale(
        requests_per_mix_constituent=150, blocks_per_plane=16, pages_per_block=16
    )
    config = build_config("performance-optimized", scale)
    trace = trace_for(mix_name, config, scale, mix=True)

    designs = (
        DesignKind.BASELINE,
        DesignKind.PSSD,
        DesignKind.NOSSD,
        DesignKind.VENICE,
        DesignKind.IDEAL,
    )
    results = run_design_suite(config, trace, scale, designs)
    baseline = results["baseline"]
    rows = [
        [
            name,
            result.speedup_over(baseline),
            result.p99_latency_ns / 1e3,
            f"{result.conflict_fraction:.1%}",
        ]
        for name, result in results.items()
    ]
    print(
        format_table(
            ["design", "speedup", "p99 (us)", "conflicts"],
            rows,
            title=f"{mix_name} ({len(trace)} requests, "
            f"{trace.mean_interarrival_us:.1f} us mean inter-arrival)",
        )
    )
    print(
        "\nMixes concentrate several tenants' bursts onto one fabric; the"
        "\npaper's Figure 12 shows Venice's conflict-free scheduling paying"
        "\noff most under exactly this pressure."
    )


if __name__ == "__main__":
    main()
