"""Running (design x config x workload) matrices on materialized inputs.

The canonical description of a run is :class:`repro.experiments.spec.RunSpec`
(built with :func:`~repro.experiments.spec.make_spec`); this module adds

* the *materialized* path (:func:`run_workload_on` / :func:`run_design_suite`)
  for callers that already hold a config and a trace object (tests, examples,
  ablations), and
* :func:`run_suite`, its declarative counterpart, which routes a named
  workload through the executor and result store.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.config.ssd_config import DesignKind, SsdConfig
from repro.experiments.executor import execute_specs
from repro.experiments.spec import (
    ALL_DESIGNS,
    ExperimentScale,
    Scalar,
    matrix_specs,
)
from repro.metrics.collector import RunResult
from repro.ssd.device import SsdDevice
from repro.ssd.factory import supports_geometry
from repro.workloads.trace import Trace

__all__ = [
    "make_device",
    "run_design_suite",
    "run_suite",
    "run_workload_on",
]


def make_device(
    config: SsdConfig,
    design: DesignKind,
    scale: ExperimentScale,
    **device_kwargs,
) -> SsdDevice:
    return SsdDevice(
        config, design, queue_pairs=scale.queue_pairs, **device_kwargs
    )


def run_workload_on(
    design: DesignKind,
    config: SsdConfig,
    trace: Trace,
    scale: ExperimentScale,
    *,
    with_cdf: bool = False,
    **device_kwargs,
) -> RunResult:
    """One simulation run: fresh device, replay, metrics.

    This is the materialized primitive for callers holding live config/trace
    objects; named workloads should go through :func:`run_suite` (or specs
    directly) to get caching and parallelism.
    """
    device = make_device(config, design, scale, **device_kwargs)
    return device.run_trace(trace.requests, trace.name, with_cdf=with_cdf)


def run_design_suite(
    config: SsdConfig,
    trace: Trace,
    scale: ExperimentScale,
    designs: Sequence[DesignKind] = ALL_DESIGNS,
    **device_kwargs,
) -> Dict[str, RunResult]:
    """Run one materialized trace across a set of designs; key by design name.

    Designs whose geometry requirements the config violates (pnSSD on a
    non-square array) are skipped, matching the paper's Figure 15 footnote.
    """
    results: Dict[str, RunResult] = {}
    for design in designs:
        if not supports_geometry(design, config):
            continue
        results[design.value] = run_workload_on(
            design, config, trace, scale, **device_kwargs
        )
    return results


def run_suite(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    designs: Sequence[DesignKind] = ALL_DESIGNS,
    *,
    executor=None,
    store=None,
    **device_kwargs: Scalar,
) -> Dict[str, RunResult]:
    """Declarative counterpart of :func:`run_design_suite`.

    Builds the spec set for a *named* workload (a Table 2 trace or a
    Table 3 mix), executes it through the (possibly parallel) executor with
    store-backed caching, and returns results keyed by design name.
    """
    specs = matrix_specs(preset, (workload,), scale, designs, **device_kwargs)
    results = execute_specs(specs, executor=executor, store=store)
    return {spec.design: results[spec] for spec in specs}
