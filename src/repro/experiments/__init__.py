"""Experiment harness: declarative run specs, executors, and figures.

The orchestration stack, bottom-up:

* :mod:`repro.experiments.spec` -- :class:`RunSpec`, the canonical hashable
  description of one simulation run, plus config/trace materialization;
* :mod:`repro.experiments.executor` -- the executor that runs spec sets
  inline, over a process pool, or one killable subprocess per spec, and
  stores each result as it arrives;
* :mod:`repro.experiments.store` -- the content-addressed JSON result store
  keyed by spec digest (one ``<digest>.json`` file per entry), so repeated
  invocations reuse prior runs;
* :mod:`repro.experiments.queue` / :mod:`repro.experiments.worker` -- the
  crash-safe filesystem work queue and its worker / executor front ends,
  for sweeps shared by several processes or hosts;
* :mod:`repro.experiments.figures` -- one declaration per paper figure:
  a spec set plus a pure reducer over the shared cached results.

Every function returns plain data structures (dicts / dataclasses) that the
reporting helpers render as text tables; the benchmark suite calls the same
functions at reduced scale.
"""

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.figures import (
    FIGURE_NAMES,
    FIGURES,
    fig4_motivation,
    fig9_speedup,
    fig10_throughput,
    fig11_tail_latency,
    fig12_mixed,
    fig13_conflicts,
    fig14_power_energy,
    fig15_sensitivity,
    run_all_figures,
    run_figure,
    table4_overheads,
    validate_figure_workloads,
)
from repro.experiments.motivation import (
    service_timeline_example,
    TimelineExample,
)
from repro.experiments.reporting import format_table, geometric_mean
from repro.experiments.runner import (
    make_device,
    run_design_suite,
    run_suite,
    run_workload_on,
)
from repro.experiments.queue import Task, WorkQueue, default_owner_id
from repro.experiments.spec import (
    ExperimentScale,
    RunSpec,
    build_config,
    make_spec,
    matrix_specs,
)
from repro.experiments.store import ResultStore
from repro.experiments.worker import QueueExecutor, QueueWorker

__all__ = [
    "Executor",
    "ExperimentScale",
    "FIGURE_NAMES",
    "FIGURES",
    "QueueExecutor",
    "QueueWorker",
    "ResultStore",
    "RunSpec",
    "Task",
    "TimelineExample",
    "WorkQueue",
    "build_config",
    "default_owner_id",
    "execute_specs",
    "fig4_motivation",
    "fig9_speedup",
    "fig10_throughput",
    "fig11_tail_latency",
    "fig12_mixed",
    "fig13_conflicts",
    "fig14_power_energy",
    "fig15_sensitivity",
    "format_table",
    "geometric_mean",
    "make_device",
    "make_spec",
    "matrix_specs",
    "run_all_figures",
    "run_design_suite",
    "run_figure",
    "run_suite",
    "run_workload_on",
    "service_timeline_example",
    "table4_overheads",
    "validate_figure_workloads",
]
