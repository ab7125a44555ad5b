"""Sustained-write experiments: write cliffs, WA-vs-OP, and GC x faults.

The paper's §8 discussion argues Venice's path diversity matters precisely
when internal garbage-collection traffic collides with host transfers on
shared paths -- but its figures only exercise the read-dominated
path-conflict story.  This module opens the sustained-write scenario space
the discussion points at, as three result families beyond the paper:

* **write cliff** -- throughput / p99 / GC stall time versus fill level
  under sustained random writes: as the preconditioned fill approaches the
  device's host-usable capacity, host allocations start stalling on forced
  GC and throughput falls off a cliff;
* **WA versus OP** -- write amplification against the over-provisioning
  knob, per fabric: more spare area means fewer valid pages per GC victim,
  hence fewer internal copies per host write (WA is monotone decreasing in
  OP);
* **GC x faults** -- the composition cell: with the device in GC steady
  state *and* a dead link, does Venice keep p999 flat where the baseline
  tail blows up?

Every cell is an ordinary :class:`~repro.experiments.spec.RunSpec`: the
warm-up (``fill F; churn C``) rides the spec's ``warmup`` field and is paid
once per (design, warm-up, knobs) through a shared checkpoint, the
over-provisioning knob rides ``device_kwargs`` (digest-joining, strict
no-op when absent), and execution flows through
:func:`~repro.experiments.executor.execute_specs` so warm re-runs perform
zero simulations.

Scale note: the sweep defaults to a deliberately small per-plane capacity
(:func:`sustained_scale`) so a few hundred measured requests represent a
meaningful fraction of the array and actually push planes across the GC
watermarks -- at paper scale the same physics needs millions of requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.ssd_config import DesignKind
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.faults import (
    SWEEP_DESIGNS,
    degradation_links,
    link_fault_schedule,
)
from repro.experiments.spec import (
    ExperimentScale,
    RunSpec,
    build_config,
    matrix_specs,
)
from repro.metrics.collector import RunResult
from repro.sim.stats import LatencyRecorder

#: Fill levels of the default write-cliff curve: two points on the flat
#: shoulder, one at the knee, one past it.
DEFAULT_FILL_LEVELS = (0.5, 0.7, 0.85, 0.9)

#: Over-provisioning levels of the default WA curve (0.07 is the config
#: default; 0.35 gives GC so much slack it never has to run).
DEFAULT_OP_LEVELS = (0.07, 0.2, 0.35)

#: Fill level of the WA-vs-OP curve (on the cliff's knee at the default OP).
DEFAULT_WA_FILL = 0.85

#: Fraction of the fill overwritten by the churn stage (GC steady state).
DEFAULT_CHURN = 0.35

#: The write-heaviest Table-2 trace (3% reads): sustained random writes.
DEFAULT_WORKLOAD = "prxy_0"


def sustained_scale(
    requests: int = 600,
    seed: int = 42,
    blocks_per_plane: int = 16,
    pages_per_block: int = 8,
) -> ExperimentScale:
    """The sweep's default scale: small planes so writes bite.

    With 16 blocks of 8 pages per plane, one erased reserve block is 6.25%
    of a plane and 600 requests of the default workload write roughly 10%
    of the array -- enough to cross the GC watermarks at high fill without
    making a 35-cell sweep take hours.
    """
    return ExperimentScale(
        requests=requests,
        requests_per_mix_constituent=max(40, requests // 6),
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        seed=seed,
    )


def _warmup(fill: float, churn: float) -> str:
    """The warm-up grammar string of one sustained-write cell."""
    if churn > 0.0:
        return f"fill {fill:g}; churn {churn:g}"
    return f"fill {fill:g}"


def write_cliff_specs(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    fill_levels: Sequence[float] = DEFAULT_FILL_LEVELS,
    churn: float = DEFAULT_CHURN,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
) -> Dict[float, Tuple[RunSpec, ...]]:
    """The write-cliff matrix: ``{fill: specs-at-that-fill}``.

    Every design at a given fill shares the warm-up recipe (hence the
    per-design checkpoint), and fills are deduplicated in input order.
    """
    plan: Dict[float, Tuple[RunSpec, ...]] = {}
    for fill in dict.fromkeys(float(f) for f in fill_levels):
        plan[fill] = matrix_specs(
            preset, (workload,), scale, designs, warmup=_warmup(fill, churn)
        )
    return plan


def wa_op_specs(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    fill: float = DEFAULT_WA_FILL,
    churn: float = DEFAULT_CHURN,
    op_levels: Sequence[float] = DEFAULT_OP_LEVELS,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
) -> Dict[float, Tuple[RunSpec, ...]]:
    """The WA-vs-OP matrix: ``{over_provisioning: specs-at-that-op}``.

    The knob rides ``device_kwargs`` so each level is a distinct digest
    (and a distinct checkpoint: more spare area changes what the warm-up
    itself does to the array).  Each level is checked against the config
    while planning, so an out-of-range one fails before any warm-up runs.
    """
    config = build_config(preset, scale)
    plan: Dict[float, Tuple[RunSpec, ...]] = {}
    for op in dict.fromkeys(float(level) for level in op_levels):
        config.with_ftl_knobs(over_provisioning=op)
        plan[op] = matrix_specs(
            preset,
            (workload,),
            scale,
            designs,
            warmup=_warmup(fill, churn),
            over_provisioning=op,
        )
    return plan


def gc_fault_specs(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    fill: float,
    churn: float = DEFAULT_CHURN,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
    faulted_links: int = 1,
    seed: int = 42,
) -> Tuple[List[tuple], Dict[str, Dict[str, RunSpec]]]:
    """The GC x faults composition cells: clean vs faulted, per design.

    Returns ``(links, {design: {"clean": spec, "faulted": spec}})``.  Both
    specs of a design share warm-up and device kwargs -- and therefore one
    checkpoint -- and both export the latency histogram so the reduction
    can read p999 off the full distribution.
    """
    config = build_config(preset, scale)
    links = degradation_links(
        config.mesh_rows, config.mesh_cols, faulted_links, seed
    )
    schedule = link_fault_schedule(links)
    cells: Dict[str, Dict[str, RunSpec]] = {}
    for faults in (None, schedule.to_spec() or None):
        specs = matrix_specs(
            preset,
            (workload,),
            scale,
            designs,
            warmup=_warmup(fill, churn),
            faults=faults,
            export_histogram=True,
        )
        key = "clean" if faults is None else "faulted"
        for spec in specs:
            cells.setdefault(spec.design, {})[key] = spec
    return links, cells


def _p999_ns(result: RunResult) -> float:
    """p999 from an exported latency histogram (0.0 when unavailable)."""
    payload = result.latency_histogram
    if not payload:
        return 0.0
    return LatencyRecorder.from_payload(payload).p999


def _cell(result: RunResult) -> Dict[str, float]:
    """The per-cell reduction shared by the cliff and WA curves.

    The sustained-write extras are emitted only when the write machinery
    engaged, so quiet cells (low fill, high OP) default to zero stalls and
    a write amplification of exactly 1.0.
    """
    extra = result.extra
    return {
        "iops": result.iops,
        "p99_latency_ns": result.p99_latency_ns,
        "mean_latency_ns": result.mean_latency_ns,
        "write_amplification": extra.get("write_amplification", 1.0),
        "gc_stall_ns": extra.get("gc_stall_ns", 0.0),
        "gc_write_stalls": extra.get("gc_write_stalls", 0.0),
        "gc_blocks_reclaimed": extra.get("gc_blocks_reclaimed", 0.0),
        "host_pages_written": extra.get("host_pages_written", 0.0),
        "gc_pages_written": extra.get("gc_pages_written", 0.0),
    }


def run_ftl_sweep(
    preset: str = "performance-optimized",
    workload: str = DEFAULT_WORKLOAD,
    scale: Optional[ExperimentScale] = None,
    fill_levels: Sequence[float] = DEFAULT_FILL_LEVELS,
    op_levels: Sequence[float] = DEFAULT_OP_LEVELS,
    wa_fill: float = DEFAULT_WA_FILL,
    churn: float = DEFAULT_CHURN,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
    seed: int = 42,
    faulted_links: int = 1,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    """Execute the sustained-write sweep and reduce it to curve payloads.

    Returns a payload with three sections -- ``write_cliff`` (per design,
    a list of cells ordered by fill level), ``wa_op`` (per design, a list
    of cells ordered by over-provisioning), and ``gc_faults`` (per design,
    clean/faulted cells plus their p999 ratio) -- and a ``checkpoints``
    section recording how the warm-up amortization behaved: ``hits``
    counts the runs handed a warm-up snapshot, ``writes`` the warm-ups
    simulated, and ``misses`` stays 0 because no run is dispatched
    without its snapshot (every cell of a design at one warm-up recipe
    restores the same snapshot, so hits grow with matrix width while
    warm-up simulations stay one per recipe).  The section counts the
    same under any ``--jobs``.

    All three sections execute as a single batch through
    :func:`~repro.experiments.executor.execute_specs`: shared specs
    deduplicate, a result store serves warm cells without simulating, and
    each warm-up is resolved once before the runs fan out.
    """
    scale = scale or sustained_scale(seed=seed)
    cliff_plan = write_cliff_specs(
        preset, workload, scale, fill_levels, churn, designs
    )
    wa_plan = wa_op_specs(
        preset, workload, scale, wa_fill, churn, op_levels, designs
    )
    gc_fill = max(cliff_plan) if cliff_plan else DEFAULT_WA_FILL
    links, gc_plan = gc_fault_specs(
        preset, workload, scale, gc_fill, churn, designs, faulted_links, seed
    )
    all_specs = [spec for specs in cliff_plan.values() for spec in specs]
    all_specs += [spec for specs in wa_plan.values() for spec in specs]
    all_specs += [
        spec for cells in gc_plan.values() for spec in cells.values()
    ]
    executor = executor or Executor()
    warmups, restores = executor.warmups, executor.restores
    results = execute_specs(all_specs, executor=executor, store=store)

    write_cliff: Dict[str, List[Dict[str, float]]] = {}
    for fill in sorted(cliff_plan):
        for spec in cliff_plan[fill]:
            cell = _cell(results[spec])
            cell["fill"] = fill
            write_cliff.setdefault(spec.design, []).append(cell)

    wa_op: Dict[str, List[Dict[str, float]]] = {}
    for op in sorted(wa_plan):
        for spec in wa_plan[op]:
            cell = _cell(results[spec])
            cell["over_provisioning"] = op
            wa_op.setdefault(spec.design, []).append(cell)

    gc_faults: Dict[str, Dict[str, object]] = {}
    for design, cells in gc_plan.items():
        reduced: Dict[str, object] = {}
        for key, spec in cells.items():
            result = results[spec]
            entry = _cell(result)
            entry["p999_latency_ns"] = _p999_ns(result)
            reduced[key] = entry
        clean_p999 = reduced["clean"]["p999_latency_ns"]
        faulted_p999 = reduced["faulted"]["p999_latency_ns"]
        reduced["p999_ratio"] = (
            faulted_p999 / clean_p999 if clean_p999 > 0 else 0.0
        )
        gc_faults[design] = reduced

    return {
        "experiment": "ftl-sweep",
        "preset": preset,
        "workload": workload,
        "seed": seed,
        "churn": churn,
        "designs": [design.value for design in designs],
        "fill_levels": sorted(cliff_plan),
        "op_levels": sorted(wa_plan),
        "wa_fill": wa_fill,
        "gc_fill": gc_fill,
        "faulted_links": faulted_links,
        "links": [[list(a), list(b)] for a, b in links],
        "write_cliff": write_cliff,
        "wa_op": wa_op,
        "gc_faults": gc_faults,
        "checkpoints": {
            "hits": executor.restores - restores,
            "misses": 0,
            "writes": executor.warmups - warmups,
        },
    }
