"""Fleet execution and metric roll-up: aggregate a multi-SSD array.

:func:`run_fleet` pushes a :class:`~repro.fleet.spec.FleetSpec`'s member
specs through the ordinary
:func:`~repro.experiments.executor.execute_specs` stack (dedup, ``--jobs``
fan-out, content-addressed store) and reduces the member
:class:`~repro.metrics.collector.RunResult`\\ s into one fleet payload:

* **aggregate throughput** -- total completed requests over the fleet
  makespan (the slowest member's execution window), plus the sum of
  per-device IOPS as the embarrassingly-parallel upper bound;
* **cross-device latency** -- per-device streaming histograms
  (:meth:`~repro.sim.stats.LatencyRecorder.to_payload`) merged into one
  recorder, so fleet p50/p99/p999 carry the same documented 1% relative
  bound as single-device percentiles;
* **skew/imbalance** -- max/mean request imbalance and the coefficient of
  variation across member devices, the dispatcher-quality metrics;
* **per-tenant latency** -- when members exported per-tenant histograms
  (QoS/burst fleets do), each tenant's recorders merge across devices into
  per-tenant p50/p99 roll-ups -- the noisy-neighbour visibility the QoS
  isolation sweep charts.

:func:`run_fleet_sweep` charts those metrics against device count and
placement policy in one deduplicated executor pass.  Reducers never
simulate, so both entry points are cache-replayable: a warm-store re-run
performs zero simulations and emits byte-identical JSON.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from repro.config.ssd_config import NS_PER_S, DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_specs
from repro.experiments.spec import ExperimentScale, RunSpec
from repro.fleet.placement import canonical_placement
from repro.fleet.spec import FleetSpec, make_fleet_spec
from repro.metrics.collector import RunResult
from repro.sim.stats import LatencyRecorder

#: Default device counts of a fleet scaling sweep.
DEFAULT_DEVICE_COUNTS = (1, 2, 4)

#: Default placement policies of a placement sweep.
DEFAULT_PLACEMENTS = ("round-robin",)


def merge_latency_payloads(
    payloads: Sequence[Optional[Dict[str, object]]]
) -> Optional[LatencyRecorder]:
    """Merge per-device latency payloads into one recorder (None if none).

    Skips members that exported no histogram (e.g. store entries written
    before histogram export existed); a payload whose mode is not
    ``"histogram"`` raises, as in :meth:`LatencyRecorder.from_payload`.
    """
    merged: Optional[LatencyRecorder] = None
    for payload in payloads:
        if payload is None:
            continue
        recorder = LatencyRecorder.from_payload(payload)
        if merged is None:
            merged = recorder
        else:
            merged.merge(recorder)
    return merged


def merge_tenant_payloads(
    results: Sequence[RunResult],
) -> Dict[str, LatencyRecorder]:
    """Merge per-tenant histogram payloads across member results.

    Returns ``{tenant_id: merged recorder}`` over every tenant any member
    reported (tenant keys are strings, as serialised); empty when no
    member exported tenant histograms -- which is how QoS-free fleet
    payloads stay byte-identical.
    """
    per_tenant: Dict[str, List[Dict[str, object]]] = {}
    for result in results:
        if not result.tenant_histograms:
            continue
        for tenant, payload in result.tenant_histograms.items():
            per_tenant.setdefault(tenant, []).append(payload)
    merged: Dict[str, LatencyRecorder] = {}
    for tenant in sorted(per_tenant, key=int):
        recorder = merge_latency_payloads(per_tenant[tenant])
        if recorder is not None:
            merged[tenant] = recorder
    return merged


def _imbalance_stats(counts: Sequence[int]) -> Dict[str, float]:
    """Skew metrics over per-device completed-request counts."""
    total = sum(counts)
    mean = total / len(counts) if counts else 0.0
    if mean <= 0:
        return {"max_over_mean": 0.0, "cv": 0.0, "min": 0.0, "max": 0.0}
    variance = sum((count - mean) ** 2 for count in counts) / len(counts)
    return {
        "max_over_mean": max(counts) / mean,
        "cv": math.sqrt(variance) / mean,
        "min": float(min(counts)),
        "max": float(max(counts)),
    }


def _confidence_interval(values: Sequence[float]) -> Dict[str, float]:
    """95% normal-approximation CI for the mean of per-device values.

    With one sampled device the spread is unknowable, so the half-width
    is reported as 0.0 -- the caller still sees the point estimate.
    """
    k = len(values)
    mean = sum(values) / k if k else 0.0
    if k < 2:
        return {"mean": mean, "half_width": 0.0, "lo": mean, "hi": mean}
    variance = sum((value - mean) ** 2 for value in values) / (k - 1)
    half = 1.96 * math.sqrt(variance / k)
    return {"mean": mean, "half_width": half, "lo": mean - half, "hi": mean + half}


def roll_up(
    members: Sequence[RunSpec],
    results: Dict[RunSpec, RunResult],
    population: Optional[int] = None,
) -> Dict[str, object]:
    """Reduce member results into the fleet-level metrics cell.

    Pure function of the results (never simulates), shared by
    :func:`run_fleet` and :func:`run_fleet_sweep`.

    With ``population`` (the full device count behind a sampled run),
    extensive totals -- completed requests, aggregate IOPS, summed device
    IOPS -- are scaled by ``population / len(members)``, and a ``"sample"``
    block reports 95% confidence intervals for per-device IOPS and p99
    across the simulated representatives.  Intensive metrics (latency
    quantiles, imbalance) are reported over the sample as-is.
    """
    member_results = [results[spec] for spec in members]
    completed = [result.requests_completed for result in member_results]
    total_completed = sum(completed)
    makespan_ns = max(
        (result.execution_time_ns for result in member_results), default=0
    )
    merged = merge_latency_payloads(
        [result.latency_histogram for result in member_results]
    )
    if merged is not None and merged.count:
        latency = {
            "count": merged.count,
            "mean_ns": merged.mean,
            "p50_ns": merged.p(0.50),
            "p99_ns": merged.p99,
            "p999_ns": merged.p999,
            "max_ns": merged.maximum,
        }
    else:
        latency = {
            "count": 0, "mean_ns": 0.0, "p50_ns": 0.0,
            "p99_ns": 0.0, "p999_ns": 0.0, "max_ns": 0.0,
        }
    per_device: List[Dict[str, object]] = [
        {
            "design": result.design,
            "config": result.config_name,
            "requests_completed": result.requests_completed,
            "iops": result.iops,
            "mean_latency_ns": result.mean_latency_ns,
            "p99_latency_ns": result.p99_latency_ns,
            "execution_time_ns": result.execution_time_ns,
            "stalled": result.extra.get("requests_stalled", 0.0),
        }
        for result in member_results
    ]
    simulated = len(members)
    factor = 1.0
    if population is not None and population > simulated:
        factor = population / simulated
    payload: Dict[str, object] = {
        "devices": population if population is not None else simulated,
        "requests_completed": int(round(total_completed * factor)),
        "makespan_ns": makespan_ns,
        "aggregate_iops": (
            total_completed * factor * NS_PER_S / makespan_ns
            if makespan_ns > 0
            else 0.0
        ),
        "sum_device_iops": (
            sum(result.iops for result in member_results) * factor
        ),
        "latency": latency,
        "imbalance": _imbalance_stats(completed),
        "per_device": per_device,
    }
    tenant_recorders = merge_tenant_payloads(member_results)
    if tenant_recorders:
        # Key omitted when no member exported per-tenant histograms, so
        # QoS-free fleet payloads are unchanged.
        payload["tenant_latency"] = {
            tenant: {
                "count": recorder.count,
                "mean_ns": recorder.mean,
                "p50_ns": recorder.p(0.50),
                "p99_ns": recorder.p99,
                "max_ns": recorder.maximum,
            }
            for tenant, recorder in tenant_recorders.items()
        }
    if population is not None:
        payload["sample"] = {
            "devices_simulated": simulated,
            "scale_factor": factor,
            "confidence": 0.95,
            "iops_per_device_ci": _confidence_interval(
                [result.iops for result in member_results]
            ),
            "p99_ns_ci": _confidence_interval(
                [result.p99_latency_ns for result in member_results]
            ),
        }
    return payload


def run_fleet(
    fleet: FleetSpec,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    """Execute a fleet and return its rolled-up metrics payload.

    Member specs go through
    :func:`~repro.experiments.executor.execute_specs`, so ``--jobs`` and
    ``--cache`` behave exactly as for the paper figures: parallel results
    are bit-identical to serial ones, and a warm store serves everything
    without simulating.

    A fleet with ``sample=K`` simulates only its K stratified
    representatives and extrapolates the totals (with confidence
    intervals).  The representatives share one dispatch of the whole
    fleet's stream (:func:`~repro.fleet.member.member_requests`), so a
    1000-device fleet costs K simulations plus one dispatch of
    ``1000 x len(base)`` requests.
    """
    active = list(fleet.active_members())
    sampled = len(active) < fleet.devices
    results = execute_specs(active, executor=executor, store=store)
    payload: Dict[str, object] = {
        "experiment": "fleet-run",
        "fleet_digest": fleet.digest,
        "placement": fleet.placement,
        "tenants": fleet.tenants,
        "workload": fleet.members[0].workload,
        "preset": fleet.members[0].preset,
        "member_designs": [member.design for member in fleet.members],
    }
    if fleet.qos:
        # Keys omitted for QoS-free fleets: pre-QoS payloads unchanged.
        payload["qos"] = fleet.qos
    if fleet.burst:
        payload["burst"] = fleet.burst
    if sampled:
        payload["sampled_member_indices"] = list(fleet.sampled_indices())
    payload.update(
        roll_up(active, results, population=fleet.devices if sampled else None)
    )
    return payload


def sweep_fleet_specs(
    design: Union[str, DesignKind],
    preset: str,
    workload: str,
    scale: ExperimentScale,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    *,
    tenants: int = 1,
    sample: int = 0,
    qos: str = "",
    burst: str = "",
    **device_kwargs,
) -> Dict[str, Dict[int, FleetSpec]]:
    """The fleet grid of one sweep: ``{placement: {device_count: spec}}``.

    One homogeneous fleet per (placement, count) cell; duplicate counts
    collapse, placements canonicalise.  Raises on an empty axis.
    ``sample`` is clamped per cell (a 2-device fleet under ``sample=32``
    simulates both members exactly).
    """
    counts = list(dict.fromkeys(int(count) for count in device_counts))
    names = list(dict.fromkeys(canonical_placement(p) for p in placements))
    if not counts or not names:
        raise ConfigurationError("sweep needs >= 1 device count and placement")
    if any(count < 1 for count in counts):
        raise ConfigurationError(f"device counts must be >= 1, got {counts}")
    if sample < 0:
        raise ConfigurationError(f"sample must be >= 0, got {sample}")
    return {
        name: {
            count: make_fleet_spec(
                design,
                preset,
                workload,
                scale,
                devices=count,
                placement=name,
                tenants=tenants,
                sample=min(int(sample), count) if sample else 0,
                qos=qos,
                burst=burst,
                **device_kwargs,
            )
            for count in counts
        }
        for name in names
    }


def run_fleet_sweep(
    design: Union[str, DesignKind] = "venice",
    preset: str = "performance-optimized",
    workload: str = "hm_0",
    scale: Optional[ExperimentScale] = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    *,
    tenants: int = 1,
    sample: int = 0,
    qos: str = "",
    burst: str = "",
    executor=None,
    store=None,
    **device_kwargs,
) -> Dict[str, object]:
    """Throughput/p99 versus device count and placement policy.

    Builds the full grid of fleets, executes every member spec in **one**
    deduplicated pass (cells sharing members simulate them once), and
    reduces each cell with :func:`roll_up`.  The returned payload is
    ``{"curve": {placement: {count: cell}}}`` plus identification; byte
    -identical across serial/parallel execution and across warm-cache
    re-runs.  ``sample=K`` simulates K stratified representatives per
    cell and extrapolates the rest (cells with <= K devices run exact).
    """
    scale = scale or ExperimentScale()
    grid = sweep_fleet_specs(
        design,
        preset,
        workload,
        scale,
        device_counts,
        placements,
        tenants=tenants,
        sample=sample,
        qos=qos,
        burst=burst,
        **device_kwargs,
    )
    all_specs = [
        spec
        for cells in grid.values()
        for fleet in cells.values()
        for spec in fleet.active_members()
    ]
    results = execute_specs(all_specs, executor=executor, store=store)
    curve: Dict[str, Dict[int, Dict[str, object]]] = {
        placement: {
            count: roll_up(
                fleet.active_members(),
                results,
                population=(
                    fleet.devices
                    if len(fleet.active_members()) < fleet.devices
                    else None
                ),
            )
            for count, fleet in cells.items()
        }
        for placement, cells in grid.items()
    }
    first = next(iter(grid.values()))
    payload: Dict[str, object] = {
        "experiment": "fleet-sweep",
        "design": next(iter(first.values())).members[0].design,
        "preset": preset,
        "workload": workload,
        "tenants": tenants,
        "device_counts": sorted(next(iter(grid.values()))),
        "placements": list(grid),
        "curve": curve,
    }
    if sample:
        # Key omitted when unsampled so pre-sampling payloads are unchanged.
        payload["sample"] = sample
    first_fleet = next(iter(first.values()))
    if first_fleet.qos:
        # Keys omitted for QoS-free sweeps: pre-QoS payloads unchanged.
        payload["qos"] = first_fleet.qos
    if first_fleet.burst:
        payload["burst"] = first_fleet.burst
    return payload
