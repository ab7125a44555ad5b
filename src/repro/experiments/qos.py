"""Multi-tenant QoS isolation sweep: victim tail latency vs. noisy neighbour.

The fleet dispatcher multiplexes per-tenant open-loop streams onto shared
devices; without a QoS policy a single bursting tenant inflates every
other tenant's tail.  This module charts that interference and what each
:mod:`repro.fleet.qos` policy buys back, as one result family:

* **isolation curve** -- the *victim* tenants' p99 (all non-burst tenants'
  per-tenant histograms merged into one recorder) versus the adversarial
  tenant's offered-load multiplier, per fabric x placement x policy.
  Under ``none`` the curve is monotone non-decreasing; under a fair-share
  token bucket it stays bounded; under SLO admission the burst tenant's
  excess is shed outright (visible as fewer completed requests).

Every cell is an ordinary :class:`~repro.fleet.spec.FleetSpec` whose
member specs carry the QoS policy and burst clause in their digests, so
the whole grid executes as a single deduplicated
:func:`~repro.experiments.executor.execute_specs` batch and a warm-store
re-run performs zero simulations.

Calibration note: the replay clock targets ``scale.target_pressure``
(default 1.6; ``scale.mix_target_pressure``, 1.8, for a Table 3 mix),
i.e. devices are deliberately saturated, so a meaningful
token-bucket rate is a tenant's fair share of device *capacity* --
``nominal trace rate / target_pressure`` -- not of the (already
overcommitted) offered rate.  :func:`fair_share_rate` computes it from
the materialized trace; :func:`suggest_token_bucket` turns it into a
canonical policy string.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config.ssd_config import NS_PER_S, DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_specs
from repro.experiments.faults import SWEEP_DESIGNS
from repro.experiments.spec import (
    ExperimentScale,
    build_config,
    trace_for,
)
from repro.fleet.placement import placement_names
from repro.fleet.qos import canonical_qos
from repro.fleet.run import merge_tenant_payloads, roll_up
from repro.fleet.spec import FleetSpec, make_fleet_spec
from repro.sim.stats import LatencyRecorder
from repro.workloads.mixes import MIX_CATALOG

#: Offered-load multipliers of the adversarial tenant (1 = fair share).
DEFAULT_BURST_LEVELS = (1, 2, 4, 8)

#: The tenant that misbehaves; every other tenant is a victim.
DEFAULT_BURST_TENANT = 0

#: Fleet shape of the default sweep: enough devices that placement
#: matters, enough tenants that one bursting stream has three victims.
DEFAULT_DEVICES = 2
DEFAULT_TENANTS = 4

#: The read-dominated Table-2 trace the fleet experiments standardise on.
DEFAULT_WORKLOAD = "hm_0"

#: Token-bucket depth of the suggested policy: deep enough to pass the
#: victims' own arrival bursts, shallow against a sustained 2x+ overload.
DEFAULT_BUCKET_BURST = 16.0

#: SLO admission defaults: a predicted-wait target in the fluid model's
#: terms (see :class:`~repro.fleet.qos.SloAdmissionQos` -- at sweep scale
#: total backlog is bounded, so the target must sit near the achievable
#: wait, not at the paper-scale tail), and the guaranteed admit floor.
DEFAULT_SLO_TARGET_US = 200.0
DEFAULT_SLO_ADMIT = 0.25


def qos_scale(requests: int = 300, seed: int = 42) -> ExperimentScale:
    """The sweep's default scale: long enough streams for stable p99s.

    300 requests per tenant stream x 4 tenants x 2 devices gives each
    cell a few thousand completions, so merged victim histograms resolve
    a p99 without a 240-cell grid taking hours.
    """
    return ExperimentScale(
        requests=requests,
        requests_per_mix_constituent=max(40, requests // 3),
        seed=seed,
    )


def fair_share_rate(
    preset: str,
    workload: str,
    scale: ExperimentScale,
) -> float:
    """One tenant's fair share of device capacity, in requests/second.

    Materializes the accelerated base trace (each tenant replays it at
    nominal rate) and divides its nominal request rate by the pressure it
    was accelerated to -- ``scale.target_pressure``, or
    ``scale.mix_target_pressure`` for a Table 3 mix: the replay clock
    overcommits the device by that factor by design, so the nominal rate
    is *not* sustainable -- capacity is ``nominal / pressure``, and each
    tenant's fair share of it is what a token bucket should meter.
    """
    config = build_config(preset, scale)
    mix = workload in MIX_CATALOG
    trace = trace_for(workload, config, scale, mix=mix)
    requests = trace.requests
    if len(requests) < 2:
        raise ConfigurationError(
            f"workload {workload!r} materializes {len(requests)} requests; "
            "cannot estimate an arrival rate"
        )
    span_ns = requests[-1].arrival_ns - requests[0].arrival_ns
    if span_ns <= 0:
        raise ConfigurationError(
            f"workload {workload!r} has a degenerate arrival span"
        )
    nominal = (len(requests) - 1) * NS_PER_S / span_ns
    return nominal / (
        scale.mix_target_pressure if mix else scale.target_pressure
    )


def suggest_token_bucket(
    preset: str = "performance-optimized",
    workload: str = DEFAULT_WORKLOAD,
    scale: Optional[ExperimentScale] = None,
    *,
    headroom: float = 1.0,
) -> str:
    """A canonical fair-share token-bucket policy for this workload/scale.

    ``headroom`` scales the metered rate (1.0 = exact fair share of
    capacity; values above 1 admit some overload, below 1 leave slack).
    The returned string plugs straight into ``make_fleet_spec(qos=...)``.
    """
    scale = scale or qos_scale()
    rate = fair_share_rate(preset, workload, scale) * float(headroom)
    return canonical_qos(f"token-bucket:{rate:g},{DEFAULT_BUCKET_BURST:g}")


def default_policies(
    preset: str = "performance-optimized",
    workload: str = DEFAULT_WORKLOAD,
    scale: Optional[ExperimentScale] = None,
    *,
    tenants: int = DEFAULT_TENANTS,
    burst_tenant: int = DEFAULT_BURST_TENANT,
) -> Dict[str, str]:
    """The default policy axis: ``{label: canonical policy}``.

    Four entries -- no QoS (the interference baseline), the fair-share
    token bucket from :func:`suggest_token_bucket`, weighted fair
    queueing with the victims weighted 4:1 over the burst tenant, and
    SLO admission at the calibrated sweep-scale target.
    """
    scale = scale or qos_scale()
    weights = ",".join(
        "1" if tenant == burst_tenant else "4" for tenant in range(tenants)
    )
    return {
        "none": "",
        "token-bucket": suggest_token_bucket(preset, workload, scale),
        "wfq": canonical_qos(f"wfq:{weights}"),
        "slo": canonical_qos(
            f"slo:{DEFAULT_SLO_TARGET_US:g},{DEFAULT_SLO_ADMIT:g}"
        ),
    }


def _normalise_policies(
    policies: Union[Mapping[str, str], Sequence[str]],
) -> Dict[str, str]:
    """Canonicalise a policy axis; sequences get derived labels."""
    if isinstance(policies, Mapping):
        items = [(str(label), canonical_qos(spec))
                 for label, spec in policies.items()]
    else:
        items = []
        for spec in policies:
            canonical = canonical_qos(spec)
            label = canonical.split(":", 1)[0] if canonical else "none"
            items.append((label, canonical))
    if not items:
        raise ConfigurationError("sweep needs >= 1 QoS policy")
    out: Dict[str, str] = {}
    for label, canonical in items:
        if label in out and out[label] != canonical:
            raise ConfigurationError(
                f"duplicate policy label {label!r} with different specs"
            )
        out[label] = canonical
    return out


def isolation_specs(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    policies: Mapping[str, str],
    levels: Sequence[float] = DEFAULT_BURST_LEVELS,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
    placements: Optional[Sequence[str]] = None,
    *,
    devices: int = DEFAULT_DEVICES,
    tenants: int = DEFAULT_TENANTS,
    burst_tenant: int = DEFAULT_BURST_TENANT,
) -> Dict[Tuple[str, str, str, float], FleetSpec]:
    """The isolation grid: ``{(placement, policy, design, level): fleet}``.

    Level 1 is the fair-share baseline (no burst clause); every cell
    forces ``export_tenant_histograms`` so the baseline's victim p99 is
    measurable even under ``none`` with no burst.  Levels and placements
    deduplicate in input order.
    """
    placements = list(
        dict.fromkeys(placements if placements is not None
                      else placement_names())
    )
    level_axis = list(dict.fromkeys(float(level) for level in levels))
    if not level_axis or not placements:
        raise ConfigurationError("sweep needs >= 1 burst level and placement")
    if any(level < 1 for level in level_axis):
        raise ConfigurationError(
            f"burst levels must be >= 1, got {level_axis}"
        )
    plan: Dict[Tuple[str, str, str, float], FleetSpec] = {}
    for placement in placements:
        for label, policy in policies.items():
            for design in designs:
                for level in level_axis:
                    burst = (
                        f"{burst_tenant}x{level:g}" if level > 1 else ""
                    )
                    fleet = make_fleet_spec(
                        design,
                        preset,
                        workload,
                        scale,
                        devices=devices,
                        placement=placement,
                        tenants=tenants,
                        qos=policy,
                        burst=burst,
                        export_tenant_histograms=True,
                    )
                    key = (
                        fleet.placement,
                        label,
                        fleet.members[0].design,
                        level,
                    )
                    plan[key] = fleet
    return plan


def _isolation_cell(
    fleet: FleetSpec,
    results,
    level: float,
    burst_tenant: int,
) -> Dict[str, object]:
    """Reduce one fleet cell to its isolation-curve point.

    The victim metric merges every non-burst tenant's recorder into one
    distribution before taking percentiles -- three 300-sample streams
    resolve a p99 where each alone would not.
    """
    members = list(fleet.active_members())
    rolled = roll_up(members, results)
    recorders = merge_tenant_payloads([results[spec] for spec in members])
    victim: Optional[LatencyRecorder] = None
    burst_recorder: Optional[LatencyRecorder] = None
    for tenant, recorder in recorders.items():
        if int(tenant) == burst_tenant:
            burst_recorder = recorder
        elif victim is None:
            victim = recorder
        else:
            victim.merge(recorder)
    cell: Dict[str, object] = {
        "level": level,
        "fleet_digest": fleet.digest,
        "requests_completed": rolled["requests_completed"],
        "aggregate_iops": rolled["aggregate_iops"],
        "fleet_p99_ns": rolled["latency"]["p99_ns"],
        "victim_count": victim.count if victim is not None else 0,
        "victim_mean_ns": victim.mean if victim is not None else 0.0,
        "victim_p50_ns": victim.p(0.50) if victim is not None else 0.0,
        "victim_p99_ns": victim.p99 if victim is not None else 0.0,
        "burst_count": (
            burst_recorder.count if burst_recorder is not None else 0
        ),
        "burst_p99_ns": (
            burst_recorder.p99 if burst_recorder is not None else 0.0
        ),
    }
    return cell


def run_qos_sweep(
    preset: str = "performance-optimized",
    workload: str = DEFAULT_WORKLOAD,
    scale: Optional[ExperimentScale] = None,
    levels: Sequence[float] = DEFAULT_BURST_LEVELS,
    policies: Union[None, Mapping[str, str], Sequence[str]] = None,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
    placements: Optional[Sequence[str]] = None,
    seed: int = 42,
    *,
    devices: int = DEFAULT_DEVICES,
    tenants: int = DEFAULT_TENANTS,
    burst_tenant: int = DEFAULT_BURST_TENANT,
    executor=None,
    store=None,
) -> Dict[str, object]:
    """Execute the isolation sweep and reduce it to curve payloads.

    Returns ``{"curve": {placement: {policy: {design: [cells]}}}}`` plus
    identification: each cell list is ordered by burst level and carries
    the victim/burst per-tenant percentiles from
    :func:`~repro.fleet.run.merge_tenant_payloads`.  The whole grid --
    every fleet's member specs -- executes as **one** deduplicated
    :func:`~repro.experiments.executor.execute_specs` batch, so cells
    sharing members (the no-burst baselines across policies sharing
    ``none``) simulate once and a warm store serves everything without
    simulating.  Byte-identical across serial/parallel execution and
    across warm-cache re-runs.
    """
    if not 0 <= int(burst_tenant) < int(tenants):
        raise ConfigurationError(
            f"burst tenant {burst_tenant} outside [0, {tenants})"
        )
    scale = scale or qos_scale(seed=seed)
    if policies is None:
        policy_axis = default_policies(
            preset, workload, scale,
            tenants=tenants, burst_tenant=burst_tenant,
        )
    else:
        policy_axis = _normalise_policies(policies)
    plan = isolation_specs(
        preset,
        workload,
        scale,
        policy_axis,
        levels,
        designs,
        placements,
        devices=devices,
        tenants=tenants,
        burst_tenant=burst_tenant,
    )
    all_specs = [
        spec for fleet in plan.values() for spec in fleet.active_members()
    ]
    results = execute_specs(all_specs, executor=executor, store=store)

    curve: Dict[str, Dict[str, Dict[str, List[Dict[str, object]]]]] = {}
    for (placement, label, design, level) in plan:
        fleet = plan[(placement, label, design, level)]
        cell = _isolation_cell(fleet, results, level, burst_tenant)
        (
            curve.setdefault(placement, {})
            .setdefault(label, {})
            .setdefault(design, [])
            .append(cell)
        )
    for per_policy in curve.values():
        for per_design in per_policy.values():
            for cells in per_design.values():
                cells.sort(key=lambda cell: cell["level"])

    placements_out = list(dict.fromkeys(key[0] for key in plan))
    designs_out = list(dict.fromkeys(key[2] for key in plan))
    return {
        "experiment": "qos-sweep",
        "preset": preset,
        "workload": workload,
        "seed": seed,
        "devices": devices,
        "tenants": tenants,
        "burst_tenant": burst_tenant,
        "levels": sorted({key[3] for key in plan}),
        "policies": dict(policy_axis),
        "designs": designs_out,
        "placements": placements_out,
        "curve": curve,
    }
