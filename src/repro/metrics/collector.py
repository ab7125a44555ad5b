"""Per-run metric collection and the RunResult record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config.ssd_config import NS_PER_S
from repro.errors import SimulationError
from repro.hil.request import IoRequest
from repro.sim.stats import LatencyRecorder, exact_stats_default


@dataclass
class RunResult:
    """Everything one simulation run produces, ready for the figure code.

    ``latency_histogram`` is an optional
    :meth:`~repro.sim.stats.LatencyRecorder.to_payload` snapshot of the
    run's full latency distribution; fleet member runs carry it (via the
    ``export_histogram`` device kwarg) so cross-device percentiles can be
    computed by merging recorders instead of re-simulating.  ``None`` --
    the default -- is omitted from :meth:`to_dict` entirely, keeping
    ordinary results byte-identical to pre-fleet versions.

    ``tenant_histograms`` is the per-tenant analogue (tenant id, as a
    string key, to recorder payload), exported by QoS-bearing fleet
    members (the ``export_tenant_histograms`` device kwarg) so the fleet
    roll-up can chart victim-vs-burst percentiles by merging per-tenant
    recorders across devices.  Same contract: ``None`` is omitted from
    :meth:`to_dict`, keeping QoS-free results byte-identical.
    """

    design: str
    config_name: str
    workload: str
    requests_completed: int
    execution_time_ns: int
    iops: float
    mean_latency_ns: float
    p99_latency_ns: float
    conflict_fraction: float  # fraction of requests that hit a path conflict
    read_fraction: float
    energy_mj: float = 0.0
    average_power_mw: float = 0.0
    latency_cdf: List[Tuple[float, float]] = field(default_factory=list)
    tail_cdf: List[Tuple[float, float]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    latency_histogram: Optional[Dict[str, object]] = None
    tenant_histograms: Optional[Dict[str, Dict[str, object]]] = None

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup in overall execution time over a baseline run (§5)."""
        if self.execution_time_ns <= 0:
            raise SimulationError("run has no execution time")
        return baseline.execution_time_ns / self.execution_time_ns

    def to_dict(self) -> Dict[str, object]:
        """Lossless plain-data form (JSON-safe); ``from_dict`` inverts it.

        The ``latency_histogram`` key appears only when the run exported
        one: omitting the ``None`` default keeps every pre-existing store
        entry and result payload bit-identical to a version of the library
        without fleet support.
        """
        payload: Dict[str, object] = {
            "design": self.design,
            "config_name": self.config_name,
            "workload": self.workload,
            "requests_completed": self.requests_completed,
            "execution_time_ns": self.execution_time_ns,
            "iops": self.iops,
            "mean_latency_ns": self.mean_latency_ns,
            "p99_latency_ns": self.p99_latency_ns,
            "conflict_fraction": self.conflict_fraction,
            "read_fraction": self.read_fraction,
            "energy_mj": self.energy_mj,
            "average_power_mw": self.average_power_mw,
            "latency_cdf": [list(point) for point in self.latency_cdf],
            "tail_cdf": [list(point) for point in self.tail_cdf],
            "extra": dict(self.extra),
        }
        if self.latency_histogram is not None:
            payload["latency_histogram"] = dict(self.latency_histogram)
        if self.tenant_histograms is not None:
            payload["tenant_histograms"] = {
                tenant: dict(histogram)
                for tenant, histogram in self.tenant_histograms.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunResult":
        """Rebuild a result from ``to_dict`` output (e.g. a store entry)."""
        histogram = payload.get("latency_histogram")
        tenant_histograms = payload.get("tenant_histograms")
        return cls(
            design=str(payload["design"]),
            config_name=str(payload["config_name"]),
            workload=str(payload["workload"]),
            requests_completed=int(payload["requests_completed"]),
            execution_time_ns=int(payload["execution_time_ns"]),
            iops=float(payload["iops"]),
            mean_latency_ns=float(payload["mean_latency_ns"]),
            p99_latency_ns=float(payload["p99_latency_ns"]),
            conflict_fraction=float(payload["conflict_fraction"]),
            read_fraction=float(payload["read_fraction"]),
            energy_mj=float(payload["energy_mj"]),
            average_power_mw=float(payload["average_power_mw"]),
            latency_cdf=[tuple(point) for point in payload["latency_cdf"]],
            tail_cdf=[tuple(point) for point in payload["tail_cdf"]],
            extra={str(k): float(v) for k, v in dict(payload["extra"]).items()},
            latency_histogram=dict(histogram) if histogram is not None else None,
            tenant_histograms=(
                {
                    str(tenant): dict(entry)
                    for tenant, entry in dict(tenant_histograms).items()
                }
                if tenant_histograms is not None
                else None
            ),
        )

    def throughput_normalized_to(self, reference: "RunResult") -> float:
        if reference.iops <= 0:
            raise SimulationError("reference run has zero IOPS")
        return self.iops / reference.iops


class MetricsCollector:
    """Accumulates per-request results during a run.

    ``exact_stats`` selects the latency-recorder mode: ``False`` (the
    default) streams samples into O(1)-memory log-bucketed histograms whose
    percentiles/CDF carry the documented 1% relative bound; ``True`` keeps
    every raw sample for bit-exact percentiles.  ``None`` defers to the
    ``VENICE_EXACT_STATS`` environment switch.

    ``track_tenants`` additionally streams each tenant-tagged request's
    latency into a per-tenant recorder (same mode), so QoS-bearing fleet
    members can export per-tenant histograms; off (the default) the tenant
    tag is ignored and results are unchanged.
    """

    def __init__(
        self,
        exact_stats: Optional[bool] = None,
        track_tenants: bool = False,
    ) -> None:
        self.exact_stats = (
            exact_stats_default() if exact_stats is None else bool(exact_stats)
        )
        self.latencies = LatencyRecorder(exact=self.exact_stats)
        self.track_tenants = bool(track_tenants)
        self.tenant_latencies: Dict[int, LatencyRecorder] = {}
        self.requests_completed = 0
        self.reads_completed = 0
        self.conflicted_requests = 0
        self.first_arrival_ns: Optional[int] = None
        self.last_completion_ns: int = 0

    def record_request(self, request: IoRequest) -> None:
        latency = request.latency_ns
        if latency is None:
            raise SimulationError(f"recording incomplete request {request!r}")
        self.requests_completed += 1
        self.latencies.record(latency)
        if self.track_tenants and request.tenant is not None:
            recorder = self.tenant_latencies.get(request.tenant)
            if recorder is None:
                recorder = LatencyRecorder(exact=self.exact_stats)
                self.tenant_latencies[request.tenant] = recorder
            recorder.record(latency)
        if request.is_read:
            self.reads_completed += 1
        if request.path_conflict:
            self.conflicted_requests += 1
        if self.first_arrival_ns is None or request.arrival_ns < self.first_arrival_ns:
            self.first_arrival_ns = request.arrival_ns
        assert request.completed_ns is not None
        if request.completed_ns > self.last_completion_ns:
            self.last_completion_ns = request.completed_ns

    # ------------------------------------------------------------------ #

    @property
    def execution_time_ns(self) -> int:
        """Overall execution time: first arrival to last completion."""
        if self.first_arrival_ns is None:
            return 0
        return self.last_completion_ns - self.first_arrival_ns

    @property
    def iops(self) -> float:
        horizon = self.execution_time_ns
        if horizon <= 0:
            return 0.0
        return self.requests_completed * NS_PER_S / horizon

    @property
    def conflict_fraction(self) -> float:
        if self.requests_completed == 0:
            return 0.0
        return self.conflicted_requests / self.requests_completed

    def finalize(
        self,
        design: str,
        config_name: str,
        workload: str,
        *,
        energy_mj: float = 0.0,
        average_power_mw: float = 0.0,
        with_cdf: bool = False,
        with_histogram: bool = False,
        extra: Optional[Dict[str, float]] = None,
        allow_empty: bool = False,
    ) -> RunResult:
        histogram = self.latencies.to_payload() if with_histogram else None
        # Emitted only when tenant tracking was armed *and* recorded
        # something: QoS-free runs keep the key out of their payloads.
        tenant_histograms = (
            {
                str(tenant): self.tenant_latencies[tenant].to_payload()
                for tenant in sorted(self.tenant_latencies)
            }
            if with_histogram and self.tenant_latencies
            else None
        )
        if self.requests_completed == 0:
            # Zero completions is a simulation bug on a healthy device, but
            # a legitimate outcome of a faulted run where every request
            # blocked on a failed component: ``allow_empty`` produces an
            # all-zero result so failure sweeps can chart a total stall.
            if not allow_empty:
                raise SimulationError("finalize with no completed requests")
            return RunResult(
                design=design,
                config_name=config_name,
                workload=workload,
                requests_completed=0,
                execution_time_ns=0,
                iops=0.0,
                mean_latency_ns=0.0,
                p99_latency_ns=0.0,
                conflict_fraction=0.0,
                read_fraction=0.0,
                energy_mj=energy_mj,
                average_power_mw=average_power_mw,
                extra=dict(extra or {}),
                latency_histogram=histogram,
                tenant_histograms=tenant_histograms,
            )
        return RunResult(
            design=design,
            config_name=config_name,
            workload=workload,
            requests_completed=self.requests_completed,
            execution_time_ns=self.execution_time_ns,
            iops=self.iops,
            mean_latency_ns=self.latencies.mean,
            p99_latency_ns=self.latencies.p99,
            conflict_fraction=self.conflict_fraction,
            read_fraction=(
                self.reads_completed / self.requests_completed
            ),
            energy_mj=energy_mj,
            average_power_mw=average_power_mw,
            latency_cdf=self.latencies.cdf() if with_cdf else [],
            tail_cdf=self.latencies.tail_cdf() if with_cdf else [],
            extra=dict(extra or {}),
            latency_histogram=histogram,
            tenant_histograms=tenant_histograms,
        )
