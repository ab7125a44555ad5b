"""The simulated SSD device: end-to-end request service.

Assembles the full stack -- NVMe queue pairs, FTL, transaction pipeline over
the selected fabric, garbage collector, wear leveler, metrics, and energy
accounting -- and replays workload traces against it.

Dispatch model: the host rings a doorbell after posting to a submission
queue; the device fetches round-robin across queues while its outstanding
request count is below the device queue depth, and re-dispatches whenever a
request completes.  Each request fans out into per-page flash transactions
serviced concurrently (that concurrency is what exposes path conflicts).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Union

from repro.config.ssd_config import NS_PER_S, DesignKind, SsdConfig
from repro.errors import ConfigurationError, GarbageCollectionError
from repro.controller.ecc import EccEngine
from repro.controller.pipeline import TransactionPipeline
from repro.ftl.allocator import AllocationStrategy
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GarbageCollector
from repro.ftl.wear_leveling import WearLeveler
from repro.hil.host import TraceReplayHost
from repro.hil.nvme import NvmeQueuePair
from repro.hil.request import IoRequest
from repro.metrics.collector import MetricsCollector, RunResult
from repro.nand.array import FlashArray
from repro.power.models import EnergyAccountant, EnergyBreakdown, PowerModel
from repro.sim.convergence import ConvergenceMonitor, EarlyStopPolicy
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultSchedule, FaultSink
from repro.ssd.factory import build_fabric


class _DeviceFaultSink(FaultSink):
    """Routes injected fault transitions to the owning device component."""

    __slots__ = ("device",)

    def __init__(self, device: "SsdDevice") -> None:
        self.device = device

    def on_link_fault(self, a, b, down: bool) -> None:
        self.device.fabric.apply_link_fault(a, b, down)

    def on_router_fault(self, node, down: bool) -> None:
        self.device.fabric.apply_router_fault(node, down)

    def on_die_fault(self, channel: int, way: int, die: int, down: bool) -> None:
        self.device.array.set_die_failed(channel, way, die, down)

    def on_ecc_burst_start(self, rate: float) -> None:
        self.device.ecc.begin_burst(rate)

    def on_ecc_burst_end(self) -> None:
        self.device.ecc.end_burst()


class SsdDevice:
    """One simulated SSD instance (single-use: one trace per device)."""

    def __init__(
        self,
        config: SsdConfig,
        design: DesignKind,
        *,
        queue_pairs: int = 4,
        enable_wear_leveling: bool = False,
        allocation: AllocationStrategy = AllocationStrategy.CWDP,
        faults: Optional[Union[str, FaultSchedule]] = None,
        export_histogram: bool = False,
        export_tenant_histograms: bool = False,
        over_provisioning: Optional[float] = None,
        gc_threshold_free_fraction: Optional[float] = None,
        gc_stop_free_fraction: Optional[float] = None,
    ) -> None:
        # FTL knob overrides ride the spec's device_kwargs (digest-joining);
        # every override None leaves the config object -- and therefore every
        # digest and result -- exactly as before the knobs existed.
        config = config.with_ftl_knobs(
            over_provisioning=over_provisioning,
            gc_threshold_free_fraction=gc_threshold_free_fraction,
            gc_stop_free_fraction=gc_stop_free_fraction,
        )
        self.config = config
        self.design = design
        self.engine = Engine()
        self.array = FlashArray(self.engine, config)
        self.fabric = build_fabric(self.engine, config, design)
        self.ecc = EccEngine(config.ecc_latency_ns, seed=config.seed)
        self.pipeline = TransactionPipeline(
            self.engine, config, self.array, self.fabric, ecc=self.ecc
        )
        self.ftl = Ftl(config, self.array, strategy=allocation)
        self.gc = GarbageCollector(
            self.engine, config, self.array, self.ftl.mapping,
            self.ftl.allocator, self.pipeline,
        )
        self.wear_leveler = WearLeveler(
            self.engine, self.array, self.ftl.mapping,
            self.ftl.allocator, self.pipeline,
            enabled=enable_wear_leveling,
        )
        self.queues: List[NvmeQueuePair] = [
            NvmeQueuePair(queue_id, depth=config.queue_depth * 4)
            for queue_id in range(max(1, queue_pairs))
        ]
        self.metrics = MetricsCollector(track_tenants=bool(export_tenant_histograms))
        # Fleet roll-ups merge per-device latency distributions: with
        # export_histogram the RunResult carries the recorder's payload
        # (omitted otherwise, keeping ordinary results byte-identical).
        # export_tenant_histograms additionally exports one recorder per
        # tenant of the fleet fan-out, for QoS victim/burst roll-ups.
        self.export_histogram = bool(export_histogram)
        self.export_tenant_histograms = bool(export_tenant_histograms)
        self.energy_accountant = EnergyAccountant(PowerModel())
        self._outstanding = 0
        self._next_queue = 0
        # Steady-state early-stop (armed per run_trace call): when the
        # monitor declares convergence the device stops fetching; in-flight
        # requests drain and the host stops submitting.
        self._monitor: Optional[ConvergenceMonitor] = None
        self._halted = False
        self._max_write_stall_retries = 1000
        self._write_stall_pause_ns = 200_000  # 0.2 ms per GC-throttle pause
        # Write-cliff telemetry: how often host writes stalled on allocation
        # and for how much simulated time (the "GC stall time" extra).
        self.write_stalls = 0
        self.write_stall_ns = 0
        # Fault injection: an empty schedule is a strict no-op (no injector
        # is armed, no fault metrics are emitted, results are bit-identical
        # to a device constructed without the argument).
        if isinstance(faults, str):
            faults = FaultSchedule.parse(faults)
        self.faults = faults if faults is not None else FaultSchedule()
        self._validate_faults()
        self.fault_injector: Optional[FaultInjector] = None

    def _validate_faults(self) -> None:
        """Bounds-check every fault target against this device's geometry."""
        geometry = self.config.geometry
        rows, cols = self.config.mesh_rows, self.config.mesh_cols
        for event in self.faults:
            if event.link is not None:
                for node in event.link:
                    if not (0 <= node[0] < rows and 0 <= node[1] < cols):
                        raise ConfigurationError(
                            f"fault link endpoint {node} outside the "
                            f"{rows}x{cols} chip grid"
                        )
            if event.node is not None:
                if not (0 <= event.node[0] < rows and 0 <= event.node[1] < cols):
                    raise ConfigurationError(
                        f"fault router {event.node} outside the "
                        f"{rows}x{cols} chip grid"
                    )
            if event.die is not None:
                channel, way, die = event.die
                if not (
                    0 <= channel < geometry.channels
                    and 0 <= way < geometry.chips_per_channel
                    and 0 <= die < geometry.dies_per_chip
                ):
                    raise ConfigurationError(
                        f"fault die {channel}.{way}.{die} outside the "
                        f"{geometry.channels}x{geometry.chips_per_channel}x"
                        f"{geometry.dies_per_chip} array"
                    )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def on_doorbell(self) -> None:
        """Host posted new work (or a request finished): try to dispatch."""
        if self._halted:
            return
        while self._outstanding < self.config.queue_depth:
            request = self._fetch_round_robin()
            if request is None:
                return
            self._outstanding += 1
            # Static process name: per-request f-strings are pure allocation
            # on the dispatch hot path (request identity lives on the
            # IoRequest itself).
            self.engine.process(self._serve(request), name="serve")

    def _fetch_round_robin(self) -> Optional[IoRequest]:
        for offset in range(len(self.queues)):
            queue = self.queues[(self._next_queue + offset) % len(self.queues)]
            request = queue.fetch()
            if request is not None:
                self._next_queue = (self._next_queue + offset + 1) % len(self.queues)
                return request
        return None

    def _serve(self, request: IoRequest) -> Generator:
        transactions = None
        stall_retries = 0
        while transactions is None:
            try:
                if request.is_read:
                    transactions = self.ftl.translate_read(
                        request.offset_bytes, request.size_bytes
                    )
                else:
                    transactions = self.ftl.translate_write(
                        request.offset_bytes, request.size_bytes
                    )
            except GarbageCollectionError:
                # Write cliff: no host-allocatable page anywhere.  A real
                # FTL throttles the host while garbage collection frees
                # space; kick GC on every plane and retry after a pause.
                stall_retries += 1
                if stall_retries > self._max_write_stall_retries:
                    raise
                for plane in range(self.ftl.allocator.plane_count()):
                    self.gc.maybe_trigger(plane, force=True)
                self.write_stalls += 1
                self.write_stall_ns += self._write_stall_pause_ns
                yield self._write_stall_pause_ns

        processes = [
            self.engine.process(self.pipeline.service(transaction), name="txn")
            for transaction in transactions
        ]
        for process in processes:
            yield process

        for transaction in transactions:
            if transaction.path_conflict:
                request.path_conflict = True

        request.completed_ns = self.engine.now
        self.metrics.record_request(request)
        if (self._monitor is not None and not self._halted
                and self._monitor.observe()):
            self._halted = True
        self._outstanding -= 1

        for plane_flat in self.ftl.planes_touched_by(transactions):
            self.gc.maybe_trigger(plane_flat)
        self.wear_leveler.maybe_trigger()
        self.on_doorbell()

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def precondition(self, fill_fraction: float) -> int:
        """Timing-free fill of the logical space before replay."""
        return self.ftl.precondition(fill_fraction)

    def churn(self, churn_fraction: float) -> int:
        """Timing-free overwrite of a fraction of the preconditioned pages.

        The warm-up churn stage (see :class:`~repro.sim.checkpoint.WarmupPhase`):
        spreads invalid pages across closed blocks so the measured phase
        starts in GC steady state.  Seeded by the device config, like every
        other deterministic stream.
        """
        return self.ftl.churn(churn_fraction, seed=self.config.seed)

    def run_trace(
        self,
        requests: Sequence[IoRequest],
        workload_name: str = "trace",
        *,
        with_cdf: bool = False,
        allow_empty: bool = False,
        early_stop: Optional[Union[str, EarlyStopPolicy]] = None,
    ) -> RunResult:
        """Replay a trace to completion and return the run's metrics.

        With a non-empty fault schedule the injector is armed before replay
        (fault events interleave deterministically with I/O events) and the
        result's ``extra`` dict gains the fault telemetry keys
        (``requests_stalled``, ``blocked_transfers``, ``degraded_die_ops``,
        ``ecc_decode_retries``, ``ecc_uncorrectable``, ``fault_events``);
        a run in which every request stalled finalizes to an all-zero
        result instead of raising.  Sustained-write telemetry
        (``host_pages_written``, ``gc_pages_written``, ``gc_invocations``,
        ``gc_erases``, ``gc_write_stalls``, ``gc_stall_ns``,
        ``write_amplification``, ``wear_erase_min/max/mean``,
        ``wear_migrations``) appears in ``extra`` only when garbage
        collection actually collected, wear leveling is armed, or a host
        write stalled -- read-dominated runs keep their historical key
        set.  ``allow_empty`` extends the all-zero
        outcome to an empty (or fully-stalled) request list on a healthy
        device -- fleet members whose dispatcher share is empty use it.

        ``early_stop`` arms a steady-state convergence monitor (policy
        grammar or :class:`~repro.sim.convergence.EarlyStopPolicy`): once
        the streaming p50/p99 quantiles stabilise, replay halts and
        throughput, execution time, and energy are extrapolated to the
        full request list (quantiles are reported from the simulated
        prefix unscaled).  The result gains
        ``extra["early_stop_simulated_requests"]`` /
        ``extra["early_stop_converged"]`` recording the truth.  Note that
        under faults the ``requests_stalled`` telemetry counts the
        *unsimulated* tail as stalled; exact runs are authoritative for
        that counter.  ``None`` is a strict no-op (exact replay).
        """
        for request in requests:
            request.reset_service_state()
        if self.faults:
            self.fault_injector = FaultInjector(
                self.engine, self.faults, _DeviceFaultSink(self)
            )
            self.fault_injector.arm()
        monitor: Optional[ConvergenceMonitor] = None
        stop = None
        if early_stop is not None:
            policy = (
                EarlyStopPolicy.parse(early_stop)
                if isinstance(early_stop, str)
                else early_stop
            )
            monitor = ConvergenceMonitor(policy, self.metrics.latencies)
            self._monitor = monitor
            self._halted = False
            stop = lambda: self._halted  # noqa: E731 - engine-polled closure
        host = TraceReplayHost(self.engine, self.queues, self.on_doorbell)
        self.engine.process(host.replay(requests, stop=stop), name="host-replay")
        self.engine.run()
        energy = self._account_energy()
        extra = {
            "fabric_transfers": float(self.fabric.stats.transfers),
            "fabric_conflicted": float(self.fabric.stats.conflicted_transfers),
            "gc_blocks_reclaimed": float(self.gc.blocks_reclaimed),
            "gc_pages_migrated": float(self.gc.pages_migrated),
            "scout_attempts": float(self.fabric.stats.scout_attempts_total),
            "scout_failures": float(self.fabric.stats.scout_failures_total),
        }
        if self.gc.invocations or self.wear_leveler.enabled or self.write_stalls:
            # Sustained-write telemetry, emitted only when the write
            # machinery actually engaged (GC collected, wear leveling is
            # armed, or a host write stalled on allocation) so read-
            # dominated runs stay byte-identical to their historical form.
            wear = self.wear_leveler.wear_stats()
            host_pages = float(self.ftl.host_writes)
            internal_pages = float(
                self.gc.pages_written + self.wear_leveler.migrations
            )
            extra.update(
                {
                    "host_pages_written": host_pages,
                    "gc_pages_written": float(self.gc.pages_written),
                    "gc_invocations": float(self.gc.invocations),
                    "gc_erases": float(self.gc.erases_issued),
                    "gc_write_stalls": float(self.write_stalls),
                    "gc_stall_ns": float(self.write_stall_ns),
                    "write_amplification": (
                        (host_pages + internal_pages) / host_pages
                        if host_pages
                        else 1.0
                    ),
                    "wear_erase_min": float(wear.minimum),
                    "wear_erase_max": float(wear.maximum),
                    "wear_erase_mean": float(wear.mean),
                    "wear_migrations": float(self.wear_leveler.migrations),
                }
            )
        if self.faults:
            extra.update(
                {
                    "fault_events": float(len(self.faults)),
                    "requests_stalled": float(
                        len(requests) - self.metrics.requests_completed
                    ),
                    "blocked_transfers": float(self.fabric.stats.blocked_transfers),
                    "degraded_die_ops": float(self.pipeline.degraded_ops),
                    "ecc_decode_retries": float(self.ecc.decode_retries),
                    "ecc_uncorrectable": float(self.ecc.uncorrectable),
                }
            )
        result = self.metrics.finalize(
            design=self.design.value,
            config_name=self.config.name,
            workload=workload_name,
            energy_mj=energy.total_mj,
            average_power_mw=energy.average_power_mw(self.metrics.execution_time_ns),
            with_cdf=with_cdf,
            with_histogram=self.export_histogram,
            extra=extra,
            allow_empty=bool(self.faults) or allow_empty,
        )
        if monitor is not None:
            result = self._extrapolate(result, len(requests), monitor)
        return result

    def _extrapolate(
        self, result: RunResult, total_requests: int,
        monitor: ConvergenceMonitor,
    ) -> RunResult:
        """Scale an early-stopped result to the requested horizon.

        Throughput-like quantities (completions, execution time, energy)
        scale linearly in steady state; latency quantiles, means, and
        derived ratios are left as measured on the simulated prefix --
        steady state is precisely the regime where they have stopped
        moving.  The simulated truth stays observable in ``extra``.
        """
        simulated = result.requests_completed
        result.extra["early_stop_simulated_requests"] = float(simulated)
        result.extra["early_stop_converged"] = float(monitor.converged)
        if not monitor.converged or simulated <= 0:
            return result
        if total_requests > simulated:
            factor = total_requests / simulated
            result.execution_time_ns = int(
                round(result.execution_time_ns * factor)
            )
            result.energy_mj *= factor
            result.requests_completed = total_requests
            if result.execution_time_ns > 0:
                result.iops = (
                    total_requests * NS_PER_S / result.execution_time_ns
                )
        return result

    def _account_energy(self) -> EnergyBreakdown:
        timings = self.config.timings
        return self.energy_accountant.account(
            reads=self.pipeline.reads_completed,
            programs=self.pipeline.programs_completed,
            erases=self.pipeline.erases_completed,
            read_ns=timings.read_ns,
            program_ns=timings.program_ns,
            erase_ns=timings.erase_ns,
            fabric_stats=self.fabric.stats,
            execution_time_ns=max(1, self.metrics.execution_time_ns),
        )
