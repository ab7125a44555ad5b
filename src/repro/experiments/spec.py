"""Canonical run specifications: the unit of experiment orchestration.

A :class:`RunSpec` names everything needed to reproduce one simulation run
-- design, Table 1 preset, workload (trace or mix), experiment scale,
optional geometry override, and device keyword arguments -- as a frozen,
hashable, JSON-round-trippable value.  Because a spec is *declarative* (it
carries names and knobs, never live objects), it can be

* hashed into a stable content digest (:attr:`RunSpec.digest`) that keys the
  result store,
* pickled across process boundaries so the parallel executor rebuilds the
  config and trace inside each worker, and
* deduplicated across figures that share slices of the same
  (design x preset x workload) matrix.

The materialization helpers (``build_config`` / ``trace_for`` / pressure
acceleration) live here too, and so does the spec vocabulary:
:data:`SPEC_CLAUSES` names the string-grammar clauses a spec may carry.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from pathlib import Path

from repro.config.presets import canonical_preset_name, preset_by_name
from repro.config.ssd_config import DesignKind, SsdConfig
from repro.errors import ConfigurationError, WorkloadError
from repro.metrics.collector import RunResult
from repro.sim.checkpoint import WarmupPhase, restore_device, snapshot_device
from repro.sim.convergence import EarlyStopPolicy
from repro.sim.faults import FaultSchedule
from repro.ssd.device import SsdDevice
from repro.ssd.factory import supports_geometry
from repro.workloads.catalog import generate_workload, spec_by_name
from repro.workloads.formats import resolve_trace_path, trace_digest, trace_stem
from repro.workloads.mixes import MIX_CATALOG, generate_mix
from repro.workloads.replay import TraceWorkload
from repro.workloads.synthetic import SyntheticGenerator, WorkloadSpec
from repro.workloads.trace import Trace

#: Workload-name prefix that designates an explicit trace file:
#: ``"trace:/path/to/hm_0.csv"`` anywhere a workload name is accepted.
TRACE_WORKLOAD_PREFIX = "trace:"

# The comparison sets used by the figures.
PRIOR_DESIGNS = (
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
)
ALL_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.VENICE,
    DesignKind.IDEAL,
)

# Scalars a spec may carry in ``device_kwargs``: anything JSON encodes
# canonically.  Live objects would break hashing and cross-process
# rebuilds, so they are rejected at spec construction.
Scalar = Union[bool, int, float, str, None]

# Names a spec may carry in ``device_kwargs``: the device's keyword options
# but the two the spec sets itself (``_build_device``).
_DEVICE_OPTIONS = frozenset(
    name
    for name, option in inspect.signature(SsdDevice).parameters.items()
    if option.kind is option.KEYWORD_ONLY
) - {"queue_pairs", "faults"}


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs so experiments run at paper scale or benchmark scale.

    The array *geometry* (channels x chips) is never scaled -- it determines
    path-conflict behaviour.  Only the per-plane capacity (irrelevant to
    conflicts, hugely relevant to Python runtime) and trace length shrink.
    """

    requests: int = 1200
    requests_per_mix_constituent: int = 400
    blocks_per_plane: int = 64
    pages_per_block: int = 64
    footprint_fraction: float = 0.5
    queue_pairs: int = 4
    seed: int = 42
    # Trace acceleration: enterprise traces are replayed accelerated so the
    # device, not the recorded arrival process, is the bottleneck --
    # execution-time speedups (Figures 4/9/12) only exist under load.
    # ``target_pressure`` is the aggregate demand placed on the baseline's
    # channels (1.0 = exactly the baseline's aggregate channel bandwidth);
    # each trace is compressed in time to meet it, never stretched.  Mixes
    # run hotter, as the paper notes they are ("higher intensity of I/O
    # requests", §5).
    target_pressure: float = 1.6
    mix_target_pressure: float = 1.8
    max_acceleration: float = 256.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError(
                f"requests must be >= 1, got {self.requests}"
            )

    @classmethod
    def benchmark(cls) -> "ExperimentScale":
        """Small scale for pytest-benchmark runs."""
        return cls(
            requests=300,
            requests_per_mix_constituent=120,
            blocks_per_plane=32,
            pages_per_block=32,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Larger scale for standalone reproduction runs."""
        return cls(
            requests=5000,
            requests_per_mix_constituent=1700,
            blocks_per_plane=128,
            pages_per_block=128,
        )

    @classmethod
    def for_requests(cls, requests: int, seed: int = 42) -> "ExperimentScale":
        """The scale the CLI and the service build from requests and seed.

        A mix replays a third of ``requests`` per constituent, at least 50.
        """
        return cls(
            requests=requests,
            requests_per_mix_constituent=max(50, requests // 3),
            seed=seed,
        )


def build_config(preset: str, scale: ExperimentScale) -> SsdConfig:
    """A Table 1 preset at the experiment scale."""
    return preset_by_name(
        preset,
        blocks_per_plane=scale.blocks_per_plane,
        pages_per_block=scale.pages_per_block,
        seed=scale.seed,
    )


def footprint_for(config: SsdConfig, scale: ExperimentScale) -> int:
    usable = int(config.geometry.capacity_bytes * (1.0 - config.over_provisioning))
    return max(1 << 20, int(usable * scale.footprint_fraction))


def channel_pressure(trace: Trace, config: SsdConfig) -> float:
    """Aggregate demand relative to the baseline's total channel bandwidth.

    1.0 means the trace, replayed as recorded, offers exactly as many
    page-transfer nanoseconds per nanosecond as the baseline's channels can
    serve in aggregate.
    """
    page = config.geometry.page_size
    per_page_ns = config.interconnect.channel_transfer_ns(page)
    total_pages = sum(
        (request.size_bytes + page - 1) // page for request in trace.requests
    )
    duration = max(1, trace.duration_ns)
    return total_pages * per_page_ns / (duration * config.geometry.channels)


def accelerate_to_pressure(
    trace: Trace, config: SsdConfig, target: float, max_acceleration: float
) -> Trace:
    """Compress a trace's arrival gaps until it offers ``target`` pressure.

    Traces already at or above the target replay as recorded (never
    stretched); the acceleration factor is capped so ultra-sparse traces
    (e.g. LUN3 at 3.1 ms mean inter-arrival) stay recognisably sparse.
    """
    current = channel_pressure(trace, config)
    if current <= 0 or current >= target:
        return trace
    factor = min(max_acceleration, target / current)
    if factor <= 1.0:
        return trace
    return trace.scaled_arrivals(1.0 / factor, name=trace.name)


def trace_for(
    workload: str,
    config: SsdConfig,
    scale: ExperimentScale,
    *,
    mix: bool = False,
    trace_path: Optional[str] = None,
    trace_options: Mapping[str, Scalar] = (),
) -> Trace:
    """Materialize a spec's workload at the experiment scale.

    With ``trace_path``, replay that file through
    :class:`~repro.workloads.replay.TraceWorkload` (``trace_options`` are
    its replay knobs).  Otherwise generation is pinned to ``"synthetic"``
    rather than ``"auto"``: a spec that recorded no trace file must simulate
    identically whether or not ``VENICE_TRACE_DIR`` is set at execution
    time -- the environment is consulted once, in :func:`make_spec`.
    Pressure acceleration applies identically to both sources.
    """
    footprint = footprint_for(config, scale)
    if mix:
        trace = generate_mix(
            workload,
            count_per_constituent=scale.requests_per_mix_constituent,
            footprint_bytes=footprint,
            seed=scale.seed,
        )
        return accelerate_to_pressure(
            trace, config, scale.mix_target_pressure, scale.max_acceleration
        )
    if trace_path is not None:
        trace = TraceWorkload(
            trace_path, name=workload, **dict(trace_options)
        ).generate(scale.requests, footprint)
    else:
        trace = generate_workload(
            workload,
            count=scale.requests,
            footprint_bytes=footprint,
            seed=scale.seed,
            source="synthetic",
        )
    return accelerate_to_pressure(
        trace, config, scale.target_pressure, scale.max_acceleration
    )


#: The fixed synthetic aging workload a warm-up phase's ``steps`` replay:
#: write-heavy, moderately sized, bursty enough to open blocks across the
#: array.  It is deliberately *not* the spec's measured workload -- warm-up
#: must be workload-independent so every cell of a (design x workload)
#: matrix shares one checkpoint per design.
_WARMUP_WORKLOAD = WorkloadSpec(
    name="checkpoint-warmup",
    read_pct=20.0,
    avg_size_kb=16.0,
    avg_interarrival_us=20.0,
)

#: Scale fields that shape the warmed-up device state.  Request counts and
#: pressure targets only shape the *measured* phase, so they stay out of the
#: checkpoint digest and an entire sweep shares one warm-up per design.
_CHECKPOINT_SCALE_FIELDS = (
    "blocks_per_plane",
    "pages_per_block",
    "footprint_fraction",
    "queue_pairs",
    "seed",
)


def _canonical(grammar, value: object) -> str:
    """``value`` -- a ``grammar`` instance or its grammar string -- in
    canonical form (``grammar.to_spec()``)."""
    if not isinstance(value, grammar):
        value = grammar.parse(value)
    return value.to_spec()


# repro.fleet imports this module, so the fleet grammars load lazily.
def _fleet(value: object) -> str:
    from repro.fleet.member import FleetMember

    return _canonical(FleetMember, value)


def _qos(value: object) -> str:
    from repro.fleet.qos import canonical_qos

    return canonical_qos(value)


#: The string-grammar clauses of a :class:`RunSpec`, each with the
#: canonicaliser that validates it and returns its canonical string (clause
#: order, units, and whitespace never split a digest).  Every clause joins
#: the spec digest, and an empty clause is a strict no-op: it is left out of
#: the canonical payload, so the digests, store entries, and results of
#: specs without it are those of a library without the clause.
SPEC_CLAUSES: Dict[str, Callable[[object], str]] = {
    "faults": partial(_canonical, FaultSchedule),
    "fleet": _fleet,
    "warmup": partial(_canonical, WarmupPhase),
    "early_stop": partial(_canonical, EarlyStopPolicy),
    "qos": _qos,
}


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation run, by value.

    Use :func:`make_spec` rather than the constructor directly: it normalises
    design names, geometry tuples, and device-kwarg ordering so that equal
    runs always compare (and hash, and digest) equal.

    Trace-backed runs carry three extra fields: ``trace_path`` (where the
    file was when the spec was built), ``trace_digest`` (the canonical
    content digest from :func:`repro.workloads.formats.trace_digest`), and
    ``trace_options`` (replay knobs -- ``time_scale``, ``lba_policy``).
    The *content digest and options* enter the spec's identity;
    the *path* does not, so the same trace cached from two locations shares
    one store entry, and a file that changes under a recorded path is
    detected (:meth:`verify_trace`) instead of silently served stale.

    ``mix`` marks a Table 3 mix; :func:`make_spec` sets it from the
    workload name.

    The five clauses of :data:`SPEC_CLAUSES` carry grammar strings in
    canonical form: ``faults`` a fault schedule
    (:class:`~repro.sim.faults.FaultSchedule`, injected in the measured
    phase); ``fleet`` a member descriptor
    (:class:`~repro.fleet.member.FleetMember`), which replays this device's
    dispatcher share of a fleet's tenant traffic instead of the plain
    trace; ``warmup`` a warm-up phase
    (:class:`~repro.sim.checkpoint.WarmupPhase`), so the measured phase
    starts from a checkpointed device state; ``early_stop`` a steady-state
    policy (:class:`~repro.sim.convergence.EarlyStopPolicy`) that may halt
    the measured phase and extrapolate to the full horizon; and ``qos`` a
    dispatcher QoS policy (:func:`repro.fleet.qos.canonical_qos`), which
    requires ``fleet`` because only fleet members have tenants.  Each joins
    the digest, and each is a strict no-op when empty.
    """

    design: str
    preset: str
    workload: str
    scale: ExperimentScale = field(default_factory=ExperimentScale)
    mix: bool = False
    with_cdf: bool = False
    geometry: Optional[Tuple[int, int]] = None  # (channels, chips_per_channel)
    device_kwargs: Tuple[Tuple[str, Scalar], ...] = ()
    trace_path: Optional[str] = None
    trace_digest: Optional[str] = None
    trace_options: Tuple[Tuple[str, Scalar], ...] = ()
    faults: str = ""
    fleet: str = ""
    warmup: str = ""
    early_stop: str = ""
    qos: str = ""

    def __post_init__(self) -> None:
        DesignKind.from_name(self.design)  # validate eagerly
        # Canonicalise preset aliases ('perf' == 'performance-optimized') so
        # identical runs share one digest and therefore one cache entry.
        object.__setattr__(self, "preset", canonical_preset_name(self.preset))
        for key, value in self.device_kwargs:
            if key not in _DEVICE_OPTIONS:
                raise ConfigurationError(
                    f"unknown device kwarg {key!r} (expected one of "
                    f"{', '.join(sorted(_DEVICE_OPTIONS))})"
                )
            if not (value is None or isinstance(value, (bool, int, float, str))):
                raise ConfigurationError(
                    f"device kwarg {key!r} must be a JSON scalar, got "
                    f"{type(value).__name__}"
                )
        for key, value in self.trace_options:
            if not (value is None or isinstance(value, (bool, int, float, str))):
                raise ConfigurationError(
                    f"trace option {key!r} must be a JSON scalar, got "
                    f"{type(value).__name__}"
                )
        if (self.trace_path is None) != (self.trace_digest is None):
            raise ConfigurationError(
                "trace_path and trace_digest must be set together (the "
                "digest is the content identity, the path is how to reach it)"
            )
        if self.trace_path is None and self.trace_options:
            raise ConfigurationError(
                "trace_options require a trace-backed spec"
            )
        if self.mix and self.trace_path is not None:
            raise ConfigurationError(
                "a spec cannot be both a Table 3 mix and a trace replay"
            )
        for name, canonical in SPEC_CLAUSES.items():
            value = getattr(self, name)
            if value:
                object.__setattr__(self, name, canonical(value))
        if self.qos and not self.fleet:
            raise ConfigurationError(
                "qos schedules a fleet's tenant streams; it requires a "
                "fleet member spec (use make_fleet_spec(qos=...))"
            )

    # -- identity ------------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form; ``from_dict`` inverts it losslessly.

        Empty clauses are left out (see :data:`SPEC_CLAUSES`).
        """
        payload: Dict[str, object] = {
            "design": self.design,
            "preset": self.preset,
            "workload": self.workload,
            "scale": asdict(self.scale),
            "mix": self.mix,
            "with_cdf": self.with_cdf,
            "geometry": list(self.geometry) if self.geometry else None,
            "device_kwargs": {key: value for key, value in self.device_kwargs},
            "trace_path": self.trace_path,
            "trace_digest": self.trace_digest,
            "trace_options": {key: value for key, value in self.trace_options},
        }
        for name in SPEC_CLAUSES:
            value = getattr(self, name)
            if value:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (lossless inverse)."""
        geometry = payload.get("geometry")
        trace_path = payload.get("trace_path")
        return cls(
            design=str(payload["design"]),
            preset=str(payload["preset"]),
            workload=str(payload["workload"]),
            scale=ExperimentScale(**payload["scale"]),
            mix=bool(payload["mix"]),
            with_cdf=bool(payload["with_cdf"]),
            geometry=(int(geometry[0]), int(geometry[1])) if geometry else None,
            device_kwargs=tuple(
                sorted((str(k), v) for k, v in dict(payload["device_kwargs"]).items())
            ),
            trace_path=str(trace_path) if trace_path is not None else None,
            trace_digest=(
                str(payload["trace_digest"])
                if payload.get("trace_digest") is not None
                else None
            ),
            trace_options=tuple(
                sorted(
                    (str(k), v)
                    for k, v in dict(payload.get("trace_options") or {}).items()
                )
            ),
            **{name: str(payload.get(name) or "") for name in SPEC_CLAUSES},
        )

    @property
    def digest(self) -> str:
        """Stable content address: sha256 over the canonical JSON form.

        ``trace_path`` is excluded: a trace-backed run is identified by its
        *content* digest (plus replay options), so the same trace replayed
        from different directories -- or different machines -- shares one
        cache entry.
        """
        payload = self.to_dict()
        del payload["trace_path"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def checkpoint_digest(self) -> str:
        """Content address of this spec's warmed-up device state.

        Only the sub-spec that shapes the warm-up enters the digest: design,
        preset, geometry override, device kwargs, the warm-up recipe itself,
        and the scale fields that size the array and seed its RNG streams.
        The *measured* phase -- workload, request counts, pressure targets,
        CDF export, fault schedule (injected at measured-phase start, on a
        pristine fabric during warm-up), fleet descriptor -- is excluded, so
        every cell of a (workload x faults) sweep that shares a design
        reuses one warm-up simulation.  Raises
        :class:`~repro.errors.ConfigurationError` on a spec without a
        warm-up phase.
        """
        if not self.warmup:
            raise ConfigurationError(
                f"{self.label()} declares no warm-up phase"
            )
        scale = asdict(self.scale)
        payload = {
            "design": self.design,
            "preset": self.preset,
            "geometry": list(self.geometry) if self.geometry else None,
            "device_kwargs": {key: value for key, value in self.device_kwargs},
            "warmup": self.warmup,
            "scale": {key: scale[key] for key in _CHECKPOINT_SCALE_FIELDS},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def design_kind(self) -> DesignKind:
        return DesignKind.from_name(self.design)

    def label(self) -> str:
        geometry = f" {self.geometry[0]}x{self.geometry[1]}" if self.geometry else ""
        return f"{self.design}/{self.preset}/{self.workload}{geometry}"

    # -- materialization ------------------------------------------------ #

    def build_config(self) -> SsdConfig:
        config = build_config(self.preset, self.scale)
        if self.geometry is not None:
            config = config.with_geometry(*self.geometry)
        return config

    def build_trace(self, config: Optional[SsdConfig] = None) -> Trace:
        """Materialize this spec's workload (synthetic or trace replay)."""
        config = config or self.build_config()
        return trace_for(
            self.workload,
            config,
            self.scale,
            mix=self.mix,
            trace_path=self.trace_path,
            trace_options=self.trace_options,
        )

    def verify_trace(self) -> None:
        """Check that the recorded trace file is still present and unchanged.

        No-op for synthetic specs.  Raises
        :class:`~repro.errors.WorkloadError` when the file is missing,
        unreadable, or its canonical content digest no longer matches the
        one recorded at spec construction -- a changed file must not be
        served from (or written into) the content-addressed store under the
        old identity.  The executor calls this for every cache-missing spec
        before fanning out to worker processes.
        """
        if self.trace_path is None:
            return
        current = trace_digest(self.trace_path)
        if current != self.trace_digest:
            raise WorkloadError(
                f"trace file {self.trace_path} changed since the spec for "
                f"{self.label()} was built (digest {current[:12]}… != recorded "
                f"{self.trace_digest[:12]}…); rebuild the spec"
            )

    def fleet_requests(self, config: Optional[SsdConfig] = None):
        """This fleet member's dispatched traffic share (may be empty).

        Builds the base workload exactly like :meth:`build_trace` (same
        generators, same pressure acceleration), fans it out across the
        descriptor's tenants, and dispatches through the placement policy,
        keeping only this member's fragments -- see
        :func:`repro.fleet.member.member_requests`.  Raises
        :class:`~repro.errors.ConfigurationError` on a non-fleet spec.
        """
        if not self.fleet:
            raise ConfigurationError(
                f"{self.label()} is not a fleet member spec"
            )
        from repro.fleet.member import FleetMember, member_requests

        config = config or self.build_config()
        base = self.build_trace(config)
        return member_requests(
            FleetMember.parse(self.fleet),
            base,
            footprint_for(config, self.scale),
            self.scale.queue_pairs,
            self.scale.seed,
            qos=self.qos,
        )

    def _build_device(self, config: SsdConfig, *, with_faults: bool) -> SsdDevice:
        """Construct the device this spec describes (geometry-validated)."""
        design = self.design_kind
        if not supports_geometry(design, config):
            raise ConfigurationError(
                f"{self.design} does not support a "
                f"{config.geometry.channels}x{config.geometry.chips_per_channel} array"
            )
        return SsdDevice(
            config,
            design,
            queue_pairs=self.scale.queue_pairs,
            faults=(self.faults or None) if with_faults else None,
            **dict(self.device_kwargs),
        )

    def compute_checkpoint(self) -> Tuple[dict, int]:
        """Simulate this spec's warm-up phase on a throwaway device.

        Returns ``(state, events)``: the canonical device snapshot (see
        :func:`repro.sim.checkpoint.snapshot_device`) and the number of
        engine events the warm-up cost.  The throwaway device is built
        *without* the spec's fault schedule -- faults belong to the
        measured phase (the checkpoint digest excludes them), so a whole
        failure sweep shares one warm image.
        """
        phase = WarmupPhase.parse(self.warmup)
        config = self.build_config()
        device = self._build_device(config, with_faults=False)
        if phase.fill:
            device.precondition(phase.fill)
        if phase.churn:
            device.churn(phase.churn)
        if phase.steps:
            trace = SyntheticGenerator(
                _WARMUP_WORKLOAD, seed=self.scale.seed
            ).generate(phase.steps, footprint_for(config, self.scale))
            device.run_trace(trace.requests, "checkpoint-warmup")
        return snapshot_device(device), device.engine.processed_events

    def execute_instrumented(
        self, state: Optional[dict] = None
    ) -> Tuple[RunResult, Dict[str, object]]:
        """Run the simulation and report how much simulating it took.

        ``state`` is the spec's warm-up snapshot, when the caller has it;
        a warm-up-bearing spec run without one simulates its warm-up
        in-process first.  Returns ``(result, info)`` where ``info``
        records ``events`` (engine events of the measured phase),
        ``warmup_events`` (events spent computing the warm-up in-process;
        0 when ``state`` was given or the spec has no warm-up),
        ``checkpoint_restored``, ``early_stopped``, and
        ``simulated_requests``.  With an empty ``warmup`` and ``early_stop``
        the code path -- and therefore the result -- is exactly the legacy
        exact run.
        """
        config = self.build_config()
        info: Dict[str, object] = {
            "events": 0,
            "warmup_events": 0,
            "checkpoint_restored": state is not None,
            "early_stopped": False,
            "simulated_requests": 0,
        }
        if self.warmup and state is None:
            state, info["warmup_events"] = self.compute_checkpoint()
        device = self._build_device(config, with_faults=True)
        if state is not None:
            restore_device(device, state)
        early_stop = self.early_stop or None
        if self.fleet:
            result = device.run_trace(
                self.fleet_requests(config),
                self.workload,
                with_cdf=self.with_cdf,
                allow_empty=True,
                early_stop=early_stop,
            )
        else:
            trace = self.build_trace(config)
            result = device.run_trace(
                trace.requests,
                trace.name,
                with_cdf=self.with_cdf,
                early_stop=early_stop,
            )
        info["events"] = device.engine.processed_events
        info["early_stopped"] = bool(result.extra.get("early_stop_converged"))
        info["simulated_requests"] = int(
            result.extra.get(
                "early_stop_simulated_requests", result.requests_completed
            )
        )
        return result, info

    def execute(self, state: Optional[dict] = None) -> RunResult:
        """Rebuild config and trace from the spec and run the simulation.

        This is the function the executor workers call: everything is
        reconstructed from the spec's plain values, so a run behaves
        identically whether it executes in-process or in a forked worker.
        Fleet member specs replay their dispatcher share of the fleet's
        tenant traffic instead of the plain workload trace; an empty share
        (more devices than requests) finalizes to an all-zero result.
        ``state`` is the spec's warm-up snapshot, restored instead of
        re-simulating the warm-up (see :meth:`execute_instrumented`).
        """
        return self.execute_instrumented(state)[0]


def make_spec(
    design: Union[DesignKind, str],
    preset: str,
    workload: str,
    scale: Optional[ExperimentScale] = None,
    *,
    with_cdf: bool = False,
    geometry: Optional[Sequence[int]] = None,
    trace: Optional[Union[str, Path]] = None,
    trace_options: Optional[Mapping[str, Scalar]] = None,
    **device_kwargs: object,
) -> RunSpec:
    """Build a normalised :class:`RunSpec` (the preferred constructor).

    Environment-dependent choices are resolved *here*, at spec
    construction, and recorded in the spec (hence in the digest): a
    content-addressed result must not depend on the environment at
    execution time, or a shared cache would serve mismatched results.
    Concretely:

    * a workload named ``trace:<path>`` (or an explicit ``trace=`` path)
      is resolved to its canonical content digest, and the spec's workload
      becomes the file's stem;
    * otherwise, when ``VENICE_TRACE_DIR`` holds a real trace file for the
      workload name, that file's path and digest are recorded, so the run
      replays the real trace; synthetic generation is the fallback.

    A Table 3 mix name (:func:`repro.workloads.mixes.mix_names`) makes the
    spec a mix: it synthesises the published mix, never resolves a trace
    file, and cannot be combined with ``trace=``.  Any other name must be
    a Table 2 trace or a file under ``VENICE_TRACE_DIR``; an unknown name
    raises :class:`~repro.errors.WorkloadError` here, before anything runs.

    ``trace_options`` forwards replay knobs (``time_scale``,
    ``lba_policy``) to :class:`~repro.workloads.replay.TraceWorkload`; they
    participate in the digest.

    A keyword named in :data:`SPEC_CLAUSES` sets that clause from its
    grammar string or grammar object -- for example
    ``faults="0 link (0,1)-(0,2) down"``, ``warmup=WarmupPhase(fill=0.5)``,
    ``early_stop="window 100; min 200"``; ``None`` or empty leaves it
    unset.  Prefer :func:`repro.fleet.spec.make_fleet_spec` for ``fleet``
    and ``qos``: it builds consistent descriptors for every member of a
    fleet.  Every other keyword is a device kwarg.
    """
    clauses = {
        name: device_kwargs.pop(name) or ""
        for name in SPEC_CLAUSES
        if name in device_kwargs
    }
    name = design.value if isinstance(design, DesignKind) else str(design).lower()
    mix = workload in MIX_CATALOG
    if workload.startswith(TRACE_WORKLOAD_PREFIX):
        explicit = workload[len(TRACE_WORKLOAD_PREFIX):]
        if not explicit:
            raise ConfigurationError(
                f"empty trace path in workload name {workload!r}"
            )
        if trace is not None and str(trace) != explicit:
            raise ConfigurationError(
                f"workload {workload!r} and trace={str(trace)!r} disagree"
            )
        trace = explicit
    trace_path: Optional[str] = None
    content_digest: Optional[str] = None
    if trace is not None:
        if mix:
            raise ConfigurationError(
                "a Table 3 mix cannot be trace-backed; replay the file as a "
                "plain workload instead"
            )
        resolved = Path(trace).expanduser()
        trace_path = str(resolved)
        content_digest = trace_digest(resolved)  # raises if unreadable/invalid
        workload = trace_stem(resolved)
    elif not mix:
        found = resolve_trace_path(workload)
        if found is None:
            spec_by_name(workload)  # synthesised, so it must be a Table 2 trace
        else:
            trace_path = str(found)
            content_digest = trace_digest(found)
    return RunSpec(
        design=name,
        preset=preset,
        workload=workload,
        scale=scale or ExperimentScale(),
        mix=mix,
        with_cdf=with_cdf,
        geometry=(int(geometry[0]), int(geometry[1])) if geometry else None,
        device_kwargs=tuple(sorted(device_kwargs.items())),
        trace_path=trace_path,
        trace_digest=content_digest,
        trace_options=tuple(sorted((trace_options or {}).items())),
        **clauses,
    )


def matrix_specs(
    preset: str,
    workloads: Sequence[str],
    scale: ExperimentScale,
    designs: Sequence[DesignKind] = ALL_DESIGNS,
    *,
    geometry: Optional[Sequence[int]] = None,
    **kwargs: object,
) -> Tuple[RunSpec, ...]:
    """The spec set of one (workload x design) matrix slice.

    Designs whose geometry requirements the config violates (pnSSD on a
    non-square array) are skipped, matching the paper's Figure 15 footnote.
    Every other keyword goes to :func:`make_spec` for every spec of the
    slice: one fault schedule (failure sweeps compare designs under
    identical fault sets), one warm-up and early-stop recipe (which lets
    the slice share per-design checkpoints), ``with_cdf``, device kwargs.
    """
    probe = build_config(preset, scale)
    if geometry is not None:
        probe = probe.with_geometry(int(geometry[0]), int(geometry[1]))
    return tuple(
        make_spec(design, preset, workload, scale, geometry=geometry, **kwargs)
        for workload in workloads
        for design in designs
        if supports_geometry(design, probe)
    )
