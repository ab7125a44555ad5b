"""Fleet specifications: N member run specs behind one content address.

A :class:`FleetSpec` is to a fleet what a
:class:`~repro.experiments.spec.RunSpec` is to a single device: a frozen,
declarative value naming everything needed to reproduce the whole
multi-SSD run.  It is deliberately *thin*: all the simulation identity
lives in the member ``RunSpec``\\ s (each of which carries its fleet
member descriptor -- shape, tenants, placement -- in its own digest), and
the fleet digest is simply the content-address of the ordered member
digests plus the placement policy and tenant count.  Consequences:

* member devices are ordinary specs, so they deduplicate, fan out across
  ``--jobs`` worker processes, and persist in the ordinary
  content-addressed result store -- a warm-cache fleet re-run performs
  zero simulations;
* traces and fault schedules compose for free: a member spec may be
  trace-backed or carry a fault schedule like any other spec (kill one
  device's links mid-run and watch the fleet p99 move).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentScale, RunSpec, Scalar, make_spec
from repro.fleet.member import FleetMember, canonical_burst
from repro.fleet.placement import canonical_placement
from repro.fleet.qos import canonical_qos
from repro.sim.faults import FaultSchedule
from repro.sim.rng import DeterministicRng


def sample_member_indices(devices: int, sample: int, seed: int) -> Tuple[int, ...]:
    """Stratified member sample: one representative per contiguous stratum.

    The device order is split into ``sample`` equal-width strata and one
    member is drawn uniformly from each, so the sample spans the placement
    order (round-robin shards, tenant assignments) instead of clustering.
    Deterministic in ``seed`` via the ``"fleet-sample"`` RNG stream --
    the same fleet spec always simulates the same representatives.
    """
    if not 1 <= sample <= devices:
        raise ConfigurationError(
            f"sample must be in [1, {devices}], got {sample}"
        )
    rng = DeterministicRng(seed, stream="fleet-sample")
    indices = []
    for stratum in range(sample):
        lo = stratum * devices // sample
        hi = (stratum + 1) * devices // sample
        indices.append(lo + rng.randint(0, hi - lo - 1))
    return tuple(indices)


@dataclass(frozen=True)
class FleetSpec:
    """One fully-specified fleet run, by value.

    ``members`` are the per-device :class:`~repro.experiments.spec.RunSpec`\\ s
    in device order (mixed designs/presets allowed).  Each member carries
    the fleet's shape in its descriptor and the dispatcher QoS policy in
    its ``qos`` field, so :attr:`placement`, :attr:`tenants`,
    :attr:`burst` and :attr:`qos` are read off the first member rather
    than stored twice.  Use :func:`make_fleet_spec` rather than the
    constructor: it builds consistent member descriptors and validates
    the shape.
    """

    members: Tuple[RunSpec, ...]
    #: Simulate only this many stratified representative members (0 = all).
    sample: int = 0

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a fleet needs at least one member")
        if self.sample < 0 or self.sample > len(self.members):
            raise ConfigurationError(
                f"sample must be in [0, {len(self.members)}], "
                f"got {self.sample}"
            )

    @cached_property
    def _descriptor(self) -> FleetMember:
        """The first member's descriptor; every member shares its shape."""
        return FleetMember.parse(self.members[0].fleet)

    @property
    def placement(self) -> str:
        """Canonical placement policy of the dispatcher."""
        return self._descriptor.placement

    @property
    def tenants(self) -> int:
        """Number of tenant streams fanned out over the fleet."""
        return self._descriptor.tenants

    @property
    def burst(self) -> str:
        """Canonical adversarial burst clause (empty = fair share)."""
        return self._descriptor.burst

    @property
    def qos(self) -> str:
        """Canonical dispatcher QoS policy (empty = arrival order)."""
        return self.members[0].qos

    @property
    def devices(self) -> int:
        """Number of member devices."""
        return len(self.members)

    @property
    def digest(self) -> str:
        """Content address: sha256 over member digests + placement + tenants.

        Any change to any member (design, preset, workload, scale, faults,
        trace content, fleet shape) or to the dispatch policy changes the
        fleet digest; two fleets built from identical parts share one.
        """
        payload = {
            "members": [member.digest for member in self.members],
            "placement": self.placement,
            "tenants": self.tenants,
        }
        if self.sample:
            # Key omitted when 0 so pre-sampling digests are unchanged.
            payload["sample"] = self.sample
        if self.qos:
            # Keys omitted when empty so pre-QoS digests are unchanged.
            payload["qos"] = self.qos
        if self.burst:
            payload["burst"] = self.burst
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def sampled_indices(self) -> Tuple[int, ...]:
        """Member indices the sampled mode simulates (all when exact)."""
        if not self.sample or self.sample >= self.devices:
            return tuple(range(self.devices))
        return sample_member_indices(
            self.devices, self.sample, self.members[0].scale.seed
        )

    def active_members(self) -> Tuple[RunSpec, ...]:
        """The member specs actually simulated under the sampling knob."""
        return tuple(self.members[index] for index in self.sampled_indices())

    def label(self) -> str:
        """Human-readable one-line description of the fleet."""
        unique = list(dict.fromkeys(member.design for member in self.members))
        if len(unique) == 1:
            designs = unique[0]
        else:
            designs = ",".join(member.design for member in self.members)
        sampled = f" sample={self.sample}" if self.sample else ""
        qos = f" qos={self.qos}" if self.qos else ""
        burst = f" burst={self.burst}" if self.burst else ""
        return (
            f"fleet[{self.devices}x({designs})] "
            f"{self.placement} tenants={self.tenants}{sampled}{qos}{burst}"
        )


def make_fleet_spec(
    designs: Union[str, DesignKind, Sequence[Union[str, DesignKind]]],
    preset: str,
    workload: str,
    scale: Optional[ExperimentScale] = None,
    *,
    devices: Optional[int] = None,
    placement: str = "round-robin",
    tenants: int = 1,
    sample: int = 0,
    qos: str = "",
    burst: str = "",
    trace: Optional[str] = None,
    trace_options: Optional[Mapping[str, Scalar]] = None,
    faults: Union[
        None,
        Mapping[int, Union[str, FaultSchedule]],
        Sequence[Union[str, FaultSchedule, None]],
    ] = None,
    **device_kwargs: Scalar,
) -> FleetSpec:
    """Build a normalised :class:`FleetSpec` (the preferred constructor).

    ``designs`` is either one design (replicated across ``devices``
    members, default 1) or an explicit per-member sequence (mixed fabrics
    allowed; ``devices``, if also given, must agree).  All members share
    ``preset``, ``workload``, ``scale``, and ``device_kwargs``; per-member
    *fault schedules* come from ``faults`` -- a ``{member_index: schedule}``
    mapping or a per-member sequence -- so a degraded device can sit inside
    an otherwise healthy fleet.  Every member spec automatically carries
    ``export_histogram=True`` (the roll-up merges per-device latency
    histograms) and its fleet member descriptor.

    ``sample=K`` (0 = exact) asks fleet execution to simulate only K
    stratified representative members and extrapolate fleet totals from
    them with confidence intervals -- see
    :func:`~repro.fleet.run.roll_up`.  The full member list is still
    built (identity and digests cover every device); sampling is an
    execution-time projection, so ``sample=0`` is bit-identical to fleets
    built before the knob existed.

    ``qos`` names a dispatcher QoS policy
    (:func:`~repro.fleet.qos.canonical_qos` grammar) and ``burst`` an
    adversarial burst clause (``<tenant>x<factor>``, folded into every
    member descriptor).  Either being set automatically arms
    ``export_tenant_histograms`` on every member (overridable through
    ``device_kwargs``), so the roll-up can chart per-tenant percentiles.
    Both empty -- the default -- is a strict no-op: descriptors, member
    digests, the fleet digest, and results are byte-identical to a fleet
    built before QoS existed.
    """
    if isinstance(designs, (str, DesignKind)):
        count = 1 if devices is None else int(devices)
        member_designs = [designs] * count
    else:
        member_designs = list(designs)
        if devices is not None and int(devices) != len(member_designs):
            raise ConfigurationError(
                f"devices={devices} disagrees with {len(member_designs)} "
                "explicit member designs"
            )
    if not member_designs:
        raise ConfigurationError("a fleet needs at least one member")
    count = len(member_designs)

    member_faults: list = [None] * count
    if faults is not None:
        if isinstance(faults, Mapping):
            for index, schedule in faults.items():
                if not 0 <= int(index) < count:
                    raise ConfigurationError(
                        f"fault schedule for member {index} outside fleet "
                        f"of {count}"
                    )
                member_faults[int(index)] = schedule
        else:
            if len(faults) != count:
                raise ConfigurationError(
                    f"{len(faults)} fault schedules for {count} members"
                )
            member_faults = list(faults)

    placement = canonical_placement(placement)
    qos = canonical_qos(qos)
    burst = canonical_burst(burst, tenants)
    if (qos or burst) and "export_tenant_histograms" not in device_kwargs:
        # Per-tenant roll-ups are the point of a QoS/burst fleet; arm the
        # export unless the caller explicitly decided otherwise.  The kwarg
        # is digest-joining, and QoS-free fleets never reach this branch,
        # so their digests are unchanged.
        device_kwargs["export_tenant_histograms"] = True
    members = tuple(
        make_spec(
            design,
            preset,
            workload,
            scale,
            trace=trace,
            trace_options=trace_options,
            faults=member_faults[index],
            fleet=FleetMember(
                index=index,
                devices=count,
                tenants=tenants,
                placement=placement,
                burst=burst,
            ),
            qos=qos,
            export_histogram=True,
            **device_kwargs,
        )
        for index, design in enumerate(member_designs)
    )
    return FleetSpec(members=members, sample=int(sample))
