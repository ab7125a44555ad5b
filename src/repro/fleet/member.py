"""Fleet member descriptors and the tenant traffic fan-out.

A *fleet member descriptor* is the canonical string a member
:class:`~repro.experiments.spec.RunSpec` carries in its ``fleet`` field
(and therefore in its content digest).  It names everything a worker
process needs to rebuild, **independently and deterministically**, this
device's share of the fleet's traffic:

``member <index>/<devices>; tenants <T>; placement <policy>[; burst <t>x<F>]``

The optional ``burst`` clause marks tenant ``t`` as an *adversarial burst
tenant*: it offers ``F`` times its fair share (``F x`` the request count,
arrival gaps compressed ``F x``, so its stream spans the same wall-clock
window at ``F x`` the rate) while every other tenant is untouched.  A
factor of 1 canonicalises to the empty clause, so burst-free descriptors
-- and therefore every pre-burst member digest -- are unchanged.

Traffic model (open loop): the spec's ordinary workload -- a Table 2
trace, a Table 3 mix, or a replayed real trace, *after* the usual pressure
acceleration -- becomes the per-tenant arrival pattern.  Each of the ``T``
tenants replays a rotated slice of that base pattern (gaps preserved,
wrapped cyclically when a tenant needs more requests than the base holds),
shifted by a seeded per-tenant phase and remapped into the tenant's
private slice of the global fleet address space (``devices x footprint``
bytes).  The merged stream is dispatched by the placement policy; this
member keeps its fragments and folds their offsets into its own footprint.

Scaling invariants:

* total fleet traffic is ``devices x len(base)`` requests, so per-device
  load matches a single-device run of the same spec at any fleet size;
* a one-device, one-tenant, round-robin member is the identity transform:
  its request list is bit-identical to the base trace (regression-tested),
  so a single-device fleet reproduces the plain run exactly;
* tenants whose share rounds to zero requests simply contribute nothing
  (thousands of tenants over a small request budget is legal), and a
  member whose dispatch share is empty yields an all-zero result.

Every quantity above is a pure function of (descriptor, spec workload,
scale, seed): no execution-time environment, no cross-member
communication.  That is what lets fleet members fan out across ``--jobs``
worker processes and share the content-addressed result store.

The dispatch itself is the same for every member of a fleet, so a process
computes it once: the first member to ask splits the whole stream into
per-device shares, a process-wide memo keeps them for the one fleet, and
each member call builds fresh requests from its own share.
"""

from __future__ import annotations

import re
import threading
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fleet.placement import build_placement, canonical_placement
from repro.fleet.qos import build_qos
from repro.hil.request import IoKind, IoRequest
from repro.sim.rng import DeterministicRng
from repro.workloads.trace import Trace

_MEMBER_RE = re.compile(
    r"^\s*member\s+(\d+)\s*/\s*(\d+)\s*;"
    r"\s*tenants\s+(\d+)\s*;"
    r"\s*placement\s+(\S+?)\s*"
    r"(?:;\s*burst\s+(\S+)\s*)?$",
    re.IGNORECASE,
)

_BURST_RE = re.compile(r"^\s*(\d+)\s*x\s*([0-9.]+)\s*$", re.IGNORECASE)


def canonical_burst(text: str, tenants: int) -> str:
    """Normalise a burst clause (``<tenant>x<factor>``) to canonical form.

    A factor of 1 -- the fair share -- canonicalises to the empty string,
    the strict no-op, so burst-free descriptors keep pre-burst digests.
    The tenant index must name one of the fleet's ``tenants`` and the
    factor must be >= 1 (bursts amplify; use fewer tenants to shrink).
    """
    raw = text.strip()
    if not raw:
        return ""
    match = _BURST_RE.match(raw)
    if match is None:
        raise ConfigurationError(
            f"bad burst clause {text!r}; expected '<tenant>x<factor>'"
        )
    tenant = int(match.group(1))
    try:
        factor = float(match.group(2))
    except ValueError:
        raise ConfigurationError(f"bad burst factor in {text!r}")
    if not 0 <= tenant < tenants:
        raise ConfigurationError(
            f"burst tenant {tenant} outside the fleet's {tenants} tenant(s)"
        )
    if factor < 1.0:
        raise ConfigurationError(
            f"burst factor must be >= 1, got {factor:g}"
        )
    if factor == 1.0:
        return ""
    return f"{tenant}x{factor:g}"


@dataclass(frozen=True)
class FleetMember:
    """One device's slot in a fleet: index, shape, tenants, placement.

    Use :meth:`parse` / :meth:`to_spec` to round-trip the canonical
    grammar; construction validates the shape eagerly so a bad descriptor
    fails at spec-construction time, not inside a worker process.
    """

    index: int
    devices: int
    tenants: int
    placement: str
    #: Optional adversarial burst clause, canonical ``<tenant>x<factor>``
    #: (empty = every tenant at fair share; strict no-op).
    burst: str = ""

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigurationError(
                f"a fleet needs >= 1 device, got {self.devices}"
            )
        if not 0 <= self.index < self.devices:
            raise ConfigurationError(
                f"member index {self.index} outside fleet of {self.devices}"
            )
        if self.tenants < 1:
            raise ConfigurationError(
                f"a fleet needs >= 1 tenant, got {self.tenants}"
            )
        object.__setattr__(
            self, "placement", canonical_placement(self.placement)
        )
        object.__setattr__(
            self, "burst", canonical_burst(self.burst, self.tenants)
        )

    @classmethod
    def parse(cls, text: str) -> "FleetMember":
        """Parse a member descriptor string (grammar above; docs/fleet.md)."""
        match = _MEMBER_RE.match(text)
        if match is None:
            raise ConfigurationError(
                f"bad fleet member descriptor {text!r}; expected "
                "'member <i>/<n>; tenants <t>; placement <policy>"
                "[; burst <t>x<f>]'"
            )
        return cls(
            index=int(match.group(1)),
            devices=int(match.group(2)),
            tenants=int(match.group(3)),
            placement=match.group(4),
            burst=match.group(5) or "",
        )

    def to_spec(self) -> str:
        """The canonical descriptor string (what spec digests carry).

        The burst clause appears only when set, so burst-free descriptors
        are byte-identical to pre-burst ones.
        """
        spec = (
            f"member {self.index}/{self.devices}; "
            f"tenants {self.tenants}; placement {self.placement}"
        )
        if self.burst:
            spec += f"; burst {self.burst}"
        return spec

    def burst_parts(self) -> Tuple[Optional[int], float]:
        """The burst clause as ``(tenant, factor)`` (``(None, 1.0)`` unset)."""
        if not self.burst:
            return None, 1.0
        tenant, factor = self.burst.split("x")
        return int(tenant), float(factor)


def _tenant_phase(tenants: int, tenant: int, duration_ns: int, seed: int) -> int:
    """Deterministic arrival phase of one tenant's stream.

    A single tenant replays unshifted (phase 0) so the one-device,
    one-tenant fleet is the identity transform; with several tenants each
    draws a uniform start offset in ``[0, duration]`` from its own named
    RNG stream, de-synchronising the per-tenant copies of the base
    arrival pattern.
    """
    if tenants == 1 or duration_ns <= 0:
        return 0
    rng = DeterministicRng(seed, stream=f"fleet-tenant-{tenant}")
    return rng.randint(0, duration_ns)


#: Request kinds as the integer codes a share stores them as.
_KINDS = tuple(IoKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

#: A share holds one flat record per fragment: kind code, device-local
#: offset, size, arrival, queue, tenant.
_FIELDS = 6

#: Every device's share of one fleet's dispatch, indexed by device.
_Shares = Tuple[array, ...]


def _dispatch(
    member: FleetMember,
    base: Trace,
    footprint_bytes: int,
    queue_pairs: int,
    seed: int,
    qos: str,
) -> _Shares:
    """Dispatch the fleet's whole tenant stream; every device's share.

    Fans ``base`` out across the tenants, sorts the merged stream,
    applies the QoS policy and places every entry.  Reads everything of
    ``member`` but its index.  Each device's share is an ``array('q')``
    of :data:`_FIELDS`-value records in dispatch order, never mutated
    once returned.
    """
    requests = base.requests
    length = len(requests)
    duration = base.duration_ns
    # Seam gap between cyclic repetitions of the base pattern: the mean
    # inter-arrival gap, so a wrapped stream stays rate-stationary.
    seam_gap = max(1, duration // max(1, length - 1))
    total = member.devices * length
    tenants = member.tenants
    global_space = member.devices * footprint_bytes
    slice_bytes = global_space // tenants
    if slice_bytes <= 0:
        raise ConfigurationError(
            f"{tenants} tenants cannot share a {global_space}-byte fleet "
            "address space (>= 1 byte per tenant required)"
        )
    base_count = total // tenants
    remainder = total % tenants
    rotation = max(1, length // tenants)
    queues = max(1, queue_pairs)
    codes = [_KIND_CODES[request.kind] for request in requests]

    burst_tenant, burst_factor = member.burst_parts()

    merged = []
    for tenant in range(tenants):
        count = base_count + (1 if tenant < remainder else 0)
        bursting = tenant == burst_tenant and burst_factor > 1.0
        if bursting:
            count = max(1, int(round(count * burst_factor)))
        if count == 0:
            continue
        phase = _tenant_phase(tenants, tenant, duration, seed)
        start = (tenant * rotation) % length
        start_arrival = requests[start].arrival_ns
        slice_base = tenant * slice_bytes
        for k in range(count):
            position = start + k
            cycle, j = divmod(position, length)
            request = requests[j]
            delta = (
                cycle * (duration + seam_gap)
                + request.arrival_ns
                - start_arrival
            )
            if bursting:
                # F x the requests squeezed into the same wall-clock
                # window: the burst tenant offers F x its fair rate.
                delta = int(delta / burst_factor)
            arrival = phase + delta
            merged.append(
                (
                    arrival,
                    tenant,
                    k,
                    codes[j],
                    slice_base + (request.offset_bytes % slice_bytes),
                    request.size_bytes,
                    (request.queue_id + tenant) % queues,
                )
            )
    # (arrival, tenant, k) is a deterministic total order: the merged
    # stream sorts identically however tenants are generated.  No two
    # entries share (tenant, k), so plain tuple order is that order.
    merged.sort()

    if qos:
        merged = build_qos(qos, tenants, seed).apply(merged).entries

    policy = build_placement(member.placement, member.devices, seed)
    shares = tuple(array("q") for _ in range(member.devices))
    for ordinal, (arrival, tenant, _k, code, offset, size, queue) in enumerate(
        merged
    ):
        for device, local, fragment_size in policy.place(
            ordinal, tenant, offset, size
        ):
            shares[device].extend(
                (
                    code,
                    # Fold into the device footprint: non-striped policies
                    # hand back global-space offsets, and striping's fold
                    # can overhang by a partial stripe when the footprint
                    # is not stripe-aligned (uneven boundary stripes).
                    local % footprint_bytes,
                    fragment_size,
                    arrival,
                    queue,
                    tenant,
                )
            )
    return shares


class _DispatchMemo:
    """The shares of the last fleet dispatched in this process.

    Holds one fleet.  Every member of a fleet dispatches the same stream,
    so the key is every dispatch input but the member index.  A new key
    empties the memo before its dispatch runs, so two fleets' shares are
    never alive together.  The lock makes concurrent callers of one fleet
    wait for a single dispatch instead of each running their own.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._key: Optional[tuple] = None
        self._shares: _Shares = ()

    def shares(self, key: tuple, dispatch: Callable[[], _Shares]) -> _Shares:
        """The shares for ``key``, running ``dispatch`` on a miss."""
        with self._lock:
            if key != self._key:
                self._key, self._shares = None, ()
                self._shares = dispatch()
                self._key = key
            return self._shares


# Process scope, not executor scope: the service runs each member in an
# execute_specs call of its own, so that every finished member is durable.
_MEMO = _DispatchMemo()


def member_requests(
    member: FleetMember,
    base: Trace,
    footprint_bytes: int,
    queue_pairs: int,
    seed: int,
    qos: str = "",
) -> List[IoRequest]:
    """This member's dispatched share of the fleet's tenant traffic.

    Deterministically fans the ``base`` trace out across
    ``member.tenants`` open-loop tenant streams (the descriptor's burst
    clause amplifies its adversarial tenant), reschedules the merged
    global stream through the ``qos`` policy
    (:func:`repro.fleet.qos.build_qos`; empty = dispatch in arrival
    order), dispatches it through the member's placement policy, and
    returns the fragments owned by ``member.index`` as fresh
    arrival-sorted :class:`~repro.hil.request.IoRequest` objects with
    device-local offsets and their tenant tags.  May return an empty list
    (more devices than requests, or a hash placement that routed every
    tenant elsewhere).

    The dispatch is shared: the process keeps every device's share of the
    last fleet it dispatched, so the fleet's other members skip straight
    to building their requests.
    """
    if footprint_bytes <= 0:
        raise ConfigurationError(
            f"footprint must be positive, got {footprint_bytes}"
        )
    key = (
        member.devices,
        member.tenants,
        member.placement,
        member.burst,
        tuple(
            (r.kind, r.offset_bytes, r.size_bytes, r.arrival_ns, r.queue_id)
            for r in base.requests
        ),
        base.duration_ns,
        footprint_bytes,
        queue_pairs,
        seed,
        qos,
    )
    shares = _MEMO.shares(
        key,
        lambda: _dispatch(member, base, footprint_bytes, queue_pairs, seed, qos),
    )
    records = iter(shares[member.index])
    return [
        IoRequest(
            kind=_KINDS[code],
            offset_bytes=offset,
            size_bytes=size,
            arrival_ns=arrival,
            queue_id=queue,
            tenant=tenant,
        )
        for code, offset, size, arrival, queue, tenant in zip(
            *[records] * _FIELDS
        )
    ]
