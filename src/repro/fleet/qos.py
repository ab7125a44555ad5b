"""Dispatcher-level QoS policies: shaping, fairness, and admission.

The fleet dispatcher of :mod:`repro.fleet.member` merges every tenant's
open-loop stream into one arrival-sorted global stream and hands it to the
placement policy.  Without QoS the merge is strictly arrival-ordered, so a
noisy neighbour -- a tenant offering far more than its share -- inflates
every other tenant's queueing delay (the *victim p99*).  This module is
the scheduling layer between the merge and the placement dispatch.

A policy is a pure value named by its canonical spec string
(:func:`canonical_qos`), which is what a member
:class:`~repro.experiments.spec.RunSpec` carries in its ``qos`` field --
and therefore in its content digest.  Four policies exist:

* ``none`` -- the empty policy; canonicalises to the empty string, so a
  spec without QoS digests (and caches) identically to one built before
  this module existed;
* ``token-bucket:<rate>,<burst>`` -- per-tenant token-bucket *shaping*:
  each tenant's requests are released at most ``rate`` per second after an
  initial ``burst``-deep bucket drains; excess requests are delayed, never
  dropped, so a bursting tenant's surplus queues against its own bucket
  instead of against its neighbours;
* ``wfq:<w0,w1,...>`` -- weighted fair queueing: requests are reordered by
  per-tenant virtual finish times (weights cycle when the fleet has more
  tenants than weights) and re-assigned onto the *original* arrival
  instants, so the aggregate injection pattern is preserved exactly while
  a heavy tenant's surplus drifts behind light tenants' requests;
* ``slo:<p99_us>,<admit>`` -- SLO-aware admission control: a deterministic
  fluid model of the dispatcher backlog predicts each request's queueing
  wait; when the prediction exceeds ``p99_us`` the dispatcher sheds
  requests, but only from tenants currently exceeding their fair share
  (the bursting tenant first) and never below the ``admit`` fraction of
  any tenant's offered load.

Every policy is a deterministic function of (spec, tenant count, seed) and
of the merged stream it is applied to -- never of execution order -- so
every worker process reconstructs the identical schedule on its own,
once per fleet, exactly like placement.

See docs/qos.md for the narrative guide and DESIGN.md §13 for the
engineering notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.config.ssd_config import NS_PER_S
from repro.errors import ConfigurationError

#: Bucket depth used when ``token-bucket:<rate>`` omits the burst term.
DEFAULT_BUCKET_BURST = 8.0

#: Admitted fraction used when ``slo:<p99_us>`` omits the admit floor.
DEFAULT_SLO_ADMIT = 0.5

#: One entry of the merged tenant stream, as built by the dispatch behind
#: :func:`repro.fleet.member.member_requests`: ``(arrival_ns, tenant, k,
#: kind code, offset, size, queue)``.  Policies only interpret the first
#: three fields (the deterministic total order) and carry the rest through.
Entry = Tuple


def _positive_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"bad {what} {text!r} in qos spec")
    if not value > 0 or not math.isfinite(value):
        raise ConfigurationError(f"{what} must be a positive finite number, got {text!r}")
    return value


def canonical_qos(text: str) -> str:
    """Normalise a QoS policy spec to its canonical form.

    ``none`` (and the empty string) canonicalise to ``""`` -- the strict
    no-op -- so specs without QoS keep their pre-QoS digests.  Numbers
    normalise through ``format(x, 'g')`` (``token-bucket:2000.0,8`` ==
    ``token-bucket:2000,8``), the token-bucket burst and the SLO admit
    floor gain their defaults when omitted, and unknown policies raise
    :class:`~repro.errors.ConfigurationError`.  Canonicalisation is what
    makes equal policies digest -- and therefore cache -- identically.
    """
    raw = text.strip().lower()
    if raw in ("", "none"):
        return ""
    if raw.startswith("token-bucket:"):
        body = raw[len("token-bucket:"):]
        parts = [part.strip() for part in body.split(",") if part.strip()]
        if not 1 <= len(parts) <= 2:
            raise ConfigurationError(
                f"bad token-bucket spec {text!r}; expected "
                "'token-bucket:<rate>[,<burst>]'"
            )
        rate = _positive_float(parts[0], "token rate")
        burst = (
            _positive_float(parts[1], "bucket burst")
            if len(parts) == 2
            else DEFAULT_BUCKET_BURST
        )
        if burst < 1.0:
            raise ConfigurationError(
                f"bucket burst must be >= 1 token, got {burst:g}"
            )
        return f"token-bucket:{rate:g},{burst:g}"
    if raw.startswith("wfq:"):
        body = raw[len("wfq:"):]
        parts = [part.strip() for part in body.split(",") if part.strip()]
        if not parts:
            raise ConfigurationError(
                f"bad wfq spec {text!r}; expected 'wfq:<w0,w1,...>'"
            )
        weights = [_positive_float(part, "wfq weight") for part in parts]
        return "wfq:" + ",".join(f"{weight:g}" for weight in weights)
    if raw.startswith("slo:"):
        body = raw[len("slo:"):]
        parts = [part.strip() for part in body.split(",") if part.strip()]
        if not 1 <= len(parts) <= 2:
            raise ConfigurationError(
                f"bad slo spec {text!r}; expected 'slo:<p99_us>[,<admit>]'"
            )
        p99_us = _positive_float(parts[0], "slo p99 target")
        admit = (
            _positive_float(parts[1], "admit floor")
            if len(parts) == 2
            else DEFAULT_SLO_ADMIT
        )
        if admit > 1.0:
            raise ConfigurationError(
                f"admit floor is a fraction in (0, 1], got {admit:g}"
            )
        return f"slo:{p99_us:g},{admit:g}"
    raise ConfigurationError(
        f"unknown qos policy {text!r}; known: none, "
        "token-bucket:<rate>[,<burst>], wfq:<w0,w1,...>, "
        "slo:<p99_us>[,<admit>]"
    )


def qos_names() -> List[str]:
    """The QoS policy family names, for CLI help and ``list``."""
    return [
        "none",
        "token-bucket:<rate>,<burst>",
        "wfq:<w0,w1,...>",
        "slo:<p99_us>,<admit>",
    ]


@dataclass
class QosDecision:
    """What a policy did to the merged stream.

    ``entries`` is the rescheduled stream, re-sorted by the deterministic
    ``(arrival, tenant, k)`` total order; ``shed`` maps tenant id to the
    number of requests admission control dropped (empty for shaping and
    fairness policies, which never drop).
    """

    entries: List[Entry]
    shed: Dict[int, int] = field(default_factory=dict)


class QosPolicy:
    """Base class: reschedule the merged tenant stream at dispatch time.

    Subclasses implement :meth:`apply`, a pure function of the entry list
    (arrival-sorted, see :data:`Entry`): it may delay entries (shaping),
    reorder them over the original arrival instants (fairness), or drop
    them (admission control), and must be deterministic so every fleet
    member reconstructs the identical schedule independently.
    """

    def __init__(self, tenants: int) -> None:
        if tenants < 1:
            raise ConfigurationError(f"qos needs >= 1 tenant, got {tenants}")
        self.tenants = tenants

    def apply(self, entries: Sequence[Entry]) -> QosDecision:
        """Reschedule ``entries``; return the decision (new list, sheds)."""
        raise NotImplementedError

    def to_spec(self) -> str:
        """The policy's canonical spec string."""
        raise NotImplementedError


class NoQos(QosPolicy):
    """The identity policy: dispatch strictly in arrival order."""

    def apply(self, entries):
        """Return the stream unchanged (fresh list, no sheds)."""
        return QosDecision(list(entries))

    def to_spec(self):
        """Canonical spec: the empty string (strict no-op)."""
        return ""


class TokenBucketQos(QosPolicy):
    """Per-tenant token-bucket shaping: delay a tenant's excess, drop nothing.

    Each tenant owns a bucket of ``burst`` tokens refilled at ``rate``
    tokens per second.  A request arriving to a non-empty bucket is
    released immediately; otherwise its release is pushed to the instant
    its token accrues, and per-tenant releases stay monotone (a request
    never overtakes its predecessor's release).  Tenants offering less
    than ``rate`` are untouched -- which is exactly the isolation claim
    the ``qos sweep`` measures: the victim's curve flattens because the
    bursting tenant's surplus now queues against its own bucket.
    """

    def __init__(self, tenants: int, rate: float, burst: float) -> None:
        super().__init__(tenants)
        if rate <= 0:
            raise ConfigurationError(f"token rate must be > 0, got {rate}")
        if burst < 1.0:
            raise ConfigurationError(f"bucket burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst

    def apply(self, entries):
        """Release each entry when its tenant's bucket has a token."""
        interval = NS_PER_S / self.rate  # ns per token
        state: Dict[int, Tuple[float, int]] = {}  # tenant -> (tokens, last_ns)
        out: List[Entry] = []
        for entry in entries:
            arrival, tenant = entry[0], entry[1]
            tokens, last = state.get(tenant, (self.burst, arrival))
            # The bucket refills in real time, but a request that arrives
            # behind an already-committed release queues from that release.
            start = arrival if arrival > last else last
            tokens = min(self.burst, tokens + (start - last) / interval)
            if tokens >= 1.0:
                release = start
                tokens -= 1.0
            else:
                release = start + int(math.ceil((1.0 - tokens) * interval))
                tokens = 0.0
            state[tenant] = (tokens, release)
            out.append((release,) + tuple(entry[1:]))
        out.sort(key=lambda entry: entry[:3])
        return QosDecision(out)

    def to_spec(self):
        """Canonical spec: ``token-bucket:<rate>,<burst>``."""
        return f"token-bucket:{self.rate:g},{self.burst:g}"


class WeightedFairQueueingQos(QosPolicy):
    """Weighted fair queueing over tenant streams at dispatch time.

    Each request gets a per-tenant virtual finish time
    ``vf_k = max(arrival_k, vf_{k-1}) + cost(tenant)`` where the service
    cost is the stream's nominal per-tenant inter-arrival gap scaled by
    ``mean_weight / weight(tenant)`` -- a tenant with twice the weight
    accrues virtual time half as fast.  Requests are then re-assigned, in
    virtual-finish order, onto the *sorted multiset of original arrival
    instants*: the aggregate injection pattern (count, instants, span) is
    preserved exactly, only *which tenant's request* occupies each instant
    changes, and within a tenant the original order is kept (virtual
    finishes are strictly increasing per tenant).  Weights cycle when the
    fleet has more tenants than weights (``wfq:4,1`` alternates).
    """

    def __init__(self, tenants: int, weights: Sequence[float]) -> None:
        super().__init__(tenants)
        if not weights or any(weight <= 0 for weight in weights):
            raise ConfigurationError(
                f"wfq weights must be positive, got {list(weights)}"
            )
        self.weights = tuple(float(weight) for weight in weights)

    def weight_for(self, tenant: int) -> float:
        """The weight serving ``tenant`` (weights cycle)."""
        return self.weights[tenant % len(self.weights)]

    def apply(self, entries):
        """Reorder by virtual finish over the original arrival instants."""
        n = len(entries)
        if n <= 1:
            return QosDecision(list(entries))
        slots = sorted(entry[0] for entry in entries)
        span = slots[-1] - slots[0]
        # Nominal per-tenant service gap of the merged stream; the unit of
        # virtual time, so weights express relative -- not absolute -- rates.
        base_gap = max(1.0, span / (n - 1)) * self.tenants
        mean_weight = sum(
            self.weight_for(tenant) for tenant in range(self.tenants)
        ) / self.tenants
        finish: Dict[int, float] = {}
        keyed = []
        for entry in entries:
            tenant = entry[1]
            cost = base_gap * mean_weight / self.weight_for(tenant)
            vf = max(float(entry[0]), finish.get(tenant, 0.0)) + cost
            finish[tenant] = vf
            keyed.append((vf, entry))
        keyed.sort(key=lambda pair: (pair[0], pair[1][1], pair[1][2]))
        out = [
            (slots[index],) + tuple(entry[1:])
            for index, (_vf, entry) in enumerate(keyed)
        ]
        out.sort(key=lambda entry: entry[:3])
        return QosDecision(out)

    def to_spec(self):
        """Canonical spec: ``wfq:<w0,w1,...>``."""
        return "wfq:" + ",".join(f"{weight:g}" for weight in self.weights)


class SloAdmissionQos(QosPolicy):
    """SLO-aware admission control: shed the over-share tenant's excess.

    A deterministic fluid model walks the merged stream in arrival order:
    the dispatcher backlog grows by one per admitted request and drains at
    the stream's *nominal* capacity (``tenants x`` the median per-tenant
    offered rate -- the median makes the estimate robust to one bursting
    outlier).  When a request's predicted queueing wait
    (``backlog / capacity``) exceeds the ``p99_us`` target, it is shed --
    but only if its tenant currently exceeds its ``1/tenants`` fair share
    of everything offered so far (the bursting tenant sheds first, victims
    pass through), and never below the ``admit`` fraction of that tenant's
    total offered load.  Sheds are real drops: the requests vanish from
    every member's dispatch stream, and the per-tenant shed counts are
    reported in the decision.
    """

    def __init__(self, tenants: int, p99_us: float, admit: float) -> None:
        super().__init__(tenants)
        if p99_us <= 0:
            raise ConfigurationError(f"slo target must be > 0 us, got {p99_us}")
        if not 0 < admit <= 1:
            raise ConfigurationError(
                f"admit floor must be in (0, 1], got {admit}"
            )
        self.p99_us = p99_us
        self.admit = admit

    def _capacity(self, entries: Sequence[Entry]) -> float:
        """Nominal drain rate, requests/ns: tenants x median tenant rate."""
        span = max(1, entries[-1][0] - entries[0][0])
        offered: Dict[int, int] = {}
        for entry in entries:
            offered[entry[1]] = offered.get(entry[1], 0) + 1
        rates = sorted(count / span for count in offered.values())
        median = rates[len(rates) // 2]
        return max(self.tenants * median, 1.0 / span)

    def apply(self, entries):
        """Walk the fluid backlog; shed over-share excess past the target."""
        if not entries:
            return QosDecision([])
        capacity = self._capacity(entries)
        limit_ns = self.p99_us * 1000.0
        offered: Dict[int, int] = {}
        for entry in entries:
            offered[entry[1]] = offered.get(entry[1], 0) + 1
        max_shed = {
            tenant: count - int(math.ceil(self.admit * count))
            for tenant, count in offered.items()
        }
        backlog = 0.0
        previous = entries[0][0]
        seen: Dict[int, int] = {}
        shed: Dict[int, int] = {}
        total_seen = 0
        out: List[Entry] = []
        for entry in entries:
            arrival, tenant = entry[0], entry[1]
            backlog = max(0.0, backlog - (arrival - previous) * capacity)
            previous = arrival
            seen[tenant] = seen.get(tenant, 0) + 1
            total_seen += 1
            over_share = seen[tenant] * self.tenants > total_seen
            if (
                backlog / capacity > limit_ns
                and over_share
                and shed.get(tenant, 0) < max_shed[tenant]
            ):
                shed[tenant] = shed.get(tenant, 0) + 1
                continue
            backlog += 1.0
            out.append(entry)
        return QosDecision(out, shed)

    def to_spec(self):
        """Canonical spec: ``slo:<p99_us>,<admit>``."""
        return f"slo:{self.p99_us:g},{self.admit:g}"


def build_qos(spec: str, tenants: int, seed: int = 42) -> QosPolicy:
    """Instantiate the policy named by ``spec`` for ``tenants`` tenants.

    ``spec`` is canonicalised first, so aliases, number formats, and
    omitted defaults are accepted everywhere a policy is named.  ``seed``
    is accepted for signature symmetry with
    :func:`~repro.fleet.placement.build_placement`; every current policy
    is seed-free (fully determined by its spec and the stream).
    """
    del seed  # all current policies are seed-free
    canonical = canonical_qos(spec)
    if not canonical:
        return NoQos(tenants)
    if canonical.startswith("token-bucket:"):
        rate, burst = canonical[len("token-bucket:"):].split(",")
        return TokenBucketQos(tenants, float(rate), float(burst))
    if canonical.startswith("wfq:"):
        weights = [float(part) for part in canonical[len("wfq:"):].split(",")]
        return WeightedFairQueueingQos(tenants, weights)
    rate_part = canonical[len("slo:"):].split(",")
    return SloAdmissionQos(tenants, float(rate_part[0]), float(rate_part[1]))
