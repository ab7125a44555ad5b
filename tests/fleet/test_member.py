"""Fleet member descriptors and the tenant traffic fan-out."""

import sys
import threading

import pytest

import repro.fleet.member as member_module
from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentScale
from repro.fleet.member import FleetMember, member_requests
from repro.fleet.placement import LbaStripingPlacement
from repro.fleet.spec import make_fleet_spec
from repro.hil.request import IoKind, IoRequest
from repro.workloads.trace import Trace


def _base_trace(count=24, gap_ns=1000, size=4096):
    requests = [
        IoRequest(
            kind=IoKind.READ if i % 3 else IoKind.WRITE,
            offset_bytes=(i * 7919 * 512) % (1 << 20),
            size_bytes=size,
            arrival_ns=i * gap_ns,
            queue_id=i % 2,
        )
        for i in range(count)
    ]
    return Trace("synthetic-base", requests)


# --------------------------------------------------------------------- #
# descriptor grammar
# --------------------------------------------------------------------- #

def test_descriptor_round_trips_canonically():
    member = FleetMember(index=2, devices=8, tenants=64,
                         placement="stripe:256KiB")
    spec = member.to_spec()
    assert spec == "member 2/8; tenants 64; placement stripe:262144"
    assert FleetMember.parse(spec) == member
    # aliases and case collapse to the same canonical form
    sloppy = FleetMember.parse("MEMBER 2 / 8 ;  tenants 64 ; placement stripe:256KiB")
    assert sloppy == member


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "member 2/8",
        "member 8/8; tenants 4; placement rr",       # index out of range
        "member 0/0; tenants 4; placement rr",       # zero devices
        "member 0/2; tenants 0; placement rr",       # zero tenants
        "member 0/2; tenants 4; placement warp",     # unknown policy
        "tenants 4; member 0/2; placement rr",       # wrong clause order
    ],
)
def test_descriptor_rejects_bad_grammar(bad):
    with pytest.raises(ConfigurationError):
        FleetMember.parse(bad)


# --------------------------------------------------------------------- #
# fan-out invariants
# --------------------------------------------------------------------- #

def test_single_device_single_tenant_is_identity():
    base = _base_trace()
    member = FleetMember(index=0, devices=1, tenants=1, placement="round-robin")
    share = member_requests(member, base, footprint_bytes=1 << 21,
                            queue_pairs=4, seed=42)
    assert len(share) == len(base.requests)
    for got, expected in zip(share, base.requests):
        assert got.kind is expected.kind
        assert got.offset_bytes == expected.offset_bytes
        assert got.size_bytes == expected.size_bytes
        assert got.arrival_ns == expected.arrival_ns
        assert got.queue_id == expected.queue_id


def test_member_shares_partition_the_round_robin_stream():
    base = _base_trace()
    devices = 3
    shares = [
        member_requests(
            FleetMember(index=i, devices=devices, tenants=4,
                        placement="round-robin"),
            base, footprint_bytes=1 << 21, queue_pairs=4, seed=42,
        )
        for i in range(devices)
    ]
    total = devices * len(base.requests)
    assert sum(len(share) for share in shares) == total
    # round-robin balance: shares differ by at most one request
    sizes = sorted(len(share) for share in shares)
    assert sizes[-1] - sizes[0] <= 1


def test_fan_out_is_deterministic():
    base = _base_trace()
    member = FleetMember(index=1, devices=4, tenants=16, placement="hash-tenant")
    first = member_requests(member, base, 1 << 21, 4, seed=7)
    second = member_requests(member, base, 1 << 21, 4, seed=7)
    assert [
        (r.arrival_ns, r.offset_bytes, r.size_bytes, r.kind, r.queue_id)
        for r in first
    ] == [
        (r.arrival_ns, r.offset_bytes, r.size_bytes, r.kind, r.queue_id)
        for r in second
    ]
    # a different seed re-phases the tenants
    reseeded = member_requests(member, base, 1 << 21, 4, seed=8)
    assert [r.arrival_ns for r in reseeded] != [r.arrival_ns for r in first]


def test_hash_placement_keeps_tenant_affinity():
    """Every request of one tenant lands on exactly one device."""
    base = _base_trace()
    devices, tenants = 3, 9
    footprint = 1 << 21
    slice_bytes = devices * footprint // tenants
    owners = {}
    for index in range(devices):
        share = member_requests(
            FleetMember(index=index, devices=devices, tenants=tenants,
                        placement="hash-tenant"),
            base, footprint, 4, seed=42,
        )
        for request in share:
            # recover the tenant from the global slice before the local fold
            # is impossible post-fold; use queue phase instead: tenants map
            # onto queues as (base_queue + tenant) % queue_pairs, so track
            # via arrival uniqueness: every (arrival, offset) pair belongs
            # to one tenant's stream and must not appear on two devices.
            key = (request.arrival_ns, request.size_bytes, request.kind)
            assert owners.setdefault(key, index) == index


def test_zero_request_tenants_are_legal():
    """Thousands of tenants over a tiny request budget: most get nothing."""
    base = _base_trace(count=6)
    devices = 2
    shares = [
        member_requests(
            FleetMember(index=i, devices=devices, tenants=2000,
                        placement="round-robin"),
            base, footprint_bytes=1 << 22, queue_pairs=4, seed=42,
        )
        for i in range(devices)
    ]
    assert sum(len(share) for share in shares) == devices * len(base.requests)


def test_empty_member_share_is_possible_under_hash():
    """With one tenant, hash placement sends everything to one device."""
    base = _base_trace()
    devices = 4
    shares = [
        member_requests(
            FleetMember(index=i, devices=devices, tenants=1,
                        placement="hash-tenant"),
            base, 1 << 21, 4, seed=42,
        )
        for i in range(devices)
    ]
    non_empty = [share for share in shares if share]
    assert len(non_empty) == 1
    assert len(non_empty[0]) == devices * len(base.requests)
    assert sum(len(s) for s in shares) == devices * len(base.requests)


def test_uneven_stripes_at_footprint_boundaries():
    """A footprint that is not stripe-aligned still folds inside bounds."""
    base = _base_trace(size=48 * 1024)  # requests span many 4K stripes
    devices = 3
    footprint = (1 << 20) + 4096 + 512  # deliberately unaligned footprint
    shares = [
        member_requests(
            FleetMember(index=i, devices=devices, tenants=5,
                        placement="stripe:4096"),
            base, footprint, 4, seed=42,
        )
        for i in range(devices)
    ]
    total_bytes = devices * sum(r.size_bytes for r in base.requests)
    assert sum(r.size_bytes for share in shares for r in share) == total_bytes
    for share in shares:
        assert share  # striping spreads every large request over all devices
        for request in share:
            assert 0 <= request.offset_bytes < footprint
            assert request.size_bytes <= 4096  # no fragment exceeds a stripe


def test_arrivals_are_sorted_and_non_negative():
    base = _base_trace()
    share = member_requests(
        FleetMember(index=0, devices=2, tenants=6, placement="round-robin"),
        base, 1 << 21, 4, seed=42,
    )
    arrivals = [request.arrival_ns for request in share]
    assert arrivals == sorted(arrivals)
    assert all(arrival >= 0 for arrival in arrivals)


def test_too_many_tenants_for_the_address_space_raises():
    base = _base_trace()
    with pytest.raises(ConfigurationError):
        member_requests(
            FleetMember(index=0, devices=1, tenants=64, placement="round-robin"),
            base, footprint_bytes=32, queue_pairs=4, seed=42,
        )


def test_member_requests_rejects_non_positive_footprint():
    member = FleetMember(index=0, devices=2, tenants=2,
                         placement="round-robin")
    with pytest.raises(ConfigurationError, match="footprint"):
        member_requests(member, _base_trace(), 0, queue_pairs=1, seed=1)


# --------------------------------------------------------------------- #
# the shared dispatch
# --------------------------------------------------------------------- #

def _fields(requests):
    return [
        (r.kind, r.offset_bytes, r.size_bytes, r.arrival_ns, r.queue_id,
         r.tenant)
        for r in requests
    ]


def _clear_memo(monkeypatch):
    monkeypatch.setattr(
        member_module, "_MEMO", member_module._DispatchMemo()
    )


def _cold_and_warm(monkeypatch, calls):
    """Each call's fields from a cleared memo, then all from one warm memo."""
    cold = []
    for call in calls:
        _clear_memo(monkeypatch)
        cold.append(_fields(call()))
    _clear_memo(monkeypatch)
    warm = [_fields(call()) for call in calls]
    return cold, warm


def test_sampled_fleet_members_match_a_cleared_memo(monkeypatch):
    """Stripe splitting, WFQ and a burst clause: warm == cold, per member."""
    fleet = make_fleet_spec(
        "venice", "performance-optimized", "hm_0",
        ExperimentScale(requests=60, requests_per_mix_constituent=50, seed=42),
        devices=16, sample=4, placement="stripe:4096", tenants=4,
        qos="wfq:4,1,1,1", burst="0x4",
    )
    members = list(fleet.active_members())
    assert len(members) == 4
    cold, warm = _cold_and_warm(
        monkeypatch, [spec.fleet_requests for spec in members]
    )
    assert warm == cold
    assert all(cold)
    # stripe:4096 splits requests that cross a stripe boundary
    assert any(size < 4096 for share in cold for _, _, size, _, _, _ in share)


def test_hash_tenant_empty_shares_match_a_cleared_memo(monkeypatch):
    base = _base_trace()
    calls = [
        lambda i=i: member_requests(
            FleetMember(index=i, devices=4, tenants=1,
                        placement="hash-tenant"),
            base, 1 << 21, 4, seed=42,
        )
        for i in range(4)
    ]
    cold, warm = _cold_and_warm(monkeypatch, calls)
    assert warm == cold
    assert sorted(len(share) for share in cold) == [0, 0, 0, 4 * 24]


def test_shared_dispatch_returns_fresh_requests():
    base = _base_trace()
    member = FleetMember(index=1, devices=2, tenants=4, placement="round-robin")
    first = member_requests(member, base, 1 << 21, 4, seed=42)
    first[0].arrival_ns += 1  # a simulation may mutate what it is handed
    second = member_requests(member, base, 1 << 21, 4, seed=42)
    assert first and len(first) == len(second)
    assert all(a is not b for a, b in zip(first, second))
    assert second[0].arrival_ns == first[0].arrival_ns - 1
    assert len({r.request_id for r in first + second}) == 2 * len(first)


def test_second_member_makes_no_placement_call(monkeypatch):
    base = _base_trace(size=48 * 1024)
    calls = []
    place = LbaStripingPlacement.place

    def counted_place(self, *args):
        calls.append(args)
        return place(self, *args)

    monkeypatch.setattr(LbaStripingPlacement, "place", counted_place)
    _clear_memo(monkeypatch)

    def member(index):
        return FleetMember(index=index, devices=3, tenants=5,
                           placement="stripe:4096")

    member_requests(member(0), base, 1 << 21, 4, seed=42, qos="wfq:2,1")
    assert len(calls) == 3 * len(base.requests)
    member_requests(member(1), base, 1 << 21, 4, seed=42, qos="wfq:2,1")
    assert len(calls) == 3 * len(base.requests)
    # Any other dispatch input is another fleet: it dispatches again.
    member_requests(member(1), base, 1 << 21, 4, seed=43, qos="wfq:2,1")
    assert len(calls) == 6 * len(base.requests)


def test_concurrent_members_of_two_fleets_match_serial_results(monkeypatch):
    base = _base_trace()
    fleets = [
        lambda i: FleetMember(index=i, devices=4, tenants=4,
                              placement="stripe:4096", burst="1x2"),
        lambda i: FleetMember(index=i, devices=4, tenants=3,
                              placement="round-robin"),
    ]

    def call(fleet, index):
        return _fields(member_requests(
            fleets[fleet](index), base, 1 << 21, 4, seed=42, qos="wfq:3,1"
        ))

    reference = {}
    for fleet in range(2):
        for index in range(4):
            _clear_memo(monkeypatch)
            reference[fleet, index] = call(fleet, index)
    results, errors = [], []

    def worker(thread):
        try:
            for round_ in range(20):
                fleet = (thread + round_) % 2
                index = thread % 4
                results.append(((fleet, index), call(fleet, index)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(thread,))
            for thread in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 * 20
    for key, fields in results:
        assert fields == reference[key]
