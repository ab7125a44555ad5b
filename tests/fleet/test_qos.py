"""Dispatcher QoS: grammar, policy semantics, and the no-op pins."""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale, make_spec
from repro.fleet.member import canonical_burst
from repro.fleet.qos import (
    NoQos,
    SloAdmissionQos,
    TokenBucketQos,
    WeightedFairQueueingQos,
    build_qos,
    canonical_qos,
    qos_names,
)
from repro.fleet.run import run_fleet
from repro.fleet.spec import make_fleet_spec

SCALE = ExperimentScale(
    requests=120, requests_per_mix_constituent=50, seed=42
)


def _entries(count=40, tenants=4, gap=1000):
    """A synthetic merged stream: round-robin tenants, even arrivals."""
    return [
        (k * gap, k % tenants, k, "read", k * 4096, 4096, 0)
        for k in range(count)
    ]


# --------------------------------------------------------------------- #
# grammar
# --------------------------------------------------------------------- #


def test_canonical_qos_grammar():
    assert canonical_qos("") == ""
    assert canonical_qos("none") == ""
    assert canonical_qos("NONE") == ""
    assert canonical_qos("token-bucket:1000000") == "token-bucket:1e+06,8"
    assert (
        canonical_qos("token-bucket:2.5e5, 4") == "token-bucket:250000,4"
    )
    assert canonical_qos("wfq:1, 2, 4.0") == "wfq:1,2,4"
    assert canonical_qos("slo:800") == "slo:800,0.5"
    assert canonical_qos("slo:200,0.25") == "slo:200,0.25"
    # Canonicalisation is idempotent.
    for spec in ("token-bucket:1e6,16", "wfq:1,4", "slo:50,0.25"):
        assert canonical_qos(canonical_qos(spec)) == canonical_qos(spec)


@pytest.mark.parametrize(
    "bad",
    [
        "unknown:1",
        "token-bucket:",
        "token-bucket:0",
        "token-bucket:-5,8",
        "token-bucket:1e6,0.5",  # burst < 1
        "wfq:",
        "wfq:1,0",
        "wfq:1,x",
        "slo:0",
        "slo:800,0",
        "slo:800,1.5",  # admit > 1
    ],
)
def test_canonical_qos_rejects(bad):
    with pytest.raises(ConfigurationError):
        canonical_qos(bad)


def test_qos_names_lists_the_grammar():
    names = qos_names()
    assert names[0] == "none"
    assert any(name.startswith("token-bucket:") for name in names)
    assert any(name.startswith("wfq:") for name in names)
    assert any(name.startswith("slo:") for name in names)


def test_canonical_burst_grammar():
    assert canonical_burst("", 4) == ""
    assert canonical_burst("0x1", 4) == ""  # factor 1 = fair share
    assert canonical_burst("0x8", 4) == "0x8"
    assert canonical_burst("1x2.5", 4) == "1x2.5"
    with pytest.raises(ConfigurationError):
        canonical_burst("4x2", 4)  # tenant outside [0, tenants)
    with pytest.raises(ConfigurationError):
        canonical_burst("0x0.5", 4)  # factor < 1
    with pytest.raises(ConfigurationError):
        canonical_burst("0*2", 4)


def test_build_qos_dispatch():
    assert isinstance(build_qos("", 4), NoQos)
    assert isinstance(build_qos("token-bucket:1e6", 4), TokenBucketQos)
    assert isinstance(build_qos("wfq:1,2", 4), WeightedFairQueueingQos)
    assert isinstance(build_qos("slo:100,0.5", 4), SloAdmissionQos)
    with pytest.raises(ConfigurationError):
        build_qos("token-bucket:1e6", 0)  # needs >= 1 tenant


# --------------------------------------------------------------------- #
# policy semantics (pure, no simulation)
# --------------------------------------------------------------------- #


def test_no_qos_is_identity():
    entries = _entries()
    decision = NoQos(4).apply(entries)
    assert decision.entries == entries
    assert decision.shed == {}


def test_token_bucket_shapes_without_dropping():
    entries = _entries(count=60, gap=100)  # far above the metered rate
    policy = TokenBucketQos(4, rate=1e6, burst=2.0)  # 1 token / 1000 ns
    decision = policy.apply(entries)
    assert len(decision.entries) == len(entries)
    assert decision.shed == {}
    # Per-tenant: order preserved, releases monotone, and (burst spent)
    # consecutive releases at least one token interval apart.
    for tenant in range(4):
        mine = [e for e in decision.entries if e[1] == tenant]
        assert [e[2] for e in mine] == sorted(e[2] for e in mine)
        releases = [e[0] for e in mine]
        assert releases == sorted(releases)
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert all(gap >= 999 for gap in gaps[2:])  # after the burst
    # Deterministic: same input, same schedule.
    assert policy.apply(entries).entries == decision.entries


def test_token_bucket_is_transparent_under_its_rate():
    entries = _entries(count=20, gap=100_000)  # 10 kHz per stream
    decision = TokenBucketQos(4, rate=1e6, burst=8.0).apply(entries)
    assert decision.entries == entries  # never throttles a fair stream


def test_wfq_preserves_arrival_multiset_and_tenant_order():
    entries = _entries(count=48)
    decision = WeightedFairQueueingQos(4, (1.0, 4.0, 4.0, 4.0)).apply(
        entries
    )
    assert len(decision.entries) == len(entries)
    assert decision.shed == {}
    # The aggregate injection pattern is untouched: same arrival instants.
    assert sorted(e[0] for e in decision.entries) == sorted(
        e[0] for e in entries
    )
    # Per-tenant relative order is preserved.
    for tenant in range(4):
        ks = [e[2] for e in decision.entries if e[1] == tenant]
        assert ks == sorted(ks)
    # The weighted-down tenant is pushed late: its mean slot is worse
    # than the heavily weighted tenants'.
    mean = {
        tenant: sum(
            index
            for index, e in enumerate(decision.entries)
            if e[1] == tenant
        )
        for tenant in range(4)
    }
    assert mean[0] > max(mean[1], mean[2], mean[3])


def test_slo_sheds_only_the_over_share_tenant_down_to_the_floor():
    # Tenant 0 offers 4x its fair share into a saturated window.
    entries = sorted(
        [(k * 250, 0, k, "read", k * 4096, 4096, 0) for k in range(80)]
        + [
            (k * 1000, t, k, "read", k * 4096, 4096, 0)
            for t in (1, 2, 3)
            for k in range(20)
        ],
        key=lambda e: e[:3],
    )
    decision = SloAdmissionQos(4, p99_us=10.0, admit=0.25).apply(entries)
    shed = decision.shed
    assert shed and set(shed) == {0}  # victims are never shed
    assert shed[0] <= 60  # admit floor: keep >= ceil(0.25 * 80) = 20
    kept0 = sum(1 for e in decision.entries if e[1] == 0)
    assert kept0 == 80 - shed[0]
    assert kept0 >= 20
    # Survivors keep their arrivals: admission drops, it never reshapes.
    assert all(e in entries for e in decision.entries)


# --------------------------------------------------------------------- #
# spec plumbing
# --------------------------------------------------------------------- #


def test_qos_requires_a_fleet_descriptor():
    with pytest.raises(ConfigurationError):
        make_spec(
            "venice", "performance-optimized", "hm_0", SCALE,
            qos="token-bucket:1e6",
        )


def test_qos_and_burst_join_the_digests():
    plain = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=2, tenants=4,
    )
    shaped = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=2, tenants=4, qos="token-bucket:1e6,16",
    )
    bursty = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=2, tenants=4, burst="0x8",
    )
    digests = {plain.digest, shaped.digest, bursty.digest}
    assert len(digests) == 3
    assert plain.members[0].digest != shaped.members[0].digest
    # Spec dicts round-trip the new fields losslessly.
    member = shaped.members[0]
    assert member.qos == "token-bucket:1e+06,16"
    assert type(member).from_dict(member.to_dict()) == member


def test_burst_clause_scales_one_tenant_only():
    scale = ExperimentScale(
        requests=60, requests_per_mix_constituent=50, seed=42
    )
    plain = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", scale,
        devices=1, tenants=4,
    )
    bursty = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", scale,
        devices=1, tenants=4, burst="0x4",
    )

    def counts(fleet):
        out = {}
        for request in fleet.members[0].fleet_requests():
            out[request.tenant] = out.get(request.tenant, 0) + 1
        return out

    before, after = counts(plain), counts(bursty)
    assert after[0] == pytest.approx(4 * before[0], abs=1)
    for tenant in (1, 2, 3):
        assert after[tenant] == before[tenant]


# --------------------------------------------------------------------- #
# the no-op pins: a QoS-free fleet is byte-identical to the pre-QoS layer
# --------------------------------------------------------------------- #

PINNED_FLEET_DIGEST = (
    "32e4ce284abbc581a37296104168cfa1c5baf1bcf68fdfe803c5f96d3e4a83dd"
)
PINNED_MEMBER0_DIGEST = (
    "f03240d3c134ea9a6d0bb625f0d8a8cf61e9608289eec9df590c047c828a82cf"
)
PINNED_MEMBER0_RESULT_SHA = (
    "b7002c9bf0e83811d0d1de8830f7be8dfc408d080c461ea2d5611f52f25a575b"
)
PINNED_FLEET_PAYLOAD_SHA = (
    "4d99ed6e19dd022634a14e894225bf8856aece4416e623514a2dbe6a76116e2e"
)


def _pinned_fleet():
    return make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=2, placement="round-robin", tenants=4,
    )


def test_qos_free_fleet_keeps_pre_qos_digests():
    fleet = _pinned_fleet()
    assert fleet.qos == "" and fleet.burst == ""
    assert fleet.digest == PINNED_FLEET_DIGEST
    assert fleet.members[0].digest == PINNED_MEMBER0_DIGEST
    # The serialized member spec has no qos key at all.
    assert "qos" not in fleet.members[0].to_dict()


def test_qos_free_fleet_results_are_byte_identical():
    fleet = _pinned_fleet()
    results = execute_specs(list(fleet.members), executor=Executor())
    member0 = results[fleet.members[0]]
    assert member0.tenant_histograms is None
    assert "tenant_histograms" not in member0.to_dict()
    result_sha = hashlib.sha256(
        json.dumps(member0.to_dict(), sort_keys=False).encode()
    ).hexdigest()
    assert result_sha == PINNED_MEMBER0_RESULT_SHA
    payload = run_fleet(_pinned_fleet(), executor=Executor())
    assert "qos" not in payload and "tenant_latency" not in payload
    payload_sha = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    assert payload_sha == PINNED_FLEET_PAYLOAD_SHA


# A sampled fleet that runs every dispatch stage -- burst fan-out, WFQ and
# stripe splitting -- pinned before members began sharing one dispatch.
PINNED_STAGED_FLEET_DIGEST = (
    "95fa94fe171f4773413d1c217f7b5fb928ded91ff77fda1e179dec6ef4998800"
)
PINNED_STAGED_FLEET_PAYLOAD_SHA = (
    "5c09dfeb49e99f146b18695710dbe3433ec01b8be6e233718d75a163982cb825"
)


def test_sampled_fleet_through_every_dispatch_stage_is_pinned():
    fleet = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=16, sample=4, placement="stripe", tenants=4,
        qos="wfq:4,1,1,1", burst="0x4",
    )
    assert fleet.digest == PINNED_STAGED_FLEET_DIGEST
    payload = run_fleet(fleet, executor=Executor())
    assert payload["sampled_member_indices"] == [1, 6, 8, 13]
    assert payload["qos"] == "wfq:4,1,1,1" and payload["burst"] == "0x4"
    payload_sha = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    assert payload_sha == PINNED_STAGED_FLEET_PAYLOAD_SHA
