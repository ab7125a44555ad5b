"""FleetSpec identity: digests, member specs, the fleet field no-op."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentScale, RunSpec, make_spec
from repro.fleet.spec import FleetSpec, make_fleet_spec

SCALE = ExperimentScale(requests=60, blocks_per_plane=8, pages_per_block=8)


def test_equal_fleets_share_a_digest():
    first = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=3,
                            tenants=8)
    second = make_fleet_spec("venice", "performance-optimized", "hm_0", SCALE,
                             devices=3, tenants=8)
    assert first.digest == second.digest
    assert first.members == second.members


@pytest.mark.parametrize(
    "override",
    [
        {"devices": 4},
        {"tenants": 9},
        {"placement": "hash-tenant"},
        {"placement": "stripe:65536"},
        {"workload": "proj_3"},
    ],
)
def test_any_fleet_knob_changes_the_digest(override):
    base = dict(designs="venice", preset="perf", workload="hm_0", scale=SCALE,
                devices=3, tenants=8, placement="round-robin")
    first = make_fleet_spec(base["designs"], base["preset"], base["workload"],
                            base["scale"], devices=base["devices"],
                            tenants=base["tenants"],
                            placement=base["placement"])
    merged = {**base, **override}
    changed = make_fleet_spec(merged["designs"], merged["preset"],
                              merged["workload"], merged["scale"],
                              devices=merged["devices"],
                              tenants=merged["tenants"],
                              placement=merged["placement"])
    assert changed.digest != first.digest


def test_member_specs_carry_their_descriptor_in_the_digest():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                            tenants=4)
    plain = make_spec("venice", "perf", "hm_0", SCALE, export_histogram=True)
    descriptors = {member.fleet for member in fleet.members}
    assert descriptors == {
        "member 0/2; tenants 4; placement round-robin",
        "member 1/2; tenants 4; placement round-robin",
    }
    digests = {member.digest for member in fleet.members} | {plain.digest}
    assert len(digests) == 3  # every member distinct, all distinct from plain


def test_empty_fleet_field_is_a_strict_noop():
    """No ``fleet`` key in the payload -> pre-fleet digests unchanged."""
    spec = make_spec("venice", "perf", "hm_0", SCALE)
    assert spec.fleet == ""
    assert "fleet" not in spec.to_dict()
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec and rebuilt.digest == spec.digest


def test_fleet_member_spec_round_trips_through_dict():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                            tenants=4, placement="stripe:64KiB")
    member = fleet.members[1]
    payload = member.to_dict()
    assert payload["fleet"] == "member 1/2; tenants 4; placement stripe:65536"
    rebuilt = RunSpec.from_dict(payload)
    assert rebuilt == member and rebuilt.digest == member.digest


def test_mixed_designs_and_per_member_faults():
    fleet = make_fleet_spec(
        ["venice", "baseline", "nossd"],
        "perf",
        "hm_0",
        SCALE,
        tenants=2,
        faults={1: "0 link (0,2)-(0,3) down"},
    )
    assert [member.design for member in fleet.members] == [
        "venice", "baseline", "nossd",
    ]
    assert fleet.members[0].faults == ""
    assert fleet.members[1].faults == "0ns link (0,2)-(0,3) down"
    assert fleet.members[2].faults == ""


def test_fleet_shape_validation():
    with pytest.raises(ConfigurationError):
        make_fleet_spec([], "perf", "hm_0", SCALE)
    with pytest.raises(ConfigurationError):
        make_fleet_spec(["venice", "nossd"], "perf", "hm_0", SCALE, devices=3)
    with pytest.raises(ConfigurationError):
        make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2, tenants=0)
    with pytest.raises(ConfigurationError):
        make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                        faults={5: "0 link (0,2)-(0,3) down"})
    with pytest.raises(ConfigurationError):
        make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                        faults=["0 link (0,2)-(0,3) down"])  # wrong length
    with pytest.raises(ConfigurationError):
        FleetSpec(members=())


def test_non_fleet_spec_refuses_fleet_requests():
    spec = make_spec("venice", "perf", "hm_0", SCALE)
    with pytest.raises(ConfigurationError):
        spec.fleet_requests()


def test_direct_construction_validates_tenants():
    # A FleetSpec reads its tenant count off its members' descriptor,
    # and the descriptor refuses a fleet without tenants.
    members = make_fleet_spec("venice", "perf", "hm_0", SCALE,
                              devices=1, tenants=3).members
    assert FleetSpec(members=members).tenants == 3
    with pytest.raises(ConfigurationError, match="tenant"):
        make_spec("venice", "perf", "hm_0", SCALE,
                  fleet="member 0/1; tenants 0; placement round-robin")


def test_mixed_design_fleet_label_lists_every_member():
    fleet = make_fleet_spec(["venice", "nossd"], "perf", "hm_0", SCALE,
                            devices=2)
    assert "venice,nossd" in fleet.label()
