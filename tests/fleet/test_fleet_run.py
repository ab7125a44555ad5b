"""Fleet execution: roll-ups, caching, determinism, edge cases."""

import pytest

from repro.experiments.executor import Executor
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore
from repro.fleet.run import run_fleet, run_fleet_sweep
from repro.fleet.spec import make_fleet_spec

SCALE = ExperimentScale(requests=48, blocks_per_plane=8, pages_per_block=8)


def test_single_device_fleet_matches_the_plain_run_bit_for_bit():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=1,
                            tenants=1)
    plain = make_spec("venice", "perf", "hm_0", SCALE, export_histogram=True)
    member_result = fleet.members[0].execute()
    plain_result = plain.execute()
    assert member_result.to_dict() == plain_result.to_dict()


def test_roll_up_aggregates_members():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=3,
                            tenants=6)
    payload = run_fleet(fleet)
    per_device = payload["per_device"]
    assert payload["devices"] == 3 and len(per_device) == 3
    assert payload["requests_completed"] == sum(
        cell["requests_completed"] for cell in per_device
    )
    assert payload["requests_completed"] == 3 * SCALE.requests
    assert payload["makespan_ns"] == max(
        cell["execution_time_ns"] for cell in per_device
    )
    assert payload["latency"]["count"] == payload["requests_completed"]
    # merged percentiles bracket sensibly and the p999 tail dominates
    latency = payload["latency"]
    assert 0 < latency["p50_ns"] <= latency["p99_ns"] <= latency["p999_ns"]
    assert latency["p999_ns"] <= latency["max_ns"]
    assert payload["aggregate_iops"] > 0
    assert payload["imbalance"]["max_over_mean"] >= 1.0


def test_mixed_design_fleet_reports_per_member_designs():
    fleet = make_fleet_spec(["venice", "baseline"], "perf", "hm_0", SCALE,
                            tenants=4)
    payload = run_fleet(fleet)
    assert payload["member_designs"] == ["venice", "baseline"]
    assert [cell["design"] for cell in payload["per_device"]] == [
        "venice", "baseline",
    ]


def test_warm_store_serves_a_fleet_without_simulating(tmp_path):
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                            tenants=4)
    store = ResultStore(tmp_path / "store")
    executor = Executor()
    cold = run_fleet(fleet, executor=executor, store=store)
    assert executor.runs_completed == 2
    warm_executor = Executor()
    warm = run_fleet(fleet, executor=warm_executor,
                     store=ResultStore(tmp_path / "store"))
    assert warm_executor.runs_completed == 0  # zero simulations
    assert warm == cold


def test_parallel_fleet_results_are_bit_identical_to_serial():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=3,
                            tenants=6, placement="stripe:64KiB")
    serial = run_fleet(fleet, executor=Executor())
    parallel = run_fleet(fleet, executor=Executor(4))
    assert serial == parallel


def test_empty_member_share_yields_an_all_zero_result():
    """hash placement with one tenant starves every other device."""
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=3,
                            tenants=1, placement="hash-tenant")
    payload = run_fleet(fleet)
    counts = [cell["requests_completed"] for cell in payload["per_device"]]
    assert sorted(counts) == [0, 0, 3 * SCALE.requests]
    assert payload["requests_completed"] == 3 * SCALE.requests
    # starved members roll up as zero-IOPS devices, not errors
    zero_cells = [cell for cell in payload["per_device"]
                  if cell["requests_completed"] == 0]
    assert all(cell["iops"] == 0.0 for cell in zero_cells)
    assert payload["imbalance"]["min"] == 0.0


def test_thousands_of_tenants_over_a_small_budget():
    fleet = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                            tenants=2000)
    payload = run_fleet(fleet)
    assert payload["requests_completed"] == 2 * SCALE.requests
    assert payload["tenants"] == 2000


def test_fleet_composes_with_fault_injection():
    """Killing one member's links moves that member, not the others."""
    healthy = make_fleet_spec("venice", "perf", "hm_0", SCALE, devices=2,
                              tenants=4)
    degraded = make_fleet_spec(
        "venice", "perf", "hm_0", SCALE, devices=2, tenants=4,
        faults={1: "0 link (0,2)-(0,3) down; 0 link (1,2)-(1,3) down"},
    )
    healthy_payload = run_fleet(healthy)
    degraded_payload = run_fleet(degraded)
    # member 0 specs are identical in both fleets -> identical results
    assert (healthy_payload["per_device"][0]
            == degraded_payload["per_device"][0])
    # member 1 simulated a degraded fabric (distinct spec, fault telemetry)
    assert healthy.members[1].digest != degraded.members[1].digest
    assert degraded.members[1].faults != ""


def test_sweep_grid_shares_the_store_and_stays_deterministic(tmp_path):
    kwargs = dict(
        device_counts=(1, 2), placements=("rr", "hash"), tenants=5,
        scale=SCALE,
    )
    store = ResultStore(tmp_path / "store")
    executor = Executor()
    cold = run_fleet_sweep("venice", "perf", "hm_0", executor=executor,
                           store=store, **kwargs)
    simulated = executor.runs_completed
    assert simulated > 0
    warm_executor = Executor(4)
    warm = run_fleet_sweep("venice", "perf", "hm_0", executor=warm_executor,
                           store=ResultStore(tmp_path / "store"), **kwargs)
    assert warm_executor.runs_completed == 0
    assert warm == cold
    assert cold["placements"] == ["round-robin", "hash-tenant"]
    assert cold["device_counts"] == [1, 2]
    for placement in cold["placements"]:
        for count in cold["device_counts"]:
            cell = cold["curve"][placement][count]
            assert cell["requests_completed"] == count * SCALE.requests


def test_sweep_throughput_grows_with_devices(tmp_path):
    payload = run_fleet_sweep(
        "venice", "perf", "hm_0", scale=SCALE, device_counts=(1, 4),
        placements=("round-robin",), tenants=8,
        store=ResultStore(tmp_path / "store"),
    )
    curve = payload["curve"]["round-robin"]
    assert curve[4]["aggregate_iops"] > curve[1]["aggregate_iops"]


def test_sweep_rejects_empty_axes():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_fleet_sweep("venice", "perf", "hm_0", scale=SCALE,
                        device_counts=())
    with pytest.raises(ConfigurationError):
        run_fleet_sweep("venice", "perf", "hm_0", scale=SCALE,
                        device_counts=(0,))
