"""Per-tenant latency histograms: exact merging and round-tripping."""

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale
from repro.fleet.run import merge_latency_payloads, merge_tenant_payloads
from repro.fleet.spec import make_fleet_spec
from repro.metrics.collector import RunResult
from repro.sim.stats import LatencyRecorder

SCALE = ExperimentScale(
    requests=120, requests_per_mix_constituent=50, seed=42
)


def _tenant_result():
    fleet = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=1, tenants=3, burst="0x2",  # arms export_tenant_histograms
    )
    results = execute_specs(list(fleet.members), executor=Executor())
    return results[fleet.members[0]]


def test_merged_tenant_recorders_equal_one_combined_recorder():
    """The per-tenant split loses nothing: merging every tenant's recorder
    reproduces the member's overall latency histogram exactly."""
    result = _tenant_result()
    assert result.tenant_histograms and len(result.tenant_histograms) == 3
    merged = merge_latency_payloads(
        list(result.tenant_histograms.values())
    )
    combined = LatencyRecorder.from_payload(result.latency_histogram)
    assert merged.to_payload() == combined.to_payload()
    assert merged.count == combined.count
    assert merged.p99 == combined.p99


def test_tenant_histograms_round_trip_through_result_serialisation():
    result = _tenant_result()
    clone = RunResult.from_dict(result.to_dict())
    assert clone.tenant_histograms == result.tenant_histograms
    assert clone.to_dict() == result.to_dict()


def test_merge_tenant_payloads_merges_across_members():
    result = _tenant_result()
    # The same member twice stands in for two devices: every tenant's
    # merged recorder must hold both devices' samples.
    merged = merge_tenant_payloads([result, result])
    assert sorted(merged, key=int) == sorted(
        result.tenant_histograms, key=int
    )
    for tenant, recorder in merged.items():
        single = LatencyRecorder.from_payload(
            result.tenant_histograms[tenant]
        )
        assert recorder.count == 2 * single.count


def test_plain_specs_export_no_tenant_histograms():
    fleet = make_fleet_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        devices=1, tenants=3,  # no qos/burst: collector gate stays off
    )
    results = execute_specs(list(fleet.members), executor=Executor())
    result = results[fleet.members[0]]
    assert result.tenant_histograms is None
    assert merge_tenant_payloads([result]) == {}
