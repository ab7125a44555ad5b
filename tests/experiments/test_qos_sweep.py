"""QoS isolation sweep: curve shapes, caching, and policy calibration."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import Executor
from repro.experiments.qos import (
    DEFAULT_BUCKET_BURST,
    default_policies,
    fair_share_rate,
    isolation_specs,
    qos_scale,
    run_qos_sweep,
    suggest_token_bucket,
)
from repro.experiments.spec import make_spec
from repro.experiments.store import ResultStore

SCALE = qos_scale(requests=120)
DESIGNS = ("baseline", "venice")
PLACEMENTS = ("round-robin",)
LEVELS = (1, 2, 4)


def _policies():
    return {
        "none": "",
        "token-bucket": suggest_token_bucket(scale=SCALE),
    }


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One cold sweep, shared by the curve assertions below."""
    store_dir = tmp_path_factory.mktemp("qos-sweep") / "store"
    executor = Executor()
    payload = run_qos_sweep(
        scale=SCALE,
        levels=LEVELS,
        policies=_policies(),
        designs=DESIGNS,
        placements=PLACEMENTS,
        executor=executor,
        store=ResultStore(store_dir),
    )
    return payload, executor, store_dir


def test_payload_shape(sweep):
    payload, _, _ = sweep
    assert payload["experiment"] == "qos-sweep"
    assert payload["levels"] == [1.0, 2.0, 4.0]
    assert payload["placements"] == ["round-robin"]
    assert set(payload["policies"]) == {"none", "token-bucket"}
    curve = payload["curve"]["round-robin"]
    for label in payload["policies"]:
        for design in payload["designs"]:
            cells = curve[label][design]
            assert [cell["level"] for cell in cells] == [1.0, 2.0, 4.0]
            for cell in cells:
                assert cell["victim_count"] > 0
                assert cell["victim_p99_ns"] > 0
                assert cell["burst_count"] > 0


def test_unprotected_victim_p99_is_monotone_in_burst_load(sweep):
    payload, _, _ = sweep
    for design in payload["designs"]:
        cells = payload["curve"]["round-robin"]["none"][design]
        p99s = [cell["victim_p99_ns"] for cell in cells]
        assert p99s == sorted(p99s)  # non-decreasing
        assert p99s[-1] > p99s[0]  # and the overload actually bites


def test_fair_share_token_bucket_bounds_the_victim_curve(sweep):
    payload, _, _ = sweep
    for design in payload["designs"]:
        none = payload["curve"]["round-robin"]["none"][design]
        shaped = payload["curve"]["round-robin"]["token-bucket"][design]
        # At the heaviest burst the shaped victims sit well under the
        # unprotected ones; the shaped curve never reaches the
        # unprotected endpoint at any level.
        assert shaped[-1]["victim_p99_ns"] < none[-1]["victim_p99_ns"]
        ceiling = max(cell["victim_p99_ns"] for cell in shaped)
        assert ceiling < none[-1]["victim_p99_ns"]


def test_warm_rerun_simulates_nothing_and_is_byte_identical(sweep):
    payload, _, store_dir = sweep
    warm_executor = Executor()
    warm = run_qos_sweep(
        scale=SCALE,
        levels=LEVELS,
        policies=_policies(),
        designs=DESIGNS,
        placements=PLACEMENTS,
        executor=warm_executor,
        store=ResultStore(store_dir),
    )
    assert warm_executor.runs_completed == 0
    assert json.dumps(warm, sort_keys=True) == json.dumps(
        payload, sort_keys=True
    )


def test_fair_share_rate_divides_out_the_target_pressure():
    rate = fair_share_rate("performance-optimized", "hm_0", SCALE)
    assert rate > 0
    nominal = rate * SCALE.target_pressure
    spec = suggest_token_bucket(scale=SCALE)
    assert spec.startswith("token-bucket:")
    assert spec.endswith(f",{DEFAULT_BUCKET_BURST:g}")
    # Headroom scales the metered rate linearly.
    doubled = suggest_token_bucket(scale=SCALE, headroom=2.0)
    assert doubled != spec
    assert nominal == pytest.approx(rate * SCALE.target_pressure)


def test_fair_share_rate_of_a_mix_meters_the_trace_its_cells_replay():
    spec = make_spec("venice", "performance-optimized", "mix1", SCALE)
    requests = spec.build_trace().requests
    span_s = (requests[-1].arrival_ns - requests[0].arrival_ns) / 1e9
    nominal = (len(requests) - 1) / span_s
    rate = fair_share_rate("performance-optimized", "mix1", SCALE)
    # A mix is accelerated to its own, hotter, pressure target.
    assert rate == pytest.approx(nominal / SCALE.mix_target_pressure)


def test_default_policies_cover_the_four_families():
    policies = default_policies(scale=SCALE)
    assert list(policies) == ["none", "token-bucket", "wfq", "slo"]
    assert policies["none"] == ""
    assert policies["wfq"] == "wfq:1,4,4,4"  # victims outweigh tenant 0
    assert policies["slo"].startswith("slo:")


def test_isolation_specs_baseline_shares_members_across_policies():
    plan = isolation_specs(
        "performance-optimized", "hm_0", SCALE,
        {"none": "", "also-none": ""},
        levels=(1,),
        designs=("venice",),
        placements=PLACEMENTS,
    )
    fleets = list(plan.values())
    assert len(fleets) == 2
    # Identical policies at the same level are one set of member digests:
    # the executor deduplicates them into a single simulation.
    assert fleets[0].digest == fleets[1].digest


def test_sweep_validates_its_axes():
    with pytest.raises(ConfigurationError):
        run_qos_sweep(scale=SCALE, levels=(0.5,), designs=("venice",))
    with pytest.raises(ConfigurationError):
        run_qos_sweep(scale=SCALE, tenants=4, burst_tenant=7)
    with pytest.raises(ConfigurationError):
        run_qos_sweep(scale=SCALE, policies=[])
