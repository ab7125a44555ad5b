"""The streaming latency histogram against a run's raw latencies.

Every latency a run reports comes from the log-bucketed histogram
(DESIGN.md §5): the request count and mean latency are exact, and the p99,
CDF and tail-CDF points lie within the documented relative bound of the
values the raw per-request latencies give.
"""

import pytest

from repro.config.ssd_config import DesignKind
from repro.experiments.spec import ExperimentScale, make_spec
from repro.sim.stats import HISTOGRAM_RELATIVE_ERROR
from repro.ssd.device import SsdDevice
from test_histogram_merge import interpolated

TINY = ExperimentScale(
    requests=120,
    requests_per_mix_constituent=40,
    blocks_per_plane=8,
    pages_per_block=8,
)


@pytest.mark.parametrize("design", [DesignKind.BASELINE, DesignKind.VENICE])
def test_histogram_mode_matches_exact_mode_within_bound(design):
    spec = make_spec(design, "performance-optimized", "hm_0", TINY, with_cdf=True)
    config = spec.build_config()
    trace = spec.build_trace(config)
    device = SsdDevice(config, design, queue_pairs=TINY.queue_pairs)
    result = device.run_trace(trace.requests, trace.name, with_cdf=True)
    latencies = sorted(request.latency_ns for request in trace.requests)
    total = len(latencies)

    assert result.requests_completed == total
    assert result.mean_latency_ns == sum(latencies) / total
    assert result.p99_latency_ns == pytest.approx(
        interpolated(latencies, 0.99), rel=HISTOGRAM_RELATIVE_ERROR
    )
    assert result.tail_cdf
    for latency, fraction in result.tail_cdf:
        assert latency == pytest.approx(
            interpolated(latencies, fraction), rel=HISTOGRAM_RELATIVE_ERROR
        )
    assert result.latency_cdf
    for latency, fraction in result.latency_cdf:
        rank = min(total - 1, max(0, round(fraction * total) - 1))
        assert latency == pytest.approx(
            latencies[rank], rel=HISTOGRAM_RELATIVE_ERROR
        )


def test_retired_env_switch_changes_neither_digest_nor_result(monkeypatch):
    """``VENICE_EXACT_STATS`` once selected a raw-sample recorder; a run is
    now a function of its spec alone, whether or not the variable is set."""
    monkeypatch.delenv("VENICE_EXACT_STATS", raising=False)
    plain = make_spec(DesignKind.BASELINE, "performance-optimized", "hm_0", TINY)
    expected = plain.execute().to_dict()
    monkeypatch.setenv("VENICE_EXACT_STATS", "1")
    under_env = make_spec(DesignKind.BASELINE, "performance-optimized", "hm_0", TINY)
    assert under_env.digest == plain.digest
    assert under_env.execute().to_dict() == expected
