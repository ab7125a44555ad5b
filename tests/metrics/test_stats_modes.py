"""Exact-vs-histogram equivalence at the device level.

The acceptance bar for the streaming-histogram migration: with exact stats
the run output is bit-identical to the historical recorder; in histogram
mode only the percentile/CDF fields may move, and only within the
documented relative bound.
"""

import pytest

from repro.config.ssd_config import DesignKind
from repro.experiments.spec import ExperimentScale, make_spec
from repro.metrics.collector import MetricsCollector
from repro.sim.stats import HISTOGRAM_RELATIVE_ERROR

TINY = ExperimentScale(
    requests=120,
    requests_per_mix_constituent=40,
    blocks_per_plane=8,
    pages_per_block=8,
)

# Fields allowed to differ between modes (and only within the bound).
APPROXIMATE_FIELDS = {"p99_latency_ns", "latency_cdf", "tail_cdf"}


def _run(design: DesignKind, exact: bool):
    spec = make_spec(
        design, "performance-optimized", "hm_0", TINY,
        with_cdf=True, exact_stats=exact,
    )
    return spec.execute()


@pytest.mark.parametrize("design", [DesignKind.BASELINE, DesignKind.VENICE])
def test_histogram_mode_matches_exact_mode_within_bound(design):
    exact = _run(design, exact=True).to_dict()
    hist = _run(design, exact=False).to_dict()
    # exact_stats rides in device_kwargs, so remove the knob's own echo.
    for field in exact:
        if field in APPROXIMATE_FIELDS:
            continue
        assert hist[field] == exact[field], field
    assert hist["p99_latency_ns"] == pytest.approx(
        exact["p99_latency_ns"], rel=HISTOGRAM_RELATIVE_ERROR
    )
    for (approx_latency, f1), (true_latency, f2) in zip(
        hist["latency_cdf"], exact["latency_cdf"]
    ):
        assert f1 == f2
        assert approx_latency == pytest.approx(
            true_latency, rel=HISTOGRAM_RELATIVE_ERROR
        )
    for (approx_latency, f1), (true_latency, f2) in zip(
        hist["tail_cdf"], exact["tail_cdf"]
    ):
        assert f1 == f2
        assert approx_latency == pytest.approx(
            true_latency, rel=HISTOGRAM_RELATIVE_ERROR
        )


def test_exact_mode_is_deterministic_across_runs():
    first = _run(DesignKind.BASELINE, exact=True).to_dict()
    second = _run(DesignKind.BASELINE, exact=True).to_dict()
    assert first == second


def test_collector_mode_flag_controls_recorders():
    exact = MetricsCollector(exact_stats=True)
    hist = MetricsCollector(exact_stats=False)
    assert exact.latencies.exact
    assert not hist.latencies.exact


def test_env_switch_flips_collector_default(monkeypatch):
    monkeypatch.setenv("VENICE_EXACT_STATS", "1")
    assert MetricsCollector().exact_stats is True
    monkeypatch.delenv("VENICE_EXACT_STATS")
    assert MetricsCollector().exact_stats is False


def test_env_switch_is_resolved_at_spec_construction(monkeypatch):
    """The stats mode lives in the spec digest, not in execution-time env.

    A shared result store must never serve histogram-mode results to an
    exact-stats run (or vice versa), so make_spec folds VENICE_EXACT_STATS
    into device_kwargs and execute() pins the mode.
    """
    monkeypatch.delenv("VENICE_EXACT_STATS", raising=False)
    plain = make_spec(DesignKind.BASELINE, "performance-optimized", "hm_0", TINY)
    monkeypatch.setenv("VENICE_EXACT_STATS", "1")
    exact = make_spec(DesignKind.BASELINE, "performance-optimized", "hm_0", TINY)
    assert dict(exact.device_kwargs)["exact_stats"] is True
    assert "exact_stats" not in dict(plain.device_kwargs)
    assert plain.digest != exact.digest
    # Executing the mode-less spec under the env switch still runs in its
    # recorded (histogram) mode: the run is a pure function of the spec.
    hist_under_env = plain.execute().to_dict()
    monkeypatch.delenv("VENICE_EXACT_STATS")
    hist_plain = plain.execute().to_dict()
    assert hist_under_env == hist_plain
