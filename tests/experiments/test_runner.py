"""Runner machinery tests: pressure metric, acceleration, suites."""

import pytest

from repro.config.ssd_config import DesignKind
from repro.experiments.runner import run_design_suite, run_suite
from repro.experiments.spec import (
    ALL_DESIGNS,
    ExperimentScale,
    accelerate_to_pressure,
    build_config,
    channel_pressure,
    footprint_for,
    trace_for,
)
from repro.workloads.catalog import generate_workload

SCALE = ExperimentScale(requests=120, blocks_per_plane=8, pages_per_block=8)


def test_build_config_applies_scale():
    config = build_config("performance-optimized", SCALE)
    assert config.geometry.blocks_per_plane == 8
    assert config.geometry.pages_per_block == 8
    assert config.geometry.total_chips == 64  # geometry never scaled


def test_channel_pressure_definition():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "hm_0", count=500, footprint_bytes=footprint_for(config, SCALE)
    )
    pressure = channel_pressure(trace, config)
    page = config.geometry.page_size
    per_page = config.interconnect.channel_transfer_ns(page)
    pages = sum((r.size_bytes + page - 1) // page for r in trace.requests)
    expected = pages * per_page / (trace.duration_ns * 8)
    assert pressure == pytest.approx(expected)


def test_acceleration_reaches_target():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "hm_0", count=500, footprint_bytes=footprint_for(config, SCALE)
    )
    accelerated = accelerate_to_pressure(trace, config, target=1.5, max_acceleration=256)
    assert channel_pressure(accelerated, config) == pytest.approx(1.5, rel=0.02)


def test_acceleration_never_stretches():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "ssd-10", count=400, footprint_bytes=footprint_for(config, SCALE)
    )
    before = channel_pressure(trace, config)
    accelerated = accelerate_to_pressure(
        trace, config, target=before / 10, max_acceleration=256
    )
    assert accelerated is trace  # already above target: unchanged


def test_acceleration_cap_respected():
    config = build_config("performance-optimized", SCALE)
    trace = generate_workload(
        "LUN3", count=300, footprint_bytes=footprint_for(config, SCALE)
    )
    accelerated = accelerate_to_pressure(trace, config, target=1.6, max_acceleration=4)
    assert channel_pressure(accelerated, config) <= channel_pressure(
        trace, config
    ) * 4 * 1.01


def test_trace_for_mix_uses_table3_constituents():
    config = build_config("performance-optimized", SCALE)
    trace = trace_for("mix1", config, SCALE, mix=True)
    assert {r.queue_id for r in trace.requests} == {0, 1}


def test_run_design_suite_skips_pnssd_on_rectangular_arrays():
    config = build_config("performance-optimized", SCALE).with_geometry(4, 16)
    trace = trace_for("proj_3", config, SCALE)
    results = run_design_suite(config, trace, SCALE, ALL_DESIGNS)
    assert "pnssd" not in results
    assert "venice" in results
    assert "baseline" in results


def test_benchmark_and_paper_scales_differ():
    assert ExperimentScale.benchmark().requests < ExperimentScale.paper().requests


def test_run_suite_matches_materialized_design_suite():
    """The declarative (spec-based) path reproduces the materialized path."""
    config = build_config("performance-optimized", SCALE)
    trace = trace_for("proj_3", config, SCALE)
    materialized = run_design_suite(config, trace, SCALE, ALL_DESIGNS)
    declarative = run_suite("performance-optimized", "proj_3", SCALE)
    assert declarative == materialized
