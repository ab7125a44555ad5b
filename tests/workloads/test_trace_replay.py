"""TraceWorkload replay, catalog preference, and spec-level determinism."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale, RunSpec, make_spec
from repro.experiments.store import ResultStore
from repro.workloads.catalog import generate_workload
from repro.workloads.formats import trace_digest
from repro.workloads.replay import TraceWorkload
from repro.workloads.synthetic import SECTOR

DATA = Path(__file__).parent / "data"
MSR = DATA / "msr_tiny.csv"

SCALE = ExperimentScale(requests=24, blocks_per_plane=8, pages_per_block=8)


# --------------------------------------------------------------------- #
# TraceWorkload adapter
# --------------------------------------------------------------------- #

def test_generate_fits_footprint_and_normalizes_arrivals():
    footprint = 16 << 20
    trace = TraceWorkload(MSR).generate(24, footprint)
    assert trace.name == "msr_tiny"
    assert len(trace) == 24
    assert trace.requests[0].arrival_ns == 0
    for request in trace:
        assert 0 <= request.offset_bytes
        assert request.offset_bytes + request.size_bytes <= footprint
        assert request.offset_bytes % SECTOR == 0
        assert request.size_bytes % SECTOR == 0


def test_generate_with_fewer_records_than_count_replays_all():
    trace = TraceWorkload(MSR).generate(1000, 16 << 20)
    assert len(trace) == 24


def test_time_scale_compresses_gaps():
    plain = TraceWorkload(MSR).generate(24, 16 << 20)
    warped = TraceWorkload(MSR, time_scale=0.5).generate(24, 16 << 20)
    assert warped.duration_ns == pytest.approx(plain.duration_ns / 2, abs=24)


def test_scale_policy_preserves_relative_layout():
    footprint = 16 << 20
    wrap = TraceWorkload(MSR, lba_policy="wrap").generate(24, footprint)
    scaled = TraceWorkload(MSR, lba_policy="scale").generate(24, footprint)
    assert len(wrap) == len(scaled)
    # Scaling maps the trace's whole address span linearly (then sector-
    # aligns and clamps each request to fit), so recorded offset order is
    # preserved away from the top-of-range clamp region.
    records = TraceWorkload(MSR).records()
    safe = footprint - 128 * 1024
    for i in range(24):
        for j in range(24):
            end_i = scaled.requests[i].offset_bytes + scaled.requests[i].size_bytes
            end_j = scaled.requests[j].offset_bytes + scaled.requests[j].size_bytes
            if max(end_i, end_j) >= safe:
                continue
            if records[i].offset_bytes < records[j].offset_bytes:
                assert (
                    scaled.requests[i].offset_bytes
                    <= scaled.requests[j].offset_bytes
                )


def test_replay_knobs_validated():
    with pytest.raises(WorkloadError):
        TraceWorkload(MSR, time_scale=0.0)
    with pytest.raises(WorkloadError):
        TraceWorkload(MSR, lba_policy="teleport")
    with pytest.raises(WorkloadError):
        TraceWorkload(MSR).generate(0, 16 << 20)


def test_replay_is_deterministic():
    first = TraceWorkload(MSR).generate(24, 16 << 20)
    second = TraceWorkload(MSR).generate(24, 16 << 20)
    assert [
        (r.arrival_ns, r.kind, r.offset_bytes, r.size_bytes) for r in first
    ] == [(r.arrival_ns, r.kind, r.offset_bytes, r.size_bytes) for r in second]


# --------------------------------------------------------------------- #
# catalog preference: real trace when present, synthetic fallback
# --------------------------------------------------------------------- #

def test_catalog_prefers_real_trace_with_synthetic_fallback(tmp_path, monkeypatch):
    (tmp_path / "hm_0.csv").write_text(MSR.read_text())
    monkeypatch.setenv("VENICE_TRACE_DIR", str(tmp_path))
    real = generate_workload("hm_0", count=24, footprint_bytes=16 << 20)
    assert len(real) == 24  # the tiny fixture, not 24 synthetic draws
    assert real.requests[0].arrival_ns == 0
    # proj_3 has no file in the directory: synthetic fallback.
    synthetic = generate_workload("proj_3", count=30, footprint_bytes=16 << 20)
    assert len(synthetic) == 30
    # source="synthetic" pins generation even when a file exists.
    pinned = generate_workload(
        "hm_0", count=30, footprint_bytes=16 << 20, source="synthetic"
    )
    assert len(pinned) == 30


def test_catalog_explicit_path_source():
    trace = generate_workload(
        "renamed", count=24, footprint_bytes=16 << 20, source=MSR
    )
    assert trace.name == "renamed"
    assert len(trace) == 24


# --------------------------------------------------------------------- #
# spec integration: identity, determinism, caching (acceptance criteria)
# --------------------------------------------------------------------- #

def test_trace_spec_records_content_digest():
    spec = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    assert spec.workload == "msr_tiny"
    assert spec.trace_digest == trace_digest(MSR)
    again = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    assert spec == again
    assert spec.digest == again.digest


def test_trace_spec_digest_is_location_independent(tmp_path):
    copy = tmp_path / "elsewhere" / "msr_tiny.csv"
    copy.parent.mkdir()
    copy.write_text(MSR.read_text())
    original = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    moved = make_spec("venice", "perf", f"trace:{copy}", SCALE)
    assert original.trace_path != moved.trace_path
    assert original.digest == moved.digest


def test_trace_options_enter_the_digest():
    plain = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    warped = make_spec(
        "venice", "perf", f"trace:{MSR}", SCALE,
        trace_options={"time_scale": 0.5},
    )
    assert plain.digest != warped.digest


def test_trace_spec_round_trips_through_dict():
    spec = make_spec(
        "venice", "perf", f"trace:{MSR}", SCALE,
        trace_options={"lba_policy": "scale"},
    )
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.digest == spec.digest


def test_trace_spec_field_validation():
    with pytest.raises(ConfigurationError):
        RunSpec("venice", "perf", "x", SCALE, trace_path="/tmp/x.csv")
    with pytest.raises(ConfigurationError):
        RunSpec("venice", "perf", "x", SCALE, trace_digest="ab" * 32)
    with pytest.raises(ConfigurationError):
        RunSpec(
            "venice", "perf", "x", SCALE,
            trace_options=(("time_scale", 0.5),),
        )
    with pytest.raises(ConfigurationError):
        make_spec("venice", "perf", "mix1", SCALE, trace=str(MSR))
    with pytest.raises(ConfigurationError):
        make_spec("venice", "perf", "trace:", SCALE)


def test_env_resolution_happens_at_spec_construction(tmp_path, monkeypatch):
    # With the directory set, the spec records the trace; clearing the
    # environment afterwards must not change what the spec executes.
    scale = ExperimentScale(requests=40, blocks_per_plane=8, pages_per_block=8)
    (tmp_path / "hm_0.csv").write_text(MSR.read_text())
    monkeypatch.setenv("VENICE_TRACE_DIR", str(tmp_path))
    trace_backed = make_spec("venice", "perf", "hm_0", scale)
    assert trace_backed.trace_path is not None
    monkeypatch.delenv("VENICE_TRACE_DIR")
    synthetic = make_spec("venice", "perf", "hm_0", scale)
    assert synthetic.trace_path is None
    assert trace_backed.digest != synthetic.digest
    # The trace-backed spec replays the 24-record fixture even though the
    # environment no longer names a trace directory (and the scale asks for
    # 40 requests): execution is a pure function of the spec.
    result = trace_backed.execute()
    assert result.requests_completed == 24
    assert synthetic.execute().requests_completed == 40
    # Mixes never auto-resolve: their digest is environment-independent.
    monkeypatch.setenv("VENICE_TRACE_DIR", str(tmp_path))
    mix_spec = make_spec("venice", "perf", "mix1", scale)
    assert mix_spec.trace_path is None


def test_msr_fixture_replays_deterministically_and_caches(tmp_path):
    """Acceptance: same trace + spec -> identical digest, bit-identical
    results, and a warm cache re-run performing zero simulations."""
    spec_a = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    spec_b = make_spec("venice", "perf", f"trace:{MSR}", SCALE)
    assert spec_a.digest == spec_b.digest

    first = spec_a.execute().to_dict()
    second = spec_b.execute().to_dict()
    assert first == second  # bit-identical across two fresh runs

    store = ResultStore(tmp_path)
    cold_executor = Executor()
    cold = execute_specs([spec_a], executor=cold_executor, store=store)
    assert cold_executor.runs_completed == 1
    assert cold[spec_a].to_dict() == first

    warm_executor = Executor()
    warm = execute_specs([spec_b], executor=warm_executor, store=store)
    assert warm_executor.runs_completed == 0  # zero simulations on re-run
    assert warm[spec_b].to_dict() == first


def test_executor_validates_trace_before_fanout(tmp_path):
    doomed = tmp_path / "doomed.csv"
    doomed.write_text(MSR.read_text())
    spec = make_spec("venice", "perf", f"trace:{doomed}", SCALE)
    # The file changes after the spec was built: the batch must fail fast
    # with a digest-mismatch error, before any simulation runs.
    doomed.write_text(MSR.read_text().replace("Read", "Write"))
    executor = Executor()
    with pytest.raises(WorkloadError, match="changed since the spec"):
        execute_specs([spec], executor=executor)
    assert executor.runs_completed == 0
    # A deleted file fails the same way.
    doomed.unlink()
    with pytest.raises(WorkloadError):
        execute_specs([spec], executor=executor)


def test_cached_result_survives_trace_relocation(tmp_path):
    original = tmp_path / "a" / "msr_tiny.csv"
    original.parent.mkdir()
    original.write_text(MSR.read_text())
    store = ResultStore(tmp_path / "store")
    spec = make_spec("venice", "perf", f"trace:{original}", SCALE)
    execute_specs([spec], store=store)
    # Move the file: a spec built from the new location hits the same entry.
    moved = tmp_path / "b" / "msr_tiny.csv"
    moved.parent.mkdir()
    original.rename(moved)
    relocated = make_spec("venice", "perf", f"trace:{moved}", SCALE)
    executor = Executor()
    results = execute_specs([relocated], executor=executor, store=store)
    assert executor.runs_completed == 0
    assert results[relocated].requests_completed == 24
