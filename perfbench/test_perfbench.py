"""Checks of the benchmark's own machinery.

Run alone with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import layers
import pipelines

HERE = Path(__file__).resolve().parent

#: A fleet job small enough for a unit test, through the same code path.
SMALL_FLEET = dict(pipelines.FLEET_JOB, devices=16, sample=2, requests=40)


def _runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="per-thread cProfile needs CPython < 3.12"
)
def test_traced_serve_fleet_attributes_time_on_service_threads(tmp_path):
    # The service simulates on its worker thread and parses submissions on
    # HTTP handler threads; a profiler of the calling thread alone would
    # see none of the fleet dispatch, the device, or the schema.
    tracer = layers.Tracer()
    outcome = pipelines.serve_fleet(
        42, tmp_path, tracer=tracer, resubmits=2, job=SMALL_FLEET
    )
    assert outcome.failures == []
    metrics = tracer.metrics({
        "store_bytes": outcome.store_bytes,
        "queue_wait_s": outcome.queue_wait_s,
        "record_bytes": outcome.record_bytes,
        "wall_s": outcome.wall_s,
    })
    assert metrics["fleet.self_s"] > 0 and metrics["fleet.dispatch_s"] > 0
    assert metrics["ssd.self_s"] > 0 and metrics["ssd.simulate_s"] > 0
    assert metrics["service.schema_s"] > 0
    assert metrics["fleet.dispatch_calls"] == 2 * pipelines.FLEET_SEEDS
    assert any(name.startswith("venice-sim-worker") for name in tracer.threads())


def test_benchmark_json_lists_what_the_runs_report():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(pipelines.WORKLOADS)
    assert [
        (metric["name"], metric["unit"]) for metric in declared["end_to_end"]
    ] == list(_runner().END_TO_END)
    assert [
        (metric["name"], metric["unit"]) for metric in declared["per_layer"]
    ] == [(name, unit) for name, unit, _ in layers.PER_LAYER]
