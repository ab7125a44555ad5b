"""Black-box API battery: every endpoint over real HTTP.

One live daemon per test (fresh state directory); the only client is
stdlib ``urllib``.  Covers the happy path end to end, the structured-400
contract for malformed submissions, 404s, and the embedded dashboard.
"""

from __future__ import annotations

import json

RUN = {"design": "venice", "workload": "hm_0", "requests": 40, "seed": 7}


def test_health_reports_pool_store_and_job_counts(daemon):
    status, health = daemon.get("/health")
    assert status == 200
    assert health["status"] == "ok"
    assert health["pid"] > 0
    assert health["pool"] == {"workers": 2, "busy": 0, "backlog": 0}
    assert health["store"] == {"results": 0}
    assert health["jobs"] == {
        "queued": 0, "running": 0, "done": 0, "failed": 0,
    }
    assert health["session"] == {
        "simulations": 0, "cache_hits": 0, "jobs_done": 0, "jobs_failed": 0,
    }


def test_run_job_end_to_end(daemon):
    status, accepted = daemon.post_json("/v1/runs", RUN)
    assert status == 201
    assert accepted["created"] is True
    assert accepted["kind"] == "run"
    job_id = accepted["job_id"]
    assert len(job_id) == 64  # the job id IS the spec's sha256 digest

    record = daemon.wait_for(job_id)
    assert record["state"] == "done"
    assert record["attempts"] == 1
    assert record["simulated"] == 1
    assert record["error"] is None
    result = record["result"]
    assert result["experiment"] == "run"
    assert result["digest"] == job_id
    assert result["result"]["requests_completed"] > 0
    assert result["result"]["iops"] > 0
    # The persisted payload is the canonical spec, not the request body.
    assert record["payload"]["kind"] == "run"
    assert record["payload"]["specs"][0]["design"] == "venice"

    status, listing = daemon.get("/v1/jobs")
    assert status == 200
    summaries = {job["job_id"]: job for job in listing["jobs"]}
    assert summaries[job_id]["state"] == "done"
    assert "payload" not in summaries[job_id]  # summaries stay lean

    status, health = daemon.get("/health")
    assert health["jobs"]["done"] == 1
    assert health["session"]["jobs_done"] == 1
    assert health["session"]["simulations"] == 1
    assert health["store"]["results"] == 1


def test_sweep_job_runs_every_cell(daemon):
    status, accepted = daemon.post_json(
        "/v1/runs",
        {
            "kind": "sweep",
            "designs": ["venice", "baseline"],
            "workloads": ["hm_0"],
            "requests": 40,
        },
    )
    assert status == 201
    record = daemon.wait_for(accepted["job_id"])
    assert record["state"] == "done"
    assert record["simulated"] == 2
    runs = record["result"]["runs"]
    assert [run["result"]["design"] for run in runs] == ["venice", "baseline"]


def test_fleet_job_rolls_up(daemon):
    status, accepted = daemon.post_json(
        "/v1/runs",
        {
            "kind": "fleet",
            "design": "venice",
            "devices": 2,
            "tenants": 4,
            "requests": 40,
        },
    )
    assert status == 201
    record = daemon.wait_for(accepted["job_id"])
    assert record["state"] == "done"
    assert record["simulated"] == 2
    result = record["result"]
    assert result["experiment"] == "fleet-run"
    assert result["devices"] == 2
    assert result["aggregate_iops"] > 0
    assert result["latency"]["p99_ns"] > 0


def test_unknown_job_and_route_are_structured_404s(daemon):
    status, body = daemon.get("/v1/runs/" + "0" * 64)
    assert status == 404
    assert body["error"]["type"] == "not-found"

    status, body = daemon.get("/v1/nope")
    assert status == 404
    assert body["error"]["type"] == "not-found"

    status, body = daemon.post_json("/v1/nope", {})
    assert status == 404
    assert body["error"]["type"] == "not-found"


def test_malformed_bodies_return_structured_400s(daemon):
    # Not JSON at all.
    status, body = daemon.post("/v1/runs", b"not json {")
    assert status == 400
    assert body["error"]["type"] == "invalid-json"

    # JSON, but not an object.
    status, body = daemon.post_json("/v1/runs", [1, 2, 3])
    assert status == 400
    assert body["error"]["type"] == "ConfigurationError"
    assert "JSON object" in body["error"]["message"]

    # Unknown kind.
    status, body = daemon.post_json("/v1/runs", {"kind": "banana"})
    assert status == 400
    assert "banana" in body["error"]["message"]

    # Unknown field, named back to the client.
    status, body = daemon.post_json("/v1/runs", {"desing": "venice"})
    assert status == 400
    assert "desing" in body["error"]["message"]
    assert "accepted" in body["error"]["message"]

    # Bad value type.
    status, body = daemon.post_json("/v1/runs", {"requests": "lots"})
    assert status == 400
    assert "requests" in body["error"]["message"]

    # The make_spec message itself surfaces verbatim: unknown design.
    status, body = daemon.post_json("/v1/runs", {"design": "warp-drive"})
    assert status == 400
    assert body["error"]["type"] == "ConfigurationError"
    assert "warp-drive" in body["error"]["message"]

    # Fleet jobs reject single-device amortization knobs.
    status, body = daemon.post_json(
        "/v1/runs", {"kind": "fleet", "warmup": "steady"}
    )
    assert status == 400
    assert "warmup" in body["error"]["message"]

    # An unknown workload is refused at submission, named back.
    status, body = daemon.post_json("/v1/runs", {"workload": "bogus"})
    assert status == 400
    assert body["error"]["type"] == "WorkloadError"
    assert "bogus" in body["error"]["message"]

    # Nothing malformed ever created a job.
    _, health = daemon.get("/health")
    assert health["jobs"] == {
        "queued": 0, "running": 0, "done": 0, "failed": 0,
    }


def test_dashboard_is_a_self_contained_page(daemon):
    status, page = daemon.get("/")
    assert status == 200
    assert page.startswith("<!DOCTYPE html>")
    assert "venice-sim service" in page
    # Self-contained: no external scripts, stylesheets, images, or fonts.
    for external in ("<script src", "<link", "<img", "@import", "https://"):
        assert external not in page
    # It drives the same JSON API the tests do.
    for endpoint in ("/health", "/v1/jobs", "/v1/runs/"):
        assert endpoint in page


def test_oversized_body_is_rejected(daemon):
    padding = json.dumps({"design": "venice", "pad": "x" * (1 << 20)})
    status, body = daemon.post("/v1/runs", padding.encode("utf-8"))
    assert status == 413
    assert body["error"]["type"] == "too-large"
    _, listing = daemon.get("/v1/jobs")
    assert listing["jobs"] == []
