"""In-process service internals the black-box battery cannot reach:
worker failure handling, discovery-file errors, bind failures, lifecycle
guards.  Everything user-visible stays covered over real HTTP in the
sibling modules."""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.service import (
    DISCOVERY_FILE,
    ServiceConfig,
    SimulationService,
    read_discovery,
)


def _service(tmp_path, **overrides) -> SimulationService:
    return SimulationService(
        ServiceConfig(state_dir=tmp_path / "state", **overrides)
    )


def test_worker_failure_marks_the_job_failed(tmp_path):
    service = _service(tmp_path)
    # A payload that validates structurally but cannot rebuild into specs
    # (corrupt canonical record) fails inside the worker, not the daemon.
    service.job_store.submit(
        "f" * 64, "run", "broken", {"kind": "run", "specs": [{"bogus": 1}]}
    )
    assert service.job_store.start("f" * 64)
    service._execute("f" * 64)
    record = service.job_store.get("f" * 64)
    assert record["state"] == "failed"
    assert record["error"]  # the captured traceback travels with the job
    assert service._session["jobs_failed"] == 1
    assert service._session["jobs_done"] == 0


@pytest.mark.parametrize(
    "overrides, message",
    [({"jobs": 0}, "--jobs must be >= 1"), ({"timeout": 0}, "--timeout")],
)
def test_config_rejects_an_unusable_pool_before_making_state(
    tmp_path, overrides, message
):
    with pytest.raises(ConfigurationError, match=message):
        _service(tmp_path, **overrides)
    assert not (tmp_path / "state").exists()


def test_lifecycle_guards_before_start(tmp_path):
    service = _service(tmp_path)
    with pytest.raises(ServiceError, match="not started"):
        service.serve_forever()
    with pytest.raises(ServiceError, match="not started"):
        _ = service.port
    with pytest.raises(ServiceError, match="not started"):
        _ = service.host
    service.shutdown()  # a never-started service shuts down as a no-op


def test_bind_failure_is_a_service_error(tmp_path):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        service = _service(tmp_path, port=port)
        with pytest.raises(ServiceError, match="cannot bind"):
            service.start()
    finally:
        blocker.close()


def test_start_writes_discovery_and_shutdown_is_idempotent(tmp_path):
    service = _service(tmp_path, verbose=True)
    service.start()
    try:
        info = read_discovery(service.state_dir)
        assert info["port"] == service.port
        assert info["host"] == service.host
        assert info["pid"] > 0
    finally:
        service.shutdown()
        service.shutdown()  # second call must be harmless


def test_read_discovery_errors(tmp_path):
    with pytest.raises(ServiceError, match="is the daemon running"):
        read_discovery(tmp_path)
    (tmp_path / DISCOVERY_FILE).write_text("{not json")
    with pytest.raises(ServiceError, match="unreadable"):
        read_discovery(tmp_path)


def test_verbose_logging_goes_to_stderr(tmp_path, capsys):
    service = _service(tmp_path, verbose=True)
    service.log("hello")
    assert "hello" in capsys.readouterr().err
    quiet = _service(tmp_path, verbose=False)
    quiet.log("silence")
    assert capsys.readouterr().err == ""


def test_submit_is_idempotent_in_process(tmp_path):
    from repro.service.schema import job_from_payload

    service = _service(tmp_path)
    job = job_from_payload({"requests": 40})
    record, created = service.submit(job)
    assert created is True
    assert record["state"] == "queued"
    again, created_again = service.submit(job)
    assert created_again is False
    assert again["job_id"] == record["job_id"]
    # Only the creator enqueued: one pending id in the worker queue.
    assert service._queue.qsize() == 1
    assert service.job_store.counts()["queued"] == 1
    assert json.loads(json.dumps(record["payload"])) == job.canonical
