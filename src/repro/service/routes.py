"""The HTTP surface of the control plane.

Routing is deliberately tiny -- five endpoints, stdlib only:

==========================  =====================================================
``GET  /``                  embedded HTML dashboard (:mod:`repro.service.dashboard`)
``GET  /health``            liveness + pool/store/job-count statistics
``POST /v1/runs``           submit a run/sweep/fleet payload; job id = spec digest
``GET  /v1/runs/<job_id>``  one job's full record (result included when done)
``GET  /v1/jobs``           every job's summary, newest first
==========================  =====================================================

Handlers return :class:`Response` values; the
:class:`ServiceRequestHandler` glue writes them out.  Client errors are
*structured*: a malformed submission body answers 400 with the exact
:func:`~repro.experiments.spec.make_spec` /
:class:`~repro.errors.ConfigurationError` message, machine-readable under
``{"error": {"type", "message"}}``.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.service.dashboard import dashboard_html
from repro.service.schema import job_from_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.server import SimulationService

#: Maximum accepted ``POST /v1/runs`` body, bytes.  Far above any real
#: submission (payloads are a handful of names and knobs); bounds memory
#: against a misbehaving client.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class Response:
    """One materialised HTTP response (status, body, content type)."""

    status: int
    body: bytes
    content_type: str = "application/json"
    extra_headers: Tuple[Tuple[str, str], ...] = field(default=())


def json_response(status: int, payload: object) -> Response:
    """Serialise ``payload`` (non-JSON scalars via ``str``) as a response."""
    text = json.dumps(payload, indent=1, default=str)
    return Response(status=status, body=(text + "\n").encode("utf-8"))


def error_response(status: int, kind: str, message: str) -> Response:
    """The structured error envelope every failure path shares."""
    return json_response(
        status, {"error": {"type": kind, "message": message}}
    )


def handle_get(app: "SimulationService", path: str) -> Response:
    """Dispatch one GET by path."""
    if path in ("/", "/index.html"):
        return Response(
            status=200,
            body=dashboard_html().encode("utf-8"),
            content_type="text/html; charset=utf-8",
        )
    if path == "/health":
        return json_response(200, app.health())
    if path == "/v1/jobs":
        return json_response(200, {"jobs": app.job_store.list()})
    if path.startswith("/v1/runs/"):
        job_id = path[len("/v1/runs/"):]
        record = app.job_store.get(job_id)
        if record is None:
            return error_response(
                404, "not-found", f"no job {job_id[:64]!r}"
            )
        return json_response(200, record)
    return error_response(404, "not-found", f"no route for GET {path}")


def handle_post(app: "SimulationService", path: str, body: bytes) -> Response:
    """Dispatch one POST by path (``/v1/runs`` is the only target)."""
    if path != "/v1/runs":
        return error_response(404, "not-found", f"no route for POST {path}")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return error_response(
            400, "invalid-json", f"request body is not valid JSON: {error}"
        )
    try:
        job = job_from_payload(payload)
    except ServiceError:  # pragma: no cover - server-side invariant
        raise
    except ReproError as error:
        # The make_spec / schema validation message, verbatim: the 400 is
        # as actionable as the CLI error would have been.
        return error_response(400, type(error).__name__, str(error))
    record, created = app.submit(job)
    return json_response(
        201 if created else 200,
        {
            "job_id": job.job_id,
            "created": created,
            "kind": record["kind"],
            "label": record["label"],
            "state": record["state"],
        },
    )


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin stdlib glue: socket I/O in, :class:`Response` out.

    One instance per request (the threading server gives each its own
    thread); all state lives on the service attached to ``self.server``.
    """

    server_version = "venice-sim"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> "SimulationService":
        """The resident service this request operates on."""
        return self.server.app  # type: ignore[attr-defined]

    def _write(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _guarded(self, produce) -> None:
        """Run one handler; any unexpected failure becomes a clean 500."""
        try:
            response = produce()
        except Exception:  # noqa: BLE001 - a handler bug must not kill the daemon
            response = error_response(
                500, "internal", traceback.format_exc(limit=4)
            )
        try:
            self._write(response)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client hung up first; nothing to answer

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # Drain before answering 413: responding while the client is
            # still writing deadlocks once both socket buffers fill.
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            return None
        return self.rfile.read(length)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Serve one GET."""
        self._guarded(lambda: handle_get(self.app, self.path))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Serve one POST."""
        body = self._read_body()
        if body is None:
            self._guarded(
                lambda: error_response(
                    413, "too-large",
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                )
            )
            return
        self._guarded(lambda: handle_post(self.app, self.path, body))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route access logs through the service (quiet by default)."""
        self.app.log(f"{self.address_string()} {format % args}")
