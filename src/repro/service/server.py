"""The resident daemon: HTTP front end plus the background worker pool.

:class:`SimulationService` owns everything ``venice-sim serve`` boots:

* a :class:`~http.server.ThreadingHTTPServer` running the routes in
  :mod:`repro.service.routes` (one thread per in-flight request),
* ``jobs`` worker threads draining accepted job ids from an in-process
  queue and executing them through the existing
  :func:`~repro.experiments.executor.execute_specs` /
  :func:`~repro.fleet.run.run_fleet` stack against the shared
  content-addressed :class:`~repro.experiments.store.ResultStore`,
* the persistent :class:`~repro.service.jobs.JobStore` both halves agree
  through.

Crash safety is a composition, not a feature: the job table knows what
was accepted (and survives the process), the result store knows what was
simulated (content-addressed, also survives), so :meth:`start` merely
moves orphaned ``running`` records back to ``queued`` and re-enqueues
every queued id.  Re-execution pulls whatever the dead daemon already
finished straight from the store and simulates only the remainder --
which is why a SIGKILLed sweep, restarted, converges on results
byte-identical to an uninterrupted run.

After binding, the daemon writes ``service.json`` (host, resolved port,
pid) into the state directory; with ``--port 0`` that file is how clients
and the test battery discover the ephemeral port.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import traceback
import sys
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError, ServiceError
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.store import ResultStore
from repro.fileio import atomic_write_text
from repro.service.jobs import JobStore
from repro.service.routes import ServiceRequestHandler
from repro.service.schema import Job, job_from_record

#: Name of the discovery file written into the state directory after bind.
DISCOVERY_FILE = "service.json"

_WORKER_JOIN_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``venice-sim serve`` resolves from its flags.

    ``port=0`` binds an OS-assigned ephemeral port (read it back from
    ``service.json`` or :attr:`SimulationService.port`).  ``jobs`` is the
    number of worker threads (>= 1) and ``timeout`` the per-spec execution
    timeout in seconds (> 0), ``None`` for no limit; either out of range
    raises :class:`~repro.errors.ConfigurationError` before anything is
    created.
    """

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 2
    timeout: Optional[float] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"--timeout must be > 0, got {self.timeout}"
            )


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    # Restarting on the same --state dir must not fail on a lingering
    # TIME_WAIT socket from the previous daemon.
    allow_reuse_address = True

    def __init__(self, address, handler, app: "SimulationService") -> None:
        self.app = app
        super().__init__(address, handler)


class SimulationService:
    """One resident control plane over one state directory.

    The state directory is the whole identity of a service: the job table
    (``service.sqlite3``) and the result store (``store/``) live inside
    it, and any daemon pointed at the same directory serves the same jobs
    and the same cache.  Start order: :meth:`start` (bind + adopt +
    spawn workers), then :meth:`serve_forever` on the main thread;
    :meth:`shutdown` unwinds both.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.job_store = JobStore(self.state_dir / "service.sqlite3")
        self.store_dir = self.state_dir / "store"
        # Open the store at boot, so a retired store layout fails here
        # rather than in every job (it is created by the first result).
        ResultStore(self.store_dir)
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._workers: Tuple[threading.Thread, ...] = ()
        self._httpd: Optional[_Server] = None
        self._lock = threading.Lock()
        self._serving = threading.Event()
        self._busy = 0
        self._session = {
            "simulations": 0, "cache_hits": 0, "jobs_done": 0,
            "jobs_failed": 0,
        }
        self._started_at = time.time()
        self.adopted: Tuple[str, ...] = ()

    # -- lifecycle -------------------------------------------------------- #

    def start(self) -> None:
        """Bind, adopt orphans, re-enqueue queued work, spawn the pool."""
        self.adopted = tuple(self.job_store.adopt_orphans())
        for job_id in self.adopted:
            self.log(f"adopted orphaned job {job_id[:12]} back to queued")
        try:
            self._httpd = _Server(
                (self.config.host, self.config.port),
                ServiceRequestHandler,
                self,
            )
        except OSError as error:
            raise ServiceError(
                f"cannot bind {self.config.host}:{self.config.port}: {error}"
            )
        self._workers = tuple(
            threading.Thread(
                target=self._worker, name=f"venice-sim-worker-{index}",
                daemon=True,
            )
            for index in range(self.config.jobs)
        )
        for worker in self._workers:
            worker.start()
        # Enqueue after the workers exist, oldest first, so a backlog
        # left by a dead daemon starts draining immediately.
        for job_id in self.job_store.queued_ids():
            self._queue.put(job_id)
        self._write_discovery()
        self.log(
            f"serving on http://{self.host}:{self.port} "
            f"({len(self._workers)} workers)"
        )

    def serve_forever(self) -> None:
        """Block the calling thread on the HTTP loop until shutdown."""
        if self._httpd is None:
            raise ServiceError("service not started; call start() first")
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self._serving.clear()

    def shutdown(self) -> None:
        """Stop accepting requests and wind the worker pool down.

        Safe to call more than once.  In-flight jobs get a bounded grace
        period; anything still running when the process exits is exactly
        the crash case the next boot's adoption pass repairs.
        """
        if self._httpd is not None:
            if self._serving.is_set():
                # BaseServer.shutdown() blocks on serve_forever's exit
                # event; calling it on a bound-but-not-serving server
                # would wait forever.
                self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=_WORKER_JOIN_TIMEOUT_S)
        self._workers = ()

    @property
    def host(self) -> str:
        """The bound host (valid after :meth:`start`)."""
        if self._httpd is None:
            raise ServiceError("service not started; call start() first")
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port -- the resolved one when configured as 0."""
        if self._httpd is None:
            raise ServiceError("service not started; call start() first")
        return self._httpd.server_address[1]

    def _write_discovery(self) -> None:
        payload = {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "started_at": self._started_at,
        }
        atomic_write_text(
            self.state_dir / DISCOVERY_FILE, json.dumps(payload, indent=1) + "\n"
        )

    def log(self, message: str) -> None:
        """One stderr line per event when ``--verbose``; silent otherwise."""
        if self.config.verbose:
            print(f"[venice-sim serve] {message}", file=sys.stderr)

    # -- submission (called from HTTP handler threads) --------------------- #

    def submit(self, job: Job) -> Tuple[Dict[str, object], bool]:
        """Accept one validated job; returns ``(record, created)``.

        ``INSERT OR IGNORE`` in the job table decides who created the
        record; only the creating caller enqueues, so N concurrent
        duplicate submissions dispatch the job exactly once and every
        caller reads back the same record under the same id.
        """
        created = self.job_store.submit(
            job.job_id, job.kind, job.label, job.canonical
        )
        if created:
            self._queue.put(job.job_id)
            self.log(f"queued {job.kind} job {job.job_id[:12]} ({job.label})")
        record = self.job_store.get(job.job_id)
        if record is None:  # pragma: no cover - the insert just succeeded
            raise ServiceError(f"job {job.job_id[:12]} vanished after submit")
        return record, created

    # -- execution (worker threads) ---------------------------------------- #

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            # The guarded claim: a stale or duplicate queue entry (the job
            # already ran, or another worker holds it) is dropped here.
            if not self.job_store.start(job_id):
                continue
            with self._lock:
                self._busy += 1
            try:
                self._execute(job_id)
            finally:
                with self._lock:
                    self._busy -= 1

    def _execute(self, job_id: str) -> None:
        record = self.job_store.get(job_id)
        if record is None:  # pragma: no cover - ids come from the table
            raise ServiceError(f"no record for claimed job {job_id[:12]}")
        # A fresh store per job makes `simulated` a pure delta: every
        # write this store performs belongs to this job.
        store = ResultStore(self.store_dir)
        executor = Executor(timeout=self.config.timeout)
        try:
            # Rebuild inside the guard: a corrupt persisted record must
            # fail its job, not kill the worker thread.
            job = job_from_record(job_id, record["payload"])
            result = self._result_payload(job, store, executor)
        except Exception:  # noqa: BLE001 - a failed job must not kill a worker
            self.job_store.fail(job_id, traceback.format_exc(limit=8))
            with self._lock:
                self._session["jobs_failed"] += 1
            self.log(f"job {job_id[:12]} failed")
            return
        counters = store.counters()
        self.job_store.finish(job_id, result, simulated=counters["writes"])
        with self._lock:
            self._session["jobs_done"] += 1
            self._session["simulations"] += counters["writes"]
            self._session["cache_hits"] += counters["hits"]
        self.log(
            f"job {job_id[:12]} done "
            f"({counters['writes']} simulated, {counters['hits']} cached)"
        )

    @staticmethod
    def _result_payload(
        job: Job, store: ResultStore, executor: Executor
    ) -> dict:
        # One batch per job: the executor stores each cell as it finishes,
        # which is the durable progress restart adoption converges from.
        if job.kind == "fleet":
            from repro.fleet.run import run_fleet

            return run_fleet(job.fleet, executor=executor, store=store)
        results = execute_specs(job.specs, executor=executor, store=store)
        runs = [
            {
                "digest": spec.digest,
                "label": spec.label(),
                "result": results[spec].to_dict(),
            }
            for spec in job.specs
        ]
        if job.kind == "run":
            return {"experiment": "run", **runs[0]}
        return {"experiment": "sweep", "runs": runs}

    # -- observability ------------------------------------------------------ #

    def health(self) -> Dict[str, object]:
        """The ``/health`` payload: liveness plus pool/store/job statistics."""
        with self._lock:
            busy = self._busy
            session = dict(self._session)
        store = ResultStore(self.store_dir)
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
            "host": self.host,
            "port": self.port,
            "jobs": self.job_store.counts(),
            "adopted_on_boot": len(self.adopted),
            "pool": {
                "workers": len(self._workers),
                "busy": busy,
                "backlog": self._queue.qsize(),
            },
            "store": {"results": len(store)},
            "session": session,
        }


def read_discovery(state_dir: Union[str, Path]) -> Dict[str, object]:
    """Parse ``service.json`` from a state directory.

    Raises :class:`~repro.errors.ServiceError` when no daemon has written
    one -- the caller is probably pointing at the wrong ``--state``.
    """
    path = Path(state_dir) / DISCOVERY_FILE
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ServiceError(
            f"no {DISCOVERY_FILE} in {state_dir}; is the daemon running "
            "with this --state directory?"
        )
    except (OSError, ValueError) as error:
        raise ServiceError(f"unreadable {path}: {error}")
