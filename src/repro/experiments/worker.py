"""Work-queue workers: lease tasks, heartbeat, execute, retry, dead-letter.

Two consumers of :class:`~repro.experiments.queue.WorkQueue` live here:

* :class:`QueueWorker` -- the body of ``venice-sim worker --queue DIR``.
  Any number of them, on any hosts sharing the queue directory, lease
  tasks, keep their leases alive from a heartbeat thread while the
  simulation runs, write results content-addressed into the queue's bound
  result store, and record failures for retry with exponential backoff.
  A worker SIGKILLed mid-task simply stops heartbeating; the lease expires
  and any other participant reclaims the task.

* :class:`QueueExecutor` -- the executor backend behind ``--queue DIR`` on
  ``figure`` / ``matrix`` / ``faults sweep`` / ``fleet sweep``.  It
  enqueues the batch, *participates as a worker itself* (so a queued sweep
  completes even with no external workers), and waits until every task is
  done or dead-lettered.  Because task ids are spec digests and results
  are content-addressed, an interrupted queued sweep re-run converges to
  byte-identical results with zero lost and zero duplicated simulations;
  each result is written once, by the worker that ran it.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    QueueError,
    SimulationError,
    SpecRunError,
)
from repro.experiments.executor import Executor
from repro.experiments.queue import Task, WorkQueue, default_owner_id
from repro.experiments.spec import RunSpec
from repro.experiments.store import ResultStore
from repro.metrics.collector import RunResult


class _HeartbeatThread(threading.Thread):
    """Bump a task's lease mtime every ``interval`` seconds until stopped.

    The simulation itself is single-threaded and can legitimately spend
    longer than a lease between yield points, so liveness is delegated to
    this daemon thread; it dies with the process, which is exactly the
    signal the reaper keys on.
    """

    def __init__(self, queue: WorkQueue, task: Task, interval: float) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.task = task
        self.interval = interval
        self.stopped = threading.Event()
        self.lease_lost = threading.Event()

    def run(self) -> None:
        while not self.stopped.wait(self.interval):
            try:
                self.queue.heartbeat(self.task)
            except QueueError:
                # The reaper declared us dead while we were stalled; stop
                # renewing and let the executing thread observe the loss.
                self.lease_lost.set()
                return
            except OSError:  # pragma: no cover - transient shared-fs hiccup
                continue

    def stop(self) -> None:
        self.stopped.set()
        self.join(timeout=2.0)


class QueueWorker:
    """One queue-draining worker process.

    ``max_tasks`` bounds how many tasks this worker executes (``None`` =
    unbounded); ``idle_exit`` makes the worker return once the queue stays
    empty for that many seconds (``None`` = keep polling forever, the
    long-running fleet-host mode).  ``timeout`` is the per-task wall-clock
    limit: each task's spec runs through an :class:`Executor` with it,
    which kills a simulation that overruns it.
    """

    #: Seconds an idle worker (or a queued batch waiting on other workers'
    #: leases) sleeps before it polls the queue again.
    POLL_INTERVAL = 0.2

    def __init__(
        self,
        queue: WorkQueue,
        *,
        owner: Optional[str] = None,
        max_tasks: Optional[int] = None,
        idle_exit: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.queue = queue
        self.owner = owner or default_owner_id()
        self.max_tasks = max_tasks
        self.idle_exit = idle_exit
        self.executor = Executor(timeout=timeout)
        self.store = queue.result_store()
        self.completed = 0
        self.failed = 0
        self.reclaimed = 0

    def _execute(self, task: Task) -> None:
        """Run the task's spec; the executor stores its result.

        A warm-up-bearing spec restores its snapshot from the queue's
        store, where the sweep front end put it before enqueueing; a
        missing one is simulated and written back.
        """
        _, failures = self.executor.run([task.spec], self.store)
        if failures:
            raise failures[0]

    def run_task(self, task: Task) -> bool:
        """Execute one leased task end to end; True when it completed.

        The store is consulted first: a task whose result already exists
        (a previous owner was killed *after* the content-addressed write
        but *before* marking the task done) completes without simulating
        -- this is what guarantees zero duplicated simulations across
        crash/restart cycles.
        """
        heartbeat = _HeartbeatThread(
            self.queue, task, interval=self.queue.lease_seconds / 4.0
        )
        heartbeat.start()
        try:
            try:
                result = self.store.get(task.spec)
            except SimulationError:
                # A corrupt entry under this digest: re-simulate and let the
                # content-addressed put overwrite it with sound bytes,
                # instead of dead-lettering a perfectly runnable task.
                result = None
            if result is None:
                self._execute(task)
                if heartbeat.lease_lost.is_set():
                    # Someone else owns (or already re-ran) the task now.
                    # The content-addressed put was still safe -- both
                    # writers produce identical bytes -- but the queue
                    # bookkeeping belongs to the new owner.
                    return False
            self.queue.complete(task)
            self.completed += 1
            return True
        except SpecRunError as error:
            self.failed += 1
            self.queue.fail(task, f"{error.reason}: {error.detail}")
            return False
        except Exception:  # noqa: BLE001 - any failure becomes a retry
            self.failed += 1
            self.queue.fail(task, traceback.format_exc())
            return False
        finally:
            heartbeat.stop()

    def step(self) -> bool:
        """One poll cycle: reap expired leases, then run one task if any."""
        self.reclaimed += len(self.queue.reap())
        task = self.queue.claim(self.owner)
        if task is None:
            return False
        self.run_task(task)
        return True

    def run(self) -> Dict[str, object]:
        """Drain the queue until exhausted / idle-exit / max-tasks."""
        idle_since: Optional[float] = None
        while True:
            if (
                self.max_tasks is not None
                and self.completed + self.failed >= self.max_tasks
            ):
                break
            if self.step():
                idle_since = None
                continue
            now = time.monotonic()
            if self.idle_exit is not None:
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= self.idle_exit:
                    break
            time.sleep(self.POLL_INTERVAL)
        return {
            "owner": self.owner,
            "completed": self.completed,
            "failed": self.failed,
            "reclaimed": self.reclaimed,
        }


class QueueExecutor(Executor):
    """Executor backend that runs a spec batch through a work queue.

    Takes the place of :class:`~repro.experiments.executor.Executor` inside
    :func:`~repro.experiments.executor.execute_specs`: :meth:`run` enqueues
    every spec, participates in draining the queue (claim -- execute --
    store -- complete, exactly like an external worker), and polls until
    each spec is done or dead-lettered.  External ``venice-sim worker``
    processes sharing the directory speed the batch up and are
    interchangeable with the in-process participant.

    It stores no result itself: whichever worker ran a task wrote its
    result into the queue's bound store before marking the task done, so a
    batch writes each entry once.  It does resolve the batch's warm-ups
    into that store before enqueueing, once each, so no worker simulates
    one.  Dead-lettered specs come back as failures, so sweeps degrade
    gracefully instead of hanging.
    """

    def __init__(
        self, queue: WorkQueue, *, timeout: Optional[float] = None
    ) -> None:
        super().__init__(timeout=timeout)
        self.queue = queue
        self.worker = QueueWorker(queue, timeout=timeout)

    def run(
        self,
        specs: Sequence[RunSpec],
        store: Optional[ResultStore] = None,
    ) -> Tuple[List[Optional[RunResult]], List[SpecRunError]]:
        """Enqueue-and-wait; failures are the batch's dead-lettered specs.

        Results are read back from the queue's bound store, which is the
        only ``store`` a queued batch can fill.
        """
        bound = self.worker.store
        if store is not None and (
            store.directory.resolve() != bound.directory.resolve()
        ):
            raise ConfigurationError(
                f"a queued batch stores into the queue's store "
                f"{bound.directory}, not {store.directory}"
            )
        self._warm_up(specs, bound)
        by_digest = {spec.digest: spec for spec in specs}
        self.queue.enqueue_specs(list(specs))
        while not self.queue.drained(list(by_digest)):
            if not self.worker.step() and not self.queue.drained(
                list(by_digest)
            ):
                # Nothing claimable right now (other workers hold leases,
                # or retries are backing off): wait a beat.
                time.sleep(QueueWorker.POLL_INTERVAL)
        dead = self.queue.dead_letters()
        results: List[Optional[RunResult]] = []
        failures: List[SpecRunError] = []
        for spec in specs:
            if spec.digest in dead:
                letter = dead[spec.digest]
                errors = letter.get("errors") or ["(no captured error)"]
                failures.append(
                    SpecRunError(
                        spec.digest,
                        spec.label(),
                        "dead-letter",
                        f"gave up after {letter.get('attempts')} attempts; "
                        f"last error:\n{errors[-1]}",
                    )
                )
                results.append(None)
                continue
            result = bound.get(spec)
            if result is None:
                raise QueueError(
                    f"task {spec.digest[:12]} is marked done but its result "
                    f"is missing from {bound.directory}; run "
                    "`venice-sim store verify --repair` and re-run the sweep"
                )
            results.append(result)
            self.runs_completed += 1
        return results, failures
