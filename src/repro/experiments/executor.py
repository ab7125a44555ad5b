"""The executor: run spec sets and store each result the moment it arrives.

The (design x preset x workload) matrix is embarrassingly parallel -- every
run builds a fresh single-use :class:`~repro.ssd.device.SsdDevice` -- so one
:class:`Executor` covers every mode: inline in the calling process
(``jobs=1``), fanned out over a process pool whose workers rebuild the
config and trace from the spec (``jobs>1``), or one killable subprocess per
spec (any ``timeout``).  Every mode produces bit-identical
:class:`RunResult`\\ s for the same specs because the simulation is fully
seeded by the spec itself, and every mode writes a result to the store the
moment it arrives, so an interrupted batch keeps each cell that finished.

:func:`execute_specs` is the orchestration entry point figures, the CLI and
the service use: it deduplicates specs, satisfies what it can from an
optional :class:`~repro.experiments.store.ResultStore`, and executes only
the misses.

Two robustness layers harden long sweeps:

* a per-spec wall-clock ``timeout`` runs each simulation in its own killable
  subprocess -- a hung cell is killed and reported instead of stalling the
  batch;
* a worker process dying inside the multiprocessing pool (OOM kill, host
  fault) no longer surfaces as an opaque ``BrokenProcessPool`` that loses
  the whole sweep: the unfinished specs are re-run in isolated single-spec
  subprocesses, which completes every healthy cell and names the digest of
  the spec that keeps killing its worker.

Both layers report failures as :class:`~repro.errors.SpecRunError` entries
inside one :class:`~repro.errors.ExecutionError`, which
:func:`execute_specs` raises only after every other spec has finished and
been stored.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import sys
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ExecutionError, SpecRunError
from repro.experiments.spec import RunSpec
from repro.metrics.collector import RunResult
from repro.sim.checkpoint import CheckpointStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.experiments.store import ResultStore
    from repro.experiments.worker import QueueExecutor


def execute_spec(
    spec: RunSpec, checkpoints: Optional[CheckpointStore] = None
) -> RunResult:
    """Module-level worker entry point (picklable for multiprocessing)."""
    return spec.execute(checkpoints)


def _compute_checkpoint(spec: RunSpec) -> Tuple[str, dict]:
    """Worker entry point: one warm-up simulation -> (digest, snapshot)."""
    return spec.checkpoint_digest, spec.compute_checkpoint()[0]


def checkpoint_ref(checkpoints: Optional[CheckpointStore]) -> object:
    """A picklable reference that rebuilds a checkpoint store in a worker.

    The directory path for disk-backed stores (workers lazily read the
    pre-computed files), the preloaded state dict for memory-only stores,
    ``None`` for no store.
    """
    if checkpoints is None:
        return None
    if checkpoints.directory is not None:
        return str(checkpoints.directory)
    return dict(checkpoints._memory)


def _rebuild_checkpoints(ref: object) -> Optional[CheckpointStore]:
    if isinstance(ref, str):
        return CheckpointStore(ref)
    if isinstance(ref, dict):
        return CheckpointStore(preload=ref)
    return None


def _execute_packed(packed: Tuple[RunSpec, object]) -> RunResult:
    """Worker entry point for checkpointed parallel runs.

    ``packed`` is ``(spec, ref)`` where ``ref`` is a
    :func:`checkpoint_ref`.  The parent pre-computes every needed
    checkpoint before fan-out, so workers only ever *read* the store.
    """
    spec, ref = packed
    return execute_spec(spec, _rebuild_checkpoints(ref))


def _worker_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (cheap, inherits sys.path); spawn everywhere else.

    macOS lists fork as available but forking there is unsafe once system
    frameworks or threads have been touched, which is why CPython defaults
    it to spawn -- honour that.
    """
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else "spawn"
    )


def _subprocess_entry(conn, spec: RunSpec, ref: object) -> None:
    """Single-spec subprocess body: execute and ship the outcome back.

    Sends ``("ok", RunResult)`` or ``("error", traceback_text)`` over the
    pipe; a process that dies before sending anything (SIGKILL, segfault)
    is detected by the parent as a crash.
    """
    try:
        result = execute_spec(spec, _rebuild_checkpoints(ref))
        conn.send(("ok", result))
    except BaseException:  # noqa: BLE001 - ship *any* failure to the parent
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_isolated(
    specs: Sequence[RunSpec],
    ref: object,
    jobs: int,
    timeout: Optional[float],
    finish: Callable[[int, RunResult], None],
) -> List[SpecRunError]:
    """Run each spec in its own subprocess, at most ``jobs`` at a time.

    Unlike a shared process pool, one subprocess per spec means a crash or
    a kill is attributable to exactly one spec, and a hung spec can be
    killed without disturbing its siblings.  Each result goes to
    ``finish(index, result)`` as it arrives; the failures are returned.
    """
    ctx = _worker_context()
    failures: List[SpecRunError] = []
    pending = deque(enumerate(specs))
    live: Dict[int, Tuple[object, object, Optional[float]]] = {}
    try:
        while pending or live:
            while pending and len(live) < jobs:
                index, spec = pending.popleft()
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_subprocess_entry,
                    args=(child, spec, ref),
                    daemon=True,
                )
                proc.start()
                child.close()
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                live[index] = (proc, parent, deadline)
            multiprocessing.connection.wait(
                [conn for _, conn, _ in live.values()], timeout=0.05
            )
            now = time.monotonic()
            for index in list(live):
                proc, conn, deadline = live[index]
                spec = specs[index]
                outcome = None
                if conn.poll():
                    try:
                        outcome = conn.recv()
                    except EOFError:
                        outcome = None  # died between connect and send
                if outcome is not None:
                    status, payload = outcome
                    if status == "ok":
                        finish(index, payload)
                    else:
                        failures.append(
                            SpecRunError(
                                spec.digest, spec.label(), "exception", payload
                            )
                        )
                elif not proc.is_alive():
                    failures.append(
                        SpecRunError(
                            spec.digest,
                            spec.label(),
                            "crash",
                            f"worker subprocess died with exit code "
                            f"{proc.exitcode} before reporting a result",
                        )
                    )
                elif deadline is not None and now > deadline:
                    proc.kill()
                    proc.join()
                    failures.append(
                        SpecRunError(
                            spec.digest,
                            spec.label(),
                            "timeout",
                            f"simulation exceeded the {timeout:g}s wall-clock "
                            "limit and was killed",
                        )
                    )
                else:
                    continue  # still running
                proc.join()
                conn.close()
                del live[index]
    finally:
        for proc, conn, _ in live.values():  # pragma: no cover - safety net
            proc.kill()
            proc.join()
            conn.close()
    return failures


def _run_pool(
    specs: Sequence[RunSpec],
    ref: object,
    workers: int,
    finish: Callable[[int, RunResult], None],
) -> None:
    """One shared pool pass, finishing each result as it completes.

    A spec lost to pool breakage is left unfinished; any other exception a
    spec raises propagates.
    """
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_worker_context()
    ) as pool:
        futures = {
            pool.submit(_execute_packed, (spec, ref)): index
            for index, spec in enumerate(specs)
        }
        for future in as_completed(futures):
            if not isinstance(future.exception(), BrokenProcessPool):
                finish(futures[future], future.result())


class Executor:
    """Run specs inline, over a process pool, or isolated per spec.

    ``jobs`` and ``timeout`` carry the CLI's ``--jobs`` and ``--timeout``
    semantics.  ``jobs=1`` runs specs one after another in the calling
    process; ``jobs>1`` fans them out over a process pool; a ``timeout``
    (seconds) runs each spec in its own killable subprocess, at most
    ``jobs`` at a time, since a shared pool cannot kill one hung member.
    A worker dying mid-spec (OOM kill, segfault) breaks the shared pool;
    the unfinished specs are then retried one subprocess per spec, so
    every healthy spec still completes and the offending spec's digest is
    reported.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"--timeout must be > 0, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.runs_completed = 0

    def run(
        self,
        specs: Sequence[RunSpec],
        checkpoints: Optional[CheckpointStore] = None,
        store: Optional["ResultStore"] = None,
    ) -> Tuple[List[Optional[RunResult]], List[SpecRunError]]:
        """Execute ``specs``, putting each result into ``store`` as it arrives.

        Returns the results in spec order (``None`` for a failed spec) and
        the collected per-spec failures.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)

        def finish(index: int, result: RunResult) -> None:
            results[index] = result
            self.runs_completed += 1
            if store is not None:
                store.put(specs[index], result)

        ref = checkpoint_ref(checkpoints)
        workers = min(self.jobs, len(specs))
        if self.timeout is not None:
            return results, _run_isolated(
                specs, ref, workers, self.timeout, finish
            )
        if workers <= 1:
            for index, spec in enumerate(specs):
                finish(index, execute_spec(spec, checkpoints))
            return results, []
        _run_pool(specs, ref, workers, finish)
        unfinished = [
            index for index, result in enumerate(results) if result is None
        ]
        # A non-empty remainder means the pool broke.  Finishing it one
        # subprocess per spec completes every healthy spec and precisely
        # identifies the spec whose execution kills its host process.
        failures = _run_isolated(
            [specs[index] for index in unfinished],
            ref,
            workers,
            None,
            lambda position, result: finish(unfinished[position], result),
        )
        return results, failures


def _prepare_checkpoints(
    specs: Sequence[RunSpec], checkpoints: CheckpointStore, jobs: int
) -> None:
    """Compute every missing warm-up checkpoint the specs need, in parent.

    Deduplicates by checkpoint digest (a whole matrix slice typically needs
    one checkpoint per design) and fans the warm-up simulations out over a
    process pool of up to ``jobs`` workers.  After this pre-pass, worker
    processes only ever read the store.
    """
    pending: Dict[str, RunSpec] = {}
    for spec in specs:
        digest = spec.checkpoint_digest
        if digest not in pending and digest not in checkpoints:
            pending[digest] = spec
    targets = list(pending.values())
    if jobs > 1 and len(targets) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(targets)), mp_context=_worker_context()
        ) as pool:
            for digest, state in pool.map(_compute_checkpoint, targets):
                checkpoints.put(digest, state)
    else:
        for spec in targets:
            digest, state = _compute_checkpoint(spec)
            checkpoints.put(digest, state)


def execute_specs(
    specs: Sequence[RunSpec],
    *,
    executor: Optional["Executor | QueueExecutor"] = None,
    store: Optional["ResultStore"] = None,
    checkpoints: Optional[CheckpointStore] = None,
) -> Dict[RunSpec, RunResult]:
    """Execute a spec set with deduplication and store-backed caching.

    Duplicate specs (figures sharing matrix slices) simulate once.  With a
    store, previously-computed results are served from cache and the
    executor stores each new result as it arrives, so a repeat invocation
    -- or the re-run of an interrupted one -- simulates only what is not
    stored yet.

    Specs that declare a warm-up phase share device checkpoints through
    ``checkpoints``; when none is supplied one is created automatically --
    disk-backed under ``<store>/checkpoints`` when a result store is in
    play (so warm-ups persist like results do), memory-only otherwise.
    Missing checkpoints are computed in a deduplicated pre-pass before
    the executor fans out, so N matrix cells of one design cost one
    warm-up simulation, not N.

    Per-spec failures (a hung spec killed by the executor's ``timeout``, a
    spec that crashes its worker process, a dead-lettered queue task) are
    collected, every *other* spec still executes and is stored, and one
    :class:`~repro.errors.ExecutionError` naming the failed digests is
    raised at the end -- a single bad cell costs one cell, not the sweep.
    """
    executor = executor or Executor()
    unique = list(dict.fromkeys(specs))  # order-preserving dedup (hashable specs)
    results: Dict[RunSpec, RunResult] = {}
    missing: List[RunSpec] = []
    for spec in unique:
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[spec] = cached
        else:
            missing.append(spec)
    # Trace availability is validated before fan-out: a missing or changed
    # trace file fails the whole batch here, with one clear error, instead
    # of surfacing as a pickled exception from some worker process.  Cached
    # specs are exempt -- their identity already pins the trace content.
    for spec in missing:
        spec.verify_trace()
    needs_warmup = [spec for spec in missing if spec.warmup]
    if needs_warmup:
        if checkpoints is None:
            checkpoints = CheckpointStore(
                store.directory / "checkpoints" if store is not None else None
            )
        _prepare_checkpoints(needs_warmup, checkpoints, executor.jobs)
    run_results, failures = executor.run(missing, checkpoints, store)
    for spec, result in zip(missing, run_results):
        if result is not None:  # a failed spec is reported below
            results[spec] = result
    if failures:
        raise ExecutionError(failures)
    return results
