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

Specs that declare a warm-up share device checkpoints: before it fans a
batch out, the executor resolves each distinct warm-up once -- read from
the store, or simulated (over the pool when ``jobs > 1``) and written back
to it -- and hands every run its snapshot by value, so N cells of one
design cost one warm-up simulation, not N.

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.experiments.store import ResultStore


def execute_spec(spec: RunSpec, state: Optional[dict] = None) -> RunResult:
    """Run one spec from its warm-up snapshot ``state`` (if it has one)."""
    return spec.execute(state)


def _execute_in_worker(spec: RunSpec, state: Optional[dict]) -> RunResult:
    """Pool entry point: looks :func:`execute_spec` up when it runs, so a
    forked worker calls the same function the parent would."""
    return execute_spec(spec, state)


def _worker_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (cheap, inherits sys.path); spawn everywhere else.

    macOS lists fork as available but forking there is unsafe once system
    frameworks or threads have been touched, which is why CPython defaults
    it to spawn -- honour that.
    """
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else "spawn"
    )


def _subprocess_entry(conn, spec: RunSpec, state: Optional[dict]) -> None:
    """Single-spec subprocess body: execute and ship the outcome back.

    Sends ``("ok", RunResult)`` or ``("error", traceback_text)`` over the
    pipe; a process that dies before sending anything (SIGKILL, segfault)
    is detected by the parent as a crash.
    """
    try:
        result = execute_spec(spec, state)
        conn.send(("ok", result))
    except BaseException:  # noqa: BLE001 - ship *any* failure to the parent
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_isolated(
    specs: Sequence[RunSpec],
    states: Sequence[Optional[dict]],
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
                    args=(child, spec, states[index]),
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
    states: Sequence[Optional[dict]],
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
            pool.submit(_execute_in_worker, spec, state): index
            for index, (spec, state) in enumerate(zip(specs, states))
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

    ``warmups`` counts the warm-ups this executor simulated and
    ``restores`` the runs it handed a warm-up snapshot.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"--timeout must be > 0, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.runs_completed = 0
        self.warmups = 0
        self.restores = 0

    def _warm_up(
        self, specs: Sequence[RunSpec], store: Optional["ResultStore"]
    ) -> List[Optional[dict]]:
        """Each spec's warm-up snapshot, ``None`` for a spec without one.

        Each distinct warm-up is read from ``store``, or simulated -- over
        a pool of up to ``jobs`` workers -- and written back to it.
        """
        digests = [
            spec.checkpoint_digest if spec.warmup else None for spec in specs
        ]
        # A spec without a warm-up (digest None) gets no snapshot.
        states: Dict[Optional[str], Optional[dict]] = {None: None}
        cold: Dict[str, RunSpec] = {}
        for spec, digest in zip(specs, digests):
            if digest in states or digest in cold:
                continue
            state = store.get_checkpoint(digest) if store is not None else None
            if state is None:
                cold[digest] = spec
            else:
                states[digest] = state
        workers = min(self.jobs, len(cold))
        warm_up = RunSpec.compute_checkpoint
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_worker_context()
            ) as pool:
                computed = list(pool.map(warm_up, cold.values()))
        else:
            computed = map(warm_up, cold.values())
        for digest, (state, _) in zip(cold, computed):
            states[digest] = state
            if store is not None:
                store.put_checkpoint(digest, state)
        self.warmups += len(cold)
        self.restores += len(specs) - digests.count(None)
        return [states[digest] for digest in digests]

    def run(
        self,
        specs: Sequence[RunSpec],
        store: Optional["ResultStore"] = None,
    ) -> Tuple[List[Optional[RunResult]], List[SpecRunError]]:
        """Execute ``specs``, putting each result into ``store`` as it arrives.

        Warm-ups are resolved first, through ``store`` when there is one.
        Returns the results in spec order (``None`` for a failed spec) and
        the collected per-spec failures.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)

        def finish(index: int, result: RunResult) -> None:
            results[index] = result
            self.runs_completed += 1
            if store is not None:
                store.put(specs[index], result)

        states = self._warm_up(specs, store)
        workers = min(self.jobs, len(specs))
        if self.timeout is not None:
            return results, _run_isolated(
                specs, states, workers, self.timeout, finish
            )
        if workers <= 1:
            for index, spec in enumerate(specs):
                finish(index, execute_spec(spec, states[index]))
            return results, []
        _run_pool(specs, states, workers, finish)
        unfinished = [
            index for index, result in enumerate(results) if result is None
        ]
        # A non-empty remainder means the pool broke.  Finishing it one
        # subprocess per spec completes every healthy spec and precisely
        # identifies the spec whose execution kills its host process.
        failures = _run_isolated(
            [specs[index] for index in unfinished],
            [states[index] for index in unfinished],
            workers,
            None,
            lambda position, result: finish(unfinished[position], result),
        )
        return results, failures


def execute_specs(
    specs: Sequence[RunSpec],
    *,
    executor: Optional[Executor] = None,
    store: Optional["ResultStore"] = None,
) -> Dict[RunSpec, RunResult]:
    """Execute a spec set with deduplication and store-backed caching.

    Duplicate specs (figures sharing matrix slices) simulate once.  With a
    store, previously-computed results are served from cache and the
    executor stores each new result -- and each warm-up snapshot it
    simulates -- as it arrives, so a repeat invocation, or the re-run of
    an interrupted one, simulates only what is not stored yet.

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
    run_results, failures = executor.run(missing, store)
    for spec, result in zip(missing, run_results):
        if result is not None:  # a failed spec is reported below
            results[spec] = result
    if failures:
        raise ExecutionError(failures)
    return results
