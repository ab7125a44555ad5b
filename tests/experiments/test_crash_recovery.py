"""Crash-recovery tests: SIGKILLed workers, hung specs, broken pools.

These are the teeth behind the robustness guarantees: a worker process
killed with ``kill -9`` mid-task loses its lease and the task re-executes
digest-identically elsewhere; a hung spec is killed at the ``--timeout``
wall-clock limit without stalling its batch; a spec that crashes its pool
worker is named by digest while every healthy spec still completes.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ExecutionError
from repro.experiments.executor import (
    Executor,
    execute_spec,
    execute_specs,
)
from repro.experiments.queue import WorkQueue
from repro.experiments.spec import make_spec
from repro.experiments.store import ResultStore
from repro.experiments.worker import QueueWorker
from test_store import SCALE

SPECS = [
    make_spec(design, "performance-optimized", workload, SCALE)
    for workload in ("proj_3", "YCSB_B")
    for design in ("baseline", "venice")
]

fork_only = pytest.mark.skipif(
    sys.platform != "linux",
    reason="relies on fork-start subprocesses inheriting monkeypatches",
)

posix_only = pytest.mark.skipif(
    sys.platform == "win32", reason="requires POSIX signals"
)


def _child_env():
    root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root)
    return env


# A worker stand-in that leases the task, proves liveness by heartbeating,
# and then "hangs" forever -- until the test SIGKILLs it mid-task.
_VICTIM_SCRIPT = """
import sys, time
from pathlib import Path
from repro.experiments.queue import WorkQueue

queue = WorkQueue(sys.argv[1])
task = queue.claim("victim")
assert task is not None
Path(sys.argv[2]).write_text(task.digest)
while True:
    queue.heartbeat(task)
    time.sleep(0.05)
"""


@posix_only
def test_sigkilled_worker_lease_expires_and_task_reexecutes(tmp_path):
    """kill -9 a live worker mid-task: lease expiry -> reclamation ->
    digest-identical re-execution by another worker."""
    spec = SPECS[0]
    queue = WorkQueue(
        tmp_path / "queue",
        store_dir=tmp_path / "store",
        lease_seconds=1.0,
        retry_delay=0.0,
    )
    queue.enqueue(spec)
    sentinel = tmp_path / "claimed.txt"
    victim = subprocess.Popen(
        [sys.executable, "-c", _VICTIM_SCRIPT, str(queue.directory),
         str(sentinel)],
        env=_child_env(), stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not sentinel.exists():
            assert victim.poll() is None, victim.stderr.read().decode()
            assert time.monotonic() < deadline, "victim never claimed"
            time.sleep(0.05)
        assert sentinel.read_text() == spec.digest
        # The victim is alive and heartbeating: nothing is reapable.
        time.sleep(0.3)
        assert queue.reap() == []
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup on failure
            victim.kill()
            victim.wait()

    # With the heartbeats gone the lease goes stale and is reclaimed.
    deadline = time.monotonic() + 15.0
    reclaimed = []
    while not reclaimed and time.monotonic() < deadline:
        reclaimed = queue.reap()
        time.sleep(0.05)
    assert reclaimed == [spec.digest]
    status = queue.status()
    assert (status["claimed"], status["ready"]) == (0, 1)

    # A rescuer worker picks the task up (attempt 2) and completes it with
    # a result byte-identical to an undisturbed serial execution.
    rescuer = QueueWorker(queue, owner="rescuer")
    assert rescuer.step() is True
    assert rescuer.completed == 1
    assert queue.drained([spec.digest])
    store = queue.result_store()
    assert store.get(spec) == execute_spec(spec)
    assert not store.verify()["corrupt"]


@fork_only
def test_timeout_kills_the_hung_spec_and_finishes_the_rest(
    tmp_path, monkeypatch
):
    hung = SPECS[0]
    real = execute_spec

    def hang_one(spec, checkpoints=None):
        if spec.digest == hung.digest:
            time.sleep(300.0)
        return real(spec, checkpoints)

    # Isolated subprocesses start via fork, so they inherit the patch.
    monkeypatch.setattr("repro.experiments.executor.execute_spec", hang_one)
    store = ResultStore(tmp_path)
    with pytest.raises(ExecutionError) as excinfo:
        execute_specs(
            SPECS[:3], executor=Executor(timeout=1.0), store=store
        )
    (failure,) = excinfo.value.failures
    assert (failure.digest, failure.reason) == (hung.digest, "timeout")
    # Every healthy spec executed and persisted before the raise.
    assert len(store) == 2
    monkeypatch.undo()
    for spec in SPECS[1:3]:
        assert store.get(spec) == execute_spec(spec)


@fork_only
def test_worker_crash_is_attributed_without_losing_the_sweep(
    tmp_path, monkeypatch
):
    """A spec that SIGKILLs its pool worker no longer costs the batch."""
    crasher = SPECS[2]
    real = execute_spec

    def crash_one(spec, checkpoints=None):
        if spec.digest == crasher.digest:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, checkpoints)

    monkeypatch.setattr("repro.experiments.executor.execute_spec", crash_one)
    store = ResultStore(tmp_path)
    with pytest.raises(ExecutionError) as excinfo:
        execute_specs(SPECS, executor=Executor(jobs=2), store=store)
    (failure,) = excinfo.value.failures
    assert (failure.digest, failure.reason) == (crasher.digest, "crash")
    assert "exit code" in failure.detail
    assert len(store) == len(SPECS) - 1  # every healthy spec persisted
    monkeypatch.undo()
    for spec in SPECS:
        if spec.digest != crasher.digest:
            assert store.get(spec) == execute_spec(spec)


@fork_only
def test_exception_in_isolated_subprocess_carries_the_traceback(monkeypatch):
    bad = SPECS[1]
    real = execute_spec

    def explode_one(spec, checkpoints=None):
        if spec.digest == bad.digest:
            raise ValueError("synthetic cell failure")
        return real(spec, checkpoints)

    monkeypatch.setattr("repro.experiments.executor.execute_spec", explode_one)
    executor = Executor(timeout=60.0)
    results, failures = executor.run(SPECS[:2])
    assert results[0] is not None and results[1] is None
    (failure,) = failures
    assert (failure.digest, failure.reason) == (bad.digest, "exception")
    assert "synthetic cell failure" in failure.detail
    assert "Traceback" in failure.detail
