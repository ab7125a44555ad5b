"""Work-queue tests: leases, reaping, retries, dead letters, executors."""

import json
import os
import sys
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError, QueueError
from repro.experiments.executor import Executor, execute_spec, execute_specs
from repro.experiments.queue import WorkQueue, default_owner_id
from repro.experiments.spec import make_spec
from repro.experiments.store import ResultStore
from repro.experiments.worker import (
    QueueExecutor,
    QueueWorker,
    _HeartbeatThread,
)
from test_store import SCALE, corrupt_entry, sample_result

SPECS = [
    make_spec(design, "performance-optimized", "proj_3", SCALE)
    for design in ("baseline", "venice")
]


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("store_dir", tmp_path / "store")
    return WorkQueue(tmp_path / "queue", **kwargs)


def backdate_claim(queue, digest, by_seconds):
    """Age a claim's mtime so its lease reads as expired."""
    path = queue.claims_dir / f"{digest}.json"
    stamp = time.time() - by_seconds
    os.utime(path, (stamp, stamp))


# -- enqueue / claim lifecycle ------------------------------------------- #


def test_enqueue_is_idempotent_by_digest(tmp_path):
    queue = make_queue(tmp_path)
    assert queue.enqueue(SPECS[0]) is True
    assert queue.enqueue(SPECS[0]) is False  # same digest: no second task
    assert queue.enqueue_specs(SPECS) == 1  # only the new one counts
    assert queue.status()["tasks"] == 2
    assert queue.spec_for(SPECS[0].digest) == SPECS[0]


def test_claim_is_exclusive_and_round_trips_the_spec(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    assert task is not None
    assert (task.spec, task.owner, task.attempt) == (SPECS[0], "worker-a", 1)
    # The O_EXCL claim file means a second claimant finds nothing.
    assert queue.claim("worker-b") is None
    assert WorkQueue(queue.directory).claim("worker-c") is None


def test_two_workers_split_the_queue_without_overlap(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue_specs(SPECS)
    first = queue.claim("worker-a")
    second = WorkQueue(queue.directory).claim("worker-b")
    assert {first.digest, second.digest} == {spec.digest for spec in SPECS}


def test_complete_marks_done_and_releases_the_claim(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    queue.complete(task)
    status = queue.status()
    assert (status["done"], status["claimed"], status["ready"]) == (1, 0, 0)
    assert queue.drained([SPECS[0].digest])
    assert queue.claim("worker-b") is None  # done tasks are never re-leased


def test_heartbeat_renews_and_detects_a_lost_lease(tmp_path):
    queue = make_queue(tmp_path, lease_seconds=5.0)
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    backdate_claim(queue, task.digest, by_seconds=4.0)
    queue.heartbeat(task)  # renews: mtime is fresh again
    assert not queue._lease_expired(
        queue.claims_dir / f"{task.digest}.json", time.time() + 4.0
    )
    # A reaper takes the lease away -> the old owner's heartbeat raises.
    backdate_claim(queue, task.digest, by_seconds=6.0)
    assert queue.reap() == [task.digest]
    with pytest.raises(QueueError, match="lease"):
        queue.heartbeat(task)


# -- reaping, retries, dead letters -------------------------------------- #


def test_expired_lease_is_reclaimed_and_charged_as_an_attempt(tmp_path):
    queue = make_queue(tmp_path, lease_seconds=5.0, retry_delay=0.0)
    queue.enqueue(SPECS[0])
    task = queue.claim("victim")
    assert queue.reap() == []  # live lease: nothing to reap
    backdate_claim(queue, task.digest, by_seconds=6.0)
    assert queue.status()["expired_leases"] == 1
    assert queue.reap() == [task.digest]
    # The reclaimed task is claimable again, now on its second attempt.
    retry = queue.claim("rescuer")
    assert retry is not None and retry.attempt == 2


def test_failed_attempts_back_off_exponentially(tmp_path):
    queue = make_queue(
        tmp_path, max_attempts=5, retry_delay=100.0, retry_backoff=2.0
    )
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    assert queue.fail(task, "boom") is False  # retry, not dead
    status = queue.status()
    assert (status["in_backoff"], status["ready"]) == (1, 0)
    assert queue.claim("worker-a") is None  # not eligible until backoff ends
    record = queue._retry_path(task.digest)
    payload = json.loads(record.read_text())
    assert payload["attempts"] == 1
    first_delay = payload["not_before"] - time.time()
    assert 90.0 < first_delay <= 100.0
    # Second failure doubles the delay (retry_delay * backoff ** 1).
    payload["not_before"] = 0.0
    record.write_text(json.dumps(payload))
    task = queue.claim("worker-a")
    queue.fail(task, "boom again")
    payload = json.loads(record.read_text())
    assert payload["attempts"] == 2
    assert payload["not_before"] - time.time() > 150.0


def test_task_dead_letters_after_max_attempts_with_captured_errors(tmp_path):
    queue = make_queue(tmp_path, max_attempts=2, retry_delay=0.0)
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    assert queue.fail(task, "first traceback") is False
    task = queue.claim("worker-a")
    assert task.attempt == 2
    assert queue.fail(task, "second traceback") is True
    letters = queue.dead_letters()
    assert set(letters) == {SPECS[0].digest}
    letter = letters[SPECS[0].digest]
    assert letter["attempts"] == 2
    assert letter["errors"] == ["first traceback", "second traceback"]
    assert letter["spec"] == SPECS[0].to_dict()
    assert queue.claim("worker-a") is None  # dead tasks are never re-leased
    assert queue.drained([SPECS[0].digest])
    assert queue.status()["dead"] == 1


# -- frozen configuration ------------------------------------------------ #


def test_queue_config_is_frozen_at_creation(tmp_path):
    queue = make_queue(tmp_path, lease_seconds=7.0, max_attempts=4)
    queue.enqueue(SPECS[0])  # the first task writes queue.json
    # Later participants pick the frozen policy up from queue.json alone.
    reopened = WorkQueue(queue.directory)
    assert reopened.lease_seconds == 7.0
    assert reopened.max_attempts == 4
    assert reopened.store_dir == queue.store_dir
    assert reopened.result_store().directory == queue.store_dir


def test_queue_ignores_the_store_layout_an_older_queue_json_names(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    config_path = queue.directory / "queue.json"
    config = json.loads(config_path.read_text())
    config["store_backend"] = "sqlite"
    config_path.write_text(json.dumps(config))
    reopened = WorkQueue(queue.directory)
    assert reopened.store_dir == queue.store_dir
    assert "store_backend" not in reopened.status()
    reopened.result_store().put(SPECS[0], sample_result())
    assert list(queue.store_dir.glob("*.json"))  # the flat layout


def test_queue_refuses_a_conflicting_store_binding(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    with pytest.raises(QueueError, match="bound to store"):
        WorkQueue(queue.directory, store_dir=tmp_path / "elsewhere")


def test_a_queue_appears_with_its_first_task(tmp_path):
    queue = make_queue(tmp_path, lease_seconds=7.0)
    later = make_queue(tmp_path, lease_seconds=9.0)
    elsewhere = make_queue(tmp_path, store_dir=tmp_path / "elsewhere")
    assert not queue.directory.exists()
    assert queue.status()["tasks"] == 0
    assert queue.claim("idle") is None
    queue.enqueue(SPECS[0])
    assert json.loads((queue.directory / "queue.json").read_text())[
        "store_dir"
    ] == str(queue.store_dir)
    # Participants opened before the first task take the frozen policy.
    later.enqueue(SPECS[1])
    assert later.lease_seconds == 7.0
    with pytest.raises(QueueError, match="bound to store"):
        elsewhere.enqueue(SPECS[1])
    assert queue.status()["tasks"] == 2


def test_a_queue_at_a_regular_file_is_refused(tmp_path):
    (tmp_path / "queue").write_text("")
    with pytest.raises(ConfigurationError, match="as a queue directory"):
        make_queue(tmp_path)


def test_queue_rejects_nonsense_policy(tmp_path):
    with pytest.raises(QueueError, match="lease_seconds"):
        make_queue(tmp_path, lease_seconds=0.0)
    with pytest.raises(QueueError, match="max_attempts"):
        make_queue(tmp_path, max_attempts=0)


# -- workers and the queue executor -------------------------------------- #


def test_worker_drains_the_queue_and_persists_results(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue_specs(SPECS)
    worker = QueueWorker(queue, idle_exit=0.0)
    summary = worker.run()
    assert summary["completed"] == len(SPECS)
    assert summary["failed"] == 0
    assert queue.drained([spec.digest for spec in SPECS])
    store = queue.result_store()
    for spec in SPECS:
        assert store.get(spec) == execute_spec(spec)


def test_worker_skips_simulation_when_the_store_already_has_the_result(
    tmp_path, monkeypatch
):
    """Crash-after-put recovery: a present result completes without re-running."""
    queue = make_queue(tmp_path)
    result = execute_spec(SPECS[0])
    queue.result_store().put(SPECS[0], result)
    queue.enqueue(SPECS[0])
    monkeypatch.setattr(
        "repro.experiments.executor.execute_spec",
        lambda *a, **k: pytest.fail("must not simulate a stored result"),
    )
    worker = QueueWorker(queue)
    assert worker.step() is True
    assert worker.completed == 1
    assert queue.drained([SPECS[0].digest])


def test_worker_heals_a_corrupt_store_entry_by_resimulating(tmp_path):
    queue = make_queue(tmp_path)
    store = queue.result_store()
    store.put(SPECS[0], sample_result())
    corrupt_entry(store, SPECS[0])  # entry no longer matches its digest key
    queue.enqueue(SPECS[0])
    worker = QueueWorker(queue)
    assert worker.step() is True
    healed = queue.result_store()
    assert healed.get(SPECS[0]) == execute_spec(SPECS[0])
    assert not healed.verify()["corrupt"]


def test_worker_dead_letters_a_spec_that_keeps_failing(tmp_path, monkeypatch):
    queue = make_queue(tmp_path, max_attempts=2, retry_delay=0.0)
    queue.enqueue(SPECS[0])
    monkeypatch.setattr(
        "repro.experiments.executor.execute_spec",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("sim exploded")),
    )
    worker = QueueWorker(queue, idle_exit=0.0)
    summary = worker.run()
    assert summary["failed"] == 2  # both attempts, then dead-letter
    letter = queue.dead_letters()[SPECS[0].digest]
    assert "sim exploded" in letter["errors"][-1]


def test_queued_sweep_matches_serial_execution(tmp_path):
    serial = execute_specs(SPECS, executor=Executor())
    queue = make_queue(tmp_path)
    executor = QueueExecutor(queue)
    queued = execute_specs(SPECS, executor=executor, store=executor.worker.store)
    assert queued == serial  # bit-identical results through the queue
    # Each entry is written once, by the worker that ran its task.
    assert executor.worker.store.writes == len(SPECS)
    # A warm re-run through a *fresh* queue bound to the same store
    # completes without a single new simulation or store write.
    rerun_queue = WorkQueue(tmp_path / "queue-rerun", store_dir=queue.store_dir)
    rerun = QueueExecutor(rerun_queue)
    warm = execute_specs(SPECS, executor=rerun, store=rerun.worker.store)
    assert warm == serial
    assert rerun.worker.store.writes == 0


def test_queued_sweep_resolves_each_warm_up_once_before_enqueueing(tmp_path):
    specs = [
        make_spec(design, "performance-optimized", workload, SCALE,
                  warmup="fill 0.3")
        for design, workload in (
            ("baseline", "proj_3"), ("venice", "proj_3"), ("venice", "hm_0")
        )
    ]
    executor = QueueExecutor(make_queue(tmp_path))
    queued = execute_specs(specs, executor=executor, store=executor.worker.store)
    assert queued == execute_specs(specs)
    # The front end simulated both warm-ups into the bound store, and the
    # worker that ran the three tasks restored them, simulating none.
    assert (executor.warmups, executor.restores) == (2, 3)
    worker = executor.worker.executor
    assert (worker.warmups, worker.restores) == (0, 3)
    assert executor.worker.store.stats()["checkpoints"] == 2


def test_queue_executor_reports_dead_letters_as_failures(
    tmp_path, monkeypatch
):
    queue = make_queue(tmp_path, max_attempts=2, retry_delay=0.0)
    monkeypatch.setattr(
        "repro.experiments.executor.execute_spec",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("sim exploded")),
    )
    executor = QueueExecutor(queue)
    with pytest.raises(ExecutionError) as excinfo:
        execute_specs([SPECS[0]], executor=executor, store=executor.worker.store)
    (failure,) = excinfo.value.failures
    assert failure.digest == SPECS[0].digest
    assert failure.reason == "dead-letter"
    assert "sim exploded" in failure.detail


def test_default_owner_ids_are_unique():
    assert default_owner_id() != default_owner_id()


# -- edge cases ----------------------------------------------------------- #


def test_queue_rejects_a_foreign_config_schema(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    config = queue.directory / "queue.json"
    payload = json.loads(config.read_text())
    payload["schema"] = 99
    config.write_text(json.dumps(payload))
    with pytest.raises(QueueError, match="schema"):
        WorkQueue(queue.directory)


def test_spec_for_unknown_digest_raises(tmp_path):
    queue = make_queue(tmp_path)
    with pytest.raises(QueueError, match="no task"):
        queue.spec_for("feedface" * 8)


def test_losing_the_claim_race_moves_on(tmp_path, monkeypatch):
    """A claim file appearing between the eligibility check and O_EXCL."""
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    (queue.claims_dir / f"{SPECS[0].digest}.json").write_text("{}")
    monkeypatch.setattr(queue, "_eligible", lambda digest, now: True)
    assert queue.claim("late-worker") is None


def test_heartbeat_thread_renews_until_the_lease_disappears(tmp_path):
    queue = make_queue(tmp_path, lease_seconds=60.0)
    queue.enqueue(SPECS[0])
    task = queue.claim("worker-a")
    claim_path = queue.claims_dir / f"{task.digest}.json"
    backdate_claim(queue, task.digest, by_seconds=50.0)
    thread = _HeartbeatThread(queue, task, interval=0.02)
    thread.start()
    try:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if time.time() - claim_path.stat().st_mtime < 10.0:
                break  # a beat landed: the stale mtime was renewed
            time.sleep(0.02)
        else:
            pytest.fail("heartbeat thread never renewed the lease")
        # A reaper steals the lease out from under the thread...
        claim_path.unlink()
        assert thread.lease_lost.wait(5.0)  # ...and the thread notices.
    finally:
        thread.stop()
    assert not thread.is_alive()


def test_worker_with_a_timeout_runs_the_spec_isolated(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    worker = QueueWorker(queue, timeout=300.0)
    assert worker.step() is True
    assert queue.result_store().get(SPECS[0]) == execute_spec(SPECS[0])


@pytest.mark.skipif(
    sys.platform != "linux",
    reason="relies on fork-start subprocesses inheriting monkeypatches",
)
def test_worker_records_spec_run_errors_as_failed_attempts(
    tmp_path, monkeypatch
):
    queue = make_queue(tmp_path, max_attempts=3, retry_delay=0.0)
    queue.enqueue(SPECS[0])
    # The isolated subprocess starts via fork, so it inherits the hang.
    monkeypatch.setattr(
        "repro.experiments.executor.execute_spec",
        lambda *a, **k: time.sleep(300.0),
    )
    worker = QueueWorker(queue, timeout=0.5)
    assert worker.step() is True  # the claim happened; the run failed
    assert worker.failed == 1
    record = json.loads(queue._retry_path(SPECS[0].digest).read_text())
    assert record["errors"] == [
        "timeout: simulation exceeded the 0.5s wall-clock limit and was killed"
    ]


def test_queue_executor_flags_a_done_task_with_a_missing_result(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(SPECS[0])
    queue.complete(queue.claim("amnesiac"))  # done, but nothing was stored
    with pytest.raises(QueueError, match="store verify"):
        QueueExecutor(queue).run([SPECS[0]])


def test_queue_executor_run_raises_on_dead_letters(tmp_path, monkeypatch):
    queue = make_queue(tmp_path, max_attempts=1, retry_delay=0.0)
    monkeypatch.setattr(
        "repro.experiments.executor.execute_spec",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("sim exploded")),
    )
    # No store argument: the queue's bound store is where results land.
    with pytest.raises(ExecutionError):
        execute_specs([SPECS[0]], executor=QueueExecutor(queue))


def test_queue_executor_refuses_a_store_it_cannot_fill(tmp_path):
    executor = QueueExecutor(make_queue(tmp_path))
    with pytest.raises(ConfigurationError, match="queue's store"):
        execute_specs(
            SPECS, executor=executor, store=ResultStore(tmp_path / "other")
        )
