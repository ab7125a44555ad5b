"""Crash-safe filesystem work queue: spec digests as task ids.

The queue is a directory any number of ``venice-sim worker`` processes --
potentially on several hosts sharing a filesystem -- cooperate through.
There is no broker and no daemon: every transition is an atomic filesystem
operation, so a worker (or the whole host) dying at *any* instruction
leaves the queue in a state the next participant repairs.

Layout under the queue directory::

    queue.json            frozen queue config (result store binding, lease
                          and retry policy), written with the first task
    tasks/<digest>.json   immutable task bodies: the full RunSpec payload
    claims/<digest>.json  one per leased task: owner id, attempt number,
                          lease length, expiry -- created with O_EXCL so
                          exactly one claimant wins; the owner heartbeats
                          by bumping the file's mtime
    retry/<digest>.json   retry bookkeeping: attempt count, next-eligible
                          time (exponential backoff), recent errors
    done/<digest>.json    completion markers (the result itself lives in
                          the content-addressed result store)
    dead/<digest>.json    dead-letter entries after ``max_attempts``
                          failures, with the captured tracebacks
    reclaim/              rename tombstones used to serialize reapers

Liveness is mtime-based: a claim whose mtime is older than its lease
length is presumed orphaned (its worker was SIGKILLed, lost power, or
hung), and :meth:`WorkQueue.reap` atomically reclaims it -- the rename into
``reclaim/`` succeeds for exactly one reaper, which then counts the lost
lease as a failed attempt and re-opens the task (or dead-letters it).

Because task ids *are* spec content digests and results land in the
content-addressed store, re-running an interrupted sweep is idempotent:
tasks whose results already exist complete without simulating, tasks that
died mid-run re-execute from their spec, and the final results are
byte-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import QueueError, ReproError
from repro.experiments.spec import RunSpec
from repro.experiments.store import ResultStore
from repro.fileio import atomic_write_text, check_directory_path

_CONFIG_FILENAME = "queue.json"
_CONFIG_SCHEMA = 1

#: How many recent error tracebacks a retry record / dead letter keeps.
_ERROR_HISTORY = 5


def default_owner_id() -> str:
    """A worker identity unique across hosts, processes, and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write-then-rename publication (readers never see a torn file)."""
    atomic_write_text(path, json.dumps(payload, indent=1))


def _read_json(path: Path) -> Optional[dict]:
    """Parse a queue file; ``None`` when missing or torn mid-publication."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


@dataclass(frozen=True)
class Task:
    """A leased unit of work: one spec, owned by one worker, one attempt."""

    digest: str
    spec: RunSpec
    attempt: int
    owner: str


class WorkQueue:
    """A shared-directory task queue with leases, retries, and dead letters.

    One process (the sweep front end) enqueues specs; any number of worker
    processes claim, heartbeat, and execute them through the ordinary
    executor/store stack.  The queue's result-store binding and
    lease/retry policy are frozen into ``queue.json`` with its first task
    so every participant -- including workers started later on other
    hosts -- agrees on where results go and when a silent worker is
    declared dead.  Opening a queue writes nothing: its directories appear
    with that first task, so a sweep that fails its checks leaves no queue
    behind.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        store_dir: Optional[Union[str, Path]] = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        retry_delay: float = 1.0,
        retry_backoff: float = 2.0,
    ) -> None:
        self.directory = Path(directory)
        check_directory_path(self.directory, "a queue directory")
        self.tasks_dir = self.directory / "tasks"
        self.claims_dir = self.directory / "claims"
        self.retry_dir = self.directory / "retry"
        self.done_dir = self.directory / "done"
        self.dead_dir = self.directory / "dead"
        self.reclaim_dir = self.directory / "reclaim"
        self._config_path = self.directory / _CONFIG_FILENAME
        self._frozen = False
        existing = _read_json(self._config_path)
        if existing is not None:
            self._adopt(existing, store_dir)
        else:
            if lease_seconds <= 0:
                raise QueueError(
                    f"lease_seconds must be > 0, got {lease_seconds}"
                )
            if max_attempts < 1:
                raise QueueError(
                    f"max_attempts must be >= 1, got {max_attempts}"
                )
            self.store_dir = Path(
                store_dir if store_dir is not None else self.directory / "store"
            )
            # Open the store now, so a retired store layout fails before
            # queue.json freezes a binding to it.
            ResultStore(self.store_dir)
            self.lease_seconds = float(lease_seconds)
            self.max_attempts = int(max_attempts)
            self.retry_delay = float(retry_delay)
            self.retry_backoff = float(retry_backoff)

    def _adopt(
        self, config: dict, store_dir: Optional[Union[str, Path]]
    ) -> None:
        """Take the policy and store binding frozen in ``queue.json``."""
        if config.get("schema") != _CONFIG_SCHEMA:
            raise QueueError(
                f"queue {self.directory} has config schema "
                f"{config.get('schema')!r}; this version speaks "
                f"{_CONFIG_SCHEMA}"
            )
        # A queue.json from an earlier version also names the store's
        # layout; only the flat layout remains, so that field is ignored.
        self.store_dir = Path(config["store_dir"])
        self.lease_seconds = float(config["lease_seconds"])
        self.max_attempts = int(config["max_attempts"])
        self.retry_delay = float(config["retry_delay"])
        self.retry_backoff = float(config["retry_backoff"])
        if store_dir is not None and Path(store_dir).resolve() != (
            self.store_dir.resolve()
        ):
            raise QueueError(
                f"queue {self.directory} is bound to store "
                f"{self.store_dir}; refusing to target {store_dir}"
            )
        self._frozen = True

    def _freeze(self) -> None:
        """Make the queue's directories and write ``queue.json`` (once).

        A participant that froze the queue since this one opened it wins:
        its policy is adopted, and a different store binding refused.
        """
        for sub in (
            self.tasks_dir,
            self.claims_dir,
            self.retry_dir,
            self.done_dir,
            self.dead_dir,
            self.reclaim_dir,
        ):
            sub.mkdir(parents=True, exist_ok=True)
        existing = _read_json(self._config_path)
        if existing is not None:
            self._adopt(existing, self.store_dir)
        else:
            _atomic_write_json(
                self._config_path,
                {
                    "schema": _CONFIG_SCHEMA,
                    "store_dir": str(self.store_dir),
                    "lease_seconds": self.lease_seconds,
                    "max_attempts": self.max_attempts,
                    "retry_delay": self.retry_delay,
                    "retry_backoff": self.retry_backoff,
                },
            )
        self._frozen = True

    # -- paths ----------------------------------------------------------- #

    def _task_path(self, digest: str) -> Path:
        return self.tasks_dir / f"{digest}.json"

    def _claim_path(self, digest: str) -> Path:
        return self.claims_dir / f"{digest}.json"

    def _retry_path(self, digest: str) -> Path:
        return self.retry_dir / f"{digest}.json"

    def _done_path(self, digest: str) -> Path:
        return self.done_dir / f"{digest}.json"

    def _dead_path(self, digest: str) -> Path:
        return self.dead_dir / f"{digest}.json"

    def result_store(self) -> ResultStore:
        """Open the result store this queue is bound to."""
        return ResultStore(self.store_dir)

    # -- enqueue --------------------------------------------------------- #

    def enqueue(self, spec: RunSpec) -> bool:
        """Add one task; idempotent by digest.  Returns True when new.

        A spec whose task file already exists (from this invocation or a
        previous crashed one) is left untouched -- the digest *is* the
        task identity, which is what makes re-running an interrupted sweep
        free of duplicated work.  The first task creates the queue.
        """
        if not self._frozen:
            self._freeze()
        digest = spec.digest
        path = self._task_path(digest)
        if path.exists():
            return False
        _atomic_write_json(
            path, {"schema": _CONFIG_SCHEMA, "digest": digest, "spec": spec.to_dict()}
        )
        return True

    def enqueue_specs(self, specs: Sequence[RunSpec]) -> int:
        """Enqueue a batch; returns how many were new."""
        return sum(self.enqueue(spec) for spec in specs)

    def spec_for(self, digest: str) -> RunSpec:
        """Rebuild the spec a task id names."""
        payload = _read_json(self._task_path(digest))
        if payload is None:
            raise QueueError(f"queue has no task {digest[:12]}")
        return RunSpec.from_dict(payload["spec"])

    def _spec_or_dead_letter(
        self, digest: str, attempt: int, marker: Path
    ) -> Optional[RunSpec]:
        """The spec of a task just claimed or reclaimed through ``marker``.

        ``None``, with ``marker`` removed, when there is nothing to run:
        the task file is gone, or its spec no longer parses (say, it names
        a device kwarg this version dropped).  No retry can parse such a
        spec, so it is dead-lettered at once with its raw payload instead
        of raising out of every worker that meets it.
        """
        try:
            return self.spec_for(digest)
        except QueueError:  # pragma: no cover - task raced away
            pass
        except (ReproError, ValueError, KeyError, TypeError) as error:
            task = _read_json(self._task_path(digest))
            _atomic_write_json(
                self._dead_path(digest),
                {
                    "digest": digest,
                    "spec": task.get("spec") if isinstance(task, dict) else None,
                    "attempts": attempt,
                    "errors": [f"unreadable task: {error}"],
                    "dead_since": time.time(),
                },
            )
        marker.unlink()
        return None

    # -- claim / lease lifecycle ----------------------------------------- #

    def _attempts_so_far(self, digest: str) -> int:
        record = _read_json(self._retry_path(digest))
        return int(record["attempts"]) if record else 0

    def _eligible(self, digest: str, now: float) -> bool:
        if self._done_path(digest).exists():
            return False
        if self._dead_path(digest).exists():
            return False
        if self._claim_path(digest).exists():
            return False
        record = _read_json(self._retry_path(digest))
        if record and float(record.get("not_before", 0.0)) > now:
            return False
        return True

    def claim(self, owner: str) -> Optional[Task]:
        """Lease the next eligible task for ``owner``; None when drained.

        The claim file is created with ``O_CREAT | O_EXCL`` -- the one
        atomic-exclusive primitive every shared filesystem provides -- so
        when several workers race for the same digest exactly one wins and
        the rest move on to the next candidate.
        """
        now = time.time()
        for path in sorted(self.tasks_dir.glob("*.json")):
            digest = path.stem
            if not self._eligible(digest, now):
                continue
            attempt = self._attempts_so_far(digest) + 1
            claim_path = self._claim_path(digest)
            try:
                fd = os.open(
                    claim_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                continue  # lost the race for this task
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "owner": owner,
                        "attempt": attempt,
                        "lease_seconds": self.lease_seconds,
                        "claimed_at": now,
                        "expires_at": now + self.lease_seconds,
                    },
                    handle,
                    indent=1,
                )
            spec = self._spec_or_dead_letter(digest, attempt, claim_path)
            if spec is None:
                continue
            return Task(digest=digest, spec=spec, attempt=attempt, owner=owner)
        return None

    def heartbeat(self, task: Task) -> None:
        """Extend a lease by bumping the claim file's mtime.

        Raises :class:`~repro.errors.QueueError` when the claim is gone or
        owned by someone else -- the worker lost its lease (a reaper
        declared it dead while it was stalled) and must abandon the task
        rather than double-write it.
        """
        claim = _read_json(self._claim_path(task.digest))
        if claim is None or claim.get("owner") != task.owner:
            raise QueueError(
                f"lease on {task.digest[:12]} lost (now "
                f"{'unclaimed' if claim is None else claim.get('owner')!r})"
            )
        os.utime(self._claim_path(task.digest))

    def _release_claim(self, task: Task) -> None:
        try:
            self._claim_path(task.digest).unlink()
        except FileNotFoundError:  # pragma: no cover - reaper raced us
            pass

    def complete(self, task: Task) -> None:
        """Mark a leased task done (its result is already in the store)."""
        _atomic_write_json(
            self._done_path(task.digest),
            {
                "owner": task.owner,
                "attempt": task.attempt,
                "completed_at": time.time(),
            },
        )
        self._release_claim(task)

    def fail(self, task: Task, error: str) -> bool:
        """Record a failed attempt; returns True when the task dead-letters.

        Retries get exponential backoff (``retry_delay * retry_backoff **
        (attempt - 1)``); after ``max_attempts`` the task moves to the
        dead-letter list with its spec and the captured tracebacks, where
        :meth:`dead_letters` and ``venice-sim queue status`` surface it.
        """
        digest = task.digest
        record = _read_json(self._retry_path(digest)) or {
            "attempts": 0,
            "errors": [],
        }
        attempts = int(record["attempts"]) + 1
        errors = (list(record.get("errors", [])) + [error])[-_ERROR_HISTORY:]
        if attempts >= self.max_attempts:
            _atomic_write_json(
                self._dead_path(digest),
                {
                    "digest": digest,
                    "spec": task.spec.to_dict(),
                    "attempts": attempts,
                    "errors": errors,
                    "dead_since": time.time(),
                },
            )
            _atomic_write_json(
                self._retry_path(digest),
                {"attempts": attempts, "errors": errors},
            )
            self._release_claim(task)
            return True
        delay = self.retry_delay * (self.retry_backoff ** (attempts - 1))
        _atomic_write_json(
            self._retry_path(digest),
            {
                "attempts": attempts,
                "not_before": time.time() + delay,
                "errors": errors,
            },
        )
        self._release_claim(task)
        return False

    # -- reaping --------------------------------------------------------- #

    def _lease_expired(self, claim_path: Path, now: float) -> bool:
        try:
            mtime = claim_path.stat().st_mtime
        except FileNotFoundError:
            return False
        return now - mtime > self.lease_seconds

    def reap(self) -> List[str]:
        """Reclaim every expired lease; returns the reclaimed digests.

        Reclamation is serialized by an atomic rename into ``reclaim/``:
        when several workers reap concurrently, exactly one wins each
        claim file, charges the lost lease as a failed attempt, and
        re-opens (or dead-letters) the task.  A worker that was merely
        stalled past its lease discovers the loss at its next heartbeat
        and abandons the task instead of double-reporting it.
        """
        now = time.time()
        reclaimed: List[str] = []
        for claim_path in sorted(self.claims_dir.glob("*.json")):
            if not self._lease_expired(claim_path, now):
                continue
            digest = claim_path.stem
            tombstone = self.reclaim_dir / (
                f"{digest}.{uuid.uuid4().hex[:8]}.json"
            )
            try:
                os.rename(claim_path, tombstone)
            except OSError as error:
                if error.errno in (errno.ENOENT, errno.ESTALE):
                    continue  # another reaper won
                raise  # pragma: no cover - unexpected filesystem failure
            claim = _read_json(tombstone) or {}
            owner = claim.get("owner", "unknown")
            attempt = int(claim.get("attempt", self._attempts_so_far(digest) + 1))
            spec = self._spec_or_dead_letter(digest, attempt, tombstone)
            if spec is None:
                continue
            self.fail(
                Task(digest=digest, spec=spec, attempt=attempt, owner=owner),
                f"lease expired: owner {owner!r} went silent for more than "
                f"{self.lease_seconds:g}s (attempt {attempt})",
            )
            tombstone.unlink()
            reclaimed.append(digest)
        return reclaimed

    # -- observability ---------------------------------------------------- #

    def dead_letters(self) -> Dict[str, dict]:
        """Dead-lettered tasks: digest -> {spec, attempts, errors}."""
        letters: Dict[str, dict] = {}
        for path in sorted(self.dead_dir.glob("*.json")):
            payload = _read_json(path)
            if payload is not None:
                letters[path.stem] = payload
        return letters

    def status(self) -> Dict[str, object]:
        """Counts of every task state plus the queue's frozen policy."""
        now = time.time()
        tasks = {path.stem for path in self.tasks_dir.glob("*.json")}
        done = {path.stem for path in self.done_dir.glob("*.json")}
        dead = {path.stem for path in self.dead_dir.glob("*.json")}
        claims = sorted(self.claims_dir.glob("*.json"))
        expired = sum(
            1 for path in claims if self._lease_expired(path, now)
        )
        claimed = {path.stem for path in claims}
        backoff = 0
        for digest in tasks - done - dead - claimed:
            record = _read_json(self._retry_path(digest))
            if record and float(record.get("not_before", 0.0)) > now:
                backoff += 1
        ready = len(tasks - done - dead - claimed) - backoff
        return {
            "directory": str(self.directory),
            "store_dir": str(self.store_dir),
            "lease_seconds": self.lease_seconds,
            "max_attempts": self.max_attempts,
            "tasks": len(tasks),
            "done": len(done),
            "claimed": len(claims),
            "expired_leases": expired,
            "in_backoff": backoff,
            "ready": max(0, ready),
            "dead": len(dead),
        }

    def drained(self, digests: Sequence[str]) -> bool:
        """True when every listed task is done or dead-lettered."""
        return all(
            self._done_path(digest).exists()
            or self._dead_path(digest).exists()
            for digest in digests
        )
