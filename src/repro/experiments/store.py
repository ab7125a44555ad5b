"""Content-addressed result store: ``RunResult``\\ s keyed by spec digest.

Each entry holds both the spec (for integrity checking and offline
inspection) and the result, serialized as one JSON document at
``<store>/<digest>.json``.  The store is what lets fig9/10/13/14 share one
simulated matrix, and what makes a repeated ``venice-sim matrix --cache
DIR`` invocation perform zero new simulations.  Warm-up snapshots (see
:mod:`repro.sim.checkpoint`) live beside the results as
``<store>/checkpoints/<checkpoint-digest>.json`` entries, each holding
``{"digest", "state"}``, so a sweep pays each warm-up once across
processes too.

Entries are published by write-then-rename under a per-writer temp name,
so any number of threads and processes (the service's worker pool, the
work-queue workers of :mod:`repro.experiments.worker`) can write one
store, even the same digest, and a reader never sees a torn entry.
:meth:`ResultStore.verify` makes the store self-healing: results and
checkpoints whose content no longer matches their digest key are
*quarantined* (moved to ``quarantine/``, never served) instead of
poisoning every later sweep.

Opening a store writes nothing: its directory appears with its first
entry or checkpoint, so a sweep that fails its checks leaves no trace.  A
directory written by one of the retired layouts (sharded ``objects/`` or
SQLite ``store.sqlite3``), or a path that is a regular file, is refused at
open with a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.spec import RunSpec
from repro.fileio import atomic_write_text, check_directory_path
from repro.metrics.collector import RunResult

_SCHEMA_VERSION = 1

_QUARANTINE_DIRNAME = "quarantine"

_CHECKPOINT_DIRNAME = "checkpoints"

#: (marker, layout name) of each retired on-disk layout.
_RETIRED_LAYOUTS = (("store.sqlite3", "sqlite"), ("objects/", "sharded"))


class ResultStore:
    """Persist run results under a directory, addressed by spec content.

    ``hits`` / ``misses`` / ``writes`` counters make cache behaviour
    observable (the acceptance tests assert a warm store serves everything).
    A small in-memory layer avoids re-parsing JSON for repeat lookups within
    one process.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        check_directory_path(self.directory, "a cache directory")
        for marker, layout in _RETIRED_LAYOUTS:
            if (self.directory / marker).exists():
                raise ConfigurationError(
                    f"store {self.directory} holds {marker} from the "
                    f"retired {layout} layout; its entries are a cache, so "
                    "re-run into a fresh directory"
                )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._memory: Dict[str, RunResult] = {}

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def _entry_paths(self) -> List[Path]:
        return sorted(self.directory.glob("*.json"))

    def _checkpoint_path(self, digest: str) -> Path:
        return self.directory / _CHECKPOINT_DIRNAME / f"{digest}.json"

    def _checkpoint_paths(self) -> List[Path]:
        return sorted((self.directory / _CHECKPOINT_DIRNAME).glob("*.json"))

    def _quarantined_paths(self) -> List[Path]:
        return sorted((self.directory / _QUARANTINE_DIRNAME).glob("*.json"))

    @staticmethod
    def _publish(path: Path, text: str) -> None:
        """Write one file, making its directories on the store's first write."""
        try:
            atomic_write_text(path, text)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text)

    @staticmethod
    def _read(path: Path) -> Optional[str]:
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def path_for(self, spec: RunSpec) -> Path:
        """Filesystem path of a spec's entry."""
        return self._path(spec.digest)

    # -- entry (de)serialization ---------------------------------------- #

    def _decode(self, digest: str, text: str) -> RunResult:
        """Parse one entry, enforcing schema and content identity."""
        name = self._path(digest)
        try:
            payload = json.loads(text)
            schema = payload.get("schema")
            if schema != _SCHEMA_VERSION:
                raise SimulationError(
                    f"store entry {name} has schema {schema!r}, this "
                    f"version writes {_SCHEMA_VERSION}; delete the cache "
                    "directory or run `venice-sim store verify --repair`"
                )
            # Compare content identities rather than raw spec dicts: the
            # digest excludes trace_path, so a result cached from one trace
            # location stays valid when the same file is read from another.
            stored_spec = RunSpec.from_dict(payload["spec"])
            if stored_spec.digest != digest:
                raise SimulationError(
                    f"store entry {name} does not match its digest key; "
                    "run `venice-sim store verify --repair`"
                )
            return RunResult.from_dict(payload["result"])
        except SimulationError:
            raise
        except (ValueError, KeyError, TypeError, ConfigurationError) as error:
            raise SimulationError(
                f"store entry {name} is corrupt ({error}); run "
                "`venice-sim store verify --repair`"
            )

    def _encode(self, spec: RunSpec, result: RunResult) -> str:
        payload = {
            "schema": _SCHEMA_VERSION,
            "digest": spec.digest,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        return json.dumps(payload, indent=1)

    def _decode_checkpoint(self, digest: str, text: str) -> dict:
        """Parse one checkpoint file, enforcing that it holds ``digest``."""
        name = self._checkpoint_path(digest)
        repair = "; run `venice-sim store verify --repair`"
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise SimulationError(
                f"corrupt checkpoint file {name} ({error}){repair}"
            ) from error
        if not (
            isinstance(payload, dict)
            and payload.get("digest") == digest
            and isinstance(payload.get("state"), dict)
        ):
            raise SimulationError(
                f"checkpoint file {name} does not hold digest {digest}{repair}"
            )
        return payload["state"]

    # -- the cache interface -------------------------------------------- #

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        digest = spec.digest
        cached = self._memory.get(digest)
        if cached is not None:
            self.hits += 1
            return cached
        text = self._read(self._path(digest))
        if text is None:
            self.misses += 1
            return None
        result = self._decode(digest, text)
        self._memory[digest] = result
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult) -> Path:
        path = self.path_for(spec)
        self._publish(path, self._encode(spec, result))
        self._memory[spec.digest] = result
        self.writes += 1
        return path

    def get_checkpoint(self, digest: str) -> Optional[dict]:
        """The warm-up snapshot stored under ``digest``, or ``None``.

        Raises :class:`~repro.errors.SimulationError` naming the file when
        it is torn or holds another digest.
        """
        text = self._read(self._checkpoint_path(digest))
        return None if text is None else self._decode_checkpoint(digest, text)

    def put_checkpoint(self, digest: str, state: dict) -> None:
        """Store a warm-up snapshot under its checkpoint digest."""
        self._publish(
            self._checkpoint_path(digest),
            json.dumps({"digest": digest, "state": state}),
        )

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.digest in self._memory or self.path_for(spec).exists()

    def __len__(self) -> int:
        return len(self._entry_paths())

    # -- maintenance ----------------------------------------------------- #

    def _quarantine(self, path: Path) -> None:
        """Move an entry file into ``quarantine/`` (no-op when absent).

        A quarantined entry is never served again, but its bytes are kept
        for post-mortem inspection until :meth:`gc` purges them.  A
        checkpoint keeps its folder in its name
        (``quarantine/checkpoints-<digest>.json``).
        """
        target = self.directory / _QUARANTINE_DIRNAME
        target.mkdir(exist_ok=True)
        name = "-".join(path.relative_to(self.directory).parts)
        try:
            os.replace(path, target / name)
        except FileNotFoundError:
            pass

    def verify(self, repair: bool = False) -> Dict[str, object]:
        """Check every entry's integrity; optionally quarantine failures.

        A result fails when its JSON does not parse, its schema is foreign,
        its stored spec's recomputed content digest mismatches the digest
        key it is filed under, or its result payload does not rebuild; a
        checkpoint fails when its JSON does not parse or it does not hold
        the digest it is filed under.  With ``repair=True`` failing entries
        are moved to ``quarantine/`` (they are re-simulated on the next
        sweep, exactly like cache misses); without it they are only
        reported.  Returns a report dict with ``checked`` / ``ok`` /
        ``corrupt`` / ``quarantined`` keys.
        """
        corrupt: List[Dict[str, str]] = []
        checked = 0
        entries = [(path, self._decode) for path in self._entry_paths()]
        entries += [
            (path, self._decode_checkpoint)
            for path in self._checkpoint_paths()
        ]
        for path, decode in entries:
            checked += 1
            text = self._read(path)
            if text is None:  # pragma: no cover - raced deletion
                continue
            digest = path.stem
            try:
                decode(digest, text)
            except SimulationError as error:
                corrupt.append({"digest": digest, "error": str(error)})
                self._memory.pop(digest, None)
                if repair:
                    self._quarantine(path)
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "quarantined": len(corrupt) if repair else 0,
        }

    def gc(self) -> Dict[str, object]:
        """Drop quarantined entries and stale temp files; report bytes freed.

        Also sweeps write-then-rename temp files older than an hour --
        debris a SIGKILLed writer can leave behind -- while leaving fresh
        ones alone (they may belong to a live writer mid-rename).
        """
        reclaimed = 0
        for path in self._quarantined_paths():
            reclaimed += path.stat().st_size
            path.unlink()
        removed_tmp = 0
        cutoff = time.time() - 3600.0
        for tmp in sorted(self.directory.rglob("*.tmp")):
            try:
                if tmp.stat().st_mtime < cutoff:
                    reclaimed += tmp.stat().st_size
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:  # pragma: no cover - raced deletion
                continue
        return {"reclaimed_bytes": reclaimed, "temp_files_removed": removed_tmp}

    def compact(self) -> Dict[str, object]:
        """Re-serialize every parseable entry as minified JSON."""
        saved = 0
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # verify/repair owns corrupt entries, not compact
            compacted = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            before = path.stat().st_size
            if len(compacted.encode("utf-8")) < before:
                atomic_write_text(path, compacted)
                saved += before - path.stat().st_size
        return {"saved_bytes": saved}

    def counters(self) -> Dict[str, int]:
        """Just this session's hit/miss/write counters -- no disk access.

        :meth:`stats` walks the directory (entry counts, byte totals),
        which is the right tool for ``venice-sim store stats`` but too
        heavy for a polling caller.  The service control plane samples
        this on every ``/health`` request and after every job to report
        how much work the content-addressed cache absorbed.
        """
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    def stats(self) -> Dict[str, object]:
        """Observability snapshot: on-disk contents plus session counters.

        Reports result and checkpoint counts and byte totals alongside this
        process's hit/miss/write counters (results only).
        """
        entries = self._entry_paths()
        checkpoint_files = self._checkpoint_paths()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "quarantined": len(self._quarantined_paths()),
            "checkpoints": len(checkpoint_files),
            "checkpoint_bytes": sum(
                path.stat().st_size for path in checkpoint_files
            ),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }
