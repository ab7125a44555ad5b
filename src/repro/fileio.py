"""Crash-safe file publication shared by every durable writer.

The result store, the checkpoint store, the work queue and the service's
discovery file all publish by write-then-rename, so a reader never sees a
torn file and a killed writer leaves at most a ``*.tmp`` file behind
(``venice-sim store gc`` sweeps stale ones).  The store and the queue make
their directories on their first write; :func:`check_directory_path` is
the read-only check they run when opened.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from repro.errors import ConfigurationError


def check_directory_path(path: Path, use: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``path`` is a
    directory or can become one.

    The nearest existing ancestor is where a first write starts making
    directories, so it must be one.  ``use`` names the role in the error
    (``"a cache directory"``).
    """
    existing = next(part for part in (path, *path.parents) if part.exists())
    if not existing.is_dir():
        raise ConfigurationError(
            f"cannot use {str(path)!r} as {use}: {existing} is not a directory"
        )


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by write-then-rename.

    The temp name is unique per writer (pid plus a random suffix), so two
    threads or processes publishing the same path each rename their own
    complete file into place, and either final content is whole.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
