"""Crash-safe file publication shared by every durable writer.

The result store, the checkpoint store, the work queue and the service's
discovery file all publish by write-then-rename, so a reader never sees a
torn file and a killed writer leaves at most a ``*.tmp`` file behind
(``venice-sim store gc`` sweeps stale ones).
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by write-then-rename.

    The temp name is unique per writer (pid plus a random suffix), so two
    threads or processes publishing the same path each rename their own
    complete file into place, and either final content is whole.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
