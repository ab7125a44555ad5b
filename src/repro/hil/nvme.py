"""NVMe-style submission queues.

NVMe "directly exposes multiple SSD I/O queues to the host" (paper §2.2):
the host posts requests to a Submission Queue and the device fetches them.
The model keeps the doorbell/fetch mechanics and the queue depth limit; the
device layer decides fetch order and concurrency, and stamps each request's
completion time on the request itself when it finishes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import ConfigurationError
from repro.hil.request import IoRequest


class NvmeQueuePair:
    """One submission queue of a submission/completion queue pair."""

    def __init__(self, queue_id: int, depth: int = 1024) -> None:
        if depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        self.queue_id = queue_id
        self.depth = depth
        self._submission: Deque[IoRequest] = deque()

    def submit(self, request: IoRequest) -> bool:
        """Host posts a request; False if the SQ is full (host must retry)."""
        if len(self._submission) >= self.depth:
            return False
        request.queue_id = self.queue_id
        self._submission.append(request)
        return True

    def fetch(self) -> Optional[IoRequest]:
        """Device fetches the head submission entry."""
        if not self._submission:
            return None
        return self._submission.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NvmeQueuePair(q{self.queue_id}, pending={len(self._submission)})"
