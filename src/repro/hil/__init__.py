"""Host Interface Layer: NVMe-style multi-queue submission.

Modern SSDs expose multiple I/O queues directly to the host over NVMe
(paper §2.2).  The model provides depth-limited submission queues and a
trace-replay host process that submits requests at their recorded arrival
times; the device fetches from the queues, enforces its queue depth, and
stamps each request's completion time on the request itself.
"""

from repro.hil.request import IoRequest, IoKind
from repro.hil.nvme import NvmeQueuePair
from repro.hil.host import TraceReplayHost

__all__ = [
    "IoRequest",
    "IoKind",
    "NvmeQueuePair",
    "TraceReplayHost",
]
