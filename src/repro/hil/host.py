"""Trace-replay host process.

Replays a workload trace against the device: each request is posted to its
submission queue at its recorded arrival time, and the device is notified
through a doorbell callback -- mirroring how NVMe hosts ring a doorbell
register after posting.  Multi-queue traces (the Table 3 mixes run two or
three concurrent workloads) round-robin over queue pairs by requester.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.hil.nvme import NvmeQueuePair
from repro.hil.request import IoRequest
from repro.sim.engine import Engine


class TraceReplayHost:
    """Submits a time-ordered request list to NVMe queue pairs."""

    def __init__(
        self,
        engine: Engine,
        queue_pairs: List[NvmeQueuePair],
        doorbell: Callable[[], None],
    ) -> None:
        if not queue_pairs:
            raise WorkloadError("host needs at least one queue pair")
        self.engine = engine
        self.queue_pairs = queue_pairs
        self.doorbell = doorbell

    def replay(
        self,
        requests: Sequence[IoRequest],
        stop: Optional[Callable[[], bool]] = None,
    ) -> Generator:
        """Process generator: submit every request at its arrival time.

        ``stop`` is polled before each submission (and while backing off on
        a full submission queue): once it returns ``True`` the host stops
        submitting, which is how steady-state early-stop ends a run -- a
        halted device no longer fetches, so continuing to submit would spin
        on full queues forever.
        """
        ordered = sorted(requests, key=lambda request: request.arrival_ns)
        for request in ordered:
            if stop is not None and stop():
                break
            delay = request.arrival_ns - self.engine.now
            if delay > 0:
                yield delay
            queue = self.queue_pairs[request.queue_id % len(self.queue_pairs)]
            while not queue.submit(request):
                # SQ full: a real host would retry on the next doorbell
                # interrupt; back off one microsecond.
                if stop is not None and stop():
                    return
                yield 1_000
            request.submitted_ns = self.engine.now
            self.doorbell()
