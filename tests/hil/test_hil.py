"""Host interface layer tests: queue pairs and trace replay."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.hil.host import TraceReplayHost
from repro.hil.nvme import NvmeQueuePair
from repro.hil.request import IoKind, IoRequest
from repro.sim.engine import Engine


def request(arrival=0, kind=IoKind.READ, offset=0, size=4096, queue_id=0):
    return IoRequest(
        kind=kind, offset_bytes=offset, size_bytes=size,
        arrival_ns=arrival, queue_id=queue_id,
    )


def test_io_kind_parsing():
    assert IoKind.from_str("R") is IoKind.READ
    assert IoKind.from_str("write") is IoKind.WRITE
    assert IoKind.from_str("0") is IoKind.READ
    with pytest.raises(WorkloadError):
        IoKind.from_str("erase")


def test_request_validation():
    with pytest.raises(WorkloadError):
        request(size=0)
    with pytest.raises(WorkloadError):
        request(arrival=-1)
    with pytest.raises(WorkloadError):
        IoRequest(kind=IoKind.READ, offset_bytes=-4, size_bytes=4096, arrival_ns=0)


def test_request_latency_requires_completion():
    r = request(arrival=100)
    assert r.latency_ns is None
    r.completed_ns = 400
    assert r.latency_ns == 300


def test_reset_service_state():
    r = request()
    r.submitted_ns = 50
    r.completed_ns = 100
    r.path_conflict = True
    r.reset_service_state()
    assert r.submitted_ns is None
    assert r.completed_ns is None
    assert not r.path_conflict


def test_queue_pair_fifo_fetch():
    queue = NvmeQueuePair(0)
    a, b = request(), request()
    queue.submit(a)
    queue.submit(b)
    assert queue.fetch() is a
    assert queue.fetch() is b
    assert queue.fetch() is None


def test_queue_pair_depth_limit():
    queue = NvmeQueuePair(0, depth=1)
    first, second = request(), request()
    assert queue.submit(first)
    assert not queue.submit(second)
    assert queue.fetch() is first
    # A fetch frees the slot, and the rejected request was never queued.
    assert queue.submit(second)
    assert queue.fetch() is second
    assert queue.fetch() is None


def test_queue_depth_validation():
    with pytest.raises(ConfigurationError):
        NvmeQueuePair(0, depth=0)


def test_replay_submits_at_arrival_times():
    engine = Engine()
    queue = NvmeQueuePair(0)
    doorbells = []
    host = TraceReplayHost(engine, [queue], lambda: doorbells.append(engine.now))
    requests = [request(arrival=t) for t in (100, 300, 700)]
    engine.process(host.replay(requests))
    engine.run()
    assert doorbells == [100, 300, 700]
    assert [r.submitted_ns for r in requests] == [100, 300, 700]
    assert [queue.fetch() for _ in requests] == requests


def test_replay_sorts_out_of_order_arrivals():
    engine = Engine()
    queue = NvmeQueuePair(0)
    host = TraceReplayHost(engine, [queue], lambda: None)
    requests = [request(arrival=500), request(arrival=100)]
    engine.process(host.replay(requests))
    engine.run()
    assert queue.fetch().arrival_ns == 100


def test_replay_round_robins_queue_ids():
    engine = Engine()
    queues = [NvmeQueuePair(0), NvmeQueuePair(1)]
    host = TraceReplayHost(engine, queues, lambda: None)
    # Requester ids fold onto the queue pairs; submit stamps the pair's id.
    requests = [request(arrival=i, queue_id=i) for i in range(4)]
    engine.process(host.replay(requests))
    engine.run()
    assert [r.queue_id for r in requests] == [0, 1, 0, 1]
    assert [queues[0].fetch(), queues[0].fetch()] == requests[0::2]
    assert [queues[1].fetch(), queues[1].fetch()] == requests[1::2]
    assert queues[0].fetch() is None and queues[1].fetch() is None


def test_replay_backs_off_when_queue_full():
    engine = Engine()
    queue = NvmeQueuePair(0, depth=1)
    host = TraceReplayHost(engine, [queue], lambda: None)
    requests = [request(arrival=0), request(arrival=0)]
    engine.process(host.replay(requests))
    # Drain the queue after a while so the host's retry can succeed.
    engine.schedule(5_000, lambda: queue.fetch())
    engine.run()
    assert requests[0].submitted_ns == 0
    assert requests[1].submitted_ns >= 5_000
    assert queue.fetch() is requests[1]


def test_host_requires_a_queue():
    with pytest.raises(WorkloadError):
        TraceReplayHost(Engine(), [], lambda: None)
