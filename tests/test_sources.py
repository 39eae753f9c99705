"""Tests for the pull-based event sources and the bounded ingest queue."""

import threading
import time

import numpy as np
import pytest

from repro.core.runtime.stream import ColumnChunk, Event, EventStream
from repro.datagen import stock_price_stream
from repro.datagen.sources import (
    BoundedIngestQueue,
    GeneratorSource,
    QueuedSource,
    StreamReplaySource,
    ThrottledSource,
    sources_for_streams,
)
from repro.errors import QueryBuildError, QueueClosedError

INF = float("inf")


def sample_stream(n=10, period=1.0, name="s"):
    return EventStream.from_samples(np.arange(n, dtype=float), period=period, name=name)


@pytest.fixture(params=["events", "chunk"])
def batch(request):
    """``batch(n)``: n in-order sample events, as a ``List[Event]`` or as the
    ``ColumnChunk`` it coerces to — the queue must treat both alike."""
    if request.param == "events":
        return lambda n: sample_stream(n).events
    return lambda n: sample_stream(n).columns()


def starts_of(chunk):
    return chunk.starts.tolist()


class TestStreamReplaySource:
    def test_replays_in_order_with_rate(self):
        src = StreamReplaySource(sample_stream(10), events_per_poll=3)
        seen = []
        while not src.exhausted:
            chunk = src.poll()
            assert len(chunk) <= 3
            seen.extend(chunk)
        assert [e.start for e in seen] == [float(i) for i in range(10)]
        assert len(src.poll()) == 0

    def test_horizon_is_next_undelivered_start(self):
        src = StreamReplaySource(sample_stream(4), events_per_poll=2)
        assert src.horizon == 0.0
        src.poll()
        assert src.horizon == 2.0
        src.poll()
        assert src.horizon == INF and src.exhausted

    def test_max_events_caps_poll(self):
        src = StreamReplaySource(sample_stream(10), events_per_poll=8)
        assert len(src.poll(max_events=2)) == 2

    def test_invalid_rate(self):
        with pytest.raises(QueryBuildError):
            StreamReplaySource(sample_stream(3), events_per_poll=0)


class TestGeneratorSource:
    def test_chunks_are_stitched_contiguously(self):
        src = GeneratorSource(
            lambda i: sample_stream(5), name="g", events_per_poll=4
        )
        events = []
        for _ in range(5):
            events.extend(src.poll())
        starts = [e.start for e in events]
        # chunk k covers (5k, 5k+5]; stitched starts are 0,1,2,... forever
        assert starts == [float(i) for i in range(len(events))]
        assert not src.exhausted

    def test_seeded_chunks_are_deterministic(self):
        make = lambda i: stock_price_stream(100, seed=i)
        a = GeneratorSource(make, name="stock", events_per_poll=50)
        b = GeneratorSource(make, name="stock", events_per_poll=50)
        ea, eb = a.poll(), b.poll()
        assert [e.payload for e in ea] == [e.payload for e in eb]

    def test_horizon_always_finite(self):
        src = GeneratorSource(lambda i: sample_stream(5), name="g", events_per_poll=2)
        assert src.horizon == 0.0
        src.poll()
        assert src.horizon == 2.0

    def test_default_rate_releases_one_chunk(self):
        src = GeneratorSource(lambda i: sample_stream(5), name="g")
        assert len(src.poll()) == 5

    def test_empty_chunk_rejected(self):
        src = GeneratorSource(lambda i: EventStream([], name="g"), name="g")
        with pytest.raises(QueryBuildError):
            src.poll()


class TestThrottledSource:
    def test_caps_inner_rate(self):
        inner = StreamReplaySource(sample_stream(10))
        src = ThrottledSource(inner, events_per_poll=4)
        assert src.name == "s"
        assert len(src.poll()) == 4
        assert len(src.poll(max_events=1)) == 1
        assert src.horizon == 5.0
        assert not src.exhausted


class TestBoundedIngestQueue:
    def test_put_drain_roundtrip(self, batch):
        q = BoundedIngestQueue(capacity=8)
        assert q.put(batch(5)) == 5
        assert len(q) == 5
        assert q.peek_start() == 0.0
        assert starts_of(q.drain(2)) == [0.0, 1.0]
        assert len(q.drain()) == 3
        assert q.peek_start() is None and len(q.drain()) == 0

    def test_put_splits_a_chunk_at_capacity(self, batch):
        """Capacity counts events, not chunks: a batch larger than the free
        space is split, and only the prefix that fits is enqueued."""
        q = BoundedIngestQueue(capacity=5)
        assert q.put(batch(3)) == 3
        assert q.put(batch(4), timeout=0.0) == 2  # 2 free slots of 5
        assert len(q) == 5
        assert starts_of(q.drain()) == [0.0, 1.0, 2.0, 0.0, 1.0]

    def test_drain_splits_the_head_chunk(self, batch):
        """``drain(max_events)`` counts events: it takes part of the head
        chunk, leaves the rest queued, and re-joins across chunk borders;
        depth and ``peek_start`` stay exact throughout."""
        q = BoundedIngestQueue(capacity=16)
        q.put(batch(4))
        q.put(sample_stream(10).columns()[4:9])
        assert starts_of(q.drain(3)) == [0.0, 1.0, 2.0]
        assert len(q) == 6 and q.peek_start() == 3.0
        assert starts_of(q.drain(3)) == [3.0, 4.0, 5.0]  # spans both chunks
        assert len(q) == 3 and q.peek_start() == 6.0
        assert starts_of(q.drain(100)) == [6.0, 7.0, 8.0]
        assert len(q) == 0 and q.peek_start() is None

    def test_put_blocks_until_drained(self, batch):
        """Backpressure: a producer pushing past capacity blocks until the
        consumer drains."""
        q = BoundedIngestQueue(capacity=4)
        events = batch(8)
        done = threading.Event()

        def producer():
            q.put(events)  # 8 events into a 4-slot queue: must block
            done.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not done.is_set() and len(q) == 4
        q.drain()
        t.join(timeout=2.0)
        assert done.is_set()
        assert len(q) == 4  # the remaining half

    def test_put_timeout_when_full(self):
        q = BoundedIngestQueue(capacity=2)
        assert q.put(sample_stream(2).events) == 2
        assert q.put(sample_stream(2).events, timeout=0.05) == 0

    def test_put_reports_partial_delivery(self, batch):
        """The timeout is a total deadline and put returns the enqueued
        prefix length, so producers can retry events[n:] safely."""
        q = BoundedIngestQueue(capacity=4)
        events = batch(8)
        start = time.monotonic()
        n = q.put(events, timeout=0.05)
        assert n == 4
        assert time.monotonic() - start < 1.0
        q.drain()
        assert q.put(events[n:], timeout=0.05) == 4

    def test_close_rejects_producers(self):
        """``put`` into a closed queue raises cleanly (no silent drop)."""
        q = BoundedIngestQueue(capacity=2)
        q.close()
        with pytest.raises(QueueClosedError) as exc_info:
            q.put(sample_stream(1).events)
        assert exc_info.value.enqueued == 0
        assert q.closed

    def test_close_releases_blocked_producer(self, batch):
        """A producer blocked on a full queue must be woken by ``close`` and
        raise (no deadlock); the accepted prefix stays deliverable."""
        q = BoundedIngestQueue(capacity=3)
        outcome = {}

        def producer():
            try:
                q.put(batch(8))  # 8 into 3 slots: blocks
            except QueueClosedError as exc:
                outcome["enqueued"] = exc.enqueued

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert len(q) == 3 and "enqueued" not in outcome
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert outcome["enqueued"] == 3
        # the accepted prefix is still drainable by the consumer
        assert starts_of(q.drain()) == [0.0, 1.0, 2.0]

    def test_push_after_close_raises(self):
        src = QueuedSource("s", capacity=4)
        src.push(sample_stream(2).events)
        src.close()
        with pytest.raises(QueueClosedError):
            src.push([Event(5.0, 6.0, 1.0)])
        # the pre-close events are still delivered
        assert [e.start for e in src.poll()] == [0.0, 1.0]
        assert src.exhausted


class TestQueuedSource:
    def test_push_poll_and_watermark(self, batch):
        src = QueuedSource("s", capacity=16)
        events = batch(4)
        src.push(events[:2])
        assert src.horizon == 0.0  # first queued, undrained event
        assert [e.start for e in src.poll()] == [0.0, 1.0]
        assert src.horizon == 1.0  # last pushed start, once drained
        src.advance_to(10.0)
        assert src.horizon == 10.0
        src.push(events[2:])
        src.close()
        assert not src.exhausted  # still queued
        src.poll()
        assert src.exhausted and src.horizon == INF

    def test_rejects_out_of_order_push(self):
        src = QueuedSource("s")
        src.push([Event(5.0, 6.0, 1.0)])
        with pytest.raises(QueryBuildError, match="must be pushed in start order"):
            src.push([Event(1.0, 2.0, 1.0)])  # before the last pushed start
        with pytest.raises(QueryBuildError, match="must be pushed in start order"):
            src.push(ColumnChunk([6.0, 8.0, 7.0], [7.0, 9.0, 8.0], [1.0, 1.0, 1.0]))  # inside
        assert src.depth == 1  # a rejected batch enqueues nothing
        # start-ordered but overlapping is *not* a push error: the tick rejects it
        assert src.push([Event(5.0, 10.0, 1.0), Event(6.0, 12.0, 2.0)]) == 2

    def test_concurrent_producers_never_corrupt_order(self):
        """push serializes validate+put: racing producers either land in
        order or fail cleanly — the queue never holds out-of-order events."""
        src = QueuedSource("s", capacity=1024)
        b1 = [Event(float(i), float(i) + 1, 1.0) for i in range(0, 50)]
        b2 = [Event(float(i), float(i) + 1, 2.0) for i in range(50, 100)]
        errors = []

        def pusher(batch):
            try:
                src.push(batch)
            except QueryBuildError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=pusher, args=(b,)) for b in (b1, b2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        drained = src.poll()
        starts = [e.start for e in drained]
        assert starts == sorted(starts)
        # either both batches landed in order, or the late-loser failed clean
        assert len(drained) + 50 * len(errors) == 100

    def test_throttled_source_forwards_depth(self):
        inner = QueuedSource("s", capacity=64)
        throttled = ThrottledSource(inner, 4)
        assert throttled.depth == 0
        inner.push(sample_stream(6).events)
        assert throttled.depth == 6
        assert len(throttled.poll()) == 4
        assert throttled.depth == 2
        # sources without a queue report zero rather than failing
        assert ThrottledSource(StreamReplaySource(sample_stream(3)), 2).depth == 0

    def test_partial_push_is_retryable(self, batch):
        """A timed-out push must leave order/watermark state matching the
        delivered prefix so the producer can retry the remainder."""
        src = QueuedSource("s", capacity=3)
        events = batch(6)
        n = src.push(events, timeout=0.05)
        assert n == 3 and src.horizon == 0.0 and src.depth == 3
        assert starts_of(src.poll(2)) == [0.0, 1.0]
        # partial drain: the horizon is the first event still queued ...
        assert src.depth == 1 and src.horizon == 2.0
        src.poll()
        # ... and, once drained, the last *accepted* start — not events[5]'s
        assert src.depth == 0 and src.horizon == 2.0
        assert src.push(events[n:], timeout=0.05) == 3  # no order error
        assert starts_of(src.poll()) == [3.0, 4.0, 5.0]

    def test_close_wakes_blocked_push_with_accepted_prefix(self, batch):
        """A push blocked on a full queue is woken by ``close``; the
        watermark reflects exactly the prefix ``exc.enqueued`` reports."""
        src = QueuedSource("s", capacity=3)
        outcome = {}

        def producer():
            try:
                src.push(batch(8))
            except QueueClosedError as exc:
                outcome["enqueued"] = exc.enqueued

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert src.depth == 3 and "enqueued" not in outcome
        src.close()
        t.join(timeout=2.0)
        assert not t.is_alive() and outcome["enqueued"] == 3
        assert starts_of(src.poll()) == [0.0, 1.0, 2.0]
        assert src.exhausted and src.horizon == INF


class TestFiniteness:
    def test_finite_flags(self):
        replay = StreamReplaySource(sample_stream(3))
        gen = GeneratorSource(lambda i: sample_stream(3), name="g")
        assert replay.finite and not gen.finite
        assert not ThrottledSource(gen, 2).finite
        assert ThrottledSource(replay, 2).finite
        assert QueuedSource("q").finite


class TestSourcesForStreams:
    def test_builds_named_replays(self):
        streams = {"a": sample_stream(3, name="x"), "b": sample_stream(4, name="y")}
        sources = sources_for_streams(streams, events_per_poll=2)
        assert sorted(s.name for s in sources) == ["a", "b"]
        assert all(isinstance(s, StreamReplaySource) for s in sources)
