"""Pull-based unbounded event sources for continuous streaming sessions.

The generators in :mod:`repro.datagen.generators` produce one finite
:class:`~repro.core.runtime.stream.EventStream` per call — the right shape
for the paper's one-shot throughput experiments, but not for a long-running
session that ingests events forever.  This module adapts them (and arbitrary
event producers) to a small pull protocol consumed by
:class:`~repro.core.runtime.session.StreamingSession`:

* :meth:`EventSource.poll` hands over the next batch of events, in
  start-time order, as one :class:`~repro.core.runtime.stream.ColumnChunk`
  (arrays, never per-event objects: every source in this module slices or
  shifts the columns it holds);
* :attr:`EventSource.horizon` is the *completeness watermark*: the source
  guarantees that every event with ``start < horizon`` has already been
  delivered by previous ``poll`` calls.  The session derives its output
  watermark from this (minus the query's lookahead margin), which is what
  makes tick-by-tick output exactly equal to a one-shot batch run;
* :attr:`EventSource.exhausted` is True once a *finite* source has nothing
  left (unbounded sources simply never set it).

Arrival-rate control is the ``events_per_poll`` knob: each session tick
performs one poll per source, so ``events_per_poll`` is the per-tick arrival
batch.  :class:`BoundedIngestQueue` / :class:`QueuedSource` add the push
side: producers (e.g. a network thread) block when the bounded queue fills
up — the simple backpressure of every micro-batch ingest path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from ..core.runtime.stream import ColumnChunk, Events, EventStream
from ..errors import QueryBuildError, QueueClosedError

__all__ = [
    "EventSource",
    "StreamReplaySource",
    "GeneratorSource",
    "ThrottledSource",
    "BoundedIngestQueue",
    "QueuedSource",
    "sources_for_streams",
]

_INF = float("inf")


class EventSource:
    """Protocol base class for pull-based event sources.

    Subclasses must deliver events in start-time order and keep
    :attr:`horizon` consistent with what they have delivered: after a
    ``poll``, every event with ``start < horizon`` must already have been
    returned.  (The horizon is *strict*: an event starting exactly at the
    horizon may still be pending.)
    """

    #: stream name; scalar sources must match the program input name, and a
    #: structured source named ``s`` feeds the ``s.<field>`` inputs.
    name: str = "source"

    #: whether this source can ever report :attr:`exhausted`.  Sessions only
    #: drain finite sources on ``close()`` — draining an unbounded source
    #: would never terminate.
    finite: bool = True

    def poll(self, max_events: Optional[int] = None) -> ColumnChunk:
        """Return the next in-order batch of events (possibly empty).

        The protocol is columnar: return a :class:`ColumnChunk`.  A
        user-defined source may still return a ``List[Event]`` — the session
        coerces it (``ColumnChunk.coerce``) as it ingests, at per-event cost.
        """
        raise NotImplementedError

    @property
    def horizon(self) -> float:
        """Delivery is complete for all events starting strictly before this."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True when a finite source has delivered everything."""
        return False


class StreamReplaySource(EventSource):
    """Replay a finite :class:`EventStream` as a pull source.

    ``events_per_poll`` simulates the arrival rate: each poll releases at
    most that many events (default: everything that is left).  This is the
    source used by the streaming-equivalence tests — replaying the exact
    dataset of a batch run, tick by tick.
    """

    def __init__(
        self,
        stream: EventStream,
        *,
        name: Optional[str] = None,
        events_per_poll: Optional[int] = None,
    ):
        if events_per_poll is not None and events_per_poll < 1:
            raise QueryBuildError("events_per_poll must be >= 1")
        self.name = name or stream.name
        self._chunk = stream.columns()
        self._pos = 0
        self._events_per_poll = events_per_poll

    def poll(self, max_events: Optional[int] = None) -> ColumnChunk:
        limit = len(self._chunk) - self._pos
        if self._events_per_poll is not None:
            limit = min(limit, self._events_per_poll)
        if max_events is not None:
            limit = min(limit, max_events)
        out = self._chunk[self._pos : self._pos + max(limit, 0)]
        self._pos += len(out)
        return out

    @property
    def horizon(self) -> float:
        if self.exhausted:
            return _INF
        return float(self._chunk.starts[self._pos])

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._chunk)


class GeneratorSource(EventSource):
    """Unbounded source stitched from successive generator chunks.

    ``make_chunk(i)`` must return the ``i``-th finite chunk as an
    :class:`EventStream` whose time axis starts at (or near) zero — exactly
    what the :mod:`repro.datagen.generators` produce.  Each chunk is shifted
    forward by the cumulative span of the previous chunks, so the stitched
    stream is contiguous and unbounded::

        src = GeneratorSource(lambda i: stock_price_stream(10_000, seed=i),
                              name="stock", events_per_poll=2_000)

    Varying the seed with the chunk index keeps the data non-repeating while
    staying fully deterministic.
    """

    finite = False

    def __init__(
        self,
        make_chunk: Callable[[int], EventStream],
        *,
        name: str,
        events_per_poll: Optional[int] = None,
    ):
        if events_per_poll is not None and events_per_poll < 1:
            raise QueryBuildError("events_per_poll must be >= 1")
        self.name = name
        self._make_chunk = make_chunk
        self._events_per_poll = events_per_poll
        self._chunk_index = 0
        self._offset = 0.0
        self._pending = ColumnChunk.empty()

    def _refill(self) -> None:
        chunk = self._make_chunk(self._chunk_index)
        self._chunk_index += 1
        if not len(chunk):
            raise QueryBuildError("generator chunk produced no events")
        lo, hi = chunk.time_range()
        shift = self._offset - min(lo, 0.0)
        self._pending = ColumnChunk.concat([self._pending, chunk.columns().shifted(shift)])
        self._offset = shift + hi

    def poll(self, max_events: Optional[int] = None) -> ColumnChunk:
        limit = self._events_per_poll
        if max_events is not None:
            limit = max_events if limit is None else min(limit, max_events)
        if limit is None:
            # no rate configured: release exactly one chunk per poll
            if not len(self._pending):
                self._refill()
            limit = len(self._pending)
        while len(self._pending) < limit:
            self._refill()
        out, self._pending = self._pending[:limit], self._pending[limit:]
        return out

    @property
    def horizon(self) -> float:
        if not len(self._pending):
            self._refill()
        return float(self._pending.starts[0])


class ThrottledSource(EventSource):
    """Cap the arrival rate of any inner source to ``events_per_poll``."""

    def __init__(self, inner: EventSource, events_per_poll: int):
        if events_per_poll < 1:
            raise QueryBuildError("events_per_poll must be >= 1")
        self.inner = inner
        self.name = inner.name
        self._events_per_poll = int(events_per_poll)

    def poll(self, max_events: Optional[int] = None) -> ColumnChunk:
        limit = self._events_per_poll
        if max_events is not None:
            limit = min(limit, max_events)
        return self.inner.poll(limit)

    @property
    def finite(self) -> bool:  # type: ignore[override]
        return self.inner.finite

    @property
    def horizon(self) -> float:
        return self.inner.horizon

    @property
    def exhausted(self) -> bool:
        return self.inner.exhausted

    @property
    def depth(self) -> int:
        """Forwarded from the inner source (0 when it has no queue): a
        throttled queue-backed source must still report buffered events so
        a parked service tenant becomes ready again."""
        return getattr(self.inner, "depth", 0)


class BoundedIngestQueue:
    """Thread-safe bounded event queue with blocking ``put`` (backpressure).

    Producers block when the queue holds ``capacity`` events, which is the
    micro-batch backpressure contract: ingest can never run further ahead of
    the consumer than one queue's worth of events.  The queue *holds*
    :class:`ColumnChunk` s but *accounts* in events: capacity, ``len`` and
    ``drain(max_events)`` all count events, splitting a chunk where a limit
    falls inside it.
    """

    def __init__(self, capacity: int = 65_536):
        if capacity < 1:
            raise QueryBuildError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._chunks: Deque[ColumnChunk] = deque()
        self._depth = 0
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return self._depth

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, events: Events, timeout: Optional[float] = None) -> int:
        """Append events, blocking while the queue is full.

        Returns the number of events actually enqueued.  ``timeout`` is a
        total deadline: if it expires before the whole batch fits, the
        already-enqueued prefix stays enqueued and its length is returned —
        the caller retries ``events[n:]``.

        A ``put`` into a closed queue raises :class:`QueueClosedError`
        instead of silently accepting nothing; a producer *blocked* on a
        full queue is woken by :meth:`close` and gets the same exception
        (no deadlock), with ``exc.enqueued`` reporting the prefix that was
        accepted before the close and stays deliverable to the consumer.
        """
        chunk = ColumnChunk.coerce(events)
        enqueued = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while enqueued < len(chunk):
                if self._closed:
                    raise QueueClosedError(
                        f"put into closed queue ({enqueued} of {len(chunk)} "
                        "events were accepted before the close)",
                        enqueued=enqueued,
                    )
                free = self.capacity - self._depth
                if free > 0:
                    take = chunk[enqueued : enqueued + free]
                    self._chunks.append(take)
                    self._depth += len(take)
                    enqueued += len(take)
                    continue
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    break
                if not self._not_full.wait(timeout=wait):
                    break
        return enqueued

    def drain(self, max_events: Optional[int] = None) -> ColumnChunk:
        """Pop up to ``max_events`` events (all of them when None)."""
        with self._not_full:
            want = self._depth if max_events is None else min(max_events, self._depth)
            parts: List[ColumnChunk] = []
            taken = 0
            while taken < want:
                head = self._chunks.popleft()
                if taken + len(head) > want:
                    # the limit falls inside the head chunk: split it
                    self._chunks.appendleft(head[want - taken :])
                    head = head[: want - taken]
                parts.append(head)
                taken += len(head)
            self._depth -= taken
            if taken:
                self._not_full.notify_all()
        return ColumnChunk.concat(parts)

    def peek_start(self) -> Optional[float]:
        """Start time of the first queued event (None when empty)."""
        with self._lock:
            return float(self._chunks[0].starts[0]) if self._chunks else None

    def close(self) -> None:
        """Reject further ``put`` calls and wake blocked producers."""
        with self._not_full:
            self._closed = True
            self._not_full.notify_all()


class QueuedSource(EventSource):
    """Push-fed source: producers push into a bounded queue, the session polls.

    The producer must push events in start-time order; the completeness
    watermark advances to the start of the most recently pushed event (and
    can be advanced past quiet periods with :meth:`advance_to`).  Closing
    the source marks it exhausted once the queue drains, which lets
    ``StreamingSession.close`` flush the tail.
    """

    def __init__(self, name: str, *, capacity: int = 65_536):
        self.name = name
        self.queue = BoundedIngestQueue(capacity)
        self._watermark = -_INF
        self._last_pushed_start = -_INF
        self._closed = False
        # serializes concurrent producers: order validation and the queue
        # put must be atomic, or two in-order batches could interleave
        self._push_lock = threading.Lock()

    def push(self, events: Events, timeout: Optional[float] = None) -> int:
        """Producer side: enqueue in-order events (blocks when full).

        ``events`` is a :class:`ColumnChunk` (arrays go straight through) or
        a sequence of :class:`Event` objects, converted once, here, in the
        producer's thread.  Returns the number of events accepted.  On
        timeout the accepted prefix stays delivered and the order/watermark
        state only reflects it, so the producer can safely retry
        ``events[n:]``.  Pushing into a closed source raises
        :class:`~repro.errors.QueueClosedError`; any prefix accepted before
        the close stays delivered and is reflected in the watermark before
        the exception propagates.

        Thread-safe: concurrent producers are serialized, so each one's
        order check sees the state its batch will actually follow.  (A
        blocked push holds the serialization lock — concurrent producers
        queue behind it and are all woken by :meth:`close`.)
        """
        chunk = ColumnChunk.coerce(events)
        starts = chunk.starts
        with self._push_lock:
            if len(chunk) and (
                starts[0] < self._last_pushed_start or (starts[1:] < starts[:-1]).any()
            ):
                raise QueryBuildError(
                    f"source {self.name!r}: events must be pushed in start order"
                )
            try:
                # deliberate (see docstring): a blocked push parks concurrent
                # producers on the serialization lock; close() wakes them all
                n = self.queue.put(chunk, timeout=timeout)  # lint: allow(LNT101)
            except QueueClosedError as exc:
                self._record_pushed(starts, exc.enqueued)
                raise
            self._record_pushed(starts, n)
            return n

    def _record_pushed(self, starts: np.ndarray, n: int) -> None:
        if n:
            self._last_pushed_start = float(starts[n - 1])
            self._watermark = max(self._watermark, self._last_pushed_start)

    def advance_to(self, t: float) -> None:
        """Promise that no future event will start before ``t``."""
        self._watermark = max(self._watermark, float(t))

    def close(self) -> None:
        """Producer side: no more events will ever be pushed."""
        self._closed = True
        self.queue.close()

    def poll(self, max_events: Optional[int] = None) -> ColumnChunk:
        return self.queue.drain(max_events)

    @property
    def depth(self) -> int:
        """Events currently buffered and not yet polled by the consumer."""
        return len(self.queue)

    @property
    def horizon(self) -> float:
        # events still sitting in the queue have not reached the consumer
        # yet, so completeness only extends to the first queued event.
        first = self.queue.peek_start()
        if first is not None:
            return first
        if self._closed:
            return _INF
        return self._watermark

    @property
    def exhausted(self) -> bool:
        return self._closed and len(self.queue) == 0


def sources_for_streams(
    streams,
    *,
    events_per_poll: Optional[int] = None,
) -> List[StreamReplaySource]:
    """Replay sources for a ``{input name: EventStream}`` mapping.

    Convenience for tests and benchmarks: turns the dict fed to
    ``TiltEngine.run`` into the source list fed to ``open_session``.
    """
    return [
        StreamReplaySource(stream, name=name, events_per_poll=events_per_poll)
        for name, stream in streams.items()
    ]
