"""Columnar ingest: one path from source to kernel, whatever the feed style.

Events reach a session as :class:`ColumnChunk` arrays.  ``Event`` lists
survive only at the public API edge (``QueuedSource.push``, a user source
whose ``poll`` returns a list) and go through the one ``ColumnChunk.coerce``.
The differential tests below drive the same query the same way through every
feed style — on every engine plan of ``ENGINE_PLANS`` — and require
byte-identical output; the guard after them pins that a generator-built
stream reaches the kernel without one ``Event`` object.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnChunk, TiltEngine
from repro.apps import get_application
from repro.core.runtime.stream import Event
from repro.datagen.sources import (
    EventSource,
    QueuedSource,
    StreamReplaySource,
    ThrottledSource,
)
from repro.errors import QueryBuildError

#: scalar (trading), structured multi-field (ysb, frauddet), gaps (impute)
APPS = ["trading", "ysb", "frauddet", "impute"]
N_EVENTS = 1_500


class ListSource(EventSource):
    """A user-defined source in the pre-columnar style: ``poll`` hands back a
    plain ``List[Event]``, which the session must coerce itself."""

    def __init__(self, name, events):
        self.name = name
        self._events = events
        self._pos = 0

    def poll(self, max_events=None):
        limit = len(self._events) - self._pos if max_events is None else max_events
        out = self._events[self._pos : self._pos + limit]
        self._pos += len(out)
        return out

    @property
    def horizon(self):
        return float("inf") if self.exhausted else self._events[self._pos].start

    @property
    def exhausted(self):
        return self._pos >= len(self._events)


def pieces(items, sizes):
    """Cut ``items`` (a list or a chunk) into consecutive ragged slices."""
    out, pos, i = [], 0, 0
    while pos < len(items):
        out.append(items[pos : pos + sizes[i % len(sizes)]])
        pos += len(out[-1])
        i += 1
    return out


def queued(name, stream, sizes, *, as_events):
    """Everything pushed up front in ragged pieces and closed, so the
    horizon (first queued start) matches a replay source's tick for tick
    and drains split and re-join the queued chunks."""
    src = QueuedSource(name, capacity=len(stream))
    for piece in pieces(stream.events if as_events else stream.columns(), sizes):
        assert src.push(piece) == len(piece)
    src.close()
    return src


FEEDS = {
    "replay": lambda n, s, sizes: StreamReplaySource(s, name=n),
    "push_events": lambda n, s, sizes: queued(n, s, sizes, as_events=True),
    "push_chunks": lambda n, s, sizes: queued(n, s, sizes[::-1], as_events=False),
    "list_source": lambda n, s, sizes: ListSource(n, s.events),
    "throttled_push": lambda n, s, sizes: ThrottledSource(
        queued(n, s, sizes, as_events=True), max(sizes)
    ),
}


def tick_concat(engine, program, streams, feed, sizes):
    sources = [FEEDS[feed](name, stream, sizes) for name, stream in streams.items()]
    session = engine.open_session(program, sources)
    i = 0
    while not session.exhausted:
        session.tick(max_events=sizes[i % len(sizes)])
        i += 1
    session.close()
    return session.result().output


def buffer_bytes(buf):
    return (
        buf.start_time,
        buf.times.tobytes(),
        buf.valid.tobytes(),
        buf.values[buf.valid].tobytes(),
    )


def assert_feed_styles_agree(engine, program, streams, sizes):
    """Every feed style, byte for byte; returns the (one) tick-concat output."""
    outputs = {feed: tick_concat(engine, program, streams, feed, sizes) for feed in FEEDS}
    reference = buffer_bytes(outputs["replay"])
    for feed, output in outputs.items():
        assert buffer_bytes(output) == reference, feed
    assert outputs["replay"] == engine.run(program, streams).output
    return outputs["replay"]


@pytest.mark.parametrize("app_name", APPS)
@settings(max_examples=8, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=8))
def test_every_feed_style_gives_the_same_bytes(app_name, sizes):
    app = get_application(app_name)
    with TiltEngine(workers=1) as engine:
        assert_feed_styles_agree(engine, app.program(), app.streams(N_EVENTS, seed=11), sizes)


@pytest.mark.parametrize("app_name", APPS)
def test_feed_styles_agree_on_every_plan(app_name, engine_plan, oracle):
    app = get_application(app_name)
    program, streams = app.program(), app.streams(engine_plan.events(N_EVENTS), seed=11)
    with engine_plan.engine() as engine:
        output = assert_feed_styles_agree(engine, program, streams, [37, 400, 1, 113])
    assert output == oracle(program, streams)


@pytest.mark.parametrize("app_name", ["trading", "ysb"])
def test_replay_fed_session_builds_no_event_objects(app_name, monkeypatch):
    """Deterministic guard for the columnar path: from generator to kernel,
    a replay-fed session constructs zero ``Event`` objects."""
    built = []
    original = Event.__post_init__
    monkeypatch.setattr(
        Event, "__post_init__", lambda self: (built.append(1), original(self))[1]
    )
    app = get_application(app_name)
    streams = app.streams(N_EVENTS, seed=3)
    engine = TiltEngine(workers=1)
    try:
        sources = [
            StreamReplaySource(s, name=n, events_per_poll=200) for n, s in streams.items()
        ]
        session = engine.open_session(app.program(), sources)
        session.run_to_exhaustion()
        assert session.result().input_events == N_EVENTS
        engine.run(app.program(), streams)
    finally:
        engine.close()
    assert built == []
    Event(0.0, 1.0, 1.0)  # the counter does count
    assert built == [1]


class TestColumnChunk:
    def test_coerce_round_trips_scalar_and_structured_events(self):
        scalar = [Event(0.0, 1.0, 5), Event(1.0, 2.5, 6.5)]
        chunk = ColumnChunk.coerce(scalar)
        assert not chunk.is_structured and chunk.values.tolist() == [5.0, 6.5]
        assert chunk.to_events() == scalar
        structured = [Event(0.0, 1.0, {"a": 1.0, "b": 2.0}), Event(1.0, 2.0, {"a": 3.0, "b": 4.0})]
        chunk = ColumnChunk.coerce(structured)
        assert chunk.fields() == ["a", "b"] and chunk.column("b").tolist() == [2.0, 4.0]
        assert list(chunk) == structured
        assert ColumnChunk.coerce(chunk) is chunk
        assert len(ColumnChunk.coerce([])) == 0

    def test_slices_are_views(self):
        chunk = ColumnChunk(np.arange(6.0), np.arange(6.0) + 1, {"v": np.arange(6.0)})
        part = chunk[2:5]
        assert len(part) == 3 and part.starts.base is chunk.starts
        assert part.values["v"].base is chunk.values["v"]

    def test_construction_validates_once_vectorised(self):
        with pytest.raises(QueryBuildError, match=r"end > start, got \(2.0, 2.0\]"):
            ColumnChunk([0.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(QueryBuildError, match="equal length"):
            ColumnChunk([0.0, 2.0], [1.0, 3.0], [1.0])
        with pytest.raises(QueryBuildError, match="one payload shape"):
            ColumnChunk.coerce([Event(0.0, 1.0, 1.0), Event(1.0, 2.0, {"a": 1.0})])
        with pytest.raises(QueryBuildError, match="no field 'z'"):
            ColumnChunk([0.0], [1.0], {"a": [1.0]}).column("z")
        with pytest.raises(QueryBuildError, match="different payload shapes"):
            ColumnChunk.concat(
                [ColumnChunk([0.0], [1.0], [1.0]), ColumnChunk([1.0], [2.0], {"a": [1.0]})]
            )
