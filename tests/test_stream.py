"""Unit tests for the event stream data model."""

import numpy as np
import pytest

from repro.core.runtime.stream import Event, EventStream, interleave
from repro.errors import QueryBuildError, StreamOrderError


class TestEvent:
    def test_basic_fields(self):
        e = Event(1.0, 2.0, 5.0)
        assert e.start == 1.0 and e.end == 2.0
        assert e.value() == 5.0
        assert e.duration == 1.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(QueryBuildError):
            Event(2.0, 2.0, 1.0)
        with pytest.raises(QueryBuildError):
            Event(3.0, 2.0, 1.0)

    def test_structured_payload_field_access(self):
        e = Event(0.0, 1.0, {"amount": 12.5, "user": 3.0})
        assert e.field("amount") == 12.5
        assert e.field("user") == 3.0

    def test_scalar_value_on_struct_raises(self):
        e = Event(0.0, 1.0, {"amount": 12.5})
        with pytest.raises(QueryBuildError):
            e.value()

    def test_field_on_scalar_raises(self):
        with pytest.raises(QueryBuildError):
            Event(0.0, 1.0, 3.0).field("x")


class TestEventStream:
    def test_from_arrays(self):
        s = EventStream.from_arrays([0, 1, 2], [1, 2, 3], [10.0, 11.0, 12.0])
        assert len(s) == 3
        assert s[1].value() == 11.0

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(QueryBuildError):
            EventStream.from_arrays([0, 1], [1], [1.0, 2.0])

    def test_from_samples_periods(self):
        s = EventStream.from_samples([1.0, 2.0, 3.0], period=0.5, start=10.0)
        assert s[0].start == 10.0 and s[0].end == 10.5
        assert s[2].start == 11.0 and s[2].end == 11.5

    def test_order_enforced(self):
        events = [Event(5.0, 6.0, 1.0), Event(1.0, 2.0, 2.0)]
        with pytest.raises(StreamOrderError, match="starting at 1.0 arrived after 5.0"):
            EventStream(events)

    def test_invalid_interval_rejected_for_arrays(self):
        with pytest.raises(QueryBuildError, match=r"end > start, got \(1.0, 1.0\]"):
            EventStream.from_arrays([0, 1], [1, 1], [1.0, 2.0])
        with pytest.raises(QueryBuildError):
            EventStream.from_samples([1.0, 2.0], period=0.0)

    def test_columns_back_the_stream_and_events_materialise_once(self):
        s = EventStream.from_samples([1.0, 2.0, 3.0], period=0.5)
        cols = s.columns()
        assert cols.starts.tolist() == [0.0, 0.5, 1.0] and cols.values.tolist() == [1.0, 2.0, 3.0]
        assert s.starts() is cols.starts and s.values() is cols.values
        assert s.events is s.events and s.events == cols.to_events()
        assert s[-1] == Event(1.0, 1.5, 3.0) and len(s.events[1:]) == 2

    def test_time_range(self, simple_stream):
        assert simple_stream.time_range() == (5.0, 35.0)

    def test_values_and_starts_ends(self, simple_stream):
        assert np.allclose(simple_stream.values(), [1.0, 2.0, 3.0])
        assert np.allclose(simple_stream.starts(), [5.0, 16.0, 30.0])
        assert np.allclose(simple_stream.ends(), [10.0, 23.0, 35.0])

    def test_structured_helpers(self):
        s = EventStream.from_arrays(
            [0, 1], [1, 2], [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}]
        )
        assert s.is_structured
        assert s.fields() == ["a", "b"]
        proj = s.select_field("b")
        assert np.allclose(proj.values(), [2.0, 4.0])
        assert not proj.is_structured

    def test_filter(self, regular_stream):
        evens = regular_stream.filter(lambda e: e.value() % 2 == 0)
        assert len(evens) == 50

    def test_slice_time(self, simple_stream):
        sliced = simple_stream.slice_time(8.0, 20.0)
        assert [e.value() for e in sliced] == [1.0, 2.0]

    def test_partition_by(self):
        s = EventStream.from_arrays(
            [0, 1, 2, 3],
            [1, 2, 3, 4],
            [{"k": 0.0, "v": 1.0}, {"k": 1.0, "v": 2.0}, {"k": 0.0, "v": 3.0}, {"k": 1.0, "v": 4.0}],
        )
        parts = s.partition_by("k")
        assert set(parts.keys()) == {0.0, 1.0}
        assert len(parts[0.0]) == 2

    def test_concat_sorts(self):
        a = EventStream.from_samples([1.0], period=1.0, start=5.0)
        b = EventStream.from_samples([2.0], period=1.0, start=0.0)
        merged = a.concat(b)
        assert merged[0].value() == 2.0

    def test_interleave(self):
        a = EventStream.from_samples([1.0, 1.0], period=2.0, start=0.0)
        b = EventStream.from_samples([2.0], period=1.0, start=1.0)
        merged = interleave([a, b])
        assert len(merged) == 3
        starts = [e.start for e in merged]
        assert starts == sorted(starts)
