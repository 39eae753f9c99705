"""Unit and property tests for snapshot buffers (SSBuf)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime.ssbuf import (
    SSBuf,
    Snapshot,
    change_points,
    ssbuf_from_stream,
    ssbufs_from_stream,
)
from repro.core.runtime.stream import ColumnChunk, Event, EventStream
from repro.errors import OverlappingEventsError, QueryBuildError


class TestConstruction:
    def test_from_events_matches_paper_figure5(self, simple_events):
        buf = SSBuf.from_events(simple_events)
        # (10, a) (16, φ) (23, b) (30, φ) (35, c) with start_time 5
        assert buf.start_time == 5.0
        assert list(buf.times) == [10.0, 16.0, 23.0, 30.0, 35.0]
        assert list(buf.valid) == [True, False, True, False, True]
        assert buf.values[0] == 1.0 and buf.values[2] == 2.0 and buf.values[4] == 3.0

    def test_from_events_with_explicit_start(self, simple_events):
        buf = SSBuf.from_events(simple_events, start_time=0.0)
        # an extra leading φ snapshot covers (0, 5]
        assert buf.start_time == 0.0
        assert buf.times[0] == 5.0 and not buf.valid[0]

    def test_empty(self):
        buf = SSBuf.empty(3.0)
        assert len(buf) == 0
        assert buf.start_time == 3.0
        assert buf.end_time == 3.0
        assert buf.value_at(4.0) == (0.0, False)

    def test_constant(self):
        buf = SSBuf.constant(7.0, 0.0, 10.0)
        assert buf.value_at(5.0) == (7.0, True)
        assert buf.value_at(10.0) == (7.0, True)
        assert buf.value_at(10.5) == (0.0, False)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(QueryBuildError):
            SSBuf([1.0, 1.0], [0.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(QueryBuildError):
            SSBuf([1.0, 2.0], [0.0])

    def test_overlapping_events_error_policy(self):
        events = [Event(0.0, 5.0, 1.0), Event(3.0, 8.0, 2.0)]
        with pytest.raises(OverlappingEventsError):
            SSBuf.from_events(events)

    def test_overlapping_events_last_wins(self):
        events = [Event(0.0, 5.0, 1.0), Event(3.0, 8.0, 2.0)]
        buf = SSBuf.from_events(events, on_overlap="last")
        assert buf.value_at(2.0) == (1.0, True)
        assert buf.value_at(4.0) == (2.0, True)   # later-starting event wins
        assert buf.value_at(7.0) == (2.0, True)

    def test_repr_shows_phi(self, simple_buf):
        text = repr(simple_buf)
        assert "φ" in text


class TestPointQueries:
    def test_value_inside_and_outside(self, simple_buf):
        assert simple_buf.value_at(7.0) == (1.0, True)
        assert simple_buf.value_at(10.0) == (1.0, True)     # inclusive right edge
        assert simple_buf.value_at(10.5) == (0.0, False)    # gap
        assert simple_buf.value_at(5.0) == (0.0, False)     # at/before start
        assert simple_buf.value_at(50.0) == (0.0, False)    # past the end

    def test_values_at_vectorized_matches_scalar(self, simple_buf):
        ts = np.linspace(0.0, 40.0, 101)
        vv, kk = simple_buf.values_at(ts)
        for i, t in enumerate(ts):
            v, k = simple_buf.value_at(float(t))
            assert kk[i] == k
            if k:
                assert vv[i] == v

    def test_change_times_in(self, simple_buf):
        assert list(simple_buf.change_times_in(10.0, 30.0)) == [16.0, 23.0, 30.0]
        assert list(simple_buf.change_times_in(-10.0, 5.0)) == []


class TestTransformations:
    def test_slice_preserves_values(self, simple_buf):
        sliced = simple_buf.slice(8.0, 32.0)
        assert sliced.start_time == 8.0
        grid = np.linspace(8.1, 32.0, 50)
        sv, sk = sliced.values_at(grid)
        fv, fk = simple_buf.values_at(grid)
        assert np.array_equal(sk, fk)
        assert np.allclose(sv[sk], fv[fk])

    def test_slice_clips_trailing_snapshot(self, simple_buf):
        sliced = simple_buf.slice(6.0, 9.0)
        assert sliced.end_time == 9.0
        assert sliced.value_at(8.5) == (1.0, True)

    def test_slice_empty_interval(self, simple_buf):
        assert len(simple_buf.slice(10.0, 10.0)) == 0
        assert len(simple_buf.slice(100.0, 200.0)) == 0

    def test_shift(self, simple_buf):
        shifted = simple_buf.shift(5.0)
        assert shifted.value_at(12.0) == simple_buf.value_at(7.0)
        assert shifted.value_at(12.0) == (1.0, True)

    def test_compact_merges_equal_adjacent(self):
        buf = SSBuf([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 6.0, 6.0], [True, True, True, True], 0.0)
        compacted = buf.compact()
        assert len(compacted) == 2
        assert compacted.value_at(1.5) == (5.0, True)
        assert compacted.value_at(3.5) == (6.0, True)

    def test_compact_merges_phi_runs(self):
        buf = SSBuf([1.0, 2.0, 3.0], [0.0, 0.0, 7.0], [False, False, True], 0.0)
        compacted = buf.compact()
        assert len(compacted) == 2

    def test_map_values(self, simple_buf):
        doubled = simple_buf.map_values(lambda v: v * 2)
        assert doubled.value_at(7.0) == (2.0, True)
        assert doubled.value_at(12.0) == (0.0, False)

    def test_to_events_round_trip(self, simple_events):
        buf = SSBuf.from_events(simple_events)
        events = buf.to_events()
        assert [(e.start, e.end, e.payload) for e in events] == [
            (5.0, 10.0, 1.0),
            (16.0, 23.0, 2.0),
            (30.0, 35.0, 3.0),
        ]

    def test_to_stream(self, simple_buf):
        stream = simple_buf.to_stream("back")
        assert stream.name == "back"
        assert len(stream) == 3


class TestCombination:
    def test_merged_change_times(self, simple_buf):
        other = SSBuf([12.0, 40.0], [1.0, 2.0], [True, True], 0.0)
        merged = SSBuf.merged_change_times([simple_buf, other], 0.0, 50.0)
        assert 12.0 in merged and 16.0 in merged and 40.0 in merged
        assert list(merged) == sorted(set(merged))

    def test_concat_ordered_pieces(self, regular_buf):
        a = regular_buf.slice(0.0, 40.0)
        b = regular_buf.slice(40.0, 100.0)
        rebuilt = SSBuf.concat([a, b])
        grid = np.linspace(1.0, 100.0, 200)
        rv, rk = rebuilt.values_at(grid)
        fv, fk = regular_buf.values_at(grid)
        assert np.array_equal(rk, fk)
        assert np.allclose(rv[rk], fv[fk])

    def test_concat_empty(self):
        assert len(SSBuf.concat([])) == 0


class TestStreamConversions:
    def test_ssbuf_from_scalar_stream(self, regular_stream):
        buf = ssbuf_from_stream(regular_stream)
        assert buf.num_valid() == 100

    def test_ssbufs_from_structured_stream(self):
        s = EventStream.from_arrays(
            [0, 1], [1, 2], [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}], name="txn"
        )
        bufs = ssbufs_from_stream(s)
        assert set(bufs.keys()) == {"txn.a", "txn.b"}
        assert bufs["txn.b"].value_at(1.5) == (4.0, True)


# ---------------------------------------------------------------------- #
# property-based tests
# ---------------------------------------------------------------------- #
@st.composite
def disjoint_event_lists(draw):
    """In-order, non-overlapping event lists with gaps."""
    n = draw(st.integers(min_value=1, max_value=30))
    cursor = 0.0
    events = []
    for _ in range(n):
        gap = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
        length = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        value = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
        start = cursor + gap
        end = start + length
        events.append(Event(start, end, value))
        cursor = end
    return events


@given(disjoint_event_lists())
@settings(max_examples=50, deadline=None)
def test_property_event_round_trip(events):
    """events -> SSBuf -> events is the identity for disjoint events."""
    buf = SSBuf.from_events(events)
    back = buf.to_events(compact=False)
    assert len(back) == len(events)
    for original, restored in zip(events, back):
        assert restored.start == pytest.approx(original.start)
        assert restored.end == pytest.approx(original.end)
        assert restored.payload == pytest.approx(original.payload)


@given(disjoint_event_lists(), st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_property_value_at_matches_event_cover(events, t):
    """value_at agrees with a brute-force scan over the original events."""
    buf = SSBuf.from_events(events)
    value, valid = buf.value_at(t)
    covering = [e for e in events if e.start < t <= e.end]
    assert valid == bool(covering)
    if covering:
        assert value == pytest.approx(covering[0].payload)


@given(disjoint_event_lists(), st.floats(min_value=0.5, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_property_slice_preserves_values(events, width, offset):
    """Slicing never changes the temporal object's value inside the slice."""
    buf = SSBuf.from_events(events)
    lo = buf.start_time + offset
    hi = lo + width
    sliced = buf.slice(lo, hi)
    grid = np.linspace(lo + 1e-6, hi, 23)
    sv, sk = sliced.values_at(grid)
    fv, fk = buf.values_at(grid)
    assert np.array_equal(sk, fk)
    assert np.allclose(sv[sk], fv[fk])


def loop_change_points(events, prev_end):
    """The per-event construction ``change_points`` replaced (the reference)."""
    times, values, valid = [], [], []
    for e in events:
        if e.start > prev_end:
            times.append(e.start), values.append(0.0), valid.append(False)
        times.append(e.end), values.append(e.payload), valid.append(True)
        prev_end = e.end
    return times, values, valid


@given(disjoint_event_lists(), st.sampled_from([0.0, 0.5, 2.0]), st.integers(min_value=0, max_value=30))
@settings(max_examples=80, deadline=None)
def test_property_change_points_matches_the_per_event_loop(events, lead, cut):
    """The one vectorised builder equals the loop, whole or in two appends —
    the prefix identity tick-by-tick ingestion rests on."""
    chunk = ColumnChunk.coerce(events)
    prev_end = events[0].start - lead  # lead > 0: an explicit earlier start
    want = loop_change_points(events, prev_end)

    def build(part, prev):
        times, valid, (vals, twice) = change_points(
            part.starts, part.ends, [part.values, 2 * part.values], prev
        )
        assert np.array_equal(twice, 2 * vals)  # every column shares the layout
        return times.tolist(), vals.tolist(), valid.tolist()

    assert build(chunk, prev_end) == want
    cut = min(cut, len(events))
    if 0 < cut < len(events):
        head, tail = build(chunk[:cut], prev_end), build(chunk[cut:], events[cut - 1].end)
        assert tuple(h + t for h, t in zip(head, tail)) == want
    with pytest.raises(OverlappingEventsError, match="overlaps or precedes"):
        change_points(chunk.starts, chunk.ends, [chunk.values], events[0].start + 0.05)
