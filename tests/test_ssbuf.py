"""Unit and property tests for snapshot buffers (SSBuf)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def list_slice(self, start, end):
    """``SSBuf.slice`` as it was before it returned views, verbatim: every
    sliced column rebuilt through a Python list and the validating
    constructor (the reference)."""
    if end <= start:
        return SSBuf.empty(start)
    start = max(start, self.start_time)
    if not len(self.times) or start >= self.times[-1]:
        return SSBuf.empty(start)
    lo = int(np.searchsorted(self.times, start, side="right"))
    hi = int(np.searchsorted(self.times, end, side="right"))
    times = list(self.times[lo:hi])
    values = list(self.values[lo:hi])
    valid = list(self.valid[lo:hi])
    if hi < len(self.times) and (not times or times[-1] < end):
        # the snapshot at index `hi` spans past `end`; clip it.
        times.append(end)
        values.append(float(self.values[hi]))
        valid.append(bool(self.valid[hi]))
    return SSBuf(times, values, valid, start_time=start)


def assert_same_bytes(got: SSBuf, want: SSBuf):
    assert type(got.start_time) is float and got.start_time == want.start_time
    for name in ("times", "values", "valid"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@given(
    disjoint_event_lists(),
    st.floats(min_value=-5.0, max_value=120.0),
    st.floats(min_value=-5.0, max_value=120.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
@example([Event(2.0, 3.0, 0.0)], 0.0, 1.0, 0.0, False)  # b == start_time
@settings(max_examples=200, deadline=None)
def test_property_view_slice_matches_the_list_slice(events, a, b, prune, on_snapshot):
    """The view-returning slice equals the list-built one byte for byte —
    dtypes, the clipped last snapshot, ``start_time``, the empty cases — and
    is stable under pruning, without ever copying or exposing its source."""
    buf = SSBuf.from_events(events, start_time=events[0].start - 1.0)
    if on_snapshot:  # cut exactly on snapshot times: no clip, spanning starts
        a, b = buf.times[int(a) % len(buf)], buf.times[int(b) % len(buf)]
    got = buf.slice(a, b)
    if a < b <= buf.start_time:
        # wholly before the buffer: the answer is φ.  The list slice clipped
        # a snapshot to ``b`` and then failed its own validation — or, at
        # ``b == start_time``, kept that empty interval ``(b, b]``
        if b < buf.start_time:
            with pytest.raises(QueryBuildError):
                list_slice(buf, a, b)
        assert len(got) == 0 and got.start_time == buf.start_time
        return
    want = list_slice(buf, a, b)
    assert_same_bytes(got, want)
    # stable under pruning: slicing a retained tail gives the same bytes
    t = buf.start_time + prune * (max(a, buf.start_time) - buf.start_time)
    if t <= a:
        assert_same_bytes(buf.slice(t, buf.end_time).slice(a, b), want)
    for name in ("times", "values", "valid") if len(got) else ():
        column = getattr(got, name)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[:1] = 0
    if len(got) and got.times[-1] <= buf.end_time and b in buf.times:
        assert np.shares_memory(got.times, buf.times)  # a view, not a copy
    assert buf.times.flags.writeable  # the source stays the owner's to grow


class TestConcatAndCompactKeepWhatTheyAreGiven:
    def test_concat_of_empty_pieces_keeps_the_earliest_start(self):
        assert SSBuf.concat([SSBuf.empty(5.0)]).start_time == 5.0
        assert SSBuf.concat([SSBuf.empty(9.0), SSBuf.empty(5.0)]).start_time == 5.0
        assert SSBuf.concat([]).start_time == 0.0

    def test_concat_single_piece_is_not_copied(self, regular_buf):
        piece = regular_buf.slice(10.0, 40.0)
        out = SSBuf.concat([SSBuf.empty(3.0), piece])
        assert out.start_time == 3.0 and np.shares_memory(out.times, piece.times)

    def test_concat_drops_a_repeated_edge_and_overlap(self, regular_buf):
        a, b = regular_buf.slice(0.0, 40.0), regular_buf.slice(30.0, 100.0)
        assert_same_bytes(SSBuf.concat([b, a]), regular_buf.slice(0.0, 100.0))

    def test_compact_of_a_canonical_buffer_is_itself(self, regular_buf):
        assert regular_buf.compact() is regular_buf
