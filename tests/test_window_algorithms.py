"""Tests for the sliding-window aggregation algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import EventStream
from repro.windowing import (
    MAX,
    MEAN,
    MIN,
    STDDEV,
    SUM,
    SparseTableRMQ,
    range_aggregate,
    snapshot_range_indices,
)

from fixtures.online import (
    RecomputeAggregator,
    SubtractOnEvict,
    TwoStacksAggregator,
    make_online_aggregator,
)
from fixtures.windows import streaming_window_aggregate, window_aggregate, window_grid


def brute_force_window(buf: SSBuf, ws: float, we: float, agg):
    """Reference: fold every valid snapshot overlapping (ws, we]."""
    values = []
    starts = buf.interval_starts
    for i in range(len(buf)):
        if buf.valid[i] and buf.times[i] > ws and starts[i] < we:
            values.append(float(buf.values[i]))
    return agg.fold(values)


class TestSnapshotRangeIndices:
    def test_simple(self, simple_buf):
        lo, hi = snapshot_range_indices(
            simple_buf.times, simple_buf.start_time, np.array([6.0]), np.array([20.0])
        )
        # snapshots overlapping (6, 20]: indices 0 (event a), 1 (gap), 2 (event b)
        assert lo[0] == 0 and hi[0] == 3

    def test_empty_window(self, simple_buf):
        lo, hi = snapshot_range_indices(
            simple_buf.times, simple_buf.start_time, np.array([100.0]), np.array([110.0])
        )
        assert hi[0] <= lo[0]


    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=40),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(-4, 130), st.integers(-4, 130)), min_size=1, max_size=30),
        st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cursor_derivation_matches_two_searches(self, gaps, lead, windows, jitter):
        """``lo``/``hi`` derived from the left cursors of the window edges
        equal the two-search formulation they replaced (``right`` over the
        times, ``left`` over the interval starts) — with edges on and off
        snapshot times, before the start and past the end, and shared
        cursors passed in."""
        start_time = 10.0
        times = start_time + lead + np.cumsum(np.array(gaps, dtype=float)) * 0.5
        interval_starts = np.concatenate(([start_time], times[:-1]))
        ws = np.array([a for a, _ in windows]) * 0.5 + jitter
        we = np.array([b for _, b in windows]) * 0.5 + jitter
        lo, hi = snapshot_range_indices(times, start_time, ws, we)
        if len(times):
            assert np.array_equal(lo, np.searchsorted(times, ws, side="right"))
            assert np.array_equal(hi, np.searchsorted(interval_starts, we, side="left"))
        else:
            assert not lo.any() and not hi.any()
        shared = snapshot_range_indices(
            times, start_time, ws, we,
            np.searchsorted(times, ws, side="left"), np.searchsorted(times, we, side="left"),
        )
        assert np.array_equal(shared[0], lo) and np.array_equal(shared[1], hi)


class TestRangeAggregation:
    @pytest.mark.parametrize("agg", [SUM, MEAN, STDDEV, MAX, MIN])
    def test_matches_brute_force(self, random_walk_buf, agg):
        starts = np.array([10.0, 50.0, 100.0, 200.0, 250.0])
        ends = starts + np.array([20.0, 13.0, 50.0, 1.0, 49.0])
        values, valid = range_aggregate(random_walk_buf, starts, ends, agg)
        for i in range(len(starts)):
            expected, expected_ok = brute_force_window(
                random_walk_buf, starts[i], ends[i], agg
            )
            assert valid[i] == expected_ok
            if expected_ok:
                # prefix-sum decompositions of variance-like aggregates incur
                # floating-point cancellation; allow a small absolute error.
                assert values[i] == pytest.approx(expected, rel=1e-7, abs=1e-4)

    def test_empty_windows_are_phi(self, simple_buf):
        values, valid = range_aggregate(simple_buf, np.array([11.0]), np.array([15.0]), SUM)
        assert not valid[0]

    def test_invalid_snapshots_excluded(self):
        buf = SSBuf([1.0, 2.0, 3.0], [10.0, 99.0, 20.0], [True, False, True], 0.0)
        values, valid = range_aggregate(buf, np.array([0.0]), np.array([3.0]), SUM)
        assert valid[0] and values[0] == 30.0

    def test_generic_path_for_custom_agg(self, random_walk_buf):
        from repro.windowing import custom_aggregate

        median = custom_aggregate(
            "median",
            init=lambda: [],
            acc=lambda s, v: s + [v],
            result=lambda s: float(np.median(s)),
            vector_eval=lambda vals: float(np.median(vals)),
        )
        values, valid = range_aggregate(
            random_walk_buf, np.array([10.0, 40.0]), np.array([30.0, 60.0]), median
        )
        assert valid.all()
        expected0, _ = brute_force_window(random_walk_buf, 10.0, 30.0, median)
        assert values[0] == pytest.approx(expected0)


class TestSparseTable:
    def test_max_and_min_queries(self, random_walk_buf):
        for agg, mode in ((MAX, "max"), (MIN, "min")):
            table = SparseTableRMQ(random_walk_buf.values, random_walk_buf.valid, mode=mode)
            starts = np.array([5.0, 17.0, 100.0])
            ends = np.array([25.0, 18.0, 299.0])
            values, valid = table.query_indices(
                *snapshot_range_indices(
                    random_walk_buf.times, random_walk_buf.start_time, starts, ends
                )
            )
            for i in range(len(starts)):
                expected, ok = brute_force_window(random_walk_buf, starts[i], ends[i], agg)
                assert valid[i] == ok
                if ok:
                    assert values[i] == pytest.approx(expected)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SparseTableRMQ(np.array([1.0]), np.array([True]), mode="sum")


class TestOnlineAggregators:
    def test_subtract_on_evict(self):
        win = SubtractOnEvict(SUM)
        for v in [1.0, 2.0, 3.0]:
            win.insert(v)
        assert win.query() == (6.0, True)
        win.evict(1.0)
        assert win.query() == (5.0, True)
        win.evict(2.0)
        win.evict(3.0)
        assert win.query() == (0.0, False)

    def test_subtract_on_evict_requires_invertible(self):
        with pytest.raises(ValueError):
            SubtractOnEvict(MAX)

    def test_two_stacks_matches_recompute(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 10, 200)
        two_stacks = TwoStacksAggregator(MAX)
        recompute = RecomputeAggregator(MAX)
        window = []
        for v in values:
            two_stacks.insert(float(v))
            recompute.insert(float(v))
            window.append(float(v))
            if len(window) > 17:
                window.pop(0)
                two_stacks.evict()
                recompute.evict()
            assert two_stacks.query() == pytest.approx(recompute.query())

    def test_two_stacks_empty_evict_raises(self):
        with pytest.raises(IndexError):
            TwoStacksAggregator(SUM).evict()

    def test_make_online_aggregator_selection(self):
        assert isinstance(make_online_aggregator(SUM), SubtractOnEvict)
        assert isinstance(make_online_aggregator(MAX), TwoStacksAggregator)
        from repro.windowing import custom_aggregate

        plain = custom_aggregate("plain", init=lambda: 0.0, acc=lambda s, v: s + v, result=lambda s: s)
        assert isinstance(make_online_aggregator(plain), RecomputeAggregator)


class TestWindowAggregate:
    def test_window_grid(self):
        grid = window_grid(0.0, 20.0, 5.0)
        assert list(grid) == [5.0, 10.0, 15.0, 20.0]
        assert len(window_grid(5.0, 5.0, 1.0)) == 0

    def test_tumbling_counts(self, regular_buf):
        out = window_aggregate(regular_buf, 10.0, 10.0, SUM)
        # values 0..99 at 1 Hz; window (0,10] sums 0..9 = 45
        assert out.value_at(10.0) == (45.0, True)
        assert out.value_at(20.0) == (145.0, True)

    def test_sliding_mean(self, regular_buf):
        out = window_aggregate(regular_buf, 10.0, 5.0, MEAN)
        value, ok = out.value_at(20.0)
        assert ok and value == pytest.approx(np.mean(np.arange(10, 20)))

    def test_vectorized_matches_streaming(self, random_walk_buf):
        for agg in (SUM, MEAN, MAX):
            fast = window_aggregate(random_walk_buf, 15.0, 5.0, agg)
            slow = streaming_window_aggregate(random_walk_buf, 15.0, 5.0, agg)
            assert len(fast) == len(slow)
            assert np.allclose(fast.times, slow.times)
            assert np.array_equal(fast.valid, slow.valid)
            assert np.allclose(fast.values[fast.valid], slow.values[slow.valid])


@st.composite
def buffer_and_windows(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    values = draw(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=n, max_size=n
        )
    )
    stream = EventStream.from_samples(values, period=1.0)
    buf = ssbuf_from_stream(stream)
    num_windows = draw(st.integers(min_value=1, max_value=10))
    starts, ends = [], []
    for _ in range(num_windows):
        s = draw(st.floats(min_value=-5.0, max_value=float(n) + 5.0, allow_nan=False))
        w = draw(st.floats(min_value=0.5, max_value=25.0, allow_nan=False))
        starts.append(s)
        ends.append(s + w)
    return buf, np.array(starts), np.array(ends)


@given(buffer_and_windows(), st.sampled_from([SUM, MEAN, MAX, MIN, STDDEV]))
@settings(max_examples=60, deadline=None)
def test_property_range_aggregate_matches_brute_force(data, agg):
    """The vectorized range indexes agree with a naive per-window fold."""
    buf, starts, ends = data
    values, valid = range_aggregate(buf, starts, ends, agg)
    for i in range(len(starts)):
        expected, ok = brute_force_window(buf, starts[i], ends[i], agg)
        assert valid[i] == ok
        if ok:
            assert values[i] == pytest.approx(expected, rel=1e-7, abs=1e-4)
