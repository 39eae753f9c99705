"""Unit tests for the online sliding-window aggregators.

Focus on the deaccumulation edge cases that the differential harness only
hits probabilistically: single-element windows, fully-masked lanes, NaN
inputs, and the growable prefix index (chunked ``extend`` ≡ one-shot build,
extended-precision variance/stddev state, prune rebasing) that sessions
keep across ticks.

:class:`RecomputeAggregator` is the semantic reference throughout — it
re-folds the window on every query, so whatever it answers *is* the
aggregate's definition applied to the current window contents.
"""

import math

import numpy as np
import pytest

from repro.core.codegen.runtime_support import ReduceSite
from repro.core.runtime.ssbuf import SSBuf
from repro.windowing import (
    COUNT,
    FIRST,
    LAST,
    MAX,
    MEAN,
    MIN,
    PRODUCT,
    PrefixRangeIndex,
    STDDEV,
    SUM,
    SUM_SQUARES,
    VARIANCE,
    range_aggregate,
    snapshot_range_indices,
)
from repro.windowing.functions import builtin_aggregates

from fixtures.online import (
    RecomputeAggregator,
    SubtractOnEvict,
    TwoStacksAggregator,
    make_online_aggregator,
)

INVERTIBLE = [SUM, COUNT, MEAN, SUM_SQUARES, VARIANCE, STDDEV]


def drive(online, reference, ops):
    """Apply the same insert/evict script to both aggregators, checking the
    query after every step."""
    for op, value in ops:
        if op == "insert":
            online.insert(value)
            reference.insert(value)
        else:
            online.evict(value)
            reference.evict(value)
        got, got_ok = online.query()
        want, want_ok = reference.query()
        assert got_ok == want_ok, (op, value)
        if want_ok:
            # abs=1e-6 leaves room for deacc cancellation noise: a
            # single-element stddev is sqrt(sumsq - sum²/1), an exact zero
            # for recompute but sqrt(O(eps)) ≈ 1e-8 for the rotated state
            assert got == pytest.approx(want, rel=1e-7, abs=1e-6), (op, value)


def sliding_script(values, window):
    ops = []
    for i, v in enumerate(values):
        ops.append(("insert", v))
        if i >= window:
            ops.append(("evict", values[i - window]))
    return ops


class TestSubtractOnEvict:
    @pytest.mark.parametrize("agg", INVERTIBLE, ids=lambda a: a.name)
    def test_sliding_window_matches_recompute(self, agg):
        rng = np.random.default_rng(7)
        values = rng.uniform(-3.0, 5.0, 300).tolist()
        drive(SubtractOnEvict(agg), RecomputeAggregator(agg), sliding_script(values, 17))

    @pytest.mark.parametrize("agg", INVERTIBLE, ids=lambda a: a.name)
    def test_single_element_window(self, agg):
        """Window of size one: every tick is an insert immediately followed
        by the previous value's evict — the state repeatedly passes through
        the 'almost empty' regime where deacc cancellation error shows up."""
        rng = np.random.default_rng(8)
        values = rng.uniform(0.5, 2.0, 120).tolist()
        drive(SubtractOnEvict(agg), RecomputeAggregator(agg), sliding_script(values, 1))

    def test_empty_after_full_drain_is_phi(self):
        soe = SubtractOnEvict(SUM)
        for v in (1.5, 2.5, -4.0):
            soe.insert(v)
        for v in (1.5, 2.5, -4.0):
            soe.evict(v)
        assert len(soe) == 0
        assert soe.query() == (0.0, False)

    def test_variance_drain_reaccumulate(self):
        """Draining to empty must fully reset the moment state: a fresh
        window accumulated after the drain matches a fresh reference."""
        soe = SubtractOnEvict(VARIANCE)
        for v in (10.0, 12.0, 14.0):
            soe.insert(v)
        for v in (10.0, 12.0, 14.0):
            soe.evict(v)
        ref = RecomputeAggregator(VARIANCE)
        drive(soe, ref, sliding_script([3.0, 5.0, 7.0, 9.0], 3))

    def test_nan_poisons_sum_permanently(self):
        """nan - nan == nan: once a NaN enters an invertible state, evicting
        it cannot restore the state.  This is a documented limitation of
        subtract-on-evict — recompute recovers, SoE does not — and the
        reason NaN-laden inputs should mask NaNs out (valid=False) rather
        than feed them through deaccumulation."""
        soe = SubtractOnEvict(SUM)
        soe.insert(float("nan"))
        soe.insert(1.0)
        soe.evict(float("nan"))
        value, ok = soe.query()
        assert ok and math.isnan(value)
        # recompute's window no longer contains the NaN, so it recovers
        ref = RecomputeAggregator(SUM)
        ref.insert(float("nan"))
        ref.insert(1.0)
        ref.evict(float("nan"))
        value, ok = ref.query()
        assert ok and value == 1.0

    def test_rejects_non_invertible(self):
        with pytest.raises(ValueError):
            SubtractOnEvict(MAX)
        with pytest.raises(ValueError):
            SubtractOnEvict(FIRST)


class TestTwoStacks:
    @pytest.mark.parametrize("agg", [MAX, MIN, PRODUCT], ids=lambda a: a.name)
    def test_sliding_window_matches_recompute(self, agg):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.25, 4.0, 300).tolist()
        drive(TwoStacksAggregator(agg), RecomputeAggregator(agg), sliding_script(values, 23))

    def test_flip_preserves_order_and_aggregate(self):
        ts = TwoStacksAggregator(MAX)
        for v in (3.0, 9.0, 1.0):
            ts.insert(v)
        ts.evict()  # flips the back stack; window is now [9, 1]
        assert ts.query() == (9.0, True)
        ts.evict()
        assert ts.query() == (1.0, True)
        ts.insert(5.0)  # straddles front (old) and back (new) stacks
        assert ts.query() == (5.0, True)
        assert len(ts) == 2

    def test_no_merge_fallback(self):
        """An aggregate with neither deacc nor merge forces the
        re-accumulation fallback when the window straddles both stacks.
        (A commutative one: the flip folds newest-first, so order-dependent
        aggregates like FIRST/LAST are escalated to Recompute instead of
        ever reaching two-stacks — see :func:`make_online_aggregator`.)"""
        from repro.windowing.functions import custom_aggregate

        osum = custom_aggregate(
            "osum", init=lambda: 0.0, acc=lambda s, v: s + v, result=lambda s: s
        )
        assert not osum.invertible and not osum.mergeable
        ts = TwoStacksAggregator(osum)
        ref = RecomputeAggregator(osum)
        rng = np.random.default_rng(10)
        drive(ts, ref, sliding_script(rng.uniform(0, 1, 60).tolist(), 7))

    def test_evict_empty_raises(self):
        ts = TwoStacksAggregator(MAX)
        with pytest.raises(IndexError):
            ts.evict()
        ts.insert(1.0)
        ts.evict()
        with pytest.raises(IndexError):
            ts.evict()

    def test_empty_is_phi(self):
        ts = TwoStacksAggregator(MIN)
        assert ts.query() == (0.0, False)
        ts.insert(2.0)
        ts.evict()
        assert ts.query() == (0.0, False)


class TestEscalation:
    def test_make_online_aggregator_picks_cheapest_capable(self):
        assert isinstance(make_online_aggregator(SUM), SubtractOnEvict)
        assert isinstance(make_online_aggregator(VARIANCE), SubtractOnEvict)
        assert isinstance(make_online_aggregator(MAX), TwoStacksAggregator)
        assert isinstance(make_online_aggregator(PRODUCT), TwoStacksAggregator)
        assert isinstance(make_online_aggregator(FIRST), RecomputeAggregator)
        assert isinstance(make_online_aggregator(LAST), RecomputeAggregator)

    def test_strategy_matches_capabilities(self):
        """The one classification every consumer reads — which index a
        reduce site builds (``prefix`` is also what a session's reduce site
        persists) — and the online aggregator the oracle picks."""
        rows = builtin_aggregates()
        picks = {
            name: (rows[name].strategy.range, type(make_online_aggregator(rows[name])))
            for name in ("sum", "variance", "stddev", "max", "product", "first")
        }
        assert picks == {
            "sum": ("prefix", SubtractOnEvict),
            "variance": ("prefix", SubtractOnEvict),
            "stddev": ("prefix", SubtractOnEvict),
            "max": ("rmq", TwoStacksAggregator),
            "product": ("fold", TwoStacksAggregator),
            "first": ("fold", RecomputeAggregator),
        }


def reference_query(buf, agg, window_starts, window_ends):
    return range_aggregate(buf, window_starts, window_ends, agg)


def query_times(index, window_starts, window_ends):
    """Time windows over a prefix index: its own cursors, then the range
    query — what a kernel does with the invocation's shared cursor table."""
    ws = np.asarray(window_starts, dtype=np.float64)
    we = np.asarray(window_ends, dtype=np.float64)
    return index.query_indices(
        *snapshot_range_indices(index.times, index.start_time, ws, we)
    )


def extend_chunked(index, buf, chunks):
    """Feed ``buf`` to the index as ``chunks`` consecutive pieces, the way a
    session's carry-over grows tick by tick (plain sub-arrays, not
    ``slice``: an index must only ever see true snapshots)."""
    cuts = np.linspace(0, len(buf), chunks + 1).astype(int)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        start = buf.start_time if lo == 0 else float(buf.times[lo - 1])
        index.extend(buf.times[lo:hi], buf.values[lo:hi], buf.valid[lo:hi], start)
    return index


class TestGrowablePrefixIndex:
    def _buf(self, n=400, seed=11, mean=0.0, masked=None):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.2, 1.0, n))
        values = mean + rng.normal(0.0, 1.0, n)
        valid = np.ones(n, dtype=bool)
        if masked is not None:
            valid[masked] = False
        return SSBuf(times, values, valid, start_time=0.0)

    @pytest.mark.parametrize(
        "agg", [SUM, COUNT, MEAN, SUM_SQUARES, VARIANCE, STDDEV], ids=lambda a: a.name
    )
    def test_chunked_ingest_matches_range_aggregator(self, agg):
        buf = self._buf()
        site = extend_chunked(PrefixRangeIndex(agg), buf, chunks=9)
        ws = np.arange(0.0, buf.end_time - 5.0, 3.7)
        we = ws + 5.0
        got, got_ok = query_times(site, ws, we)
        want, want_ok = reference_query(buf, agg, ws, we)
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_allclose(got[got_ok], want[want_ok], rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("agg", [VARIANCE, STDDEV], ids=lambda a: a.name)
    def test_extended_precision_large_mean(self, agg):
        """Catastrophic-cancellation stress: values near 1e8 with unit
        spread.  The naive float64 sum-of-squares prefix loses the entire
        signal here; the longdouble fixed-center state must stay accurate
        across chunk boundaries (each chunk extends the same prefixes, so
        the center cannot be re-picked per chunk)."""
        assert agg.prefix_extended_precision
        buf = self._buf(mean=1e8, seed=12)
        site = extend_chunked(PrefixRangeIndex(agg), buf, chunks=13)
        assert site.dtype == np.longdouble
        ws = np.arange(0.0, buf.end_time - 8.0, 2.9)
        we = ws + 8.0
        got, got_ok = query_times(site, ws, we)
        want, want_ok = reference_query(buf, agg, ws, we)
        np.testing.assert_array_equal(got_ok, want_ok)
        # spread is O(1), so answers are O(1): demand real relative accuracy
        np.testing.assert_allclose(got[got_ok], want[want_ok], rtol=1e-6)

    def test_all_masked_lanes_are_phi(self):
        buf = self._buf(n=100, masked=slice(None))
        site = extend_chunked(PrefixRangeIndex(SUM), buf, chunks=4)
        ws = np.array([0.0, 10.0, 20.0])
        got, got_ok = query_times(site, ws, ws + 6.0)
        assert not got_ok.any()
        np.testing.assert_array_equal(got, 0.0)

    def test_masked_run_matches_reference(self):
        buf = self._buf(n=300, masked=slice(80, 200))
        site = extend_chunked(PrefixRangeIndex(MEAN), buf, chunks=6)
        ws = np.arange(0.0, buf.end_time - 4.0, 1.3)
        got, got_ok = query_times(site, ws, ws + 4.0)
        want, want_ok = reference_query(buf, MEAN, ws, ws + 4.0)
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_allclose(got[got_ok], want[want_ok], rtol=1e-9, atol=1e-9)

    def test_single_snapshot_windows(self):
        buf = SSBuf([1.0, 2.0, 3.0], [5.0, 7.0, 11.0], start_time=0.0)
        site = extend_chunked(PrefixRangeIndex(SUM), buf, chunks=1)
        # each window covers exactly one interval
        got, got_ok = query_times(
            site, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
        )
        assert got_ok.all()
        np.testing.assert_allclose(got, [5.0, 7.0, 11.0])

    def test_window_before_data_is_phi(self):
        buf = SSBuf([10.0, 11.0], [1.0, 2.0], start_time=9.0)
        site = extend_chunked(PrefixRangeIndex(COUNT), buf, chunks=1)
        got, got_ok = query_times(site, np.array([2.0]), np.array([5.0]))
        assert not got_ok[0] and got[0] == 0.0

    def test_prune_preserves_answers_and_drops_state(self):
        buf = self._buf(n=600, seed=13)
        site = extend_chunked(PrefixRangeIndex(VARIANCE), buf, chunks=8)
        cut = float(buf.times[400])
        site.prune(cut)
        assert len(site) == len(buf) - 401
        ws = np.arange(cut + 1.0, buf.end_time - 5.0, 2.1)
        got, got_ok = query_times(site, ws, ws + 5.0)
        want, want_ok = reference_query(buf, VARIANCE, ws, ws + 5.0)
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_allclose(got[got_ok], want[want_ok], rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "agg", [SUM, COUNT, MEAN, SUM_SQUARES, VARIANCE, STDDEV], ids=lambda a: a.name
    )
    def test_single_extend_is_the_batch_build(self, agg):
        """One ``extend`` over the whole buffer is what ``build_range_index``
        does per kernel invocation; a chunked build of the same buffer may
        differ only by cumsum reassociation."""
        buf = self._buf(mean=50.0)
        ws = np.arange(0.0, buf.end_time - 5.0, 3.7)
        batch, batch_ok = reference_query(buf, agg, ws, ws + 5.0)
        one, one_ok = query_times(extend_chunked(PrefixRangeIndex(agg), buf, chunks=1), ws, ws + 5.0)
        np.testing.assert_array_equal(one_ok, batch_ok)
        np.testing.assert_array_equal(one, batch)
        many, many_ok = query_times(extend_chunked(PrefixRangeIndex(agg), buf, chunks=7), ws, ws + 5.0)
        np.testing.assert_array_equal(many_ok, batch_ok)
        np.testing.assert_allclose(many, batch, rtol=1e-9, atol=1e-9)

    def test_prune_rebases_prefix_totals(self):
        """After a prune the retained cumsums restart from zero, so totals
        stay bounded by the live window however long the session runs."""
        buf = self._buf(n=600, seed=15, mean=1e6)
        site = extend_chunked(PrefixRangeIndex(SUM), buf, chunks=5)
        site.prune(float(buf.times[499]))
        assert len(site) == 100
        total, ok = query_times(site, np.array([buf.times[499]]), np.array([buf.end_time]))
        assert ok[0]
        assert total[0] == pytest.approx(float(np.sum(buf.values[500:])), rel=1e-12)
        assert all(p.view[0] == 0.0 for p in site._prefixes)
        assert float(site._prefixes[0].view[-1]) == pytest.approx(total[0], rel=1e-12)

    def test_small_prunes_are_deferred(self):
        buf = self._buf(n=600, seed=16)
        site = extend_chunked(PrefixRangeIndex(SUM), buf, chunks=3)
        site.prune(float(buf.times[99]))  # dead head smaller than the live tail
        assert len(site) == 600

    def test_empty_index_answers_phi(self):
        got, ok = query_times(PrefixRangeIndex(SUM), np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert not ok.any() and not got.any()

    def test_rejects_aggregate_without_prefix_decomposition(self):
        with pytest.raises(ValueError):
            PrefixRangeIndex(MAX)

    def test_site_reingest_is_idempotent(self):
        """A reduce site sees the same input column once per ``rt.reduce``
        call of a tick (two windows share one index): only snapshots past
        its ingest horizon may be appended."""
        buf = self._buf(n=50, seed=14)
        site = ReduceSite(SUM)
        site.ingest(buf, None)
        site.ingest(buf, None)
        assert len(site.index) == 50
        ws = np.array([buf.start_time])
        got, _ = query_times(site.index, ws, np.array([buf.end_time]))
        want, _ = reference_query(buf, SUM, ws, np.array([buf.end_time]))
        np.testing.assert_allclose(got, want, rtol=1e-9)
