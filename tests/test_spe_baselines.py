"""Tests for the Trill-like baseline engine and its operators."""

import numpy as np
import pytest

from repro.core.frontend.query import LEFT, PAYLOAD, RIGHT, source
from repro.core.ir.nodes import Phi, Var, when
from repro.core.runtime.ssbuf import ssbuf_from_stream
from repro.core.runtime.stream import Event, EventStream
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.spe import TrillEngine
from repro.spe.common.expreval import eval_event_expr
from repro.spe.common.operators import (
    ChopOperator,
    MergeJoinOperator,
    SelectOperator,
    ShiftOperator,
    WhereOperator,
    WindowAggregateOperator,
    coalesce_events,
)
from repro.windowing import COUNT, MAX, MEAN, SUM

from fixtures.joins import NestedLoopJoinOperator
from fixtures.windows import window_aggregate

E = PAYLOAD


# ---------------------------------------------------------------------- #
# shared infrastructure
# ---------------------------------------------------------------------- #
class TestExpressionEvaluation:
    def test_event_expr(self):
        value, ok = eval_event_expr(Var("%payload") * 2.0 + 1.0, {"%payload": (5.0, True)})
        assert ok and value == 11.0

    def test_invalid_binding_propagates_phi(self):
        _, ok = eval_event_expr(Var("%payload") * 2.0, {"%payload": (5.0, False)})
        assert not ok

    def test_conditional_expr(self):
        expr = when((Var("%payload") % 2.0).eq(0.0), Var("%payload") * 3.0, 0.0)
        got = [eval_event_expr(expr, {"%payload": (float(v), True)}) for v in range(6)]
        assert got == [(0.0, True), (0.0, True), (6.0, True), (0.0, True), (12.0, True), (0.0, True)]

    def test_unbound_placeholder_raises(self):
        with pytest.raises(ExecutionError):
            eval_event_expr(Var("%left") + 1.0, {"%payload": (1.0, True)})


# ---------------------------------------------------------------------- #
# operators
# ---------------------------------------------------------------------- #
class TestOperators:
    def test_select_operator(self, regular_stream):
        out = SelectOperator(E + 100.0).process(regular_stream.events[:5])
        assert [e.value() for e in out] == [100.0, 101.0, 102.0, 103.0, 104.0]

    def test_where_operator(self, regular_stream):
        out = WhereOperator((E % 2.0).eq(0.0)).process(regular_stream.events[:6])
        assert [e.value() for e in out] == [0.0, 2.0, 4.0]

    def test_select_drops_phi_results(self, regular_stream):
        out = SelectOperator(when((E % 2.0).eq(0.0), E, Phi())).process(regular_stream.events[:6])
        assert [e.value() for e in out] == [0.0, 2.0, 4.0]

    def test_shift_operator(self):
        out = ShiftOperator(3.0).process([Event(0.0, 1.0, 7.0)])
        assert out[0].start == 3.0 and out[0].end == 4.0

    def test_chop_operator_splits_at_boundaries(self):
        out = ChopOperator(1.0).process([Event(0.5, 2.5, 9.0)])
        assert [(e.start, e.end) for e in out] == [(0.5, 1.0), (1.0, 2.0), (2.0, 2.5)]
        assert all(e.payload == 9.0 for e in out)

    def test_chop_leaves_event_inside_one_period(self):
        out = ChopOperator(1.0).process([Event(1.0, 2.0, 4.0), Event(2.25, 2.75, 5.0)])
        assert [(e.start, e.end, e.payload) for e in out] == [(1.0, 2.0, 4.0), (2.25, 2.75, 5.0)]

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_chop_rejects_nonpositive_period(self, period):
        with pytest.raises(UnsupportedOperationError):
            ChopOperator(period)

    def test_window_aggregate_operator(self, regular_stream):
        op = WindowAggregateOperator(10.0, 10.0, SUM)
        out = op.process(regular_stream.events) + op.flush()
        assert out[0].payload == sum(range(10))
        assert out[0].start == 0.0 and out[0].end == 10.0
        assert len(out) == 10

    def test_window_aggregate_with_element(self, regular_stream):
        op = WindowAggregateOperator(10.0, 10.0, SUM, element=E * E)
        out = op.process(regular_stream.events[:20]) + op.flush()
        assert out[0].payload == sum(i * i for i in range(10))

    @pytest.mark.parametrize("size,stride", [(10, 5), (10, 10), (7, 3), (3, 1)])
    @pytest.mark.parametrize("agg", [SUM, MAX, COUNT], ids=lambda a: a.name)
    def test_window_aggregate_matches_oracle(self, regular_stream, size, stride, agg):
        op = WindowAggregateOperator(size, stride, agg)
        out = op.process(regular_stream.events[:40]) + op.process(regular_stream.events[40:]) + op.flush()
        # flush closes every window that starts before the last event ends (t = 100)
        ref = window_aggregate(
            ssbuf_from_stream(regular_stream), size, stride, agg, t_end=np.ceil(100.0 / stride) * stride
        )
        assert [(e.start, e.end) for e in out] == [(g - stride, g) for g in ref.times[ref.valid]]
        assert np.allclose([e.payload for e in out], ref.values[ref.valid])

    def test_window_aggregate_skips_empty_windows(self):
        op = WindowAggregateOperator(10.0, 10.0, COUNT)
        out = op.process([Event(0.0, 1.0, 1.0), Event(25.0, 26.0, 2.0)]) + op.flush()
        assert [(e.start, e.end, e.payload) for e in out] == [(0.0, 10.0, 1.0), (20.0, 30.0, 1.0)]

    def test_window_aggregate_flush_without_input(self):
        assert WindowAggregateOperator(10.0, 5.0, SUM).flush() == []

    def test_merge_join_matches_nested_loop(self):
        rng = np.random.default_rng(0)
        left = EventStream.from_samples(rng.uniform(0, 10, 50), period=1.0)
        right = EventStream.from_samples(rng.uniform(0, 10, 40), period=1.3)
        results = []
        for cls in (MergeJoinOperator, NestedLoopJoinOperator):
            op = cls(LEFT + RIGHT)
            out = op.process_left(left.events) + op.process_right(right.events)
            results.append(sorted((e.start, e.end, round(e.payload, 9)) for e in out))
        assert results[0] == results[1]

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_merge_join_matches_nested_loop_batched(self, batch):
        # batches from both sides interleave in time order, so the merge join
        # evicts between batches; the all-pairs oracle keeps every event
        rng = np.random.default_rng(batch)
        left = EventStream.from_samples(rng.uniform(0, 10, 60), period=1.0).events
        right = EventStream.from_samples(rng.uniform(0, 10, 45), period=1.3).events
        results = []
        for cls in (MergeJoinOperator, NestedLoopJoinOperator):
            op = cls(LEFT * RIGHT)
            out = []
            li = ri = 0
            while li < len(left) or ri < len(right):
                if ri >= len(right) or (li < len(left) and left[li].start <= right[ri].start):
                    out += op.process_left(left[li : li + batch])
                    li += batch
                else:
                    out += op.process_right(right[ri : ri + batch])
                    ri += batch
            results.append(sorted((e.start, e.end, round(e.payload, 9)) for e in out))
        assert results[0] and results[0] == results[1]

    def test_merge_join_disjoint_intervals_emit_nothing(self):
        op = MergeJoinOperator(LEFT + RIGHT)
        out = op.process_left([Event(0.0, 1.0, 1.0), Event(2.0, 3.0, 2.0)])
        out += op.process_right([Event(1.0, 2.0, 5.0), Event(3.0, 4.0, 6.0)])
        assert out == []

    def test_coalesce_events_without_left_is_right(self):
        right = [Event(0.0, 1.0, 3.0), Event(1.0, 2.5, 4.0)]
        assert [(e.start, e.end, e.payload) for e in coalesce_events([], right)] == [
            (0.0, 1.0, 3.0), (1.0, 2.5, 4.0)
        ]

    def test_coalesce_events_covered_right_is_dropped(self):
        left = [Event(0.0, 5.0, 1.0)]
        out = coalesce_events(left, [Event(1.0, 2.0, 9.0), Event(3.0, 5.0, 8.0)])
        assert [(e.start, e.end, e.payload) for e in out] == [(0.0, 5.0, 1.0)]

    def test_coalesce_events_fills_gaps(self):
        left = [Event(0.0, 2.0, 1.0), Event(5.0, 6.0, 2.0)]
        right = [Event(1.0, 7.0, 9.0)]
        out = coalesce_events(left, right)
        buf = ssbuf_from_stream(EventStream(out, check_order=False))
        assert buf.value_at(1.5) == (1.0, True)    # left wins where present
        assert buf.value_at(3.0) == (9.0, True)    # gap filled from right
        assert buf.value_at(5.5) == (2.0, True)
        assert buf.value_at(6.5) == (9.0, True)


# ---------------------------------------------------------------------- #
# engines
# ---------------------------------------------------------------------- #
class TestEngines:
    def test_trill_join_matches_tilt(self, random_walk_stream):
        from repro import TiltEngine

        query = (
            source("stock").window(5, 1).aggregate(MEAN)
            .join(source("stock").window(15, 1).aggregate(MEAN), LEFT - RIGHT)
            .where(E > 0)
        )
        streams = {"stock": random_walk_stream}
        trill_out = TrillEngine(batch_size=64).run(query, streams)
        tilt_out = TiltEngine(workers=2).run(query.to_program(), streams)
        grid = np.linspace(20.0, 290.0, 250)
        tb = ssbuf_from_stream(trill_out, on_overlap="last")
        bv, bk = tb.values_at(grid)
        tv, tk = tilt_out.output.values_at(grid)
        assert np.array_equal(tk, bk)
        assert np.allclose(tv[tk], bv[bk])

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    def test_trill_output_independent_of_batch_size(self, random_walk_stream, batch_size):
        query = (
            source("stock").where(E > 100.0).window(10, 5).aggregate(MEAN)
            .join(source("stock").window(20, 5).aggregate(MAX), LEFT - RIGHT)
        )
        streams = {"stock": random_walk_stream}
        want = TrillEngine(batch_size=4096).run(query, streams)
        got = TrillEngine(batch_size=batch_size).run(query, streams)
        assert len(want) > 0
        assert [(e.start, e.end, e.payload) for e in got] == [(e.start, e.end, e.payload) for e in want]

    def test_trill_aggregation_matches_tilt(self, regular_stream):
        from repro import TiltEngine

        query = source("values").where((E % 2.0).eq(0.0)).window(10, 10).count()
        streams = {"values": regular_stream}
        trill_out = TrillEngine(batch_size=16).run(query, streams)
        tilt_out = TiltEngine().run(query.to_program(), streams)
        assert [(e.start, e.end, e.payload) for e in trill_out] == [
            (float(10 * i), float(10 * i + 10), 5.0) for i in range(10)
        ]
        grid = np.arange(0.5, 100.0, 1.0)
        tv, tk = tilt_out.output.values_at(grid)
        bv, bk = ssbuf_from_stream(trill_out).values_at(grid)
        assert np.array_equal(tk, bk) and np.array_equal(tv[tk], bv[bk])

    def test_trill_select_where(self, regular_stream):
        out = TrillEngine().run(source("values").select(E * 2).where(E > 100.0),
                                {"values": regular_stream})
        assert all(e.value() > 100.0 for e in out)
        assert len(out) == 49

    def test_trill_sliding_window_matches_oracle(self, regular_stream):
        out = TrillEngine(batch_size=8).run(source("values").sum(10, 5), {"values": regular_stream})
        ref = window_aggregate(ssbuf_from_stream(regular_stream), 10.0, 5.0, SUM)
        assert [e.end for e in out] == list(ref.times[ref.valid])
        assert [e.payload for e in out] == list(ref.values[ref.valid])

    def test_trill_self_join_with_shift(self, regular_stream):
        query = source("values").join(source("values").shift(1.0), LEFT - RIGHT)
        out = TrillEngine(batch_size=10).run(query, {"values": regular_stream})
        # sample i overlaps the shifted sample i - 1 over (i, i + 1]
        assert [(e.start, e.end) for e in out] == [(float(i), float(i + 1)) for i in range(1, 100)]
        assert all(e.payload == 1.0 for e in out)

    def test_trill_reads_named_field(self):
        stream = EventStream.from_samples([{"a": float(i), "b": -float(i)} for i in range(5)])
        out = TrillEngine().run(source("s", field="b").select(E * 2.0), {"s": stream})
        assert [e.payload for e in out] == [0.0, -2.0, -4.0, -6.0, -8.0]

    def test_missing_stream_raises(self):
        with pytest.raises(Exception):
            TrillEngine().run(source("ghost").select(E + 1), {})

    def test_invalid_batch_size(self):
        with pytest.raises(Exception):
            TrillEngine(batch_size=0)
