"""Tests for the continuous streaming session runtime.

The central property is *tick-concatenation equivalence*: feeding a dataset
through a :class:`StreamingSession` in micro-batch ticks must produce output
byte-identical (``SSBuf.__eq__``: same timestamps, values, validity mask and
start time) to one ``TiltEngine.run`` over the full input — across
applications, engine plans, tick sizes and ragged arrival patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_application
from repro.apps.ysb import ysb_query
from repro.core.ir import IRBuilder
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.session import StreamingSession
from repro.core.runtime.ssbuf import SSBuf
from repro.core.runtime.stream import Event, EventStream
from repro.datagen.sources import StreamReplaySource, sources_for_streams
from repro.errors import ExecutionError, OverlappingEventsError, QueryBuildError
from repro.windowing import SUM

N_EVENTS = 2_500

#: ≥3 applications spanning scalar (trading, normalize) and structured
#: (ysb, frauddet) inputs, per the streaming-equivalence acceptance bar
EQUIVALENCE_APPS = ["ysb", "frauddet", "normalize", "trading"]

#: (app, window override, events).  The 0.1 / 0.3 windows put the query on a
#: non-dyadic precision grid, where ``k * p`` and ``(k + 1) * p - p`` differ
#: by an ulp: evaluation times, tick edges and partition edges must all name
#: a grid point by the same float or a tick edge splits a snapshot the
#: one-shot run keeps whole (needs enough windows for the ulps to show).
EQUIVALENCE_QUERIES = [(name, None, N_EVENTS) for name in EQUIVALENCE_APPS] + [
    ("ysb", 0.1, 20_000),
    ("ysb", 0.3, 20_000),
]


def run_session(engine, program, streams, tick_events, **kwargs):
    """Drive a session over replayed streams until exhaustion; return output."""
    sources = sources_for_streams(streams, events_per_poll=tick_events)
    session = engine.open_session(program, sources, **kwargs)
    session.run_to_exhaustion()
    return session


class TestStreamingEquivalence:
    @pytest.mark.parametrize("app_name,window,events", EQUIVALENCE_QUERIES)
    def test_tick_concat_equals_batch(self, app_name, window, events, engine_plan, oracle):
        """tick-concat ≡ one-shot ≡ ``evaluate_program``, on every plan."""
        app = get_application(app_name)
        program = app.program() if window is None else ysb_query(window).to_program()
        streams = app.streams(engine_plan.events(events), seed=1)
        with engine_plan.engine() as engine:
            batch = engine.run(program, streams)
            assert batch.output == oracle(program, streams)
            for tick_events in (171, 1024):
                for incremental in (None, False):
                    session = run_session(
                        engine, program, streams, tick_events, incremental=incremental
                    )
                    assert session.result().output == batch.output

    def test_single_giant_tick_equals_batch(self):
        app = get_application("trading")
        streams = app.streams(N_EVENTS, seed=2)
        engine = TiltEngine(workers=2)
        batch = engine.run(app.program(), streams)
        session = run_session(engine, app.program(), streams, None)
        assert session.result().output == batch.output
        engine.close()

    def test_lookahead_margin_query(self):
        """A future-looking window forces the watermark to trail the ingest
        horizon by the lookahead margin; output must still match batch."""
        b = IRBuilder()
        x = b.stream("x")
        b.define("fut", x.window(0, 5).reduce(SUM), precision=1.0)
        program = b.build(output="fut")
        rng = np.random.default_rng(3)
        stream = EventStream.from_samples(rng.uniform(0, 10, 1500), period=1.0, name="x")
        engine = TiltEngine(workers=2)
        batch = engine.run(program, {"x": stream})
        session = run_session(engine, program, {"x": stream}, 61)
        assert session.boundary.max_lookahead == 5.0
        assert session.result().output == batch.output
        engine.close()

    def test_interpreted_mode_session(self):
        app = get_application("wsum")
        streams = app.streams(800, seed=4)
        engine = TiltEngine(workers=1, mode="interpreted")
        batch = engine.run(app.program(), streams)
        session = run_session(engine, app.program(), streams, 97)
        assert session.result().output == batch.output

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=12))
    def test_ragged_tick_sizes(self, tick_sizes):
        """Property: any arrival pattern (ragged per-tick batch sizes)
        reproduces the batch output exactly."""
        app = get_application("trading")
        streams = app.streams(1200, seed=5)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        sources = sources_for_streams(streams)
        session = engine.open_session(app.program(), sources)
        i = 0
        while not session.exhausted:
            session.tick(max_events=tick_sizes[i % len(tick_sizes)])
            i += 1
        session.close()
        assert session.result().output == batch.output

    def test_push_mode_queued_source(self):
        """Producer pushes into a bounded queue; ticks drain it.  The pushed
        stream must still reproduce the batch output exactly."""
        from repro.datagen.sources import QueuedSource

        app = get_application("trading")
        streams = app.streams(800, seed=11)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        src = QueuedSource("stock", capacity=1024)
        session = engine.open_session(app.program(), [src])
        events = streams["stock"].events
        for i in range(0, len(events), 200):
            src.push(events[i : i + 200])
            session.tick()
        src.close()
        session.close()
        assert session.result().output == batch.output

    def test_explicit_t_start(self):
        app = get_application("trading")
        streams = app.streams(1000, seed=6)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams, t_start=100.0)
        sources = sources_for_streams(streams, events_per_poll=173)
        session = engine.open_session(app.program(), sources, t_start=100.0)
        session.run_to_exhaustion()
        assert session.result().output == batch.output


class TestSessionLifecycle:
    def _session(self, tick_events=200, **kwargs):
        app = get_application("trading")
        streams = app.streams(1500, seed=7)
        engine = TiltEngine(workers=1)
        sources = sources_for_streams(streams, events_per_poll=tick_events)
        return engine.open_session(app.program(), sources, **kwargs), app, streams

    def test_watermark_monotone_and_deltas_disjoint(self):
        session, _, _ = self._session()
        prev_w = -float("inf")
        prev_end = None
        while not session.exhausted:
            r = session.tick()
            assert r.t_end >= r.t_start
            assert session.watermark == r.t_end >= prev_w
            prev_w = r.t_end
            if r.emitted and len(r.delta):
                if prev_end is not None:
                    assert r.delta.times[0] > prev_end
                prev_end = float(r.delta.times[-1])

    def test_carry_over_is_bounded(self):
        """Pruning must keep the retained input tail within the lookback
        margin plus one tick — not grow with total ingested volume."""
        session, app, _ = self._session(tick_events=100)
        session.tick()
        sizes = []
        while not session.exhausted:
            session.tick()
            sizes.append(session.retained_snapshots())
        # trading: 20s lookback over 1 Hz ticks -> ~20 retained snapshots;
        # anything near the full 1500-event history means pruning is broken
        assert max(sizes) < 200

    def test_tick_after_close_raises(self):
        session, _, _ = self._session()
        session.run_to_exhaustion()
        assert session.closed
        with pytest.raises(ExecutionError):
            session.tick()
        with pytest.raises(ExecutionError):
            session.close()

    def test_context_manager_closes(self):
        session, _, _ = self._session()
        with session as s:
            s.tick()
        assert session.closed

    def test_empty_tick_before_data(self):
        source = StreamReplaySource(
            EventStream([Event(10.0, 11.0, 1.0)], name="stock"), events_per_poll=1
        )
        engine = TiltEngine(workers=1)
        app = get_application("trading")
        session = engine.open_session(app.program(), [source])
        # first tick ingests one event; the watermark cannot advance past
        # the single event, so nothing can be emitted yet
        r = session.tick()
        assert not r.emitted and len(r.delta) == 0

    def test_metrics_record_ticks(self):
        session, _, _ = self._session()
        results = session.run_to_exhaustion()
        m = session.metrics
        assert m.ticks == len(results)
        assert m.input_events == 1500
        assert m.throughput > 0
        assert m.latency.p99 >= m.latency.p50 >= 0
        summary = m.summary()
        assert summary["input_events"] == 1500.0
        assert "M ev/s" in m.format()

    def test_out_of_order_arrival_rejected(self):
        engine = TiltEngine(workers=1)
        app = get_application("trading")
        events = [Event(5.0, 6.0, 1.0), Event(1.0, 2.0, 2.0)]
        source = StreamReplaySource(EventStream(events, name="stock", check_order=False))
        session = engine.open_session(app.program(), [source])
        with pytest.raises(OverlappingEventsError):
            session.tick()

    def test_result_requires_retained_output(self):
        session, _, _ = self._session(retain_output=False)
        session.run_to_exhaustion()
        with pytest.raises(ExecutionError):
            session.result()


class TestSessionWiring:
    def test_missing_input_source_rejected(self):
        engine = TiltEngine(workers=1)
        app = get_application("trading")
        with pytest.raises(QueryBuildError):
            engine.open_session(app.program(), [])
        bad = StreamReplaySource(EventStream([Event(0.0, 1.0, 1.0)], name="nonsense"))
        with pytest.raises(QueryBuildError):
            engine.open_session(app.program(), [bad])

    def test_duplicate_source_rejected(self):
        engine = TiltEngine(workers=1)
        app = get_application("trading")
        stream = EventStream([Event(0.0, 1.0, 1.0)], name="stock")
        with pytest.raises(QueryBuildError):
            engine.open_session(
                app.program(),
                [StreamReplaySource(stream), StreamReplaySource(stream)],
            )

    def test_sessions_share_compiled_kernels_and_executor(self):
        engine = TiltEngine(workers=2)
        app = get_application("trading")
        program = app.program()
        streams = app.streams(600, seed=8)
        s1 = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
        s2 = engine.open_session(program, sources_for_streams(streams, events_per_poll=250))
        # one compilation, one worker pool, shared by both sessions
        assert s1._compiled is s2._compiled
        assert engine.shared_executor() is engine.shared_executor()
        s1.run_to_exhaustion()
        s2.run_to_exhaustion()
        assert s1.result().output == s2.result().output
        engine.close()
        assert engine._executor is None

    def test_open_session_accepts_precompiled_query(self):
        engine = TiltEngine(workers=1)
        app = get_application("trading")
        compiled = engine.compile(app.program())
        streams = app.streams(600, seed=9)
        batch = engine.run(compiled, streams)
        session = engine.open_session(compiled, sources_for_streams(streams, events_per_poll=200))
        session.run_to_exhaustion()
        assert session.result().output == batch.output

    def test_close_terminates_on_unbounded_source(self):
        """close()/run_to_exhaustion must not try to drain an unbounded
        source — they flush what was ingested and return."""
        from repro.datagen.sources import GeneratorSource
        from repro.datagen import stock_price_stream

        engine = TiltEngine(workers=1)
        app = get_application("trading")
        feed = GeneratorSource(
            lambda i: stock_price_stream(2000, seed=i), name="stock", events_per_poll=500
        )
        session = engine.open_session(app.program(), [feed], retain_output=False)
        results = session.run_to_exhaustion(max_ticks=4)
        assert session.closed and len(results) == 5  # 4 ticks + final flush

    def test_compile_settings_are_fixed_per_engine(self):
        """An engine's compilation settings cannot change under its cache:
        they are read-only, and a different setting is a different engine."""
        engine = TiltEngine(workers=1)
        program = get_application("trading").program()
        fused = engine.compile_cached(program)
        with pytest.raises(AttributeError, match="read-only"):
            engine.enable_fusion = False
        assert engine.compile_cached(program) is fused
        unfused = TiltEngine(workers=1, enable_fusion=False).compile_cached(program)
        assert len(unfused.kernels) > len(fused.kernels)

    def test_run_compiles_a_program_once(self):
        """``run`` shares ``open_session``'s compile cache: two runs of one
        program object are one compilation."""
        app = get_application("trading")
        program, streams = app.program(), app.streams(300, seed=12)
        with TiltEngine(workers=1) as engine:
            first = engine.run(program, streams)
            assert engine.run(program, streams).output == first.output
            assert engine._m_compile_misses.value == 1
            assert engine._m_compile_hits.value == 1
            session = engine.open_session(program, sources_for_streams(streams))
            assert session.compiled is engine.compile_cached(program)
            assert engine._m_compile_misses.value == 1

    def test_engine_run_still_works_as_context_manager(self):
        app = get_application("trading")
        streams = app.streams(600, seed=10)
        with TiltEngine(workers=2) as engine:
            result = engine.run(app.program(), streams)
            assert result.output.num_valid() >= 0
        assert engine._executor is None


class TestViewsDoNotOutliveTheirSource:
    """Partition inputs are read-only views of the caller's buffers / the
    session's ingest columns; nothing a run returns may alias them."""

    @staticmethod
    def programs():
        from repro.apps import REAL_WORLD_APPLICATIONS
        from repro.core.frontend.query import PAYLOAD, source

        cases = [(app.name, app.program(), app) for app in REAL_WORLD_APPLICATIONS]
        passthrough = source("stock").select(PAYLOAD).to_program()
        return cases + [("select", passthrough, get_application("trading"))]

    def test_run_output_shares_no_memory_with_its_inputs(self):
        for name, program, app in self.programs():
            inputs, _ = TiltEngine._ingest(program, app.streams(1200, seed=5))
            for workers in (1, 3):
                with TiltEngine(workers=workers) as engine:
                    out = engine.run(program, inputs).output
                assert len(out), name
                for buf in inputs.values():
                    for mine in (out.times, out.values, out.valid):
                        for theirs in (buf.times, buf.values, buf.valid):
                            assert not np.shares_memory(mine, theirs), name
                    assert buf.times.flags.writeable  # only the views are frozen

    @pytest.mark.parametrize("name", ["select", "trading", "rsi"])
    def test_retained_deltas_survive_in_place_column_compaction(self, name, monkeypatch):
        """A partition-path session slices views of its ingest columns; the
        columns compact *in place* under those views once an append finds
        them full and the pruned head is more than half.  Every retained
        delta must still hold the bytes it was emitted with, and their
        concat must equal the one-shot run."""
        from repro.core.runtime.growable import GrowableArray

        compactions = []
        grow = GrowableArray.grow

        def spy(self, m):
            dead, data = self._lo, self._data
            grown = grow(self, m)
            if dead and self._data is data and self._lo == 0:
                compactions.append(dead)
            return grown

        monkeypatch.setattr(GrowableArray, "grow", spy)
        _, program, app = next(c for c in self.programs() if c[0] == name)
        streams = app.streams(4000, seed=9)
        with TiltEngine(workers=1) as engine:
            sources = sources_for_streams(streams, events_per_poll=150)
            session = engine.open_session(program, sources, incremental=False)
            assert session.plan["tick_path"] == "partition+dispatch"
            emitted = []
            while not session.exhausted:
                delta = session.tick().delta
                if len(delta):
                    emitted.append(
                        (delta, delta.times.tobytes(), delta.values.tobytes(), delta.valid.tobytes())
                    )
            session.close()
            assert len(compactions) >= 3, "the columns never compacted under the views"
            for delta, times, values, valid in emitted:
                assert any(delta is kept for kept in session._deltas)
                assert delta.times.tobytes() == times
                assert delta.values.tobytes() == values
                assert delta.valid.tobytes() == valid
            assert session.result().output == engine.run(program, streams).output
