"""Observability layer: tracing, metrics registry, exporters, flight recorder.

Two properties anchor this suite:

* **Zero interference** — tracing must never alter query output: traced
  runs are byte-identical to untraced ones on every backend, and the
  disabled tracer produces no records at all.
* **Well-formed evidence** — enabled tracing yields structurally sound span
  trees per tick (session.tick → tick.ingest / tick.emit → executor
  dispatch → kernel partitions), the registry exports parse as Prometheus
  text / JSON, and the flight recorder pins slow ticks with their kernel
  context.
"""

import json
import logging
import threading

import pytest

from repro.apps import get_application
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.stream import Event
from repro.datagen.sources import sources_for_streams
from repro.metrics.streaming import LatencyDistribution, SessionMetrics
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    MetricsRegistry,
    SpanRecord,
    Tracer,
    build_span_trees,
    chrome_trace_json,
    make_tracer,
    to_chrome_trace,
)
from repro.serve.service import QueryService

APP_EVENTS = 600


def run_traced_session(
    engine, app_name="trading", events=APP_EVENTS, per_poll=200, **session_kwargs
):
    app = get_application(app_name)
    streams = app.streams(events, seed=7)
    session = engine.open_session(
        app.program(), sources_for_streams(streams, events_per_poll=per_poll), **session_kwargs
    )
    session.run_to_exhaustion()
    return session


# ---------------------------------------------------------------------- #
# tracer core
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_produces_parent_linkage(self):
        tracer = Tracer()
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        records = tracer.drain()
        by_name = {r.name: r for r in records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["outer"].attrs == {"k": 1}

    def test_set_attaches_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            sp.set(partitions=4)
        (record,) = tracer.drain()
        assert record.attrs["partitions"] == 4

    def test_drain_is_destructive_and_start_ordered(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        records = tracer.drain()
        assert [r.name for r in records] == [f"s{i}" for i in range(5)]
        assert records == sorted(records, key=lambda r: r.start)
        assert tracer.drain() == []

    def test_snapshot_is_non_destructive(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.snapshot()) == 1
        assert len(tracer.snapshot()) == 1
        assert len(tracer.drain()) == 1

    def test_exception_unwinding_pops_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current_span_id() is None
        names = {r.name for r in tracer.drain()}
        assert names == {"outer", "inner"}

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("dispatch") as sp:
            parent = tracer.current_span_id()
        with tracer.span("worker", parent=parent):
            pass
        by_name = {r.name: r for r in tracer.drain()}
        assert by_name["worker"].parent_id == by_name["dispatch"].span_id

    def test_cross_thread_records_collected(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)  # idents are unique only while alive

        def work():
            with tracer.span("threaded"):
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.drain()
        assert len(records) == 4
        assert len({r.thread_id for r in records}) == 4

    def test_buffer_is_bounded(self):
        tracer = Tracer(max_spans_per_thread=8)
        for _ in range(50):
            with tracer.span("s"):
                pass
        assert len(tracer.drain()) == 8

    def test_adopt_reparents_shipped_roots(self):
        tracer = Tracer()
        shipped = [
            SpanRecord("kernel.partition", "fff-w1", None, 1.0, 0.1, 0.1, {}, 1, 999),
            SpanRecord("kernel.sub", "fff-w2", "fff-w1", 1.01, 0.05, 0.05, {}, 1, 999),
        ]
        with tracer.span("executor.dispatch"):
            tracer.adopt(shipped)
        trees = build_span_trees(tracer.drain())
        (root,) = trees
        assert root.name == "executor.dispatch"
        assert root.find("kernel.partition")
        # the shipped child keeps its worker-side parent
        assert root.find("kernel.sub")[0].record.parent_id == "fff-w1"

    def test_make_tracer_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")  # no longer consulted
        assert make_tracer(False) is NULL_TRACER
        assert make_tracer(None) is NULL_TRACER
        assert make_tracer(True).enabled
        existing = Tracer()
        assert make_tracer(existing) is existing
        with pytest.raises(TypeError):
            make_tracer(42)

    def test_null_tracer_records_nothing(self):
        sp = NULL_TRACER.span("anything", k=1)
        with sp as inner:
            inner.set(more=2)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.snapshot() == []
        # one shared span instance: the disabled path allocates nothing
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ---------------------------------------------------------------------- #
# metrics registry + exporters
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things", backend="thread")
        c.inc()
        c.inc(2)
        g = reg.gauge("repro_depth", "queue depth")
        g.set(5)
        g.dec(2)
        h = reg.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert c.value == 3
        assert g.value == 3
        assert h.count == 3 and h.sum == pytest.approx(5.55)
        # cumulative buckets, +inf last
        assert h.bucket_counts() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_same_identity_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", backend="a")
        b = reg.counter("repro_x_total", backend="a")
        other = reg.counter("repro_x_total", backend="b")
        assert a is b and a is not other

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_dual_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_dual_total")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_n_total").inc(-1)

    def test_prometheus_text_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_evil_total", 'he said "hi"\nthere', label='va"l').inc()
        reg.histogram("repro_h_seconds", "h", buckets=(0.5,)).observe(0.1)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        seen_types = {}
        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ")
                seen_types[name] = kind
                continue
            if line.startswith("#"):
                continue
            # every sample line is "<name and labels> <value>"
            body, value = line.rsplit(" ", 1)
            float(value)
        assert seen_types == {
            "repro_evil_total": "counter",
            "repro_h_seconds": "histogram",
        }
        assert 'le="0.5"' in text and 'le="+Inf"' in text
        assert "repro_h_seconds_sum" in text and "repro_h_seconds_count" in text

    def test_json_export_is_serializable(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc(7)
        reg.histogram("repro_b_seconds").observe(0.2)
        doc = json.loads(reg.to_json_str())
        assert doc["repro_a_total"]["series"][0]["value"] == 7
        assert doc["repro_b_seconds"]["series"][0]["count"] == 1


class TestChromeTrace:
    def test_events_load_and_are_time_ordered(self):
        tracer = Tracer()
        with tracer.span("outer", tenant="t"):
            with tracer.span("inner"):
                pass
        doc = json.loads(chrome_trace_json(tracer.drain()))
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        outer = events[0]
        assert outer["ph"] == "X"
        assert outer["cat"] == "outer"
        assert outer["args"]["tenant"] == "t"
        assert "cpu_time_ms" in outer["args"]
        assert events[1]["args"]["parent_id"] == outer["args"]["span_id"]


# ---------------------------------------------------------------------- #
# engine/session instrumentation
# ---------------------------------------------------------------------- #
class TestInstrumentation:
    @staticmethod
    def _emitting_tick_trees(engine):
        trees = build_span_trees(engine.tracer.drain())
        tick_trees = [t for t in trees if t.name == "session.tick"]
        assert tick_trees, "no tick spans recorded"
        # every regular tick ingests; the closing flush may not
        regular = [t for t in tick_trees if "closing" not in t.record.attrs]
        assert regular and all(t.find("tick.ingest") for t in regular)
        emitting = [t for t in tick_trees if t.find("tick.emit")]
        assert emitting, "no tick emitted output"
        return emitting

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_span_trees_per_tick_across_backends(self, kind):
        with TiltEngine(workers=2, executor_kind=kind, trace=True) as engine:
            # partition-and-dispatch ticks: the executor shows up in the tree
            run_traced_session(engine, incremental=False)
            for tree in self._emitting_tick_trees(engine):
                assert not tree.find("emit.incremental")
                dispatches = tree.find("executor.dispatch")
                assert dispatches
                assert dispatches[0].record.attrs["backend"] == kind
                kernels = tree.find("kernel.partition")
                assert kernels
                for k in kernels:
                    assert "kernel_digest" in k.record.attrs
                    if kind == "process":
                        # worker-side spans carry the worker's pid
                        assert k.record.pid != tree.record.pid
        # the resolved default (NumPy-tier output kernel) ticks in-process
        # whatever the backend
        with TiltEngine(workers=2, executor_kind=kind, trace=True) as engine:
            run_traced_session(engine)
            for tree in self._emitting_tick_trees(engine):
                (emit,) = tree.find("tick.emit")
                assert [c.name for c in emit.children] == ["emit.incremental", "emit.prune"]
                assert not tree.find("executor.dispatch")
                assert not tree.find("kernel.partition")

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_traced_output_byte_identical(self, kind):
        app = get_application("trading")
        streams = app.streams(APP_EVENTS, seed=3)
        outputs = []
        for trace in (False, True):
            with TiltEngine(workers=2, executor_kind=kind, trace=trace) as engine:
                session = engine.open_session(
                    app.program(), sources_for_streams(streams, events_per_poll=200)
                )
                session.run_to_exhaustion()
                outputs.append(session.result().output)
        assert outputs[0] == outputs[1]

    def test_trace_argument_enables_and_is_equivalent(self):
        app = get_application("normalize")
        streams = app.streams(APP_EVENTS, seed=5)
        with TiltEngine(workers=1) as engine:
            plain = engine.run(app.program(), streams)
        shared = Tracer()
        with TiltEngine(workers=1, trace=shared) as engine:
            assert engine.tracer is shared
            traced = engine.run(app.program(), streams)
            assert shared.drain()
        assert plain.output == traced.output

    def test_disabled_mode_records_zero_spans(self):
        for kwargs in ({}, {"trace": False}):
            with TiltEngine(workers=2, **kwargs) as engine:
                run_traced_session(engine)
                assert engine.tracer is NULL_TRACER
                assert engine.tracer.drain() == []

    def test_persistent_state_counters(self):
        with TiltEngine(workers=1) as engine:
            run_traced_session(engine)
            doc = engine.registry.to_json()
            hits = doc["repro_incremental_state_hits_total"]["series"][0]["value"]
            misses = doc["repro_incremental_state_misses_total"]["series"][0]["value"]
            assert misses >= 1
            assert hits >= 1  # every tick after the first reuses state

    def test_registry_sees_engine_and_session_counters(self):
        with TiltEngine(workers=1, executor_kind="serial", trace=True) as engine:
            program = get_application("trading").program()
            engine.compile_cached(program)
            engine.compile_cached(program)  # same object: a cache hit
            run_traced_session(engine, incremental=False)  # dispatches kernels
            doc = engine.registry.to_json()
            assert doc["repro_compile_cache_misses_total"]["series"][0]["value"] >= 1
            assert doc["repro_compile_cache_hits_total"]["series"][0]["value"] >= 1
            assert doc["repro_ticks_total"]["series"][0]["value"] >= 1
            assert doc["repro_tick_seconds"]["series"][0]["count"] >= 1
            backends = {
                tuple(s["labels"].items())
                for s in doc["repro_kernel_seconds_total"]["series"]
            }
            assert (("backend", "serial"),) in backends


class TestSessionMetricsRegistry:
    def test_quantiles_single_snapshot(self):
        dist = LatencyDistribution(capacity=16)
        for v in (0.1, 0.2, 0.3, 0.4):
            dist.record(v)
        p50, p99 = dist.quantiles([50.0, 99.0])
        assert p50 == pytest.approx(dist.percentile(50.0))
        assert p99 == pytest.approx(dist.percentile(99.0))
        assert LatencyDistribution().quantiles([50.0, 95.0]) == [0.0, 0.0]

    def test_registry_single_write_path(self):
        reg = MetricsRegistry()
        m = SessionMetrics(reg)
        m.record_tick(input_events=10, output_snapshots=3, seconds=0.01)
        m.record_tick(input_events=0, output_snapshots=0, seconds=0.001, emitted=False)
        doc = reg.to_json()
        assert doc["repro_ticks_total"]["series"][0]["value"] == 2
        assert doc["repro_empty_ticks_total"]["series"][0]["value"] == 1
        assert doc["repro_ingested_events_total"]["series"][0]["value"] == 10
        assert doc["repro_tick_seconds"]["series"][0]["count"] == 2
        # the local view stays authoritative and identical
        assert m.ticks == 2 and m.input_events == 10


# ---------------------------------------------------------------------- #
# flight recorder + service wiring
# ---------------------------------------------------------------------- #
class TestFlightRecorder:
    @staticmethod
    def tick_records(tracer, duration_name="session.tick", tick=0):
        with tracer.span(duration_name, tick=tick):
            pass
        return tracer.drain()

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity_per_tenant=2)
        tracer = Tracer()
        for i in range(5):
            recorder.record_tick("t", self.tick_records(tracer, tick=i))
        recent = recorder.recent("t")
        assert len(recent) == 2
        assert recorder.summary()["tenants"]["t"]["ticks_recorded"] == 5

    def test_threshold_pins_with_context(self):
        recorder = FlightRecorder(slow_tick_threshold=1e-9, max_pinned=2)
        tracer = Tracer()
        for i in range(4):
            pinned = recorder.record_tick(
                "t", self.tick_records(tracer, tick=i), context={"output": "q"}
            )
            assert pinned is not None
            assert pinned.tick_index == i
            assert pinned.context == {"output": "q"}
        assert len(recorder.pinned()) == 2  # bounded evidence
        summary = recorder.summary()
        assert summary["tenants"]["t"]["slow_ticks"] == 4
        assert summary["pinned_slow_ticks"][-1]["tick_index"] == 3

    def test_no_threshold_never_pins(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        assert recorder.record_tick("t", self.tick_records(tracer)) is None
        assert recorder.pinned() == []

    def test_chrome_trace_export(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        recorder.record_tick("t", self.tick_records(tracer))
        doc = recorder.to_chrome_trace("t")
        assert doc["traceEvents"]
        json.dumps(doc)

    def test_service_pins_slow_ticks_into_stats(self):
        app = get_application("trading")
        with TiltEngine(workers=1, trace=True) as engine:
            with QueryService(engine, slow_tick_threshold=1e-9) as service:
                streams = app.streams(APP_EVENTS, seed=2)
                service.submit(
                    app.program(),
                    name="slow",
                    sources=sources_for_streams(streams, events_per_poll=200),
                )
                service.run_until_idle(max_ticks=50)
                stats = service.stats()
                assert stats.flight is not None
                assert stats.flight["tenants"]["slow"]["slow_ticks"] >= 1
                (pin, *_) = stats.flight["pinned_slow_ticks"]
                assert pin["tenant"] == "slow"
                assert "generated_source" in pin["context"]
                assert pin["span_tree"]["children"], "pinned tree lost its children"
                # tenant attribution flows from submit() into the spans
                tick = service.recorder.recent("slow")[-1].find("session.tick")[0]
                assert tick.record.attrs["tenant"] == "slow"

    def test_untraced_service_has_no_recorder(self):
        with QueryService(workers=1) as service:
            assert service.recorder is None
            assert service.stats().flight is None


class TestTenantFailureSurfacing:
    def test_traceback_retained_and_logged(self, caplog):
        app = get_application("trading")
        with QueryService(workers=1) as service:
            service.submit(app.program(), name="bad")
            # structured payload into a scalar input fails inside the tick
            service.ingest("bad", [Event(1.0, 2.0, {"junk": 1.0})], stream="stock")
            with caplog.at_level(logging.ERROR, logger="repro.serve"):
                service.run_until_idle(max_ticks=5)
            row = service.stats().tenants["bad"]
            assert row["state"] == "failed"
            assert row["error"]
            assert "Traceback (most recent call last)" in row["traceback"]
            assert "QueryBuildError" in row["traceback"]
            failures = service.engine.registry.to_json()[
                "repro_tenant_failures_total"
            ]["series"][0]["value"]
            assert failures == 1
            assert any("isolated" in r.message for r in caplog.records)

    def test_healthy_tenant_has_empty_traceback(self):
        app = get_application("trading")
        with QueryService(workers=1) as service:
            streams = app.streams(200, seed=1)
            service.submit(
                app.program(),
                name="ok",
                sources=sources_for_streams(streams, events_per_poll=100),
            )
            service.run_until_idle(max_ticks=20)
            assert service.stats().tenants["ok"]["traceback"] == ""


# ---------------------------------------------------------------------- #
# registry exposition hardening
# ---------------------------------------------------------------------- #
class TestRegistryHardening:
    def test_invalid_metric_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("1bad_total", "has-dash_total", "has space_total", ""):
            with pytest.raises(ValueError):
                reg.counter(bad)
        reg.counter("repro:rule_total")  # colons are legal (recording rules)

    def test_unit_suffix_conventions_enforced(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("repro_things")  # counter must end _total
        with pytest.raises(ValueError):
            reg.gauge("repro_things_total")  # gauge must not
        with pytest.raises(ValueError):
            reg.histogram("repro_lat_total")  # histogram must not
        reg.counter("repro_things_total")
        reg.gauge("repro_things")
        reg.histogram("repro_lat_seconds")

    def test_invalid_label_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("repro_l_total", **{"bad-name": "x"})
        with pytest.raises(ValueError):
            reg.counter("repro_l_total", __reserved="x")
        with pytest.raises(ValueError):
            reg.histogram("repro_h_seconds", le="0.5")  # reserved on histograms
        reg.counter("repro_l_total", le="fine")  # only histograms reserve le

    def test_labels_validated_on_existing_family_too(self):
        """A bad label set must fail even when the family already exists."""
        reg = MetricsRegistry()
        reg.counter("repro_l_total", backend="thread")
        with pytest.raises(ValueError):
            reg.counter("repro_l_total", **{"bad-name": "x"})

    def test_label_values_escaped_in_exposition(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_esc_total", "help", path='C:\\dir', q='say "hi"', nl="a\nb"
        ).inc()
        text = reg.to_prometheus()
        line = next(l for l in text.splitlines() if l.startswith("repro_esc_total{"))
        assert '\\\\dir' in line        # backslash doubled
        assert '\\"hi\\"' in line       # quotes escaped
        assert "a\\nb" in line          # newline escaped
        assert "\n" not in line

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("repro_esc", 'line1\nline2 with "quotes" and \\slash')
        text = reg.to_prometheus()
        help_line = next(l for l in text.splitlines() if l.startswith("# HELP"))
        # HELP escapes backslash + newline only; quotes stay literal
        assert help_line == '# HELP repro_esc line1\\nline2 with "quotes" and \\\\slash'


# ---------------------------------------------------------------------- #
# adaptive flight recorder
# ---------------------------------------------------------------------- #
class TestAdaptiveFlightRecorder:
    @staticmethod
    def tick(duration, tick=0):
        return [
            SpanRecord(
                "session.tick", f"s{tick}", None, 100.0 + tick, duration,
                duration, {"tick": tick}, 1, 1,
            )
        ]

    def make(self, **kw):
        kw.setdefault("slow_tick_threshold", FlightRecorder.ADAPTIVE)
        kw.setdefault("adaptive_min_ticks", 8)
        kw.setdefault("adaptive_history", 64)
        return FlightRecorder(**kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(slow_tick_threshold="sometimes")
        with pytest.raises(ValueError):
            FlightRecorder(slow_tick_threshold="adaptive", adaptive_multiplier=1.0)
        with pytest.raises(ValueError):
            FlightRecorder(adaptive_min_ticks=1)
        with pytest.raises(ValueError):
            FlightRecorder(adaptive_min_ticks=32, adaptive_history=16)

    def test_disarmed_until_min_ticks(self):
        recorder = self.make()
        for i in range(7):
            assert recorder.record_tick("t", self.tick(0.001, i)) is None
        # a wild outlier before the baseline exists must not pin
        assert recorder.record_tick("t", self.tick(5.0, 7)) is None

    def test_relative_outlier_pins_absolute_quiet_fleet(self):
        """Microsecond ticks (far below any sane fixed cutoff) still get
        their own outliers pinned once the baseline is armed."""
        recorder = self.make(adaptive_multiplier=3.0)
        for i in range(16):
            assert recorder.record_tick("t", self.tick(10e-6, i)) is None
        pinned = recorder.record_tick("t", self.tick(100e-6, 16))
        assert pinned is not None
        assert pinned.duration == pytest.approx(100e-6)
        summary = recorder.summary()
        assert summary["adaptive"] is True
        assert summary["tenants"]["t"]["slow_ticks"] == 1
        assert summary["tenants"]["t"]["adaptive_threshold_ms"] is not None

    def test_normal_ticks_do_not_pin(self):
        recorder = self.make(adaptive_multiplier=3.0)
        for i in range(64):
            assert recorder.record_tick("t", self.tick(0.001, i)) is None
        assert recorder.pinned() == []

    def test_outlier_judged_against_prior_history(self):
        """The threshold is computed before the tick joins the history, so
        an outlier cannot raise its own bar."""
        recorder = self.make(adaptive_multiplier=2.0, adaptive_min_ticks=8)
        for i in range(8):
            recorder.record_tick("t", self.tick(0.001, i))
        # p99 of history = 1 ms -> bar 2 ms; a 2.5 ms tick pins even though
        # a p99 computed *with* it would be 2.5 ms (bar 5 ms)
        assert recorder.record_tick("t", self.tick(0.0025, 8)) is not None

    def test_per_tenant_baselines_are_independent(self):
        recorder = self.make(adaptive_multiplier=3.0)
        for i in range(16):
            recorder.record_tick("fast", self.tick(10e-6, i))
            recorder.record_tick("slow", self.tick(0.01, i))
        # 1 ms: a 100x outlier for "fast", dead normal for "slow"
        assert recorder.record_tick("fast", self.tick(0.001, 16)) is not None
        assert recorder.record_tick("slow", self.tick(0.001, 16)) is None

    def test_fixed_mode_summary_has_no_adaptive_keys(self):
        recorder = FlightRecorder(slow_tick_threshold=0.5)
        tracer = Tracer()
        with tracer.span("session.tick", tick=0):
            pass
        recorder.record_tick("t", tracer.drain())
        summary = recorder.summary()
        assert summary["adaptive"] is False
        assert "adaptive_threshold_ms" not in summary["tenants"]["t"]

    def test_service_accepts_adaptive_threshold(self):
        with TiltEngine(workers=1, trace=True) as engine:
            with QueryService(engine, slow_tick_threshold="adaptive") as service:
                assert service.recorder.adaptive
                assert service.stats().flight["adaptive"] is True


# ---------------------------------------------------------------------- #
# structured JSON logging
# ---------------------------------------------------------------------- #
class TestJsonLogging:
    def make_logger(self, name, tracer=None):
        import io

        from repro.obs import configure_json_logging

        stream = io.StringIO()
        handler = configure_json_logging(name, tracer=tracer, stream=stream)
        return logging.getLogger(name), handler, stream

    def test_record_is_one_json_line_with_extras(self):
        logger, handler, stream = self.make_logger("repro.test.json1")
        try:
            logger.info("tick done", extra={"tenant": "t0", "tick": 17})
            line = stream.getvalue().strip()
            assert "\n" not in line
            doc = json.loads(line)
            assert doc["message"] == "tick done"
            assert doc["level"] == "INFO"
            assert doc["logger"] == "repro.test.json1"
            assert doc["tenant"] == "t0" and doc["tick"] == 17
            assert isinstance(doc["ts"], float)
        finally:
            logger.removeHandler(handler)

    def test_exception_renders_into_field_not_message(self):
        logger, handler, stream = self.make_logger("repro.test.json2")
        try:
            try:
                raise ValueError("boom")
            except ValueError:
                logger.exception("tenant failed")
            line = stream.getvalue().strip()
            assert "\n" not in line  # still one JSON line
            doc = json.loads(line)
            assert doc["message"] == "tenant failed"
            assert "ValueError: boom" in doc["exception"]
        finally:
            logger.removeHandler(handler)

    def test_span_correlation(self):
        tracer = Tracer()
        logger, handler, stream = self.make_logger("repro.test.json3", tracer=tracer)
        try:
            logger.info("outside")
            with tracer.span("session.tick"):
                logger.info("inside")
            docs = [json.loads(l) for l in stream.getvalue().splitlines()]
            assert docs[0]["span_id"] is None
            assert docs[1]["span_id"] is not None
            [record] = tracer.drain()
            assert docs[1]["span_id"] == record.span_id
        finally:
            logger.removeHandler(handler)

    def test_configure_is_idempotent(self):
        from repro.obs import configure_json_logging

        logger = logging.getLogger("repro.test.json4")
        first = configure_json_logging("repro.test.json4")
        second = configure_json_logging("repro.test.json4")
        try:
            installed = [
                h for h in logger.handlers if getattr(h, "_repro_json_handler", False)
            ]
            assert installed == [second]
            assert first is not second
        finally:
            logger.removeHandler(second)

    def test_service_failure_log_carries_structured_fields(self):
        import io

        from repro.obs import JsonFormatter

        app = get_application("trading")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = logging.getLogger("repro.serve")
        logger.addHandler(handler)
        old_level = logger.level
        logger.setLevel(logging.ERROR)
        try:
            with QueryService(workers=1) as service:
                service.submit(app.program(), name="bad")
                service.ingest("bad", [Event(0.0, 10.0, 1.0), Event(5.0, 15.0, 2.0)])
                service.run_until_idle(max_ticks=5)
            doc = json.loads(stream.getvalue().strip().splitlines()[0])
            assert doc["tenant"] == "bad"
            assert doc["tick"] == 0
            assert "Overlapping" in doc["tenant_error"]
            assert "Traceback" in doc["exception"]
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
