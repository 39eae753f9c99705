"""Tests for the multi-tenant streaming query service (`repro.serve`).

The acceptance property is *tenant isolation under multiplexing*: for every
tenant of a packed service, the output collected through the service must be
byte-identical to running that tenant's query alone in a standalone
:class:`StreamingSession` — for both scheduler policies, with 20 mixed
applications sharing one 4-worker engine.
"""

import pytest

from repro.apps import get_application
from repro.core.runtime.engine import TiltEngine
from repro.datagen.sources import GeneratorSource, sources_for_streams
from repro.datagen import stock_price_stream
from repro.errors import AdmissionError, ExecutionError, QueryBuildError
from repro.metrics.fleet import aggregate_fleet, jain_fairness_index
from repro.serve import (
    DeficitFairPolicy,
    QueryService,
    RoundRobinPolicy,
    TickScheduler,
    make_policy,
)

#: 20 heterogeneous tenants: every application in the suite, cycled
TENANT_APPS = [
    "trading", "rsi", "normalize", "impute", "resample", "pantom",
    "vibration", "frauddet", "ysb", "select", "where", "wsum", "join",
    "trading", "ysb", "normalize", "frauddet", "rsi", "wsum", "impute",
]
N_EVENTS = 500


class TestMultiTenantEquivalence:
    @pytest.mark.parametrize("policy", ["round_robin", "fair"])
    def test_twenty_mixed_tenants_match_standalone_sessions(self, policy):
        """20 mixed-app tenants on 4 workers: each tenant's service output
        is byte-identical to a standalone StreamingSession over the same
        query and data."""
        engine = TiltEngine(workers=4)
        service = QueryService(engine, policy=policy)
        programs = {app: get_application(app).program() for app in set(TENANT_APPS)}
        datasets = {}
        for i, app in enumerate(TENANT_APPS):
            streams = get_application(app).streams(N_EVENTS, seed=i)
            datasets[f"{app}#{i}"] = (app, streams)
            service.submit(
                programs[app],
                name=f"{app}#{i}",
                sources=sources_for_streams(streams, events_per_poll=123 + 7 * (i % 5)),
            )
        assert len(service.tenants()) == 20
        service.run_until_idle()
        assert service.active_tenants() == []

        for name, (app, streams) in datasets.items():
            standalone = engine.open_session(
                programs[app], sources_for_streams(streams, events_per_poll=211)
            )
            standalone.run_to_exhaustion()
            assert service.result(name).output == standalone.result().output, name

        stats = service.stats()
        assert stats.policy == policy
        assert stats.fleet.tenants == 20
        assert stats.fleet.input_events == sum(
            sum(len(s) for s in streams.values()) for _, streams in datasets.values()
        )
        service.close()
        engine.close()


class TestServiceLifecycle:
    def _replay_tenant(self, service, app_name, name, *, seed=0, **kwargs):
        app = get_application(app_name)
        streams = app.streams(400, seed=seed)
        service.submit(
            app.program(),
            name=name,
            sources=sources_for_streams(streams, events_per_poll=90),
            **kwargs,
        )
        return streams

    def test_push_mode_ingest_and_results(self):
        app = get_application("trading")
        streams = app.streams(600, seed=1)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        service = QueryService(engine)
        service.submit(app.program(), name="t")
        events = streams["stock"].events
        collected = []
        for i in range(0, len(events), 150):
            assert service.ingest("t", events[i : i + 150]) == min(150, len(events) - i)
            service.step()
            collected.extend(service.results("t"))
        service.close_input("t")
        service.run_until_idle()
        collected.extend(service.results("t"))
        assert service.results("t") == []  # drained
        assert all(r.emitted for r in collected)
        assert service.result("t").output == batch.output
        service.close()
        engine.close()

    def test_multi_stream_push_tenant_needs_stream_name(self):
        service = QueryService(workers=1)
        app = get_application("join")  # two input streams: left, right
        service.submit(app.program(), name="j")
        streams = app.streams(50, seed=2)
        with pytest.raises(QueryBuildError):
            service.ingest("j", streams["left"].events)  # ambiguous
        with pytest.raises(QueryBuildError):
            service.ingest("j", streams["left"].events, stream="middle")
        for n in ("left", "right"):
            assert service.ingest("j", streams[n].events, stream=n)
        service.close()

    def test_cancel_stops_scheduling(self):
        service = QueryService(workers=1)
        feed = GeneratorSource(
            lambda i: stock_price_stream(500, seed=i), name="stock", events_per_poll=250
        )
        app = get_application("trading")
        service.submit(app.program(), name="unbounded", sources=[feed], retain_output=False)
        ran = service.run_until_idle(max_ticks=5)
        assert ran == 5  # unbounded tenant stays ready
        assert service.cancel("unbounded")
        assert not service.cancel("unbounded")  # already cancelled
        assert service.run_until_idle() == 0
        assert service.stats().tenants["unbounded"]["state"] == "cancelled"
        service.close()
        with pytest.raises(ExecutionError):
            service.submit(app.program())

    def test_finished_tenants_leave_the_ready_set(self):
        service = QueryService(workers=1)
        self._replay_tenant(service, "trading", "a")
        service.run_until_idle()
        stats = service.stats()
        assert stats.tenants["a"]["state"] == "finished"
        assert service.run_until_idle() == 0
        service.close()

    def test_failing_tenant_is_isolated(self):
        """A tenant whose data blows up mid-tick must be marked failed —
        not crash the scheduling loop or stall the other tenants."""
        from repro.core.runtime.stream import Event

        service = QueryService(workers=1)
        app = get_application("trading")
        streams = self._replay_tenant(service, "trading", "healthy", seed=8)
        service.submit(app.program(), name="broken")
        # start-ordered but overlapping: passes push-time validation, then
        # raises OverlappingEventsError inside the tick
        service.ingest("broken", [Event(0.0, 10.0, 1.0), Event(5.0, 15.0, 2.0)])
        service.run_until_idle()
        stats = service.stats()
        assert stats.tenants["broken"]["state"] == "failed"
        assert "Overlapping" in stats.tenants["broken"]["error"]
        assert stats.tenants["healthy"]["state"] == "finished"
        engine = TiltEngine(workers=1)
        assert service.result("healthy").output == engine.run(app.program(), streams).output
        engine.close()
        service.close()

    def test_pull_fed_queue_source_wakes_on_push(self):
        """A QueuedSource passed as a *pull* source must keep the tenant
        schedulable when events are pushed into it directly."""
        from repro.datagen.sources import QueuedSource

        app = get_application("trading")
        streams = app.streams(300, seed=9)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        service = QueryService(engine)
        src = QueuedSource("stock", capacity=1024)
        service.submit(app.program(), name="t", sources=[src])
        assert service.run_until_idle(max_ticks=10) <= 10  # idles, no spin
        events = streams["stock"].events
        src.push(events[:150])
        assert service.run_until_idle(max_ticks=50) > 0  # woke on depth
        src.push(events[150:])
        src.close()
        service.run_until_idle()
        assert service.result("t").output == batch.output
        service.close()
        engine.close()

    def test_poke_marks_idle_tenant_ready(self):
        """Custom pull sources without a depth signal re-arm via poke()."""

        class FlakySource:
            name = "stock"
            finite = False
            horizon = -float("inf")
            exhausted = False
            batches = []

            def poll(self, max_events=None):
                return self.batches.pop(0) if self.batches else []

        app = get_application("trading")
        service = QueryService(workers=1)
        src = FlakySource()
        service.submit(app.program(), name="t", sources=[src], retain_output=False)
        service.run_until_idle(max_ticks=20)
        assert service.run_until_idle(max_ticks=5) == 0  # idled
        from repro.core.runtime.stream import Event

        src.batches.append([Event(0.0, 1.0, 1.0)])
        src.horizon = 1.0
        service.poke("t")
        assert service.run_until_idle(max_ticks=5) > 0
        service.close()

    def test_unknown_tenant_rejected(self):
        service = QueryService(workers=1)
        with pytest.raises(QueryBuildError):
            service.results("ghost")
        with pytest.raises(QueryBuildError):
            service.ingest("ghost", [])
        service.close()

    def test_background_thread_serves_push_tenant(self):
        app = get_application("trading")
        streams = app.streams(500, seed=3)
        engine = TiltEngine(workers=2)
        batch = engine.run(app.program(), streams)
        service = QueryService(engine, policy="fair")
        service.submit(app.program(), name="bg")
        service.start()
        try:
            events = streams["stock"].events
            for i in range(0, len(events), 100):
                service.ingest("bg", events[i : i + 100], timeout=5.0)
            service.close_input("bg")
            import time as _time

            deadline = _time.monotonic() + 10.0
            while service.active_tenants() and _time.monotonic() < deadline:
                _time.sleep(0.005)
            assert service.active_tenants() == []
        finally:
            service.stop()
        assert service.result("bg").output == batch.output
        service.close()
        engine.close()


class TestAdmissionControl:
    def test_tenant_limit(self):
        service = QueryService(workers=1, max_tenants=2)
        self_app = get_application("trading")
        service.submit(self_app.program(), name="a")
        service.submit(self_app.program(), name="b")
        with pytest.raises(AdmissionError):
            service.submit(self_app.program(), name="c")
        assert service.stats().rejected_tenants == 1
        # finishing/cancelling a tenant frees the slot
        service.cancel("a")
        service.submit(self_app.program(), name="c")
        service.close()

    def test_shed_policy_drops_and_counts_overflow(self):
        service = QueryService(workers=1, max_pending_events=100, overload="shed")
        app = get_application("trading")
        events = app.streams(300, seed=4)["stock"].events
        service.submit(app.program(), name="t")
        accepted = service.ingest("t", events)
        assert accepted == 100  # queue capacity
        stats = service.stats()
        assert stats.tenants["t"]["shed_events"] == 200.0
        assert stats.fleet.shed_events == 200
        assert stats.fleet.queue_depth == 100
        service.close()

    def test_cancel_releases_blocked_producer(self):
        """A producer blocked in backpressured ingest must be woken with
        QueueClosedError when its tenant is cancelled — not hang forever
        on a queue nobody will drain."""
        import threading

        from repro.errors import QueueClosedError

        service = QueryService(workers=1, max_pending_events=20, overload="block")
        app = get_application("trading")
        events = app.streams(100, seed=12)["stock"].events
        service.submit(app.program(), name="t")
        outcome = {}

        def producer():
            try:
                service.ingest("t", events)  # 100 into 20 slots: blocks
            except QueueClosedError:
                outcome["released"] = True

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        import time

        time.sleep(0.05)
        assert thread.is_alive()
        service.cancel("t")
        thread.join(timeout=2.0)
        assert not thread.is_alive() and outcome.get("released")
        service.close()

    def test_block_policy_times_out_without_shedding(self):
        service = QueryService(
            workers=1, max_pending_events=50, overload="block", block_timeout=0.05
        )
        app = get_application("trading")
        events = app.streams(200, seed=5)["stock"].events
        service.submit(app.program(), name="t")
        accepted = service.ingest("t", events)
        assert accepted == 50  # blocked until timeout, rest stays with caller
        assert service.stats().fleet.shed_events == 0
        # draining via a tick makes room for a retry of the remainder
        service.step()
        assert service.ingest("t", events[accepted:], timeout=0.05) > 0
        service.close()


class TestSchedulerPolicies:
    class FakeTenant:
        def __init__(self, index, weight=1.0, deadline=None):
            self.index = index
            self.weight = weight
            self.vtime = 0.0
            self.cost_ewma = None
            self.deadline_seconds = deadline
            self.last_emit_wall = 0.0
            self.last_service_wall = 0.0

    def test_round_robin_cycles_in_admission_order(self):
        policy = RoundRobinPolicy()
        tenants = [self.FakeTenant(i) for i in range(3)]
        order = [policy.select(tenants).index for _ in range(7)]
        assert order == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_skips_unready(self):
        policy = RoundRobinPolicy()
        a, b, c = (self.FakeTenant(i) for i in range(3))
        assert policy.select([a, b, c]) is a
        assert policy.select([a, c]) is c  # b not ready: wraps past it
        assert policy.select([a, b, c]) is a

    def test_fair_share_schedules_heavy_tenant_less(self):
        """A tenant with 10x tick cost should receive ~1/10th the turns of
        each light tenant once costs are learned."""
        policy = DeficitFairPolicy()
        light = [self.FakeTenant(0), self.FakeTenant(1)]
        heavy = self.FakeTenant(2)
        tenants = light + [heavy]
        for t in tenants:
            policy.admit(t)
        turns = {t.index: 0 for t in tenants}
        for _ in range(200):
            t = policy.select(tenants)
            turns[t.index] += 1
            policy.record(t, 0.010 if t is heavy else 0.001)
        assert turns[2] < turns[0] / 3
        assert turns[2] < turns[1] / 3
        # weighted busy time is nearly equal: fairness of the shares
        busy = {0: turns[0] * 0.001, 1: turns[1] * 0.001, 2: turns[2] * 0.010}
        assert jain_fairness_index(list(busy.values())) > 0.95

    def test_fair_share_weight_buys_share(self):
        policy = DeficitFairPolicy()
        plain = self.FakeTenant(0, weight=1.0)
        vip = self.FakeTenant(1, weight=3.0)
        for t in (plain, vip):
            policy.admit(t)
        turns = {0: 0, 1: 0}
        for _ in range(200):
            t = policy.select([plain, vip])
            turns[t.index] += 1
            policy.record(t, 0.001)
        assert turns[1] > 2 * turns[0]

    def test_deadline_escalation_bypasses_policy(self):
        scheduler = TickScheduler(RoundRobinPolicy())
        normal = self.FakeTenant(0)
        urgent = self.FakeTenant(1, deadline=1.0)
        # at t=0.5 nothing is overdue: round-robin picks tenant 0
        assert scheduler.select([normal, urgent], now=0.5) is normal
        # at t=2.0 the urgent tenant is 1s past its deadline
        assert scheduler.select([normal, urgent], now=2.0) is urgent
        assert scheduler.escalations == 1

    def test_escalation_resets_on_service_not_only_emit(self):
        """A deadline tenant that is serviced but cannot emit must not be
        re-escalated on every select — that would starve the fleet."""
        scheduler = TickScheduler(RoundRobinPolicy())
        normal = self.FakeTenant(0)
        urgent = self.FakeTenant(1, deadline=1.0)
        assert scheduler.select([normal, urgent], now=5.0) is urgent
        # the service records the (non-emitting) tick it just received
        urgent.last_service_wall = 5.0
        # immediately after being serviced it is no longer overdue: the
        # policy takes over again
        assert scheduler.select([normal, urgent], now=5.1) is normal
        # ... until a full deadline window passes without service
        assert scheduler.select([normal, urgent], now=6.5) is urgent
        assert scheduler.escalations == 2

    def test_make_policy_names(self):
        assert make_policy("fair").name == "fair"
        assert make_policy("round_robin").name == "round_robin"
        with pytest.raises(QueryBuildError):
            make_policy("lifo")


class TestFleetMetrics:
    def test_jain_index_bounds(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0])

    def test_aggregate_fleet_merges_sessions(self):
        from repro.metrics.streaming import SessionMetrics

        a, b = SessionMetrics(), SessionMetrics()
        a.record_tick(input_events=100, output_snapshots=10, seconds=0.010)
        b.record_tick(input_events=300, output_snapshots=30, seconds=0.030)
        snap = aggregate_fleet(
            {"a": a, "b": b},
            active=["a"],
            queue_depths={"a": 5, "b": 7},
            shed_events={"a": 0, "b": 2},
        )
        assert snap.tenants == 2 and snap.active_tenants == 1
        assert snap.input_events == 400
        assert snap.events_per_second == pytest.approx(400 / 0.040)
        assert snap.queue_depth == 12 and snap.shed_events == 2
        assert snap.tick_latency_p50 == pytest.approx(0.020)
        assert 0.0 < snap.fairness <= 1.0
        summary = snap.summary()
        assert summary["tenants"] == 2.0
        assert "fairness" in snap.format() or "fairness" in summary

    def test_service_stats_summary_round_trips_to_json(self):
        import json

        service = QueryService(workers=1)
        app = get_application("trading")
        streams = app.streams(200, seed=6)
        service.submit(
            app.program(),
            name="t",
            sources=sources_for_streams(streams, events_per_poll=60),
        )
        service.run_until_idle()
        stats = service.stats()
        payload = json.dumps({"service": stats.summary(), "tenants": stats.tenants})
        assert "events_per_second" in payload
        assert stats.fleet.input_events == 200
        service.close()


class TestSLOIntegration:
    class FakeTenant(TestSchedulerPolicies.FakeTenant):
        def __init__(self, index, name=None, **kw):
            super().__init__(index, **kw)
            self.name = name or f"t{index}"

    def test_urgent_tenant_escalates_past_policy(self):
        scheduler = TickScheduler(RoundRobinPolicy())
        normal = self.FakeTenant(0)
        burning = self.FakeTenant(1)
        # without urgency round-robin starts at tenant 0
        assert scheduler.select([normal, burning], now=1.0) is normal
        # SLO monitor flags tenant 1: it jumps the policy
        assert scheduler.select([normal, burning], now=1.0, urgent={"t1"}) is burning
        assert scheduler.escalations == 1
        assert scheduler.slo_escalations == 1

    def test_overdue_deadline_outranks_urgent(self):
        """An SLO-urgent tenant escalates at urgency 0, so a genuinely
        overdue hard deadline still wins the tie-break."""
        scheduler = TickScheduler(RoundRobinPolicy())
        overdue = self.FakeTenant(0, deadline=1.0)
        burning = self.FakeTenant(1)
        choice = scheduler.select([overdue, burning], now=5.0, urgent={"t1"})
        assert choice is overdue
        assert scheduler.escalations == 1
        assert scheduler.slo_escalations == 0  # deadline, not SLO, won

    def test_urgent_names_not_in_ready_are_ignored(self):
        scheduler = TickScheduler(RoundRobinPolicy())
        a, b = self.FakeTenant(0), self.FakeTenant(1)
        assert scheduler.select([a, b], now=1.0, urgent={"elsewhere"}) is a
        assert scheduler.escalations == 0

    def test_stats_slo_absent_without_spec(self):
        with QueryService(workers=1) as service:
            assert service.stats().slo is None
            assert service.slo_monitor is None
            assert service.telemetry is None

    def test_stats_slo_present_and_verdict_formats(self):
        with QueryService(workers=1, slo=True) as service:
            app = get_application("trading")
            streams = app.streams(200, seed=9)
            service.submit(
                app.program(),
                name="t",
                sources=sources_for_streams(streams, events_per_poll=60),
            )
            service.run_until_idle()
            stats = service.stats()
            assert stats.slo is not None
            assert stats.slo.verdict == "healthy"
            assert stats.summary()["slo_verdict"] == "healthy"
            assert "[healthy]" in stats.format()

    def test_failed_tenant_breaches_until_cancelled(self):
        from repro.core.runtime.stream import Event

        with QueryService(workers=1, slo=True) as service:
            app = get_application("trading")
            service.submit(app.program(), name="bad")
            service.ingest("bad", [Event(0.0, 10.0, 1.0), Event(5.0, 15.0, 2.0)])
            service.run_until_idle(max_ticks=5)
            status = service.stats().slo
            assert status.verdict == "degraded"
            assert status.failed_tenants == ["bad"]
            # the operator acknowledges the failure: breach state clears
            service.slo_monitor.forget("bad")
            assert service.stats().slo.verdict == "healthy"

    def test_slo_escalations_reported_in_summary(self):
        with QueryService(workers=1, slo=True) as service:
            service.run_until_idle()
            summary = service.stats().summary()
            assert "slo_escalations" in summary


class TestLiveRegistry:
    """Every serving number in the registry is written where it changes,
    so a scrape reads it current without anyone calling ``stats()``."""

    class Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    @staticmethod
    def value(engine, name):
        return engine.registry.to_json()[name]["series"][0]["value"]

    @staticmethod
    def unbounded(service, name, **kw):
        feed = GeneratorSource(
            lambda i: stock_price_stream(200, seed=i), name="stock", events_per_poll=100
        )
        service.submit(
            get_application("trading").program(),
            name=name,
            sources=[feed],
            retain_output=False,
            **kw,
        )

    def test_scrape_is_current_without_stats(self):
        import urllib.request

        clock = self.Clock()
        engine = TiltEngine(workers=1)
        service = QueryService(engine, clock=clock, telemetry_port=0)
        try:
            self.unbounded(service, "late", deadline=1.0)
            service.submit(get_application("trading").program(), name="push")
            events = get_application("trading").streams(300, seed=4)["stock"].events
            assert service.ingest("push", events) == 300
            for _ in range(2):
                clock.now += 5.0  # "late" is overdue: its select escalates
                assert service.step() is not None
            assert self.value(engine, "repro_scheduler_escalations_total") == 2
            assert self.value(engine, "repro_active_tenants") == 2
            with urllib.request.urlopen(service.telemetry.url + "/metrics", timeout=5) as resp:
                lines = resp.read().decode().splitlines()
            samples = dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))
            assert float(samples["repro_scheduler_escalations_total"]) == 2
            assert float(samples["repro_active_tenants"]) == 2
            assert float(samples["repro_queue_depth"]) == 300
        finally:
            service.close()
            engine.close()

    def test_active_tenants_sum_over_services_on_one_engine(self):
        engine = TiltEngine(workers=1)
        first, second = QueryService(engine), QueryService(engine)
        try:
            for i in range(2):
                self.unbounded(first, f"a{i}")
            for i in range(3):
                self.unbounded(second, f"b{i}")
            assert self.value(engine, "repro_active_tenants") == 5
            second.cancel("b0")
            first.run_until_idle(max_ticks=4)
            first.stats()  # reading one service's stats must not narrow the gauge
            assert self.value(engine, "repro_active_tenants") == 4
            first.close()
            assert self.value(engine, "repro_active_tenants") == 2
        finally:
            first.close()
            second.close()
            engine.close()

    def test_queue_depth_and_fairness_survive_another_services_stats(self):
        """Two services on one engine: A holds 300 queued events and has run
        one of its two tenants, B is idle.  B's ``stats()`` neither resets
        the engine's queue depth (a sum over services) nor overwrites A's
        fairness index (a series per service); closing a service takes
        its share back out of the sum and its series out of the registry."""
        engine = TiltEngine(workers=1)
        first, second = QueryService(engine), QueryService(engine)
        try:
            self.unbounded(first, "busy")
            first.submit(get_application("trading").program(), name="push")
            events = get_application("trading").streams(300, seed=4)["stock"].events
            assert first.ingest("push", events) == 300
            first.step()  # only "busy" is ready: the busy-time shares differ
            fairness = first.stats().fleet.fairness
            idle = second.stats().fleet.fairness
            assert fairness != idle
            assert self.value(engine, "repro_queue_depth") == 300
            series = engine.registry.to_json()["repro_fairness_index"]["series"]
            assert len({row["labels"]["service"] for row in series}) == 2
            assert sorted(row["value"] for row in series) == sorted([fairness, idle])
            second.close()
            assert self.value(engine, "repro_queue_depth") == 300
            (row,) = engine.registry.to_json()["repro_fairness_index"]["series"]
            assert row["value"] == fairness
            first.close()
            assert self.value(engine, "repro_queue_depth") == 0
            assert engine.registry.to_json()["repro_fairness_index"]["series"] == []
        finally:
            first.close()
            second.close()
            engine.close()

    def test_slo_monitor_sees_each_tick_once(self):
        with QueryService(workers=1, slo=True) as service:
            seen = []
            record = service.slo_monitor.record_tick

            def counting(tenant, **kw):
                seen.append(tenant)
                record(tenant, **kw)

            service.slo_monitor.record_tick = counting
            app = get_application("trading")
            service.submit(
                app.program(),
                name="finite",
                sources=sources_for_streams(app.streams(400, seed=5), events_per_poll=90),
            )
            self.unbounded(service, "endless")
            service.run_until_idle(max_ticks=40)
            finite = service._tenants["finite"]
            assert finite.state == "finished"
            # every tick, the closing flush included, observed exactly once
            assert seen.count("finite") == finite.session.metrics.ticks
            endless = service._tenants["endless"].session.metrics
            assert seen.count("endless") == endless.ticks > 0
            service.cancel("endless")
            service.run_until_idle()
            assert seen.count("endless") == endless.ticks
            assert "endless" not in service.slo_monitor.tenants()

            class CancelMidTick(GeneratorSource):
                def poll(self, max_events=None):
                    service.cancel("doomed")
                    return super().poll(max_events)

            feed = CancelMidTick(
                lambda i: stock_price_stream(200, seed=i), name="stock", events_per_poll=100
            )
            service.submit(app.program(), name="doomed", sources=[feed])
            assert service.step() is not None  # the tick completes, cancelled
            assert service._tenants["doomed"].state == "cancelled"
            assert "doomed" not in seen
            assert "doomed" not in service.slo_monitor.tenants()
            gauge = service.engine.registry.to_json()["repro_active_tenants"]
            assert gauge["series"][0]["value"] == 0
