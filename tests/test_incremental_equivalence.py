"""Differential equivalence harness for session tick execution.

A session resolves its own tick path (``incremental=None``: in-process
against persistent reduce-site state where that pays, see
:func:`repro.core.codegen.runtime_support.reduce_site_plan`);
``incremental=False`` / ``True`` force partition-and-dispatch / in-process with the same resolved site plan.
All three must be *byte-identical* — same timestamps, validity mask and
start time, values equal to within floating-point reassociation
(``SSBuf.__eq__``) — to each other and to one one-shot ``TiltEngine.run``
over the complete input, across applications, aggregates, window
parameters, ragged tick schedules (empty ticks, watermark stalls) and every
engine plan of ``ENGINE_PLANS``.  The partition-and-dispatch path is the
reference the others are diffed against; the batch run is the ground truth
all descend from, itself pinned to a direct ``evaluate_program`` call.

Also covers the carry-over pruning interaction: checkpoint pins and
reduce-site ingest horizons must hold input alive past the naive
``w - max_lookback`` rule (a regression test demonstrates the naive prune
corrupting a rewind-replay).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPLICATIONS, get_application
from repro.core.ir import IRBuilder
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.session import StreamingSession
from repro.core.runtime.stream import EventStream
from repro.datagen.sources import QueuedSource, sources_for_streams
from repro.errors import ExecutionError
from repro.windowing import SUM
from repro.windowing.functions import builtin_aggregates, custom_aggregate

from fixtures.opaque import OPAQUE_PANTOM, OPAQUE_VIBRATION

N_EVENTS = 2_500

#: the session's own resolution, then the two forced paths
MODES = (None, False, True)


def run_session(engine, program, streams, tick_events, **kwargs):
    sources = sources_for_streams(streams, events_per_poll=tick_events)
    session = engine.open_session(program, sources, **kwargs)
    session.run_to_exhaustion()
    return session


def lookback_program(agg, lookback=13.0, precision=1.0):
    b = IRBuilder()
    x = b.stream("x")
    b.define("out", x.window(-lookback, 0.0).reduce(agg), precision=precision)
    return b.build(output="out")


def uniform_stream(n, seed, period=0.5, low=0.5, high=2.0):
    rng = np.random.default_rng(seed)
    return EventStream.from_samples(rng.uniform(low, high, n), period=period, name="x")


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("app_name", sorted(ALL_APPLICATIONS))
    def test_every_tick_path_matches_batch_on_every_plan(self, app_name, engine_plan, oracle):
        """Nothing the engine was configured with may perturb session
        output: in-process ticks bypass the pool, batch and partitioned
        ticks use it, on whatever kernel tier, traced or not — and all
        remain byte-identical to the reference interpreter."""
        app = get_application(app_name)
        streams = app.streams(engine_plan.events(N_EVENTS), seed=21)
        with engine_plan.engine() as engine:
            batch = engine.run(app.program(), streams)
            assert batch.output == oracle(app.program(), streams)
            for tick_events in (171, 1024):
                default, full, inc = (
                    run_session(engine, app.program(), streams, tick_events, incremental=mode)
                    for mode in MODES
                )
                assert not full.incremental
                assert inc.incremental == (engine.mode == "compiled")
                assert full.result().output == batch.output
                assert default.result().output == full.result().output
                assert inc.result().output == full.result().output

    @pytest.mark.parametrize(
        "agg", list(builtin_aggregates().values()), ids=lambda a: a.name
    )
    def test_every_builtin_aggregate(self, agg):
        """In-process ticks for each built-in: prefix-decomposable ones
        against their persisted index, the rest per invocation."""
        program = lookback_program(agg)
        stream = uniform_stream(800, seed=23)
        engine = TiltEngine(workers=1)
        batch = engine.run(program, {"x": stream})
        inc = run_session(engine, program, {"x": stream}, 97, incremental=True)
        assert inc.result().output == batch.output

    def test_custom_invertible_aggregate(self):
        """A user-defined aggregate has no prefix decomposition, so its
        in-process ticks fold per invocation."""
        csum = custom_aggregate(
            "csum",
            init=lambda: 0.0,
            acc=lambda s, v: s + v,
            result=lambda s: s,
            deacc=lambda s, v: s - v,
        )
        program = lookback_program(csum, lookback=9.0)
        stream = uniform_stream(700, seed=24)
        engine = TiltEngine(workers=1)
        batch = engine.run(program, {"x": stream})
        inc = run_session(engine, program, {"x": stream}, 83, incremental=True)
        assert inc.result().output == batch.output

    def test_unfused_query_falls_back_per_kernel(self):
        """Unfused queries keep intermediates on the per-tick rebuild path;
        output must still match batch exactly."""
        app = get_application("trading")
        streams = app.streams(1_200, seed=25)
        engine = TiltEngine(workers=1, enable_fusion=False)
        compiled = engine.compile_cached(app.program())
        assert len(compiled.kernels) > 1
        batch = engine.run(compiled, streams)
        for mode in MODES:
            session = run_session(engine, compiled, streams, 149, incremental=mode)
            assert session.result().output == batch.output

    def test_interpreted_mode_partitions(self):
        """The interpreter makes no ``rt.reduce`` calls to carry state for:
        an interpreted output kernel always partitions, whatever the
        override says."""
        app = get_application("wsum")
        streams = app.streams(600, seed=26)
        engine = TiltEngine(workers=1, mode="interpreted")
        batch = engine.run(app.program(), streams)
        for mode in MODES:
            session = run_session(engine, app.program(), streams, 90, incremental=mode)
            assert not session.incremental
            plan = session.plan
            assert (plan["tick_path"], plan["reason"]) == (
                "partition+dispatch", "interpreted output kernel"
            )
            assert plan["dispatch"] == {"backend": "serial", "reason": "engine setting"}
            assert {row["active_tier"] for row in plan["kernels"]} == {"interpreted"}
            assert {row["state"] for row in plan["sites"]} <= {"per-invocation"}
            assert session.result().output == batch.output

    @settings(max_examples=20, deadline=None)
    @given(
        agg_name=st.sampled_from(sorted(builtin_aggregates())),
        lookback=st.floats(min_value=1.0, max_value=60.0),
        precision=st.sampled_from([0.5, 1.0, 2.0]),
        ticks=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=10),
    )
    def test_random_windows_ragged_ticks(self, agg_name, lookback, precision, ticks):
        """Property: random aggregate × window depth × precision × ragged
        tick schedule (including zero-event ticks) reproduces the batch
        output in both modes."""
        agg = builtin_aggregates()[agg_name]
        program = lookback_program(agg, lookback=lookback, precision=precision)
        stream = uniform_stream(900, seed=27)
        schedule = list(ticks) + [500]  # guarantee forward progress
        engine = TiltEngine(workers=1)
        batch = engine.run(program, {"x": stream})
        for incremental in MODES:
            session = engine.open_session(
                program, sources_for_streams({"x": stream}), incremental=incremental
            )
            i = 0
            while not session.exhausted:
                session.tick(max_events=schedule[i % len(schedule)])
                i += 1
            session.close()
            assert session.result().output == batch.output

    def test_watermark_stall_and_advance(self):
        """A push-fed session that stalls (ticks with no new input, then an
        explicit horizon advance) must emit exactly the batch output."""
        app = get_application("trading")
        streams = app.streams(800, seed=28)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        events = streams["stock"].events
        for incremental in MODES:
            src = QueuedSource("stock", capacity=2_048)
            session = engine.open_session(app.program(), [src], incremental=incremental)
            src.push(events[:300])
            session.tick()
            session.tick()  # stall: nothing new arrived, watermark holds
            src.advance_to(events[300].start)
            session.tick()  # stall resolved by the explicit advance
            src.push(events[300:])
            session.tick()
            src.close()
            session.close()
            assert session.result().output == batch.output


class TestPruneStateInteraction:
    """Carry-over pruning vs. checkpoint pins and incremental state horizons
    (the ``max_lookback`` / kernel-state-horizon disagreement)."""

    def _flow(self, engine, app, streams, **session_kwargs):
        sources = sources_for_streams(streams, events_per_poll=150)
        session = engine.open_session(app.program(), sources, **session_kwargs)
        for _ in range(3):
            session.tick()
        token = session.checkpoint()
        for _ in range(5):
            session.tick()
        session.rewind(token)
        session.run_to_exhaustion()
        return session

    def test_checkpoint_rewind_replay_matches_batch(self):
        app = get_application("trading")
        streams = app.streams(1_800, seed=31)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        for incremental in MODES:
            session = self._flow(engine, app, streams, incremental=incremental)
            assert session.result().output == batch.output

    def test_naive_prune_corrupts_rewind_replay(self, monkeypatch):
        """Regression: pruning straight to ``w - max_lookback`` — ignoring
        checkpoint pins and reduce-site ingest horizons — discards input a
        rewind-replay still needs, and the replayed output diverges from
        batch.  This is the failure mode ``_prune_floor`` exists to prevent.
        """
        monkeypatch.setattr(
            StreamingSession,
            "_prune_floor",
            lambda self, w: w - self._boundary.max_lookback,
        )
        app = get_application("trading")
        streams = app.streams(1_800, seed=31)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        session = self._flow(engine, app, streams)
        assert session.result().output != batch.output

    def test_pin_holds_carry_over(self):
        """An active pin visibly blocks pruning; releasing it lets the
        retained tail shrink back to the lookback margin."""
        app = get_application("trading")
        streams = app.streams(1_500, seed=32)
        engine = TiltEngine(workers=1)
        sources = sources_for_streams(streams, events_per_poll=100)
        session = engine.open_session(app.program(), sources, incremental=False)
        session.tick()
        token = session.checkpoint()
        for _ in range(8):
            session.tick()
        pinned = session.retained_snapshots()
        session.release(token)
        session.tick()
        assert session.retained_snapshots() < pinned
        session.close()

    def test_checkpoint_api_errors(self):
        app = get_application("trading")
        streams = app.streams(400, seed=33)
        engine = TiltEngine(workers=1)
        session = engine.open_session(
            app.program(), sources_for_streams(streams, events_per_poll=100)
        )
        with pytest.raises(ExecutionError):
            session.checkpoint()  # nothing emitted yet
        with pytest.raises(ExecutionError):
            session.rewind(0.0)
        session.tick()
        token = session.checkpoint()
        session.release(token)
        with pytest.raises(ExecutionError):
            session.release(token)
        session.close()
        with pytest.raises(ExecutionError):
            session.checkpoint()


class TestResolvedPlan:
    """What ``open_session`` resolved is visible: tick path, dispatch
    backend, per-kernel tier and per reduce site."""

    @staticmethod
    def _plan(engine, app, **kwargs):
        app = get_application(app) if isinstance(app, str) else app
        session = engine.open_session(
            app.program(), sources_for_streams(app.streams(200, seed=36)), **kwargs
        )
        return session.plan

    def test_only_prefix_sites_over_inputs_persist(self):
        engine = TiltEngine(workers=1)
        plan = self._plan(engine, OPAQUE_VIBRATION)
        assert (plan["tick_path"], plan["reason"]) == ("in-process", "compiled output kernel")
        by_agg = {row["aggregate"]: row for row in plan["sites"]}
        assert by_agg["mean"]["state"] == "persisted"
        assert by_agg["mean"]["strategy"] == "prefix"
        for name, strategy in (("max", "rmq"), ("kurtosis", "fold")):
            assert by_agg[name]["state"] == "per-invocation"
            assert by_agg[name]["strategy"] == strategy
            assert by_agg[name]["reason"] == "no prefix decomposition"
        # the app's kurtosis is a derived prefix row: its site persists
        kurtosis = {row["aggregate"]: row for row in self._plan(engine, "vibration")["sites"]}
        assert (kurtosis["kurtosis"]["strategy"], kurtosis["kurtosis"]["state"]) == (
            "prefix", "persisted"
        )
        # pantom's output kernel reduces an intermediate: nothing to persist
        # (its window derivative and band-pass means live in intermediate
        # kernels, rebuilt over their margin each tick)
        plan = self._plan(engine, OPAQUE_PANTOM)
        assert plan["tick_path"] == "in-process"
        assert {row["state"] for row in plan["sites"]} == {"per-invocation"}
        reasons = {row["kernel"]: row["reason"] for row in plan["sites"]}
        assert reasons["qrs"] == "reduces an intermediate expression"
        assert reasons["squared"] == "intermediate kernel: rebuilt each tick"

    def test_explicit_override_is_reported(self):
        """Forcing a path changes the path, never which sites persist."""
        engine = TiltEngine(workers=1)
        forced = self._plan(engine, "vibration", incremental=True)
        assert (forced["tick_path"], forced["reason"]) == ("in-process", "explicit override")
        assert forced["sites"] == self._plan(engine, "vibration")["sites"]
        assert forced["dispatch"]["backend"] == "in-process"
        off = self._plan(engine, "vibration", incremental=False)
        assert (off["tick_path"], off["reason"]) == ("partition+dispatch", "explicit override")
        assert {row["reason"] for row in off["sites"]} == {"partitioned tick path"}
        assert off["dispatch"] == {"backend": "serial", "reason": "engine setting"}

    def test_service_reports_tenant_plans(self):
        from repro.serve.service import QueryService

        app = get_application("trading")
        streams = app.streams(900, seed=34)
        engine = TiltEngine(workers=1)
        batch = engine.run(app.program(), streams)
        service = QueryService(engine)
        try:
            name = service.submit(
                app.program(), sources=sources_for_streams(streams, events_per_poll=200)
            )
            service.run_until_idle()
            assert service.result(name).output == batch.output
            plan = service.stats().tenants[name]["plan"]
            assert plan["tick_path"] == "in-process"
            assert [row["state"] for row in plan["sites"]] == ["persisted", "persisted"]
        finally:
            service.close()


class TestIncrementalInternals:
    def test_state_survives_pruning(self):
        """Persistent indexes keep answering deep-lookback windows even
        after the input carry-over has been pruned and compacted."""
        program = lookback_program(SUM, lookback=40.0, precision=1.0)
        stream = uniform_stream(2_000, seed=35)
        engine = TiltEngine(workers=1)
        batch = engine.run(program, {"x": stream})
        session = run_session(engine, program, {"x": stream}, 128)
        assert 0 < session.state_snapshots() < 2_000
        assert session.result().output == batch.output
