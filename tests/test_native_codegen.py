"""Native codegen tier: selection, fallback, caching, and observability.

The cross-backend *equivalence* of the native tier lives in
``tests/test_backends.py`` (``TestCodegenTierEquivalence``); this module
pins down the tier machinery itself — tier selection (the constructor
argument, nothing else), per-kernel fallback when the toolchain is absent
or a construct is not lowerable, digest-keyed JIT caching (memory
LRU + shared disk cache), tier-aware compile-cache keying and pickling,
and the metrics/span/flight-recorder evidence trail.  How a running query
gets from its NumPy kernels to its C kernels is ``tests/test_promotion.py``.
"""

import os
import pickle

import numpy as np
import pytest

from repro.apps import get_application
from repro.core.codegen import native
from repro.core.codegen.compiled import (
    NATIVE_TIER,
    NUMPY_TIER,
    compile_program,
    lower_program,
)
from repro.core.frontend.query import source
from repro.core.runtime.engine import TiltEngine
from repro.errors import CompilationError, QueryBuildError
from repro.windowing import MEAN, SUM, custom_aggregate

from fixtures.opaque import OPAQUE_PANTOM

requires_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native codegen toolchain (cffi + C compiler) unavailable",
)


def mean_program():
    return source("x").window(10, 1).aggregate(MEAN).to_program()


def custom_agg_program():
    crest = custom_aggregate(
        "crest",
        init=lambda: 0.0,
        acc=lambda s, v: max(s, abs(v)),
        result=lambda s: s,
    )
    return source("x").window(10, 1).aggregate(crest).to_program()


# ---------------------------------------------------------------------- #
# tier selection
# ---------------------------------------------------------------------- #
class TestTierSelection:
    def test_default_is_native_served_from_numpy(self, monkeypatch):
        """The default engine requests the native tier and compiles to the
        NumPy twins: promotion is something a query earns by running."""
        monkeypatch.setattr(native, "cached", lambda spec, rec: False)
        with TiltEngine(workers=1) as engine:
            assert engine.codegen_tier == NATIVE_TIER
            compiled = engine.compile(mean_program())
            (row,) = compiled.kernel_plan()
            assert (row["requested_tier"], row["active_tier"], row["state"]) == (
                NATIVE_TIER, NUMPY_TIER, "numpy"
            )
            assert compiled.on_hot is not None

    def test_promote_is_the_synchronous_entry(self):
        """The request is honoured whether or not the toolchain is present —
        each kernel falls back on its own when it is not."""
        with TiltEngine(workers=1, codegen_tier="native") as engine:
            compiled = engine.compile(mean_program())
            compiled.promote()
            (kernel,) = compiled.kernels
            assert kernel.tier == NATIVE_TIER and not kernel.undecided
            assert (kernel.active_tier == NATIVE_TIER) == native.native_available()
            assert compiled.on_hot is None

    def test_numpy_tier_never_promotes(self):
        with TiltEngine(workers=1, codegen_tier="numpy") as engine:
            compiled = engine.compile(mean_program())
            assert compiled.on_hot is None
            compiled.promote()
            (row,) = compiled.kernel_plan()
            assert (row["requested_tier"], row["active_tier"], row["state"]) == (
                NUMPY_TIER, NUMPY_TIER, "numpy"
            )

    def test_invalid_tier_rejected(self):
        """``"auto"`` is gone with the rest: the tiers are the two names."""
        for tier in ("fortran", "auto"):
            with pytest.raises(QueryBuildError):
                TiltEngine(workers=1, codegen_tier=tier)
            with pytest.raises(CompilationError):
                compile_program(mean_program(), codegen_tier=tier)
        with pytest.raises(QueryBuildError):  # the oracle is spelled mode=
            TiltEngine(workers=1, codegen_tier="interpreted")

    def test_numpy_tier_has_no_native_kernel(self):
        compiled = compile_program(mean_program())
        (kernel,) = compiled.kernels
        assert kernel.tier == NUMPY_TIER
        assert kernel.active_tier == NUMPY_TIER


# ---------------------------------------------------------------------- #
# fallback paths
# ---------------------------------------------------------------------- #
class TestFallback:
    def test_missing_toolchain_falls_back_per_kernel(self, monkeypatch):
        """With the dependency gated off, a native-tier engine still runs —
        every kernel silently takes the NumPy path, observably via the
        fallback counter and the per-kernel reason."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        app = get_application("trading")
        streams = app.streams(300, seed=3)
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(app.program())
            compiled.promote()
            for kernel in compiled.kernels:
                assert kernel.tier == NATIVE_TIER
                assert (kernel.active_tier, kernel.state) == (NUMPY_TIER, "refused")
                assert "unavailable" in kernel.native_fallback_reason
            result = engine.run(compiled, streams).output
            assert engine._m_native_fallbacks.value == len(compiled.kernels)
        with TiltEngine(workers=1, codegen_tier="numpy") as engine:
            assert result == engine.run(app.program(), streams).output

    @requires_native
    def test_unlowerable_custom_aggregate_falls_back(self):
        compiled = compile_program(custom_agg_program(), codegen_tier=NATIVE_TIER)
        (kernel,) = compiled.kernels
        assert kernel.active_tier == NUMPY_TIER
        assert "aggregate" in kernel.native_fallback_reason

    @requires_native
    def test_mixed_query_falls_back_per_kernel(self, promoted_engine):
        """In one program, lowerable kernels go native while an unlowerable
        one (a custom Python aggregate) stays on NumPy — fallback is per
        kernel, not per query."""
        app = OPAQUE_PANTOM
        compiled = compile_program(app.program(), codegen_tier=NATIVE_TIER)
        rows = compiled.kernel_plan()
        assert {row["active_tier"] for row in rows} == {NUMPY_TIER, NATIVE_TIER}
        for row in rows:
            assert row["requested_tier"] == NATIVE_TIER
            assert (row["fallback_reason"] is None) == (row["active_tier"] == NATIVE_TIER)
        streams = app.streams(300, seed=3)
        with promoted_engine(workers=1) as engine:
            nat = engine.run(app.program(), streams).output
        with TiltEngine(workers=1, codegen_tier="numpy") as engine:
            assert nat == engine.run(app.program(), streams).output

    def test_lowering_blockers_reported_before_digest(self):
        compiled = compile_program(custom_agg_program())
        (kernel,) = compiled.kernels
        blockers = native.lowering_blockers(kernel.spec)
        assert blockers and any("aggregate" in b for b in blockers)

    @requires_native
    def test_interpreted_mode_never_goes_native(self, random_walk_stream):
        """Interpreted mode resolves every kernel to the interpreter tier —
        the tier argument composes by never being consulted."""
        program = get_application("trading").program()
        with TiltEngine(workers=1, mode="interpreted") as reference_engine:
            reference = reference_engine.run(program, {"stock": random_walk_stream}).output
        with TiltEngine(workers=1, mode="interpreted", codegen_tier="native") as engine:
            assert engine.codegen_tier == "interpreted"
            assert engine.run(program, {"stock": random_walk_stream}).output == reference


# ---------------------------------------------------------------------- #
# JIT caching
# ---------------------------------------------------------------------- #
@requires_native
class TestJITCache:
    def test_memory_cache_hits_by_digest(self):
        compiled = compile_program(mean_program(), codegen_tier=NATIVE_TIER)
        (kernel,) = compiled.kernels
        assert kernel.active_tier == NATIVE_TIER
        before = native.stats()
        again = compile_program(mean_program(), codegen_tier=NATIVE_TIER)
        assert again.kernels[0].active_tier == NATIVE_TIER
        after = native.stats()
        assert after["mem_hits_total"] > before["mem_hits_total"]
        assert after["compiles_total"] == before["compiles_total"]

    def test_disk_cache_survives_memory_flush(self, tmp_path, monkeypatch):
        """What a pool worker does with a promoted query it has not seen:
        unpickle it and load each kernel from disk, never compiling."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.clear_caches()
        compiled = compile_program(mean_program(), codegen_tier=NATIVE_TIER)
        assert compiled.kernels[0].active_tier == NATIVE_TIER
        sos = list(tmp_path.glob("tilt-*.so"))
        assert sos, "compiled artifact should land in the configured cache dir"
        native.clear_caches()
        before = native.stats()
        again = pickle.loads(compiled.pickle_payload())
        assert again.kernels[0].active_tier == NATIVE_TIER
        after = native.stats()
        assert after["disk_hits_total"] > before["disk_hits_total"]
        assert after["compiles_total"] == before["compiles_total"]

    def test_failure_cache_short_circuits(self):
        compiled = compile_program(custom_agg_program(), codegen_tier=NATIVE_TIER)
        kernel, reason = native.instantiate(compiled.kernels[0].spec)
        assert kernel is None and reason


# ---------------------------------------------------------------------- #
# tier-aware caching and pickling
# ---------------------------------------------------------------------- #
@requires_native
class TestTierKeying:
    def test_engine_compile_cache_keys_on_tier(self):
        """A tier switch on a shared engine must never serve a stale-tier
        compiled query."""
        program = mean_program()
        with TiltEngine(workers=1, codegen_tier="numpy") as np_eng, TiltEngine(
            workers=1, codegen_tier="native"
        ) as nat_eng:
            np_compiled = np_eng.compile_cached(program)
            nat_compiled = nat_eng.compile_cached(program)
            assert np_compiled is not nat_compiled
            assert np_compiled.kernels[0].tier == NUMPY_TIER
            assert nat_compiled.kernels[0].tier == NATIVE_TIER
            assert np_eng.compile_cached(program) is np_compiled
            assert nat_eng.compile_cached(program) is nat_compiled

    def test_pickle_round_trip_preserves_tier(self):
        compiled = compile_program(mean_program(), codegen_tier=NATIVE_TIER)
        clone = pickle.loads(pickle.dumps(compiled.kernels[0]))
        assert clone.tier == NATIVE_TIER
        assert clone.active_tier == NATIVE_TIER

    def test_unpickled_kernel_loads_only_what_the_cache_holds(self, tmp_path, monkeypatch):
        """An unpickled kernel keeps its tier and never runs the compiler: a
        native-tier kernel whose C kernel is not on disk stays undecided on
        its NumPy twin, and loads the C kernel once a build has left it."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.clear_caches()
        numpy_kernel = compile_program(mean_program()).kernels[0]
        native_kernel = lower_program(mean_program(), codegen_tier=NATIVE_TIER).kernels[0]
        before = native.stats()
        numpy_clone = pickle.loads(pickle.dumps(numpy_kernel))
        cold = pickle.loads(pickle.dumps(native_kernel))
        assert (numpy_clone.tier, numpy_clone.active_tier) == (NUMPY_TIER, NUMPY_TIER)
        assert (cold.tier, cold.active_tier) == (NATIVE_TIER, NUMPY_TIER) and cold.undecided
        assert native.stats()["compiles_total"] == before["compiles_total"]
        native_kernel.promote()
        assert native_kernel.active_tier == NATIVE_TIER
        native.clear_caches()
        warm = pickle.loads(pickle.dumps(native_kernel))
        assert (warm.tier, warm.active_tier) == (NATIVE_TIER, NATIVE_TIER)
        assert native.stats()["compiles_total"] == before["compiles_total"] + 1

    def test_worker_payload_distinct_per_tier(self):
        """The pickled worker payload differs per tier and per promotion
        state, so the worker-side query cache (keyed on the payload bytes)
        can never mix tiers or keep serving a query from before its
        promotion."""
        program = mean_program()
        np_payload = compile_program(program).pickle_payload()
        lowered = lower_program(program, codegen_tier=NATIVE_TIER)
        unpromoted = lowered.pickle_payload()
        lowered.promote()
        assert len({np_payload, unpromoted, lowered.pickle_payload()}) == 3


# ---------------------------------------------------------------------- #
# observability
# ---------------------------------------------------------------------- #
@requires_native
class TestObservability:
    def test_compile_span_records_tier(self):
        with TiltEngine(workers=1, codegen_tier="native", trace=True) as engine:
            engine.compile_cached(mean_program())
            records = engine.tracer.drain()
        spans = [r for r in records if r.name == "engine.compile"]
        assert spans and spans[0].attrs["tier"] == NATIVE_TIER

    def test_native_metrics_counters(self):
        """Fallbacks, promotions and build seconds are charged to the engine
        registry where the build happens."""
        app = OPAQUE_PANTOM  # custom agg kernel + lowerable ones
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(app.program())
            compiled.promote()
            assert engine._m_native_fallbacks.value >= 1
            assert engine._m_native_promotions.value == sum(
                k.active_tier == NATIVE_TIER for k in compiled.kernels
            ) >= 1, "pantom has lowerable kernels too"
            reg = engine.registry.to_json()
            for name in (
                "repro_native_fallbacks_total",
                "repro_native_promotions_total",
                "repro_native_compile_seconds_total",
                "repro_native_cache_rejects_total",
                "repro_native_build_queue_depth",
            ):
                assert name in reg

    def test_flight_context_reads_tiers_live(self, monkeypatch):
        """The tenant's plan is not a snapshot taken at ``open_session``: a
        promotion after the session opened shows in ``describe()`` and in
        the flight-recorder context."""
        from repro.datagen.sources import sources_for_streams
        from repro.serve.service import QueryService

        monkeypatch.setattr(native, "cached", lambda spec, rec: False)
        app = get_application("trading")
        streams = app.streams(300, seed=5)
        engine = TiltEngine(workers=1)
        service = QueryService(engine)
        try:
            name = service.submit(
                app.program(),
                sources=sources_for_streams(streams, events_per_poll=64),
            )
            service.run_until_idle()
            tenant = service._tenants[name]
            context = QueryService._flight_context(tenant)
            assert {row["state"] for row in context["plan"]["kernels"]} == {"numpy"}
            tenant.session.compiled.promote()
            context = QueryService._flight_context(tenant)
            assert context["plan"]["kernels"] == tenant.session.compiled.kernel_plan()
            assert context["plan"]["kernels"] == tenant.describe()["plan"]["kernels"]
            assert {row["active_tier"] for row in context["plan"]["kernels"]} == {NATIVE_TIER}
            assert context["plan"]["dispatch"] == {
                "backend": "in-process", "reason": "ticks bypass the worker pool"
            }
        finally:
            service.close()
            engine.close()

    def test_module_stats_shape(self):
        counters = native.stats()
        assert {
            "compiles_total",
            "compile_seconds_total",
            "fallbacks_total",
            "mem_hits_total",
            "disk_hits_total",
            "cache_rejects_total",
        } <= set(counters)


# ---------------------------------------------------------------------- #
# per-construct bitwise equivalence
# ---------------------------------------------------------------------- #
@requires_native
class TestConstructEquivalence:
    """Constructs the row-driven sweep of ``tests/test_conformance.py``
    (every operator and aggregate row, bitwise against the NumPy tier) does
    not reach."""

    def test_nan_propagation_through_rmq(self):
        """NaNs inside a max/min window poison exactly the windows NumPy
        poisons — the deque's NaN-prefix override, bit for bit."""
        from repro.core.runtime.ssbuf import SSBuf

        n = 64
        times = np.arange(n, dtype=np.float64)
        values = np.sin(times)
        values[7] = np.nan
        values[31] = np.nan
        buf = SSBuf(times, values, np.ones(n, dtype=bool), start_time=0.0)
        from repro.windowing.functions import builtin_aggregates

        for agg in (a for a in builtin_aggregates().values() if a.rmq is not None):
            program = source("x").window(8, 1).aggregate(agg).to_program()
            (np_kernel,) = compile_program(program).kernels
            (nat_kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
            assert nat_kernel.active_tier == NATIVE_TIER
            np_out = np_kernel.run({"x": buf}, 0.0, float(n))
            nat_out = nat_kernel.run({"x": buf}, 0.0, float(n))
            assert np.array_equal(
                np.asarray(np_out.values).view(np.uint64),
                np.asarray(nat_out.values).view(np.uint64),
            ), agg.name
