"""A promoted session tick over state bound once: the budget of a steady
tick, the prune schedule it keeps, and the rebinding a reallocation forces.

A kernel's :class:`~repro.core.codegen.runtime_support.KernelRuntime` holds
its reduce sites, output lanes and the cffi struct its C entry reads; a
session keeps one per kernel.  These tests pin what that buys and what it
must not change: a steady tick binds (almost) nothing and builds no site,
intermediates' runtimes live as long as the session, columns and kept
sites drop and rebase at exactly the ticks the per-tick ``searchsorted``
rule below says, and a column that reallocates or compacts mid-session is
rebound or re-read without a byte of output changing.
"""

import cffi
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_application, trend_trading_query, ysb_query
from repro.core.codegen import native
from repro.core.codegen.compiled import NUMPY_TIER
from repro.core.codegen.runtime_support import KernelRuntime, ReduceSite
from repro.core.frontend.query import source
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.growable import GrowableArray
from repro.core.runtime.session import _IngestColumn
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import EventStream
from repro.datagen.sources import sources_for_streams
from repro.serve import QueryService
from repro.windowing import MEAN
from repro.windowing.prefix import PRUNE_MIN, PrefixRangeIndex

requires_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native codegen toolchain (cffi + C compiler) unavailable",
)

#: single-kernel queries of the two session workloads' shapes
STEADY = {
    "ysb": (lambda: ysb_query(window=0.25).to_program(), lambda: get_application("ysb").streams(40_000, seed=6), 1_000),
    "trend": (
        lambda: trend_trading_query(short_window=100, long_window=400).to_program(),
        lambda: get_application("trading").streams(4_000, seed=6),
        100,
    ),
}


@pytest.fixture
def counts(monkeypatch):
    """How often ``ffi.from_buffer`` ran and how many ``ReduceSite``,
    ``PrefixRangeIndex`` and ``KernelRuntime`` objects were built."""
    seen = {"from_buffer": 0, "ReduceSite": 0, "PrefixRangeIndex": 0, "KernelRuntime": 0}
    from_buffer = cffi.FFI.from_buffer

    def counting_from_buffer(self, *args, **kwargs):
        seen["from_buffer"] += 1
        return from_buffer(self, *args, **kwargs)

    monkeypatch.setattr(cffi.FFI, "from_buffer", counting_from_buffer)
    for cls in (ReduceSite, PrefixRangeIndex, KernelRuntime):
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            seen[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return seen


def crc_bytes(delta):
    return delta.times.tobytes() + delta.values.tobytes() + delta.valid.tobytes()


@requires_native
class TestSteadyTick:
    @pytest.mark.parametrize("name", sorted(STEADY))
    def test_a_steady_tick_binds_nothing_and_builds_no_site(self, name, counts):
        """Twenty steady ticks of a promoted single-kernel session: at most
        one ``from_buffer`` a tick on average (a reallocated array rebinds),
        no reduce site or prefix index built, and the deltas those of a
        session that never left NumPy."""
        make_program, make_streams, per_tick = STEADY[name]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as engine:
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            want = [crc_bytes(session.tick().delta) for _ in range(30)]
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(program)
            compiled.promote()
            session = engine.open_session(compiled, sources_for_streams(streams, events_per_poll=per_tick))
            got = [crc_bytes(session.tick().delta) for _ in range(10)]
            before = dict(counts)
            got += [crc_bytes(session.tick().delta) for _ in range(20)]
            spent = {key: counts[key] - before[key] for key in counts}
        assert got == want
        assert spent["from_buffer"] <= 20, spent
        assert (spent["ReduceSite"], spent["PrefixRangeIndex"], spent["KernelRuntime"]) == (0, 0, 0)

    def test_held_deltas_of_an_unretained_session_keep_their_bytes(self):
        """With ``retain_output=False`` nothing copies a delta for the
        session, yet every ``TickResult`` the caller holds — from
        ``tick()`` and ``run_to_exhaustion()``, which ends with
        ``close()``'s — keeps the bytes it was emitted with, and all the
        held deltas concatenate to the one-shot output."""
        make_program, make_streams, per_tick = STEADY["ysb"]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile(program)
            compiled.promote()
            session = engine.open_session(
                compiled, sources_for_streams(streams, events_per_poll=per_tick), retain_output=False
            )
            held, at_emission = [], []
            for _ in range(30):
                held.append(session.tick())
                at_emission.append(crc_bytes(held[-1].delta))
            held += session.run_to_exhaustion()  # ends with close()'s
        assert [crc_bytes(r.delta) for r in held[:30]] == at_emission
        assert sum(bool(len(r.delta)) for r in held[:30]) > 5
        assert SSBuf.concat([r.delta for r in held if len(r.delta)]).compact() == batch

    def test_a_service_tenant_drained_late_keeps_each_deltas_bytes(self):
        """A service tenant with ``retain_output=False`` queues its
        ``TickResult``s until ``results()`` drains them: drained after
        several ticks, each still holds its own delta."""
        make_program, make_streams, per_tick = STEADY["ysb"]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile(program)
            compiled.promote()
            with QueryService(engine) as service:
                name = service.submit(
                    compiled, sources=sources_for_streams(streams, events_per_poll=per_tick), retain_output=False
                )
                held, at_emission = [], []
                while (result := service.step()) is not None:
                    if result.emitted:
                        at_emission.append(crc_bytes(result.delta))
                    if len(at_emission) % 5 == 0:
                        held += service.results(name)
                held += service.results(name)
        assert len(held) > 5
        assert [crc_bytes(r.delta) for r in held] == at_emission
        assert SSBuf.concat([r.delta for r in held if len(r.delta)]).compact() == batch

    def test_intermediate_runtimes_live_as_long_as_the_session(self, counts):
        """``rsi``: its intermediates tick on runtimes the session made
        once; their per-call sites are rewound each tick, not rebuilt."""
        app = get_application("rsi")
        program, streams = app.program(), app.streams(2_000, seed=6)
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(program)
            compiled.promote()
            session = engine.open_session(compiled, sources_for_streams(streams, events_per_poll=100))
            assert len(compiled.kernels) > 1
            for _ in range(3):
                session.tick()
            runtimes = dict(session._runtimes)
            sites = {name: dict(rt.sites) for name, rt in runtimes.items()}
            assert set(runtimes) == {kernel.name for kernel in compiled.kernels}
            before = dict(counts)
            for _ in range(10):
                session.tick()
            assert session._runtimes == runtimes
            assert {name: dict(rt.sites) for name, rt in runtimes.items()} == sites
            assert all(rt.bound is not None for rt in runtimes.values())
            spent = {key: counts[key] - before[key] for key in counts}
            assert (spent["ReduceSite"], spent["PrefixRangeIndex"], spent["KernelRuntime"]) == (0, 0, 0)
            session.run_to_exhaustion()
            assert session.result().output == engine.run(program, streams).output

    def test_a_reallocated_column_is_rebound_and_a_compacted_one_reread(self, counts, monkeypatch):
        """A tick whose ingest reallocates the column rebinds its three
        arrays before the C call; ticks whose ingest compacts it in place
        rebind nothing and read the moved rows.  The tick-concat equals the
        one-shot run byte for byte."""
        events = {"grown": 0, "compacted": 0}
        grow = GrowableArray.grow

        def spying(self, m):
            data, dead = self._data, self._lo
            out = grow(self, m)
            if self._data is not data:
                events["grown"] += 1
            elif dead and self._lo == 0:
                events["compacted"] += 1
            return out

        monkeypatch.setattr(GrowableArray, "grow", spying)
        program = STEADY["trend"][0]()
        streams, per_tick = get_application("trading").streams(12_000, seed=6), 100
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile(program)
            compiled.promote()
            session = engine.open_session(compiled, sources_for_streams(streams))
            column = session._columns["stock"]
            seen = []
            for budget in [per_tick] * 12 + [2_000] + [per_tick] * 90:
                if session.exhausted:
                    break
                before = (dict(events), counts["from_buffer"], column._times.gen)
                session.tick(max_events=budget)
                seen.append((events["grown"] - before[0]["grown"], events["compacted"] - before[0]["compacted"],
                             counts["from_buffer"] - before[1], column._times.gen != before[2]))
            session.close()
            assert session.result().output == batch
        reallocated = [s for s in seen[1:] if s[3]]
        compacted = [s for s in seen[1:] if s[1] and not s[3]]
        assert reallocated and compacted, seen
        assert all(s[2] >= 3 for s in reallocated)  # the column's times, values and validity
        assert any(s[2] == 0 for s in compacted)


# ---------------------------------------------------------------------- #
# the prune schedule
# ---------------------------------------------------------------------- #
def reference_schedule(times, start, ticks, lookback):
    """The per-tick rule, by ``searchsorted`` over the whole timeline: after
    a tick that emitted through ``w`` with its input ingested through
    ``through``, the floor is ``min(w - lookback, through)``; a column past
    its anchor drops every snapshot at or before it, and a kept site drops
    (and rebases) them once they are at least ``PRUNE_MIN`` and half of
    what it holds.  ``ticks`` is ``(tick, w, through)``; returns the
    ``(tick, rows dropped)`` of the column and of the site."""
    columns, sites = [], []
    anchor, column_front, site_front = start, 0, 0
    for tick, w, through in ticks:
        floor = min(w - lookback, through)
        below = int(np.searchsorted(times, floor, side="right"))
        ingested = int(np.searchsorted(times, through, side="right"))
        if floor > anchor:
            if below > column_front:
                columns.append((tick, below - column_front))
            anchor, column_front = floor, below
        k = below - site_front
        if k >= PRUNE_MIN and 2 * k >= ingested - site_front:
            sites.append((tick, k))
            site_front = below
    return columns, sites


@st.composite
def schedules(draw):
    n = draw(st.integers(600, 2_500))
    window = draw(st.sampled_from([5.0, 20.0, 60.0, 150.0]))
    budgets = draw(st.lists(st.integers(1, 400), min_size=1, max_size=12))
    promote_at = draw(st.integers(0, 40))
    return n, window, budgets, promote_at


@settings(max_examples=12, deadline=None)
@given(case=schedules())
def test_columns_and_kept_sites_prune_on_the_reference_schedule(case):
    """Random tick schedules and windows, on NumPy and (where there is a
    toolchain) promoted at a random tick: every column drop and every kept
    site's drop-and-rebase happens at the tick, and by the rows, the
    reference rule says — whichever tier pruned — and the output is the
    one-shot run's."""
    n, window, budgets, promote_at = case
    values = np.cumsum(np.sin(np.arange(n) * 0.37)) + 50.0
    stream = EventStream.from_samples(list(values), period=1.0, name="x")
    program = source("x").window(window, 1.0).aggregate(MEAN).to_program()
    observed = {"column": [], "site": []}
    tick_no = [0]
    column_prune, site_drop = _IngestColumn.prune, PrefixRangeIndex.drop

    def spy_column(self, t):
        dropped = column_prune(self, t)
        if dropped:
            observed["column"].append((tick_no[0], dropped))
        return dropped

    def spy_site(self, k):
        observed["site"].append((tick_no[0], k))
        site_drop(self, k)

    tiers = [False, True] if native.native_available() else [False]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_IngestColumn, "prune", spy_column)
        patch.setattr(PrefixRangeIndex, "drop", spy_site)
        for promote in tiers:
            run_schedule(program, stream, budgets, promote and promote_at, observed, tick_no)


def run_schedule(program, stream, budgets, promote_at, observed, tick_no):
    """One session over ``stream`` ticked by ``budgets`` (promoted at tick
    ``promote_at`` unless it is ``False``), checked against the reference."""
    buf = ssbuf_from_stream(stream)
    observed["column"], observed["site"] = [], []
    with TiltEngine(workers=1, codegen_tier=NUMPY_TIER if promote_at is False else "native") as engine:
        batch = engine.run(program, {"x": stream}).output
        compiled = engine.compile(program)
        session = engine.open_session(compiled, sources_for_streams({"x": stream}))
        ticks = []
        tick_no[0] = 0
        while not session.exhausted:
            if tick_no[0] == promote_at:
                compiled.promote()
            result = session.tick(max_events=budgets[tick_no[0] % len(budgets)])
            column = session._columns["x"]
            if result.emitted:
                ticks.append((tick_no[0], result.t_end, column.prev_end))
            tick_no[0] += 1
        want = reference_schedule(buf.times, buf.start_time, ticks, session.boundary.max_lookback)
        assert (observed["column"], observed["site"]) == want, (promote_at, ticks)
        session.close()
        assert session.result().output == batch
