"""Continuous streaming sessions: micro-batch execution of TiLT queries.

``TiltEngine.run`` is one-shot: it partitions a *finite* input buffer and
returns.  A :class:`StreamingSession` is the long-running execution path: it
compiles the query once and then advances it incrementally over unbounded
sources in micro-batch *ticks*.  Each tick

1. polls every source for newly arrived events — one
   :class:`~repro.core.runtime.stream.ColumnChunk` per source, no per-event
   objects — and appends them to the per-input snapshot buffers through
   :func:`~repro.core.runtime.ssbuf.change_points`, the builder
   :meth:`SSBuf.from_events` uses;
2. computes the new output **watermark** ``w`` — the time up to which the
   output is fully determined by the ingested input;
3. evaluates only the new output interval ``(t_emitted, w]`` — in-process on
   the session's kernel runtimes (one C call once promoted), or partitioned
   and dispatched like a batch run (see :attr:`StreamingSession.plan`);
4. emits the resulting output *delta* and prunes the retained input tail.

Correctness contract (tick concatenation ≡ one-shot batch): the watermark
trails the sources' completeness horizon by the lookahead margin (output
over ``(Ts, Te]`` reads input up to ``Te + lookahead``), snapped *down* to
the query's coarsest precision so tick edges, like batch partition edges,
never fall inside a precision interval; and the carry-over keeps the
lookback margin (every later interval starts at ``w`` or after and reads
back to ``w - max_lookback``).  Within those invariants every slice a kernel
reads is byte-identical to the one the one-shot run reads for the same
output interval, so concatenating the deltas and merging adjacent equal
snapshots (:meth:`SSBuf.compact` — tick edges carry the value the output
already holds) reproduces the batch output exactly, as
``tests/test_streaming_session.py`` asserts byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import ExecutionError, OverlappingEventsError, QueryBuildError
from ...metrics.streaming import SessionMetrics
from ..codegen.compiled import INTERPRETED_TIER, CompiledQuery
from ..codegen.runtime_support import KernelRuntime, reduce_site_plan
from ..codegen.native import NATIVE_TIER, TICK_ENTRY
from ..ir.nodes import TiltProgram
from .engine import QueryResult, TiltEngine
from .growable import GrowableArray
from .partition import snap_down
from .ssbuf import SSBuf, _ssbuf_from_arrays, change_points
from .stream import ColumnChunk

__all__ = ["TickResult", "StreamingSession"]

_INF = float("inf")
#: why a compiled query ticks in-process (until its output kernel is promoted)
_COMPILED_OUTPUT = "compiled output kernel"


class _IngestColumn:
    """Incremental change-point accumulation for one program input.

    Each source chunk is laid out once by
    :func:`~repro.core.runtime.ssbuf.change_points` — the builder behind
    ``SSBuf.from_events`` — and appended to every column the source feeds
    (:func:`_append_chunk`), so the column materializes, at any point,
    exactly the prefix of the buffer the batch ingest would have built.
    ``anchor`` is that buffer's ``start_time``; pruning advances it as
    ``SSBuf.slice`` clamps.  Storage is a trio of :class:`GrowableArray`
    (which a promoted kernel binds by pointer): append, materialize (a
    zero-copy view) and prune are O(new events) per tick.
    """

    __slots__ = (
        "name",
        "field",
        "anchor",
        "prev_end",
        "_times",
        "_values",
        "_valid",
        "_cache",
    )

    def __init__(self, name: str, field: Optional[str] = None):
        self.name = name
        self.field = field
        self.anchor: Optional[float] = None
        self.prev_end: Optional[float] = None
        self._times = GrowableArray()
        self._values = GrowableArray()
        self._valid = GrowableArray(dtype=bool)
        self._cache: Optional[SSBuf] = None

    @property
    def started(self) -> bool:
        return self.prev_end is not None

    def append(self, times: np.ndarray, values: np.ndarray, valid: np.ndarray) -> None:
        """Append change points ending the ingested data at ``times[-1]``."""
        self._times.append(times)
        self._values.append(values)
        self._valid.append(valid)
        self.prev_end = float(times[-1])
        self._cache = None

    def materialize(self) -> SSBuf:
        """The retained tail of this input as a snapshot buffer.

        A validated-by-construction view over the live window of the
        column's arrays — no copy.  The view stays valid until the next
        :meth:`append`, which may compact the arrays in place (and drops
        the cache).
        """
        if self._cache is None:
            anchor = 0.0 if self.anchor is None else float(self.anchor)
            if not len(self._times):
                self._cache = SSBuf.empty(anchor)
            else:
                self._cache = _ssbuf_from_arrays(
                    self._times.view, self._values.view, self._valid.view, anchor
                )
        return self._cache

    def prune(self, t: float) -> int:
        """Drop snapshots at or before ``t`` (they can never be read again).

        Matches ``SSBuf.slice`` semantics: a snapshot spanning ``t`` is kept
        whole and the buffer's ``start_time`` advances to ``t`` — any later
        ``slice(in_lo, in_hi)`` with ``in_lo >= t`` is byte-identical to the
        same slice of the unpruned buffer.  The dead head is only skipped
        (compacted by a later append), keeping per-tick pruning O(log
        retained).
        Returns the number of snapshots newly retired (for the pruned-input
        accounting in the metrics registry).
        """
        if t <= (self.anchor if self.anchor is not None else 0.0):
            return 0
        pruned = int(self._times.view.searchsorted(t, side="right"))
        for arr in (self._times, self._values, self._valid):
            arr.drop_prefix(pruned)
        self.anchor = t
        self._cache = None
        return pruned

    def retained_snapshots(self) -> int:
        return len(self._times)


def _append_chunk(cols: List[_IngestColumn], chunk: ColumnChunk) -> None:
    """Append one source chunk to every column that source feeds.

    The columns of one source have seen the same events, so the overlap
    check and the gap layout are computed once, not once per field.
    """
    head = cols[0]
    first_start = float(chunk.starts[0])
    # auto-derived start, matching from_events: the first snapshot
    # interval is empty, values before it are φ
    prev_end = head.prev_end if head.started else first_start
    try:
        times, valid, values = change_points(
            chunk.starts, chunk.ends, [chunk.column(col.field) for col in cols], prev_end
        )
    except OverlappingEventsError as exc:
        raise OverlappingEventsError(
            f"input {head.name!r}: {exc}; sessions require in-order, non-overlapping arrival"
        ) from None
    for col, vals in zip(cols, values):
        if not col.started:
            col.anchor = first_start
        col.append(times, vals, valid)


@dataclass
class TickResult:
    """Output of one micro-batch tick.

    ``delta`` holds the output snapshots produced for ``(t_start, t_end]``;
    a tick that could not advance the watermark (not enough input arrived)
    emits an empty delta with ``t_start == t_end``.
    """

    index: int
    t_start: float
    t_end: float
    delta: SSBuf
    events_ingested: int
    num_partitions: int
    elapsed_seconds: float

    @property
    def emitted(self) -> bool:
        return self.t_end > self.t_start

    @property
    def watermark(self) -> float:
        """Output is complete up to this time after the tick."""
        return self.t_end

    @property
    def output_snapshots(self) -> int:
        return len(self.delta)


class StreamingSession:
    """A long-running, incrementally advanced TiLT query.

    Create sessions through :meth:`TiltEngine.open_session`, which shares
    the compiled kernels (per-program compile cache) and the worker pool
    across all sessions of the engine.

    Parameters
    ----------
    engine:
        The owning engine; supplies workers, partitioning policy and the
        shared executor.
    query:
        A :class:`TiltProgram` or pre-compiled :class:`CompiledQuery`.
    sources:
        Pull sources covering every program input (see
        :mod:`repro.datagen.sources` for the protocol).  A scalar source
        named ``s`` feeds input ``s``; a structured source named ``s``
        feeds every ``s.<field>`` input.
    max_events_per_tick:
        Upper bound on events pulled from each source per tick (a bounded
        ingest buffer: anything beyond stays queued in the source —
        backpressure by not polling).  ``None`` defers to each source's own
        arrival rate.
    t_start:
        Optional explicit output start time (defaults to the earliest
        ingested event start, matching ``TiltEngine.run``).
    retain_output:
        Keep every emitted delta so :meth:`result` can assemble the full
        output buffer.  Turn off for indefinitely running sessions, where
        only the per-tick deltas and live metrics are wanted.
    incremental:
        Leave at ``None``: the session then *resolves* its tick path once
        and reports the result as :attr:`plan`.  Every compiled query ticks
        **in-process**: one evaluation of ``(t_emitted, w]`` per tick, on
        one runtime per kernel whose kept reduce sites persist across ticks
        where that pays (:func:`~repro.core.codegen.runtime_support.reduce_site_plan`), whichever
        tier serves the query — ticks are charged to the NumPy twins, so a
        hot session gets its query promoted, and from then on a tick is one
        call of each kernel's C entry over the same sites, with the bytes
        NumPy would write (``docs/architecture.md`` §5, *The C entry*).  An
        interpreted output kernel **partitions and dispatches** each tick
        like a one-shot run.  ``False`` / ``True`` is the oracle switch the
        differential tests and benchmark probes use to force
        partition-and-dispatch / in-process ticks with the same resolved
        site plan; an interpreted output kernel ignores it.
    trace_attrs:
        Attributes stamped onto every ``session.tick`` span this session
        emits (e.g. ``{"tenant": "alice"}``).  Ignored — at zero cost —
        when the engine's tracer is disabled.
    """

    def __init__(
        self,
        engine: TiltEngine,
        query: Union[TiltProgram, CompiledQuery],
        sources: Sequence[object],
        *,
        max_events_per_tick: Optional[int] = None,
        t_start: Optional[float] = None,
        retain_output: bool = True,
        incremental: Optional[bool] = None,
        trace_attrs: Optional[Dict[str, object]] = None,
    ):
        self._engine = engine
        self._tracer = engine.tracer
        self._trace_attrs = dict(trace_attrs) if trace_attrs else {}
        compiled = engine._prepare(query)
        program = compiled.program
        self._program = program
        self._compiled = compiled
        self._output = compiled.kernel_named(compiled.output)
        in_process, reason = self._resolve_tick_path(compiled, incremental)
        #: one runtime per kernel (in-process tick path only); the output
        #: kernel's (``_state``) keeps its planned sites and compacts
        self._runtimes: Dict[str, KernelRuntime] = {}
        self._state: Optional[KernelRuntime] = None
        if in_process:
            self._runtimes = {kernel.name: KernelRuntime(kernel) for kernel in compiled.kernels}
            self._state = KernelRuntime(self._output, program.inputs, compact=True)
            self._runtimes[compiled.output] = self._state
        blanket = "intermediate kernel: rebuilt each tick" if in_process else "partitioned tick path"
        sites: List[Dict[str, object]] = []
        for kernel in compiled.kernels:
            own = in_process and kernel is self._output
            sites += self._state.plan if own else reduce_site_plan(kernel.spec, (), blanket=blanket)
        #: what was resolved here, once (see :attr:`plan`)
        self._plan: Dict[str, object] = {
            "tick_path": "in-process" if in_process else "partition+dispatch",
            "reason": reason,
            "dispatch": (
                {"backend": "in-process", "reason": "ticks bypass the worker pool"}
                if in_process
                else engine.dispatch_plan(compiled)
            ),
            "sites": sites,
        }
        self._pins: List[float] = []
        self._boundary = compiled.boundary
        self._lookback = compiled.boundary.max_lookback
        self._lookahead = compiled.boundary.max_lookahead
        self._alignment = max((te.tdom.precision for te in program.exprs), default=0.0)
        self._max_events_per_tick = max_events_per_tick
        self._retain_output = retain_output

        self._sources = list(sources)
        if not self._sources:
            raise QueryBuildError("a streaming session needs at least one source")
        self._columns: Dict[str, _IngestColumn] = {}
        self._source_columns: List[Tuple[object, List[_IngestColumn]]] = []
        for src in self._sources:
            cols = []
            for input_name in program.inputs:
                field = None
                if input_name == src.name:
                    field = None
                elif input_name.startswith(src.name + "."):
                    field = input_name.split(".", 1)[1]
                else:
                    continue
                if input_name in self._columns:
                    raise QueryBuildError(
                        f"input {input_name!r} is fed by more than one source"
                    )
                col = _IngestColumn(input_name, field)
                self._columns[input_name] = col
                cols.append(col)
            if not cols:
                raise QueryBuildError(
                    f"source {src.name!r} matches no input of the program "
                    f"(inputs: {list(program.inputs)})"
                )
            self._source_columns.append((src, cols))
        missing = [n for n in program.inputs if n not in self._columns]
        if missing:
            raise ExecutionError(f"no source covers input streams: {missing}")
        if self._state is not None:  # bound by pointer once the kernel is on C
            self._state.columns = self._columns

        self._user_t_start = t_start
        self._t_emit: Optional[float] = None
        self._emitted_any = False
        self._ticks = 0
        self._closed = False
        self._deltas: List[SSBuf] = []
        self._total_partitions = 0
        self._total_events = 0

        self.metrics = SessionMetrics(engine.registry)
        self._m_pruned = engine.registry.counter(
            "repro_pruned_snapshots_total",
            "Carry-over input snapshots retired by watermark pruning",
        )
        self._m_late = engine.registry.counter(
            "repro_late_events_total",
            "Ingest batches rejected for out-of-order/overlapping arrival",
        )
        # a *hit* is a tick evaluated against state a previous tick left
        # behind; a *miss* starts from empty state (first tick, rewind)
        self._m_state_hits = engine.registry.counter(
            "repro_incremental_state_hits_total",
            "Ticks served from persistent reduce-site state",
        )
        self._m_state_misses = engine.registry.counter(
            "repro_incremental_state_misses_total",
            "Ticks that started from empty reduce-site state",
        )
        self._state_warm = False
        engine._register_session(self)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def program(self) -> TiltProgram:
        return self._program

    @property
    def compiled(self) -> CompiledQuery:
        """The compiled query this session executes."""
        return self._compiled

    @property
    def boundary(self):
        """Resolved boundary margins governing watermark and carry-over."""
        return self._boundary

    @property
    def watermark(self) -> float:
        """Time through which output has been emitted so far."""
        return -_INF if self._t_emit is None else self._t_emit

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ticks(self) -> int:
        return self._ticks

    @property
    def plan(self) -> Dict[str, object]:
        """The execution plan: tick path and why; where a partitioned tick
        dispatches and why; per reduce site whether its state persists
        across ticks and why — all resolved at construction — and, read
        live, ``CompiledQuery.kernel_plan()``: per kernel the tier
        requested, the tier active now (which also says what feeds the
        kernel's sites: its C entry ``tilt_tick`` once promoted), its
        promotion state and any fallback reason.  An in-process session
        whose output kernel has been promoted says so in ``reason`` as
        well."""
        plan = {**self._plan, "kernels": self._compiled.kernel_plan()}
        output = self._compiled.kernel_named(self._compiled.output)
        if plan["reason"] == _COMPILED_OUTPUT and output.active_tier == NATIVE_TIER:
            plan["reason"] = f"promoted output kernel: ticks on {TICK_ENTRY}"
        return plan

    @staticmethod
    def _resolve_tick_path(
        compiled: CompiledQuery, incremental: Optional[bool]
    ) -> Tuple[bool, str]:
        """``(in-process?, reason)`` — see the ``incremental`` parameter.
        Reads the *requested* tier only: the active one changes over time."""
        if compiled.kernel_named(compiled.output).tier == INTERPRETED_TIER:
            return False, "interpreted output kernel"
        if incremental is not None:
            return bool(incremental), "explicit override"
        return True, _COMPILED_OUTPUT

    @property
    def incremental(self) -> bool:
        """True when this session ticks in-process against persistent
        reduce-site state (``plan["tick_path"] == "in-process"``)."""
        return self._state is not None

    def retained_snapshots(self) -> int:
        """Total input snapshots currently held as carry-over state."""
        return sum(col.retained_snapshots() for col in self._columns.values())

    def state_snapshots(self) -> int:
        """Snapshots retained inside persistent reduce-site state (0 on the
        partition-and-dispatch path)."""
        return 0 if self._state is None else self._state.retained()

    @property
    def exhausted(self) -> bool:
        """True when every source reports exhaustion (finite sources only)."""
        return all(getattr(src, "exhausted", False) for src, _ in self._source_columns)

    # ------------------------------------------------------------------ #
    # the micro-batch loop
    # ------------------------------------------------------------------ #
    def tick(self, max_events: Optional[int] = None) -> TickResult:
        """Ingest newly arrived events and emit the next output delta."""
        if self._closed:
            raise ExecutionError("session is closed")
        with self._tracer.span(
            "session.tick", tick=self._ticks, **self._trace_attrs
        ) as sp:
            started = time.perf_counter()
            ingested = self._ingest(max_events)
            horizon = min(src.horizon for src, _ in self._source_columns)
            t_lo, t_hi, delta, partitions = self._emit(horizon, forced_end=None)
            result = self._finish_tick(started, ingested, t_lo, t_hi, delta, partitions)
            sp.set(
                ingested=ingested,
                emitted=result.emitted,
                output_snapshots=len(delta),
                watermark=t_hi,
            )
            return result

    def close(self, *, drain: bool = True) -> TickResult:
        """Flush the remaining output and end the session.

        With ``drain=True`` (the default) any events the sources still hold
        are ingested first — but only when every source is *finite*: an
        unbounded source can never be drained, so sessions over one skip
        straight to the flush.  The final flush extends to the last ingested
        event — the lookahead margin is waived because no further input can
        arrive, exactly as a batch run's ``t_end`` is the end of its
        (complete) input.
        """
        if self._closed:
            raise ExecutionError("session is already closed")
        with self._tracer.span(
            "session.tick", tick=self._ticks, closing=True, **self._trace_attrs
        ) as sp:
            started = time.perf_counter()
            ingested = 0
            all_finite = all(
                getattr(src, "finite", True) for src, _ in self._source_columns
            )
            if drain and all_finite:
                while not self.exhausted:
                    polled = self._ingest(None)
                    ingested += polled
                    if polled == 0:
                        break
            ends = [c.prev_end for c in self._columns.values() if c.started]
            if not ends:
                self._closed = True
                return self._finish_tick(
                    started, ingested, 0.0, 0.0, SSBuf.empty(0.0), 0
                )
            t_final = max(ends)
            t_lo, t_hi, delta, partitions = self._emit(_INF, forced_end=t_final)
            self._closed = True
            result = self._finish_tick(started, ingested, t_lo, t_hi, delta, partitions)
            sp.set(ingested=ingested, emitted=result.emitted, watermark=t_hi)
            return result

    def abort(self) -> None:
        """Close immediately, skipping the final output flush.

        Unlike :meth:`close` this runs no query work at all, which makes it
        safe to call during teardown (``TiltEngine.close`` aborts any
        sessions still open before shutting down the worker pool).
        Idempotent: aborting a closed session is a no-op.
        """
        self._closed = True

    # ------------------------------------------------------------------ #
    # checkpoint / rewind
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> float:
        """Pin the current watermark so :meth:`rewind` can replay from it.

        While a pin is active, carry-over pruning retains input back to
        ``pin - max_lookback`` (see :meth:`_prune_floor`) — without the pin
        that input would be discarded as dead and a later rewind could not
        reproduce the batch-identical output.  Returns the pinned watermark,
        which doubles as the rewind token.  Pins stack: checkpoint twice,
        release once, and the other pin still holds.
        """
        if self._closed:
            raise ExecutionError("session is closed")
        if self._t_emit is None:
            raise ExecutionError("nothing emitted yet; there is no watermark to pin")
        token = float(self._t_emit)
        self._pins.append(token)
        return token

    def release(self, token: float) -> None:
        """Drop one checkpoint pin, letting pruning advance past it again."""
        try:
            self._pins.remove(token)
        except ValueError:
            raise ExecutionError(f"no active checkpoint at watermark {token:g}")

    def rewind(self, token: float) -> None:
        """Roll the session back to a pinned watermark and replay from there.

        Emitted deltas beyond ``token`` are discarded (a delta straddling it
        is clipped; the clip duplicates the value the replayed output holds
        at ``token`` and is canonically removed by ``compact``), the
        watermark drops to ``token``, and all persistent reduce-site state
        is cleared so the next tick re-ingests from the retained
        carry-over.  The pin stays active until released.
        """
        if self._closed:
            raise ExecutionError("session is closed")
        if token not in self._pins:
            raise ExecutionError(f"no active checkpoint at watermark {token:g}")
        kept: List[SSBuf] = []
        for d in self._deltas:
            if d.start_time >= token:
                continue
            if d.end_time <= token:
                kept.append(d)
                continue
            clipped = d.slice(d.start_time, token)
            if len(clipped):
                kept.append(clipped)
        self._deltas = kept
        self._t_emit = token
        if self._state is not None:
            self._state.clear()
            self._state_warm = False

    def run_to_exhaustion(self, max_ticks: Optional[int] = None) -> List[TickResult]:
        """Tick until every (finite) source is exhausted, then close.

        When the ``max_ticks`` budget runs out first (or a source is
        unbounded), the close flushes what was ingested without trying to
        drain the rest.
        """
        results: List[TickResult] = []
        while not self.exhausted:
            if max_ticks is not None and len(results) >= max_ticks:
                break
            results.append(self.tick())
        results.append(self.close(drain=self.exhausted))
        return results

    def result(self) -> QueryResult:
        """Cumulative result over everything emitted so far.

        Requires ``retain_output=True``.  The assembled buffer is
        byte-identical to what one ``TiltEngine.run`` over the full ingested
        input would have produced.
        """
        if not self._retain_output:
            raise ExecutionError("session was opened with retain_output=False")
        pieces = [d for d in self._deltas if len(d)]
        start = self._session_start() if self._t_emit is None else None
        if pieces:
            output = SSBuf.concat(pieces).compact()
        else:
            output = SSBuf.empty(self._t_emit if self._t_emit is not None else (start or 0.0))
        return QueryResult(
            output=output,
            elapsed_seconds=self.metrics.busy_seconds,
            num_partitions=self._total_partitions,
            workers=self._engine.workers,
            input_events=self._total_events,
            boundary=self._boundary,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ingest(self, max_events: Optional[int]) -> int:
        budget = max_events if max_events is not None else self._max_events_per_tick
        ingested = 0
        with self._tracer.span("tick.ingest") as sp:
            for src, cols in self._source_columns:
                chunk = ColumnChunk.coerce(src.poll(budget))
                if not len(chunk):
                    continue
                try:
                    _append_chunk(cols, chunk)
                except OverlappingEventsError:
                    self._m_late.inc(len(chunk))
                    raise
                ingested += len(chunk)
            self._total_events += ingested
            sp.set(events=ingested)
        return ingested

    def _session_start(self) -> Optional[float]:
        if self._user_t_start is not None:
            return float(self._user_t_start)
        starts = [c.anchor for c in self._columns.values() if c.started]
        return min(starts) if starts else None

    def _emit(
        self, horizon: float, forced_end: Optional[float]
    ) -> Tuple[float, float, SSBuf, int]:
        # (re-)derive the output start until the first delta is emitted: a
        # late-starting input may still lower it (its events are guaranteed
        # to arrive before any emittable watermark reaches them).
        if not self._emitted_any:
            start = self._session_start()
            if start is None:
                return (0.0, 0.0, SSBuf.empty(0.0), 0)
            self._t_emit = start
        assert self._t_emit is not None
        if forced_end is not None:
            w = forced_end
        else:
            w = horizon - self._lookahead
            if w < _INF and self._alignment > 0:
                w = snap_down(w, self._alignment)
        if not (w > self._t_emit) or w == _INF:
            return (self._t_emit, self._t_emit, SSBuf.empty(self._t_emit), 0)

        with self._tracer.span("tick.emit", t_start=self._t_emit, t_end=w):
            rt = self._state
            if rt is not None:
                # in-process path: one evaluation of (t_emit, w] against
                # persistent reduce-site state; once promoted, one C call
                # over the runtime's struct, which also prunes kept sites
                with self._tracer.span("emit.incremental") as sp:
                    (self._m_state_hits if self._state_warm else self._m_state_misses).inc()
                    self._state_warm = True
                    rt.prune_to = self._prune_floor(w)
                    c_kernel = self._output._native
                    if c_kernel is not None and self._compiled.fused:
                        # its every input is a column the struct binds
                        piece = c_kernel.tick(None, self._t_emit, w, rt)
                    else:
                        inputs = {name: col.materialize() for name, col in self._columns.items()}
                        piece = self._compiled.run(inputs, self._t_emit, w, self._runtimes)
                    if self._tracer.enabled:
                        sp.set(state_snapshots=rt.retained())
                delta = piece.compact()
                if len(delta):  # on C, a view of lanes the next tick overwrites
                    delta = _ssbuf_from_arrays(
                        delta.times.copy(), delta.values.copy(), delta.valid.copy(), delta.start_time
                    )
                num_partitions = 1
            else:
                inputs = {name: col.materialize() for name, col in self._columns.items()}
                with self._tracer.span("emit.plan") as sp:
                    partitions = self._engine._partition(
                        inputs, self._boundary, self._t_emit, w, self._alignment
                    )
                    sp.set(partitions=len(partitions))
                # single dispatch point shared with TiltEngine.run
                pieces = self._engine._map_partitions(self._compiled, partitions)
                delta = SSBuf.concat(pieces).compact() if pieces else SSBuf.empty(self._t_emit)
                num_partitions = len(partitions)
            t_lo = self._t_emit
            # retain the delta *before* advancing the watermark: a concurrent
            # reader of result() then sees at worst a one-tick-stale output,
            # never an output stamped complete through a watermark whose
            # delta is missing.
            if self._retain_output and len(delta):
                self._deltas.append(delta)
            self._t_emit = w
            self._emitted_any = True
            # carry-over: every future partition reads input no earlier than
            # (new watermark - max lookback); older snapshots are dead —
            # unless a checkpoint pin or an incremental site's ingest horizon
            # still needs them (see _prune_floor).
            with self._tracer.span("emit.prune") as sp:
                prune_to = self._prune_floor(w) if rt is None else rt.prune()
                pruned = 0
                for col in self._columns.values():
                    pruned += col.prune(prune_to)
                if pruned:
                    self._m_pruned.inc(pruned)
                sp.set(pruned=pruned, floor=prune_to)
        return (t_lo, w, delta, num_partitions)

    def _prune_floor(self, w: float) -> float:
        """Oldest input time the carry-over must retain after emitting
        ``w``: ``w - max_lookback``, held back by an active checkpoint pin
        (a :meth:`rewind` may re-emit from it).  Kept reduce sites hold it
        back further — input past a site's ingest horizon is not consumed
        yet — a minimum the runtime takes after the tick's ingest
        (``KernelRuntime.prune``)."""
        floor = w
        if self._pins:
            floor = min(floor, min(self._pins))
        return floor - self._lookback

    def _finish_tick(
        self,
        started: float,
        ingested: int,
        t_lo: float,
        t_hi: float,
        delta: SSBuf,
        partitions: int,
    ) -> TickResult:
        elapsed = time.perf_counter() - started
        self._ticks += 1
        self._total_partitions += partitions
        result = TickResult(
            index=self._ticks - 1,
            t_start=t_lo,
            t_end=t_hi,
            delta=delta,
            events_ingested=ingested,
            num_partitions=partitions,
            elapsed_seconds=elapsed,
        )
        self.metrics.record_tick(
            input_events=ingested,
            output_snapshots=len(delta),
            seconds=elapsed,
            emitted=result.emitted,
        )
        return result

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close(drain=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"watermark={self.watermark:g}"
        return (
            f"StreamingSession({self._program.output!r}, ticks={self._ticks}, {state})"
        )
