"""The TiLT engine: end-to-end compilation and parallel execution.

``TiltEngine`` ties the whole pipeline of Figure 3 together:

1. the query (a :class:`~repro.core.ir.nodes.TiltProgram`, usually produced
   by the frontend translator) is validated and optimized;
2. boundary conditions are resolved;
3. one kernel per remaining temporal expression is generated and
   instantiated on its NumPy twin; on the default ``native`` tier a query
   that has run long enough to pay for it is promoted to its C kernels by
   a background build (``mode='interpreted'`` skips the optimizer and
   instantiates every kernel on the reference-interpreter tier — the same
   artifact, evaluated by the oracle);
4. at run time the input streams are converted to snapshot buffers,
   partitioned according to the boundary conditions, executed by a worker
   pool, and the per-partition outputs are concatenated back into a single
   snapshot buffer / event stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ...errors import ExecutionError, QueryBuildError
from ...obs.registry import MetricsRegistry
from ...obs.trace import make_tracer
from ..codegen import native
from ..codegen.compiled import INTERPRETED_TIER, CompiledKernel, CompiledQuery, lower_program
from ..ir.nodes import TiltProgram
from ..lineage.boundary import BoundarySpec
from .executor import (  # noqa: F401 - Executor re-exported
    EXECUTOR_KINDS,
    Executor,
    default_kind,
    make_executor,
    run_compiled_partition,
)
from .partition import Partition, partition_inputs
from .ssbuf import SSBuf, ssbufs_from_stream
from .stream import EventStream

__all__ = ["QueryResult", "TiltEngine"]

StreamLike = Union[EventStream, SSBuf]

_LOG = logging.getLogger("repro.engine")


@dataclass
class QueryResult:
    """Output of a query run plus execution statistics."""

    output: SSBuf
    elapsed_seconds: float
    num_partitions: int
    workers: int
    input_events: int
    boundary: Optional[BoundarySpec] = None

    @property
    def throughput(self) -> float:
        """Input events processed per second."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.input_events / self.elapsed_seconds

    def to_stream(self, name: str = "output") -> EventStream:
        """Output as an event stream (φ intervals dropped, adjacent equal
        snapshots merged)."""
        return self.output.to_stream(name)


class TiltEngine:
    """Compile and execute TiLT queries.

    Every execution setting below is resolved once, here, into a read-only
    attribute; nothing downstream (sessions, the service, the environment)
    overrides it.  Per-query and per-kernel downgrades are counted and
    reported by :meth:`dispatch_plan` / ``CompiledQuery.kernel_plan``.

    Parameters
    ----------
    workers:
        Number of parallel workers (1 = serial execution).
    partition_interval:
        Fixed output-interval size per partition.  When omitted, the output
        range is split into ``partitions_per_worker * workers`` equal
        partitions.
    partitions_per_worker:
        Partitions created per worker when ``partition_interval`` is not set.
    mode:
        ``'compiled'`` (default) uses the code-generating backend;
        ``'interpreted'`` is the test oracle: the unoptimized program with
        every kernel on the reference-interpreter tier (the "UnOpt"
        execution model).  It ignores ``optimize`` and ``codegen_tier``.
    executor_kind:
        Worker-pool backend: ``'serial'``, ``'thread'`` or ``'process'``.
        ``None`` (default) derives it from ``workers`` — serial for one
        worker, a thread pool otherwise.  ``'process'`` executes partitions
        in a pool of worker processes, sidestepping the GIL entirely; a
        query whose artifacts cannot be pickled (lambda-based custom
        aggregates) runs on an in-process fallback pool instead, counted in
        ``repro_dispatch_fallbacks_total`` and logged once per query.
    optimize / enable_fusion:
        Control the optimizer pipeline (see
        :func:`repro.core.codegen.compile_program`).
    codegen_tier:
        Kernel lowering tier.  ``"native"`` (default): every query starts on
        its NumPy kernels — compiling costs what it costs on ``"numpy"``,
        no toolchain is probed — and is promoted to single-pass compiled-C
        kernels (:mod:`repro.core.codegen.native`) by the process's builder
        thread once its kernels have cost more wall time than building
        them is expected to, or at compile time when the disk cache already
        holds them; a kernel that cannot be promoted (construct not
        lowerable, cffi or the C compiler missing, build failure, untrusted
        cache directory) stays on NumPy — counted, with the reason in
        ``CompiledQuery.kernel_plan()``.  ``CompiledQuery.promote()`` builds
        on the calling thread instead.  ``"numpy"``: never promote (the
        reference vectorized tier, bit-identical by contract).
    compile_cache_size:
        Bound on the per-engine compile cache (LRU eviction).  A long-lived
        engine serving many distinct programs — the multi-tenant service —
        releases old compilations instead of holding every program ever
        compiled forever.
    trace:
        Span tracing for every execution layer of this engine (see
        :mod:`repro.obs.trace`).  ``True`` creates a fresh
        :class:`~repro.obs.trace.Tracer`; an existing tracer instance is
        shared (how a service traces several engines into one buffer).
        Disabled tracing (the default) is a strict no-op — instrumentation
        points call into the shared null tracer, which allocates and
        records nothing — and enabled tracing never changes query output.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` this engine (and
        its sessions) publish into.  ``None`` creates a private one;
        pass a shared registry to aggregate several engines into one
        exporter endpoint.
    """

    #: attributes ``__init__`` resolves once; rebinding one afterwards raises
    _SETTINGS = frozenset(
        {
            "workers", "partition_interval", "partitions_per_worker", "mode",
            "executor_kind", "optimize", "enable_fusion", "codegen_tier",
            "compile_cache_size", "tracer", "registry",
        }
    )

    def __init__(
        self,
        workers: int = 1,
        *,
        partition_interval: Optional[float] = None,
        partitions_per_worker: int = 4,
        mode: str = "compiled",
        executor_kind: Optional[str] = None,
        optimize: bool = True,
        enable_fusion: bool = True,
        codegen_tier: str = native.NATIVE_TIER,
        compile_cache_size: int = 32,
        trace=False,
        registry: Optional[MetricsRegistry] = None,
    ):
        if mode not in ("compiled", "interpreted"):
            raise QueryBuildError(f"unknown execution mode {mode!r}")
        if workers < 1:
            raise QueryBuildError("workers must be >= 1")
        if executor_kind is None:
            executor_kind = default_kind(workers)
        if executor_kind not in EXECUTOR_KINDS:
            raise QueryBuildError(
                f"unknown executor kind {executor_kind!r} (expected one of {EXECUTOR_KINDS})"
            )
        if codegen_tier not in native.CODEGEN_TIERS:
            raise QueryBuildError(
                f"unknown codegen tier {codegen_tier!r} "
                f"(expected one of {native.CODEGEN_TIERS})"
            )
        if compile_cache_size < 1:
            raise QueryBuildError("compile_cache_size must be >= 1")
        interpreted = mode == "interpreted"
        self.workers = int(workers)
        self.partition_interval = partition_interval
        self.partitions_per_worker = int(partitions_per_worker)
        self.mode = mode
        self.executor_kind = executor_kind
        self.optimize = bool(optimize) and not interpreted
        self.enable_fusion = enable_fusion
        #: the tier every kernel this engine compiles requests
        self.codegen_tier = INTERPRETED_TIER if interpreted else codegen_tier
        self.compile_cache_size = int(compile_cache_size)
        self.tracer = make_tracer(trace)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_compile_hits = self.registry.counter(
            "repro_compile_cache_hits_total", "Engine compile-cache hits"
        )
        self._m_compile_misses = self.registry.counter(
            "repro_compile_cache_misses_total", "Engine compile-cache misses"
        )
        self._m_native_compile_seconds = self.registry.counter(
            "repro_native_compile_seconds_total",
            "Wall-clock seconds spent building native-tier kernels",
        )
        self._m_native_promotions = self.registry.counter(
            "repro_native_promotions_total",
            "Kernels promoted from their NumPy twin to their C kernel",
        )
        self._m_native_fallbacks = self.registry.counter(
            "repro_native_fallbacks_total",
            "Kernels that requested the native tier but fell back to NumPy",
        )
        self._m_native_cache_rejects = self.registry.counter(
            "repro_native_cache_rejects_total",
            "Disk-cache artifacts that failed validation and were rebuilt",
        )
        self._m_native_queue = self.registry.gauge(
            "repro_native_build_queue_depth",
            "Kernels of hot queries waiting for the native builder thread",
        )
        self._m_dispatch_fallbacks = self.registry.counter(
            "repro_dispatch_fallbacks_total",
            "Partition maps run on the in-process fallback instead of the engine's pool",
            reason="unpicklable",
        )
        self._m_pool_restarts = self.registry.counter(
            "repro_pool_restarts_total",
            "Process pools dropped after losing a worker (replaced at the next dispatch)",
        )
        self._m_backend: Dict[str, tuple] = {}
        # shared across run() calls and all sessions of this engine: one
        # worker pool and one CompiledQuery per program (see compile_cached).
        # Both are created/looked up under the lock — many sessions open
        # concurrently from different threads (the multi-tenant service
        # does exactly that) and must not race pool creation or compile
        # the same program twice.
        self._lock = threading.RLock()
        self._executor: Optional[Executor] = None
        self._fallback_executor: Optional[Executor] = None
        self._compile_cache: "OrderedDict[int, Tuple[TiltProgram, CompiledQuery]]" = (
            OrderedDict()
        )
        self._sessions: List["weakref.ref"] = []
        if self.executor_kind == "process":
            # fork the worker processes now, while the constructing thread
            # is (typically) the only one alive — a lazily created pool
            # would first fork from whatever threaded context issues the
            # first run/tick (the multi-tenant service's scheduler thread,
            # a session worker, ...), inheriting mid-held locks.
            self.shared_executor()

    def __setattr__(self, name: str, value) -> None:
        if name in self._SETTINGS and name in self.__dict__:
            raise AttributeError(
                f"engine setting {name!r} is resolved at construction and read-only"
            )
        super().__setattr__(name, value)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def compile(self, program: TiltProgram) -> CompiledQuery:
        """Compile ``program`` with this engine's settings (uncached — ``run``
        and ``open_session`` go through :meth:`compile_cached`).

        Every kernel comes back on its NumPy twin.  On the native tier the
        query is wired to tier up by itself (see ``codegen_tier``): nothing
        is probed, imported, spawned or started here unless the disk cache
        already holds every kernel, in which case loading them is queued
        at once.
        """
        compiled = lower_program(
            program,
            optimize=self.optimize,
            enable_fusion=self.enable_fusion,
            codegen_tier=self.codegen_tier,
        )
        if self.codegen_tier == native.NATIVE_TIER:
            compiled.build_scope = self._native_build
            compiled.on_hot = self._queue_build
            if all(native.cached(k.spec) for k in compiled.kernels):
                compiled.hand_off()  # promoting costs a dlopen per kernel, no cc
        return compiled

    def _queue_build(self, compiled: CompiledQuery) -> None:
        """``CompiledQuery.on_hot``: promote on the builder thread."""
        self._m_native_queue.inc(sum(k.state == "queued" for k in compiled.kernels))
        native.submit_build(self, compiled)

    @contextlib.contextmanager
    def _native_build(self, kernel: CompiledKernel):
        """``CompiledQuery.build_scope``: one ``native.build`` span and the
        registry's native counters per kernel build, charged on whichever
        thread builds."""
        if kernel.state == "queued":
            self._m_native_queue.dec()
        rejects = native.stats()["cache_rejects_total"]
        spent = kernel.build_seconds
        with self.tracer.span("native.build", kernel=kernel.name) as sp:
            yield
            sp.set(
                state=kernel.state,
                build_seconds=kernel.build_seconds - spent,
                reason=kernel.native_fallback_reason,
            )
        self._m_native_compile_seconds.inc(kernel.build_seconds - spent)
        self._m_native_cache_rejects.inc(native.stats()["cache_rejects_total"] - rejects)
        if kernel.state == native.NATIVE_TIER:
            self._m_native_promotions.inc()
        else:
            self._m_native_fallbacks.inc()

    def analyze(self, program: TiltProgram):
        """Run the static analyzer over ``program`` without compiling it.

        Returns the full :class:`~repro.analysis.findings.ProgramReport` —
        including error-severity findings that :meth:`compile` would turn
        into an :class:`~repro.errors.AnalysisError` — so callers can
        inspect a query's bounds proof, dead code, domain hazards and cost
        estimates up front.  Reports are cached by program digest, so this
        shares work with the compile-time gate.
        """
        from ...analysis import analyze_program
        from ..ir.validation import validate_program

        validate_program(program)
        return analyze_program(program)

    def compile_cached(self, program: TiltProgram) -> CompiledQuery:
        """Compile ``program``, reusing a previous compilation of the same
        program object.

        The one compile entry point of ``run`` and ``open_session``:
        compilation is a one-time cost per program object, and multiple
        concurrent sessions over the same program share one set of kernels.
        The key is the program's identity alone — the engine's compilation
        settings are fixed at construction.  (Entries hold a strong
        reference to the program, so the ``id``-based key stays valid;
        ``close()`` empties the cache.)  Thread-safe: the
        whole check-compile-insert is one critical section, so concurrent
        sessions over the same program get the same ``CompiledQuery`` and
        the program is compiled exactly once.

        The cache is LRU-bounded at ``compile_cache_size`` entries: the
        least recently used compilation (and its strong reference to the
        program) is dropped when a new program would exceed the bound, so a
        long-lived engine compiling an unbounded stream of distinct
        programs does not leak them.  Sessions keep their own reference to
        the :class:`CompiledQuery` they were opened with, so eviction never
        invalidates running work — at worst a later ``open_session`` over an
        evicted program recompiles.
        """
        key = id(program)
        with self._lock:
            entry = self._compile_cache.get(key)
            if entry is not None and entry[0] is program:
                self._compile_cache.move_to_end(key)
                self._m_compile_hits.inc()
            else:
                self._m_compile_misses.inc()
                with self.tracer.span(
                    "engine.compile", output=program.output, tier=self.codegen_tier
                ):
                    entry = (program, self.compile(program))
                self._compile_cache[key] = entry
                while len(self._compile_cache) > self.compile_cache_size:
                    self._compile_cache.popitem(last=False)
            return entry[1]

    # ------------------------------------------------------------------ #
    # shared resources
    # ------------------------------------------------------------------ #
    def shared_executor(self) -> Executor:
        """The engine's long-lived worker pool.

        Created lazily and reused by every ``run`` call and every streaming
        session, so concurrent queries share one set of worker threads
        instead of spawning a pool per query.  ``close`` releases it.
        Thread-safe: concurrent first calls create exactly one pool.
        """
        with self._lock:
            if self._executor is None:
                self._executor = make_executor(self.workers, self.executor_kind)
            return self._executor

    def dispatch_plan(self, compiled: CompiledQuery) -> Dict[str, str]:
        """``{backend, reason}``: the pool ``compiled``'s partitions execute
        on — the engine's ``executor_kind`` unless the query cannot cross
        the process boundary — and why."""
        if self.executor_kind == "process" and not compiled.picklable:
            return {"backend": default_kind(self.workers), "reason": "unpicklable"}
        return {"backend": self.executor_kind, "reason": "engine setting"}

    def _fallback_for(self, compiled: CompiledQuery) -> Executor:
        """The in-process pool for a query the process backend cannot take —
        a counted, once-per-query-logged downgrade, never a silent one.

        Created lazily alongside — not instead of — the process pool, so a
        mixed workload degrades only the queries that cannot cross the
        process boundary.  Thread-safe, released by ``close``.
        """
        self._m_dispatch_fallbacks.inc()
        if not getattr(compiled, "_fallback_logged", False):
            compiled._fallback_logged = True
            _LOG.warning(
                "query %r cannot be pickled (custom aggregate callables?); "
                "running it on the in-process %s fallback instead of the process pool",
                compiled.output,
                default_kind(self.workers),
                extra={"output": compiled.output, "reason": "unpicklable"},
            )
        with self._lock:
            if self._fallback_executor is None:
                self._fallback_executor = make_executor(
                    self.workers, default_kind(self.workers)
                )
            return self._fallback_executor

    def _register_session(self, session) -> None:
        """Track a session opened on this engine (weakly, so an abandoned
        session can still be garbage collected)."""
        with self._lock:
            self._sessions = [ref for ref in self._sessions if ref() is not None]
            self._sessions.append(weakref.ref(session))

    def open_sessions(self) -> List[object]:
        """Sessions opened on this engine that have not been closed yet."""
        with self._lock:
            return [
                s for s in (ref() for ref in self._sessions)
                if s is not None and not s.closed
            ]

    def close(self) -> None:
        """Shut down the shared worker pool and drop cached compilations.

        Native builds this engine has queued and the builder thread has not
        started are dropped (one already running is not waited for).  Any
        session still open on the engine is **aborted** first (marked
        closed with no final output flush — a flush would run arbitrary
        query work inside a teardown path, on a pool that is about to be
        shut down).  Callers who want the tail output must ``close()`` their
        sessions before closing the engine.  Subsequent ``tick``/``close``
        calls on an aborted session raise :class:`ExecutionError`.
        """
        for session in self.open_sessions():
            session.abort()
        for compiled in native.drop_builds(self):
            self._m_native_queue.dec(compiled.unqueue())
        with self._lock:
            self._sessions.clear()
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
            if self._fallback_executor is not None:
                self._fallback_executor.shutdown()
                self._fallback_executor = None
            self._compile_cache.clear()

    def __enter__(self) -> "TiltEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # streaming sessions
    # ------------------------------------------------------------------ #
    def open_session(
        self,
        query: Union[TiltProgram, CompiledQuery],
        sources,
        **kwargs,
    ):
        """Open a continuous :class:`~repro.core.runtime.session.StreamingSession`.

        ``query`` is compiled once (and cached, so several sessions over the
        same program share kernels); ``sources`` must cover every program
        input (see :mod:`repro.datagen.sources`).  Keyword arguments are
        forwarded to :class:`StreamingSession`, which resolves the session's
        tick path itself — in-process against persistent reduce-site state,
        or partition-and-dispatch — and reports it as ``session.plan``;
        there is nothing to choose here.
        """
        # imported here: session.py imports this module at load time
        from .session import StreamingSession

        return StreamingSession(self, query, sources, **kwargs)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        query: Union[TiltProgram, CompiledQuery],
        streams: Mapping[str, StreamLike],
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> QueryResult:
        """Execute ``query`` over the given input streams.

        ``streams`` maps input names to event streams or snapshot buffers;
        structured event streams are expanded into one buffer per field
        (named ``"<stream>.<field>"``).  The output time range defaults to
        the union of the input time ranges.
        """
        with self.tracer.span("engine.run") as run_span:
            compiled = self._prepare(query)
            program, boundary = compiled.program, compiled.boundary
            run_span.set(output=program.output)
            with self.tracer.span("run.ingest"):
                inputs, input_events = self._ingest(program, streams)
            t_start, t_end = self._time_range(inputs, t_start, t_end)

            # partition boundaries must not fall inside a precision interval of
            # any temporal expression, otherwise workers would evaluate the query
            # at off-grid times (see plan_partitions).
            alignment = max((te.tdom.precision for te in program.exprs), default=0.0)
            with self.tracer.span("run.plan"):
                partitions = self._partition(inputs, boundary, t_start, t_end, alignment)

            start = time.perf_counter()
            pieces = self._map_partitions(compiled, partitions)
            output = SSBuf.concat(pieces).compact() if pieces else SSBuf.empty(t_start)
            elapsed = time.perf_counter() - start
            run_span.set(input_events=input_events, partitions=len(partitions))
        return QueryResult(
            output=output,
            elapsed_seconds=elapsed,
            num_partitions=len(partitions),
            workers=self.workers,
            input_events=input_events,
            boundary=boundary,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _map_partitions(
        self, compiled: CompiledQuery, partitions: List[Partition]
    ) -> List[SSBuf]:
        """Execute the partitions on the pool :meth:`dispatch_plan` names.

        The single dispatch point shared by one-shot ``run`` calls and
        streaming-session ticks.  On the process backend every task carries
        the query's cached pickle payload (serialized once per promotion
        state, unpickled once per worker process), and the parent's copy is
        charged the dispatch's wall time, since the workers ran its kernels;
        a query that cannot cross the process boundary runs on the engine's
        in-process fallback (see :meth:`_fallback_for`).

        A process pool that lost a worker is broken for good: the dispatch
        that finds it so raises :class:`ExecutionError`, and the pool is
        dropped, counted in ``repro_pool_restarts_total`` and replaced by a
        fresh one at the next dispatch — forked from whichever thread makes
        that dispatch.

        Every dispatch is wrapped in an ``executor.dispatch`` span and
        charged to the per-backend ``repro_kernel_seconds_total`` counter.
        With tracing enabled, each partition also gets a ``kernel.partition``
        span — recorded in the worker thread's own buffer, or (process
        backend) timed worker-side and shipped back with the result, then
        adopted under the dispatch span.
        """
        backend = self.dispatch_plan(compiled)["backend"]
        on_processes = backend == "process"
        executor = (
            self.shared_executor()
            if backend == self.executor_kind
            else self._fallback_for(compiled)
        )
        tracer = self.tracer
        payload = compiled.pickle_payload() if on_processes or tracer.enabled else None
        digest = None
        if tracer.enabled:
            digest = hashlib.sha256(payload).hexdigest()[:12] if payload is not None else ""
        with tracer.span(
            "executor.dispatch", backend=backend, partitions=len(partitions), kernel_digest=digest
        ):
            started = time.perf_counter()
            if on_processes:
                task, items = run_compiled_partition, [(payload, p, digest) for p in partitions]
            else:
                task = lambda p: compiled.run(p.inputs, p.t_start, p.t_end)  # noqa: E731
                items = partitions
                if tracer.enabled:
                    # worker threads have empty span stacks, so the partition
                    # spans name the dispatch span as parent explicitly
                    parent = tracer.current_span_id()
                    inner = task

                    def task(p):
                        with tracer.span(
                            "kernel.partition", parent=parent, index=p.index,
                            t_start=p.t_start, t_end=p.t_end, kernel_digest=digest,
                        ):
                            return inner(p)

            try:
                pieces = executor.map(task, items)
            except BrokenProcessPool as exc:
                self._drop_broken_pool(executor)
                raise ExecutionError(
                    "a process-pool worker died; the pool is replaced at the next dispatch"
                ) from exc
            if on_processes and tracer.enabled:
                # traced tasks return (buffer, worker span records); re-parent
                # the shipped records under this dispatch
                tracer.adopt([record for _, records in pieces for record in records])
                pieces = [buf for buf, _ in pieces]
            seconds = time.perf_counter() - started
            self._charge_backend(backend, seconds, len(partitions))
            if on_processes:
                compiled.charge(seconds)
        return pieces

    def _drop_broken_pool(self, executor: Executor) -> None:
        """Shut down and forget a process pool that lost a worker, so the
        next :meth:`shared_executor` call forks a fresh one — once, however
        many dispatches found it broken."""
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            executor.shutdown()
        self._m_pool_restarts.inc()
        _LOG.warning(
            "a %s-worker process pool lost a worker; replacing the pool at the next dispatch",
            executor.workers,
            extra={"reason": "broken pool"},
        )

    def _charge_backend(self, kind: str, seconds: float, partitions: int) -> None:
        """Accumulate dispatch time/partitions into the per-backend counters."""
        counters = self._m_backend.get(kind)
        if counters is None:
            counters = self._m_backend[kind] = (
                self.registry.counter(
                    "repro_kernel_seconds_total",
                    "Partition-map execution seconds by backend",
                    backend=kind,
                ),
                self.registry.counter(
                    "repro_partitions_total",
                    "Partitions executed by backend",
                    backend=kind,
                ),
            )
        counters[0].inc(seconds)
        if partitions:
            counters[1].inc(partitions)

    def _prepare(self, query: Union[TiltProgram, CompiledQuery]) -> CompiledQuery:
        if isinstance(query, CompiledQuery):
            return query
        if not isinstance(query, TiltProgram):
            raise QueryBuildError(f"cannot execute object of type {type(query).__name__}")
        return self.compile_cached(query)

    @staticmethod
    def _ingest(
        program: TiltProgram, streams: Mapping[str, StreamLike]
    ) -> Tuple[Dict[str, SSBuf], int]:
        inputs: Dict[str, SSBuf] = {}
        input_events = 0
        for name, stream in streams.items():
            if isinstance(stream, SSBuf):
                inputs[name] = stream
                input_events += stream.num_valid()
            elif isinstance(stream, EventStream):
                bufs = ssbufs_from_stream(stream)
                if not stream.is_structured:
                    # scalar stream: honour the caller-provided input name
                    inputs[name] = next(iter(bufs.values()))
                else:
                    for col_name, buf in bufs.items():
                        field = col_name.split(".", 1)[1]
                        inputs[f"{name}.{field}"] = buf
                input_events += len(stream)
            else:
                raise QueryBuildError(
                    f"input {name!r} must be an EventStream or SSBuf, got {type(stream).__name__}"
                )
        missing = [n for n in program.inputs if n not in inputs]
        if missing:
            raise ExecutionError(f"missing input streams: {missing}")
        return inputs, input_events

    @staticmethod
    def _time_range(
        inputs: Mapping[str, SSBuf], t_start: Optional[float], t_end: Optional[float]
    ) -> Tuple[float, float]:
        if t_start is None:
            starts = [buf.start_time for buf in inputs.values() if len(buf)]
            t_start = min(starts) if starts else 0.0
        if t_end is None:
            ends = [buf.end_time for buf in inputs.values() if len(buf)]
            t_end = max(ends) if ends else t_start
        if t_end < t_start:
            raise QueryBuildError("t_end must not precede t_start")
        return float(t_start), float(t_end)

    def _partition(
        self,
        inputs: Mapping[str, SSBuf],
        boundary: BoundarySpec,
        t_start: float,
        t_end: float,
        alignment: float = 0.0,
    ) -> List[Partition]:
        if self.partition_interval is not None:
            return partition_inputs(
                inputs,
                boundary,
                t_start,
                t_end,
                interval=self.partition_interval,
                align=alignment,
            )
        count = max(1, self.workers * self.partitions_per_worker)
        if self.workers == 1:
            count = 1
        return partition_inputs(
            inputs, boundary, t_start, t_end, num_partitions=count, align=alignment
        )
