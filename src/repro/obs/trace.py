"""Low-overhead structured tracing for the execution stack.

A :class:`Tracer` hands out *spans* — context managers that time one named
stage of work (a tick, a partition map, a kernel invocation) and record a
structured :class:`SpanRecord` (name, wall/CPU time, attributes, parent
linkage) when the stage completes.  Parent linkage is implicit: each thread
keeps a stack of active spans, so nesting ``with`` blocks produces a span
tree without any plumbing through call signatures.

The design goals, in order:

1. **Strict no-op when disabled.**  Tracing off is the production default;
   an untraced tick must not pay for the instrumentation points it crosses.
   :data:`NULL_TRACER` satisfies the same interface with a shared, stateless
   null span — ``span()`` allocates nothing and ``__enter__``/``__exit__``
   do nothing — so instrumentation sites never branch on a flag themselves.
2. **Lock-free-ish recording.**  Finished spans land in a *per-thread*
   bounded ring buffer (``collections.deque`` appends are atomic under the
   GIL); the tracer's lock is taken only when a thread registers its buffer
   on first use and when :meth:`Tracer.drain` collects.  Worker threads of
   the thread-pool backend therefore record concurrently without contending.
3. **Cross-process portability.**  A span record is a plain slotted object
   of primitives; the process backend times its partitions worker-side and
   ships the records back with the result, where :meth:`Tracer.adopt`
   re-parents them under the dispatching span (ids embed the producing pid,
   so adopted records never collide with local ones).

Enable tracing per engine (``TiltEngine(trace=True)``).  Tracing never
alters query output: the traced entry of the test suite's ``ENGINE_PLANS``
runs the differential suites to pin that down.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "make_tracer",
]

class SpanRecord:
    """One finished span: a named, timed stage with attributes and a parent.

    ``start`` is wall-clock epoch seconds (what the Chrome trace export
    keys on); ``duration``/``cpu_time`` are elapsed ``perf_counter`` /
    ``thread_time`` seconds.  ``span_id``/``parent_id`` are process-unique
    strings embedding the producing pid, so records shipped across a
    process boundary stay unambiguous.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "cpu_time",
        "attrs",
        "thread_id",
        "pid",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        cpu_time: float,
        attrs: Dict[str, object],
        thread_id: int,
        pid: int,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.cpu_time = cpu_time
        self.attrs = attrs
        self.thread_id = thread_id
        self.pid = pid

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly flat rendering (stable keys)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "cpu_time": self.cpu_time,
            "attrs": dict(self.attrs),
            "thread_id": self.thread_id,
            "pid": self.pid,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"parent={self.parent_id!r})"
        )


class _NullSpan:
    """The shared do-nothing span of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: satisfies the tracer interface with pure no-ops.

    Instrumentation points hold a reference to a tracer and call ``span``
    unconditionally; with this tracer the call returns one shared null span
    and records nothing — the disabled fast path is a method call plus a
    ``with`` block, independent of how many attributes the site would have
    recorded.
    """

    enabled = False

    def span(self, name: str, *, parent: Optional[str] = None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> Optional[str]:
        return None

    def adopt(self, records, *, parent: Optional[str] = None) -> None:
        pass

    def drain(self) -> List[SpanRecord]:
        return []

    def snapshot(self) -> List[SpanRecord]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: the process-wide disabled tracer (stateless, so one instance suffices)
NULL_TRACER = NullTracer()


class _Span:
    """An active span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "_state", "name", "span_id", "parent_id", "attrs", "_t0", "_c0", "_wall")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[str], attrs: Dict[str, object]):
        self._tracer = tracer
        self._state = None
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the span while it is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        state = self._tracer._thread_state()
        self._state = state
        if self.parent_id is None and state.stack:
            self.parent_id = state.stack[-1]
        state.stack.append(self.span_id)
        self._wall = time.time()
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._t0
        cpu = time.thread_time() - self._c0
        state = self._state
        # tolerate exceptions unwinding several spans at once: pop only our
        # own frame (and anything orphaned above it)
        while state.stack and state.stack[-1] != self.span_id:
            state.stack.pop()
        if state.stack:
            state.stack.pop()
        state.buffer.append(
            SpanRecord(
                self.name,
                self.span_id,
                self.parent_id,
                self._wall,
                duration,
                cpu,
                self.attrs,
                threading.get_ident(),
                os.getpid(),
            )
        )
        return False


class _ThreadState:
    __slots__ = ("stack", "buffer")

    def __init__(self, capacity: int):
        self.stack: List[str] = []
        self.buffer: Deque[SpanRecord] = deque(maxlen=capacity)


class Tracer:
    """Collects span records from any number of threads.

    Parameters
    ----------
    max_spans_per_thread:
        Bound on each thread's finished-span ring buffer.  A long-running
        traced session that is never drained keeps only the most recent
        spans instead of growing without limit.
    """

    enabled = True

    def __init__(self, *, max_spans_per_thread: int = 65_536):
        if max_spans_per_thread < 1:
            raise ValueError("max_spans_per_thread must be >= 1")
        self._capacity = int(max_spans_per_thread)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._counter = itertools.count(1)

    # -- internals ------------------------------------------------------- #
    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(self._counter):x}"

    def _thread_state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self._capacity)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording ------------------------------------------------------- #
    def span(self, name: str, *, parent: Optional[str] = None, **attrs) -> _Span:
        """Open a span.  Use as ``with tracer.span("tick.emit", tenant=t):``.

        ``parent`` overrides the implicit parent (the innermost active span
        of the calling thread) — worker threads of a pool pass the
        dispatching span's id explicitly because their own stacks are empty.
        """
        return _Span(self, name, parent, attrs)

    def current_span_id(self) -> Optional[str]:
        """Id of the calling thread's innermost active span, if any."""
        stack = self._thread_state().stack
        return stack[-1] if stack else None

    def adopt(self, records, *, parent: Optional[str] = None) -> None:
        """Append externally produced records (e.g. shipped back from a
        worker process), re-parenting their roots under ``parent`` (default:
        the calling thread's current span)."""
        if not records:
            return
        if parent is None:
            parent = self.current_span_id()
        local_ids = {r.span_id for r in records}
        buffer = self._thread_state().buffer
        for r in records:
            if r.parent_id is None or r.parent_id not in local_ids:
                r.parent_id = parent
            buffer.append(r)

    # -- collection ------------------------------------------------------ #
    def drain(self) -> List[SpanRecord]:
        """Take every finished record out of all thread buffers.

        Records are returned ordered by start time, which interleaves the
        per-thread buffers chronologically.  Active (unfinished) spans are
        untouched — they will appear in a later drain.
        """
        with self._lock:
            states = list(self._states)
        collected: List[SpanRecord] = []
        for state in states:
            buf = state.buffer
            while True:
                try:
                    collected.append(buf.popleft())
                except IndexError:
                    break
        collected.sort(key=lambda r: r.start)
        return collected

    def snapshot(self) -> List[SpanRecord]:
        """A non-destructive copy of all finished records (ordered by start)."""
        with self._lock:
            states = list(self._states)
        collected: List[SpanRecord] = []
        for state in states:
            collected.extend(state.buffer)
        collected.sort(key=lambda r: r.start)
        return collected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(buffered={len(self.snapshot())})"


def make_tracer(trace) -> "Tracer | NullTracer":
    """Turn ``TiltEngine(trace=...)`` into a tracer instance.

    ``True`` creates a fresh :class:`Tracer`, ``False``/``None`` is the
    shared :data:`NULL_TRACER`; an existing tracer (anything with a
    ``span`` method) passes through — engines can share one tracer so a
    service's spans land in a single buffer.
    """
    if trace is True:
        return Tracer()
    if trace is False or trace is None:
        return NULL_TRACER
    if hasattr(trace, "span"):
        return trace
    raise TypeError(f"trace must be a bool or a tracer, got {type(trace).__name__}")
