"""Timing of public calls, and the span log of the traced pass.

Untraced, a :class:`Recorder` is two ``perf_counter`` reads around a call.
Traced, it also logs one *harness span* per call (name, start, end, parent,
pass id) and adopts under it the spans the engine's own tracer recorded
during the call, so one list holds the whole tree.  A span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import Tracer


class KeepingTracer(Tracer):
    """A tracer that keeps what ``drain()`` hands out.

    ``QueryService.step`` drains the engine's tracer into its flight
    recorder inside every step; keeping a copy is how the benchmark still
    sees those spans without reaching into the recorder.
    """

    def __init__(self) -> None:
        super().__init__()
        self._kept: list = []

    def drain(self):
        records = super().drain()
        self._kept.extend(records)
        return records

    def take(self) -> list:
        """Every span finished since the previous ``take``."""
        self.drain()
        taken, self._kept = self._kept, []
        return taken


class Recorder:
    """Times calls; with a tracer, also builds the span log."""

    def __init__(self, tracer: Optional[KeepingTracer] = None):
        self.tracer = tracer
        self.pass_id = 0
        #: (name, span_id, parent_id, start_epoch_s, duration_s, pass_id)
        self.spans: List[tuple] = []
        self._next = 0
        self._last = 0

    def call(self, name: str, fn: Callable, *args, log: bool = True):
        """Run ``fn(*args)``; returns ``(result, wall seconds)``.

        ``log=False`` times the call but keeps its spans out of the log
        (window-fill ticks that are executed but not measured)."""
        tracer = self.tracer
        if tracer is None:
            t0 = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t0
        tracer.take()  # spans of untimed work (compile, submit) belong to no call
        start = time.time()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        if log:
            self._adopt(name, start, seconds, tracer.take())
        return result, seconds

    def drop_last(self) -> None:
        """Take the most recent call's spans back out of the log (for a call
        that turns out, from its result, not to be a measured one)."""
        del self.spans[self._last :]

    def _adopt(self, name: str, start: float, seconds: float, records) -> None:
        self._last = len(self.spans)
        self._next += 1
        harness_id = f"bench-{self._next:x}"
        self.spans.append((name, harness_id, None, start, seconds, self.pass_id))
        local = {r.span_id for r in records}
        for r in records:
            parent = r.parent_id if r.parent_id in local else harness_id
            self.spans.append((r.name, r.span_id, parent, r.start, r.duration, self.pass_id))

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "id": i, "parent": p, "start": s, "end": s + d, "pass": k}
            for n, i, p, s, d, k in self.spans
        ]


def self_times(spans: List[tuple]) -> Dict[str, float]:
    """Total self time per span name: duration minus children's durations."""
    children: Dict[str, float] = defaultdict(float)
    for _, _, parent, _, duration, _ in spans:
        if parent is not None:
            children[parent] += duration
    totals: Dict[str, float] = defaultdict(float)
    for name, span_id, _, _, duration, _ in spans:
        totals[name] += duration - children.get(span_id, 0.0)
    return dict(totals)
