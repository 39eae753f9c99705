"""The four workloads, driven only through public entry points.

Every workload follows the same protocol: :meth:`build` generates the inputs
from the seed (before any clock starts), :meth:`run_pass` performs one pass of
identical, fixed work and returns the timed public calls as :class:`Op`
rows, :meth:`reference` / :meth:`oneshot` give the oracles the outputs are
checked against, and :meth:`first_result` is the cold path the set-up probe
times.  No engine knobs: ``TiltEngine(workers=1)`` /
``QueryService(workers=1, max_tenants=…)`` and nothing else (a traced pass
adds ``trace=`` — that is the one difference).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import QueryService, TiltEngine
from repro.apps import (
    REAL_WORLD_APPLICATIONS,
    get_application,
    normalization_query,
    trend_trading_query,
    ysb_query,
)
from repro.core.runtime import ssbuf_from_stream, ssbufs_from_stream
from repro.datagen import sources_for_streams

from .spans import Recorder


class Op(NamedTuple):
    """One timed public call."""

    #: equal keys <=> identical work, in every pass (what noise filtering joins on)
    key: object
    kind: str  # "run" | "tick" | "step" | "ingest"
    events: int  # input events the call consumed
    seconds: float
    productive: bool  # enters the tick-latency pool


@dataclass
class PassResult:
    ops: List[Op]
    #: (output snapshots, crc32 of the output arrays): must repeat pass to pass
    checksum: tuple
    #: exact counts at pass end, plus per-pass measurements taken beside the
    #: calls (seconds inside ``source.poll()``, the serving layer's tallies)
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: () -> compacted output buffers by name; lazy because compaction is slow
    #: and only the passes that get verified pay for it
    outputs: Optional[Callable[[], Dict[str, object]]] = None


class TimedSource:
    """Pass-through timing proxy over one of the library's own sources:
    ``poll`` is timed and forwarded untouched, everything else resolves on the
    wrapped source — so the benchmark never pins today's source protocol."""

    def __init__(self, inner):
        self._inner = inner
        self.seconds = 0.0

    def poll(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._inner.poll(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def snapshot_inputs(streams) -> Dict[str, object]:
    """Event streams -> snapshot buffers keyed by program input name (the
    paper's convention: inputs are loaded in the engine's format untimed)."""
    inputs = {}
    for name, stream in streams.items():
        if stream.is_structured:
            for column, buf in ssbufs_from_stream(stream).items():
                inputs[f"{name}.{column.split('.', 1)[1]}"] = buf
        else:
            inputs[name] = ssbuf_from_stream(stream)
    return inputs


def _crc(buf, crc: int = 0) -> int:
    for array in (buf.times, buf.valid, buf.values[buf.valid]):
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


class Workload:
    name = ""
    #: events_per_s of a pass: total events over total seconds — or, when
    #: True, the geometric mean of the per-call rates
    geometric_rate = False

    def __init__(self, seed: int, size: Dict[str, int]):
        self.seed = seed
        self.size = size
        self._engines: Dict[object, TiltEngine] = {}

    def engine(self, tracer=None) -> TiltEngine:
        """The one engine all passes of this workload share (a second one
        when tracing)."""
        if tracer not in self._engines:
            self._engines[tracer] = (
                TiltEngine(workers=1) if tracer is None else TiltEngine(workers=1, trace=tracer)
            )
        return self._engines[tracer]

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()

    # -- protocol ------------------------------------------------------- #
    def build(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> PassResult:
        raise NotImplementedError

    def reference(self) -> Dict[str, object]:
        """Outputs of a one-shot ``TiltEngine(mode="interpreted").run`` — the
        independent oracle, not the compiler under test."""
        oracle = TiltEngine(workers=1, mode="interpreted")
        try:
            return {
                name: oracle.run(program, streams).output
                for name, (program, streams) in self.jobs().items()
            }
        finally:
            oracle.close()

    def oneshot(self) -> Optional[Dict[str, object]]:
        """Outputs of one compiled one-shot run over the same inputs (what a
        session's or tenant's tick-concat must equal byte for byte)."""
        engine = self.engine()
        return {
            name: engine.run(program, snapshot_inputs(streams)).output
            for name, (program, streams) in self.jobs().items()
        }

    def jobs(self) -> Dict[str, tuple]:
        """Output name -> (program, input streams)."""
        raise NotImplementedError

    def queries(self) -> Dict[str, Callable]:
        """Label -> zero-argument builder of the frontend query DAG."""
        raise NotImplementedError

    def first_result(self) -> int:
        """Cold path: build + compile + construct + first non-empty result."""
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# oneshot_apps
# ---------------------------------------------------------------------- #
class OneshotApps(Workload):
    name = "oneshot_apps"
    geometric_rate = True  # the paper's convention: no single app dominates

    def build(self) -> None:
        self.streams = {
            app.name: app.streams(self.size["events"], seed=self.seed)
            for app in REAL_WORLD_APPLICATIONS
        }
        self.inputs = {name: snapshot_inputs(s) for name, s in self.streams.items()}
        self.events = {name: sum(len(s) for s in ss.values()) for name, ss in self.streams.items()}
        self.programs = {app.name: app.program() for app in REAL_WORLD_APPLICATIONS}
        self.compiled = {}

    def queries(self):
        return {app.name: app.query for app in REAL_WORLD_APPLICATIONS}

    def jobs(self):
        return {name: (self.programs[name], self.streams[name]) for name in self.programs}

    def oneshot(self):
        return None  # the measured calls *are* the compiled one-shot runs

    def run_pass(self, rec):
        engine = self.engine(rec.tracer)
        if rec.tracer not in self.compiled:
            self.compiled[rec.tracer] = {n: engine.compile(p) for n, p in self.programs.items()}
        compiled = self.compiled[rec.tracer]
        ops, outputs, failures = [], {}, []
        snapshots = crc = 0
        for name, query in compiled.items():
            result, seconds = rec.call("bench.run", engine.run, query, self.inputs[name])
            ops.append(Op(name, "run", self.events[name], seconds, True))
            out = result.output
            snapshots += len(out)
            crc = _crc(out, crc)
            if not len(out):
                failures.append(f"{name}: run produced no output")
            outputs[name] = out
        return PassResult(
            ops, (snapshots, crc), counts={"empty_ticks": len(failures)},
            failures=failures, outputs=lambda: outputs,
        )

    def first_result(self):
        engine = TiltEngine(workers=1)
        try:
            total = 0
            for app in REAL_WORLD_APPLICATIONS:
                result = engine.run(engine.compile(app.program()), self.inputs[app.name])
                if not len(result.output):
                    raise RuntimeError(f"{app.name}: empty first result")
                total += len(result.output)
            return total
        finally:
            engine.close()


# ---------------------------------------------------------------------- #
# session_ysb / session_deep_window
# ---------------------------------------------------------------------- #
class SessionWorkload(Workload):
    """One ``StreamingSession`` per pass (fresh session, same engine), fed by
    the library's replay sources; the first ``discard`` ticks of a pass fill
    the windows and are executed but not measured."""

    output = ""
    #: keyword arguments of ``open_session``: none — the system chooses.  (The
    #: ``session.tick_ms.*`` layer probe is the one place that sets a knob.)
    session_options: Dict[str, object] = {}

    def query(self):
        raise NotImplementedError

    def streams_for(self, events: int, seed: int):
        raise NotImplementedError

    def build(self) -> None:
        self.streams = self.streams_for(self.size["events"], self.seed)
        self.program = self.query().to_program()

    def queries(self):
        return {self.output: self.query}

    def jobs(self):
        return {self.output: (self.program, self.streams)}

    def sources(self) -> List[TimedSource]:
        return [
            TimedSource(s)
            for s in sources_for_streams(self.streams, events_per_poll=self.size["tick_events"])
        ]

    def run_pass(self, rec):
        sources = self.sources()
        session = self.engine(rec.tracer).open_session(
            self.program, sources, **self.session_options
        )
        discard = self.size["discard"]
        ops, failures = [], []
        snapshots = crc = empty = 0
        poll_seconds = 0.0
        index = 0
        while not session.exhausted:
            measured = index >= discard
            polled = sum(s.seconds for s in sources)
            result, seconds = rec.call("bench.tick", session.tick, log=measured)
            snapshots += len(result.delta)
            crc = _crc(result.delta, crc)
            # the tick on which a replay source reports exhaustion cannot emit
            # (its horizon is unbounded): outside the pool and the emit rule
            if measured and session.exhausted:
                rec.drop_last()
            elif measured:
                ops.append(Op(index, "tick", result.events_ingested, seconds, True))
                poll_seconds += sum(s.seconds for s in sources) - polled
                if not result.output_snapshots:
                    empty += 1
                    failures.append(f"tick {index} emitted nothing")
            index += 1
        counts = {
            "poll_seconds": poll_seconds,
            "retained_snapshots": session.retained_snapshots(),
            "state_snapshots": session.state_snapshots(),
            "empty_ticks": empty,
        }
        flush = session.close()
        snapshots += len(flush.delta)
        crc = _crc(flush.delta, crc)
        return PassResult(
            ops, (snapshots, crc), counts, failures,
            lambda: {self.output: session.result().output},
        )

    def first_result(self):
        engine = TiltEngine(workers=1)
        try:
            session = engine.open_session(self.query().to_program(), self.sources())
            while not session.exhausted:
                result = session.tick()
                if result.output_snapshots:
                    return result.output_snapshots
            raise RuntimeError("no tick produced output")
        finally:
            engine.close()


class SessionYsb(SessionWorkload):
    name = "session_ysb"
    output = "view_counts"

    def query(self):
        return ysb_query(window=0.25)

    def streams_for(self, events, seed):
        return get_application("ysb").streams(events, seed=seed)


class SessionDeepWindow(SessionWorkload):
    name = "session_deep_window"
    output = "uptrend"

    def query(self):
        return trend_trading_query(
            short_window=self.size["short_window"], long_window=self.size["long_window"]
        )

    def streams_for(self, events, seed):
        return get_application("trading").streams(events, seed=seed)


# ---------------------------------------------------------------------- #
# service_fleet
# ---------------------------------------------------------------------- #
@dataclass
class _Tenant:
    name: str
    app: str
    push: bool
    #: push-fed tenants: the stream cut into ingest chunks before the clock starts
    chunks: List[list]


class ServiceFleet(Workload):
    """Four queries, each submitted twice: pull-fed (replay sources) and
    push-fed (``service.ingest``).  A round is one ``ingest`` per push tenant
    followed by one ``step()`` per tenant; after the last round the inputs
    are closed and the service is stepped until idle."""

    name = "service_fleet"

    #: app -> query builder.  The windows are chosen so every 2000-event chunk
    #: closes at least one window (normalize: 2 s = 2000 events, ysb: 0.125 s
    #: = 1250 events).  Not ysb 0.1 s: 0.1 has no exact binary form, and on
    #: that grid a tick-concat and a one-shot run disagree by one snapshot.
    QUERIES: Dict[str, Callable] = {
        "trading": get_application("trading").query,
        "rsi": get_application("rsi").query,
        "normalize": lambda: normalization_query(window=2.0),
        "ysb": lambda: ysb_query(window=0.125),
    }

    def build(self) -> None:
        events, chunk = self.size["events"], self.size["chunk"]
        self.programs = {app: build().to_program() for app, build in self.QUERIES.items()}
        self.streams = {
            app: get_application(app).streams(events, seed=self.seed) for app in self.QUERIES
        }
        self.rounds = -(-events // chunk)
        self.tenants: List[_Tenant] = []
        for app, streams in self.streams.items():
            (stream,) = streams.values()  # every fleet query reads one stream
            chunks = [stream.events[i : i + chunk] for i in range(0, len(stream), chunk)]
            self.tenants.append(_Tenant(f"{app}-pull", app, False, []))
            self.tenants.append(_Tenant(f"{app}-push", app, True, chunks))

    def queries(self):
        return dict(self.QUERIES)

    def jobs(self):
        return {app: (self.programs[app], self.streams[app]) for app in self.QUERIES}

    def _service(self, tracer):
        if tracer is None:
            return QueryService(workers=1, max_tenants=len(self.tenants)), None
        engine = TiltEngine(workers=1, trace=tracer)
        return QueryService(engine, max_tenants=len(self.tenants)), engine

    def _submit(self, service, programs) -> List[TimedSource]:
        sources = []
        for tenant in self.tenants:
            if tenant.push:
                service.submit(programs[tenant.app], name=tenant.name)
                continue
            own = [
                TimedSource(s)
                for s in sources_for_streams(
                    self.streams[tenant.app], events_per_poll=self.size["chunk"]
                )
            ]
            service.submit(programs[tenant.app], name=tenant.name, sources=own)
            sources.extend(own)
        return sources

    def run_pass(self, rec):
        service, engine = self._service(rec.tracer)
        try:
            return self._drive(service, rec)
        finally:
            service.close()
            if engine is not None:
                engine.close()

    def _drive(self, service, rec):
        sources = self._submit(service, self.programs)
        names = [t.name for t in self.tenants]
        # sessions register with the engine in submission order
        sessions = dict(zip(names, service.engine.open_sessions()))
        ticks = dict.fromkeys(names, 0)
        ops, failures, stats_seconds = [], [], []
        counts = dict(poll_seconds=0.0, steps=0, idle_steps=0, step_wall=0.0, tick_busy=0.0, empty_ticks=0,
                      ingest_seconds=0.0, ingest_events=0, queue_depth_max=0)

        def step() -> bool:
            polled = sum(s.seconds for s in sources)
            result, seconds = rec.call("bench.step", service.step)
            counts["steps"] += 1
            if result is None:
                counts["idle_steps"] += 1
                ops.append(Op("idle", "step", 0, seconds, False))
                return False
            name = next(n for n in names if sessions[n].ticks != ticks[n])
            ticks[name] = sessions[name].ticks
            if result.index == 0:
                rec.drop_last()  # a tenant's first tick fills its windows: not measured
                return True
            counts["step_wall"] += seconds
            counts["tick_busy"] += result.elapsed_seconds
            counts["poll_seconds"] += sum(s.seconds for s in sources) - polled
            productive = result.events_ingested > 0
            ops.append(
                Op((name, result.index, result.events_ingested), "step",
                   result.events_ingested, seconds, productive)
            )
            if productive and not result.output_snapshots and not sessions[name].exhausted:
                counts["empty_ticks"] += 1
                failures.append(f"{name} tick {result.index} emitted nothing")
            return True

        pushers = [t for t in self.tenants if t.push]
        for round_index in range(self.rounds):
            for tenant in pushers:
                chunk = tenant.chunks[round_index]
                accepted, seconds = rec.call("bench.ingest", service.ingest, tenant.name, chunk)
                ops.append(Op((tenant.name, "ingest", round_index), "ingest", 0, seconds, False))
                counts["ingest_seconds"] += seconds
                counts["ingest_events"] += accepted
                if accepted != len(chunk):
                    failures.append(f"{tenant.name}: {len(chunk) - accepted} events shed")
            for _ in names:
                step()
            t0 = time.perf_counter()
            stats = service.stats()
            stats_seconds.append(time.perf_counter() - t0)
            counts["queue_depth_max"] = max(counts["queue_depth_max"], stats.fleet.queue_depth)
        for tenant in pushers:
            service.close_input(tenant.name)
        while step():
            pass

        stats = service.stats()
        for name, row in stats.tenants.items():
            if row["state"] != "finished":
                failures.append(f"{name} ended {row['state']}: {row['error']}")
        # (a tenant's retained output stays readable after the service closes)
        outputs = lambda: {n: service.result(n).output for n in names}  # noqa: E731
        # which tenant a step advances depends on measured tick costs, so a
        # push tenant's deltas may be cut differently from pass to pass: the
        # per-pass checksum covers what must not vary (events consumed and
        # final watermark per tenant); the compacted outputs are compared
        # whenever they are asked for
        consumed = sorted((n, r["input_events"], r["watermark"]) for n, r in stats.tenants.items())
        counts.update(
            retained_snapshots=sum(s.retained_snapshots() for s in sessions.values()),
            state_snapshots=sum(s.state_snapshots() for s in sessions.values()),
            fairness=stats.fleet.fairness,
            shed_events=stats.fleet.shed_events,
            stats_seconds=sorted(stats_seconds)[len(stats_seconds) // 2],
        )
        return PassResult(
            ops, (zlib.crc32(repr(consumed).encode()),), counts, failures, outputs
        )

    def oneshot(self):
        expected = super().oneshot()
        return {t.name: expected[t.app] for t in self.tenants}

    def reference(self):
        expected = super().reference()
        return {t.name: expected[t.app] for t in self.tenants}

    def first_result(self):
        service = QueryService(workers=1, max_tenants=len(self.tenants))
        try:
            self._submit(service, {app: build().to_program() for app, build in self.QUERIES.items()})
            names = [t.name for t in self.tenants]
            sessions = dict(zip(names, service.engine.open_sessions()))

            def waiting():
                return [n for n in names if not sessions[n].metrics.output_snapshots]

            for round_index in range(self.rounds):
                for tenant in self.tenants:
                    if tenant.push:
                        service.ingest(tenant.name, tenant.chunks[round_index])
                for _ in names:
                    service.step()
                if not waiting():
                    return len(names)
            # which tenant a step advances is the scheduler's choice: one it
            # passed over so far still owes its first result — flush them all
            for tenant in self.tenants:
                if tenant.push:
                    service.close_input(tenant.name)
            service.run_until_idle()
            if waiting():
                raise RuntimeError(f"tenants without output: {waiting()}")
            return len(names)
        finally:
            service.close()


#: Input sizes.  ``full`` is what the end-to-end numbers are measured on;
#: ``verify`` is what the interpreted oracle can afford (its cost grows with
#: events x window, so the deep-window instance is scaled down 100x, windows
#: and ticks included — the full-size windows are checked against a compiled
#: one-shot run instead); ``setup`` is the
#: 20 000-event input of the cold probe; ``smoke`` is for the smoke test.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "oneshot_apps": {"events": 50_000},
        "session_ysb": {"events": 500_000, "tick_events": 5_000, "discard": 10},
        "session_deep_window": {"events": 150_000, "tick_events": 1_000, "discard": 45,
                                "short_window": 10_000, "long_window": 40_000},
        "service_fleet": {"events": 50_000, "chunk": 2_000},
    },
    "verify": {
        "oneshot_apps": {"events": 5_000},
        "session_ysb": {"events": 20_000, "tick_events": 5_000, "discard": 0},
        "session_deep_window": {"events": 2_000, "tick_events": 50, "discard": 0,
                                "short_window": 100, "long_window": 400},
        "service_fleet": {"events": 6_000, "chunk": 2_000},
    },
    "setup": {
        "oneshot_apps": {"events": 2_500},
        "session_ysb": {"events": 20_000, "tick_events": 5_000, "discard": 0},
        "session_deep_window": {"events": 20_000, "tick_events": 1_000, "discard": 0,
                                "short_window": 10_000, "long_window": 40_000},
        "service_fleet": {"events": 2_500, "chunk": 500},
    },
    "smoke": {
        "oneshot_apps": {"events": 800},
        "session_ysb": {"events": 20_000, "tick_events": 5_000, "discard": 1},
        "session_deep_window": {"events": 1_500, "tick_events": 100, "discard": 5,
                                "short_window": 100, "long_window": 400},
        "service_fleet": {"events": 4_000, "chunk": 2_000},
    },
}

WORKLOAD_CLASSES = {
    cls.name: cls for cls in (OneshotApps, SessionYsb, SessionDeepWindow, ServiceFleet)
}


def make_workload(name: str, seed: int, size: str) -> Workload:
    """Build the named workload's inputs at the named size."""
    workload = WORKLOAD_CLASSES[name](seed, SIZES[size][name])
    workload.build()
    return workload
