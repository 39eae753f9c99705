"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pytest

from repro.core.codegen import native
from repro.core.codegen.interpreter import evaluate_program
from repro.core.lineage.boundary import resolve_boundaries
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.executor import worker_kernel_plan
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import Event, EventStream


class PromotedEngine(TiltEngine):
    """The ``native`` plan's engine: every query is promoted as it is
    compiled (on the test's thread, not by the builder thread when the query
    gets hot), so what the plan compares is deterministic — one-shot runs
    and session ticks alike — and it checks that every kernel with a C
    lowering really is served by it."""

    def compile(self, program):
        compiled = super().compile(program)
        compiled.promote()
        for kernel in compiled.kernels:
            if not native.lowering_blockers(kernel.spec):
                assert kernel.active_tier == "native", (kernel.name, kernel.native_fallback_reason)
        return compiled


@dataclass(frozen=True)
class EnginePlan:
    """One point of the engine's configuration space (see ENGINE_PLANS)."""

    name: str
    settings: Mapping[str, object] = field(default_factory=dict)
    engine_class: type = TiltEngine

    def engine(self, **overrides) -> TiltEngine:
        return self.engine_class(**{**self.settings, **overrides})

    def events(self, n: int) -> int:
        """Input size for this plan: the interpreter evaluates one snapshot
        at a time in Python, so its inputs are cut to keep tier 1 fast."""
        return n // 4 if self.name == "interpreted" else n


#: the engine configurations every differential suite must agree on — each
#: used to be a CI leg selected by an environment variable; now one fixture.
#: ``default`` is the engine as shipped (native tier, promoted in the
#: background if a test's query ever gets hot); the pool and traced plans pin
#: the NumPy tier and ``native`` promotes up front, so each tier is compared
#: deterministically
ENGINE_PLANS = [
    EnginePlan("default", {"workers": 1}),
    EnginePlan("thread2", {"workers": 2, "executor_kind": "thread", "codegen_tier": "numpy"}),
    EnginePlan("process2", {"workers": 2, "executor_kind": "process", "codegen_tier": "numpy"}),
    EnginePlan("traced", {"workers": 1, "trace": True, "codegen_tier": "numpy"}),
    EnginePlan("native", {"workers": 1}, PromotedEngine),
    EnginePlan("interpreted", {"workers": 1, "mode": "interpreted"}),
]


@pytest.fixture(scope="session", params=ENGINE_PLANS, ids=lambda plan: plan.name)
def engine_plan(request) -> EnginePlan:
    plan = request.param
    if plan.name == "native" and not native.native_available():
        pytest.skip("native codegen toolchain (cffi + C compiler) unavailable")
    return plan


@pytest.fixture(scope="session")
def promoted_engine():
    """The ``native`` plan's engine class, for tests that build their own."""
    return PromotedEngine


@pytest.fixture(scope="session")
def worker_kernel_plans():
    """``worker_kernel_plans(engine, compiled)``: what a process engine's
    pool workers run ``compiled`` on, asked with the payload every dispatch
    carries — the parent's ``kernel_plan()`` only speaks for the parent's
    copy."""

    def probe(engine, compiled):
        pool = engine.shared_executor()
        return pool.map(worker_kernel_plan, [compiled.pickle_payload()] * (4 * pool.workers))

    return probe


@pytest.fixture
def oracle():
    """``oracle(program, streams)``: the output every plan must reproduce —
    one direct ``evaluate_program`` call over the whole input, with no
    engine, optimizer, generated code or partitioning in the way."""

    def evaluate(program, streams) -> SSBuf:
        inputs, _ = TiltEngine._ingest(program, streams)
        t_start, t_end = TiltEngine._time_range(inputs, None, None)
        env = evaluate_program(
            program, inputs, t_start, t_end, boundary=resolve_boundaries(program)
        )
        return env[program.output].compact()

    return evaluate


@pytest.fixture
def simple_events():
    """Three disjoint events with a gap (the Figure 5 example, scaled)."""
    return [
        Event(5.0, 10.0, 1.0),
        Event(16.0, 23.0, 2.0),
        Event(30.0, 35.0, 3.0),
    ]


@pytest.fixture
def simple_stream(simple_events):
    return EventStream(simple_events, name="simple")


@pytest.fixture
def simple_buf(simple_stream):
    return ssbuf_from_stream(simple_stream)


@pytest.fixture
def regular_stream():
    """A 1 Hz sampled stream of 100 increasing values."""
    values = np.arange(100, dtype=float)
    return EventStream.from_samples(values, period=1.0, name="regular")


@pytest.fixture
def regular_buf(regular_stream):
    return ssbuf_from_stream(regular_stream)


@pytest.fixture
def random_walk_stream():
    """A 1 Hz random-walk price stream of 300 events (seeded)."""
    rng = np.random.default_rng(42)
    values = 100.0 + np.cumsum(rng.normal(0.0, 1.0, 300))
    return EventStream.from_samples(values, period=1.0, name="stock")


@pytest.fixture
def random_walk_buf(random_walk_stream):
    return ssbuf_from_stream(random_walk_stream)


def assert_buffers_equivalent(a: SSBuf, b: SSBuf, grid: np.ndarray, rtol=1e-9, atol=1e-12):
    """Assert two snapshot buffers define the same temporal object on a grid."""
    av, ak = a.values_at(grid)
    bv, bk = b.values_at(grid)
    assert np.array_equal(ak, bk), "validity masks differ"
    assert np.allclose(av[ak], bv[bk], rtol=rtol, atol=atol), "values differ"
