"""Common structure of the benchmark applications.

Every application in the suite (Table 2 of the paper plus the Yahoo
Streaming Benchmark) is described by a :class:`StreamingApplication`: a
name, the frontend query DAG, and a synthetic data generator.  Because the
query is expressed once against the engine-agnostic frontend, the same
application object runs on TiLT (via ``to_program`` + ``TiltEngine``) and on
the Trill-like baseline — mirroring how the paper implements each benchmark
in both Trill and TiLT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.frontend.query import QueryNode
from ..core.ir.nodes import TiltProgram
from ..core.runtime.engine import QueryResult, TiltEngine
from ..core.runtime.stream import EventStream

__all__ = ["StreamingApplication"]


@dataclass
class StreamingApplication:
    """One benchmark application.

    Attributes
    ----------
    name:
        Short identifier used by the benchmark harness (e.g. ``"trading"``).
    title:
        Human-readable title as it appears in Table 2.
    description:
        One-line description of what the query computes.
    operators:
        The operator vocabulary of the query, as listed in Table 2.
    dataset:
        Description of the (synthetic stand-in) dataset.
    build_query:
        Zero-argument callable returning the frontend query DAG.
    build_streams:
        Callable ``(num_events, seed) -> {input name: EventStream}``.
    default_events:
        Event count used by tests and the quick benchmark configuration.
    """

    name: str
    title: str
    description: str
    operators: str
    dataset: str
    build_query: Callable[[], QueryNode]
    build_streams: Callable[[int, int], Dict[str, EventStream]]
    default_events: int = 20_000

    # ------------------------------------------------------------------ #
    def query(self) -> QueryNode:
        """The frontend query DAG (fresh instance on every call)."""
        return self.build_query()

    def program(self) -> TiltProgram:
        """The query translated to TiLT IR."""
        return self.build_query().to_program()

    def streams(self, num_events: Optional[int] = None, seed: int = 0) -> Dict[str, EventStream]:
        """Synthetic input streams for this application."""
        return self.build_streams(num_events or self.default_events, seed)

    def total_events(self, streams: Dict[str, EventStream]) -> int:
        """Total number of input events across all streams."""
        return sum(len(s) for s in streams.values())

    # ------------------------------------------------------------------ #
    def run_tilt(
        self,
        streams: Dict[str, EventStream],
        *,
        workers: int = 1,
        **engine_kwargs,
    ) -> QueryResult:
        """Convenience: run the application on a fresh :class:`TiltEngine`."""
        engine = TiltEngine(workers=workers, **engine_kwargs)
        return engine.run(self.program(), streams)

    def run_baseline(self, engine, streams: Dict[str, EventStream]) -> EventStream:
        """Run the application on the baseline engine."""
        return engine.run(self.query(), streams)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamingApplication({self.name!r})"
