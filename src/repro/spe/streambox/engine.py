"""StreamBox-like baseline engine.

StreamBox is an interpreted, C++ SPE that parallelizes queries with pipeline
parallelism and exposes a lower-level API.  For the purposes of the paper's
evaluation the two behaviours that matter are:

* its temporal join uses an O(n²) algorithm to find overlapping events,
  which is why the paper measures a ~322× gap on the Join micro-benchmark;
* stateless stages of a query can be processed in parallel across worker
  threads, giving it better YSB scaling than Trill but worse than TiLT.

This engine reuses the Trill-like operator implementations but swaps in the
nested-loop join and adds stage-level data parallelism for the stateless
prefix of a pipeline (Select/Where/Shift), merging before the first stateful
operator.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ...core.frontend.query import QueryNode, Select, Shift, Where
from ...core.runtime.executor import default_kind, make_executor
from ...core.runtime.stream import Event, EventStream
from ..common.operators import NestedLoopJoinOperator, SelectOperator, ShiftOperator, WhereOperator
from ..trill.engine import TrillEngine, _chunks

__all__ = ["StreamBoxEngine"]


class StreamBoxEngine(TrillEngine):
    """Interpreted engine with pipeline/data parallelism and an O(n²) join."""

    join_operator_cls = NestedLoopJoinOperator
    name = "streambox"

    def _run_unary(
        self,
        operator,
        node: QueryNode,
        streams: Mapping[str, EventStream],
        memo: Dict[int, List[Event]],
    ) -> List[Event]:
        # stateless per-event operators are data-parallel: split the input
        # into chunks, process chunks on worker threads, concatenate.
        if self.workers > 1 and isinstance(node, (Select, Where, Shift)):
            upstream = self._execute(node.parents[0], streams, memo)
            if not upstream:
                return []
            chunk_size = max(self.batch_size, (len(upstream) + self.workers - 1) // self.workers)
            chunks = _chunks(upstream, chunk_size)
            fresh = {
                Select: lambda n: SelectOperator(n.expr),
                Where: lambda n: WhereOperator(n.predicate),
                Shift: lambda n: ShiftOperator(n.delay),
            }[type(node)]
            pool_size = min(self.workers, len(chunks))
            executor = make_executor(pool_size, default_kind(pool_size))
            try:
                results = executor.map(lambda c: fresh(node).process(c), chunks)
            finally:
                executor.shutdown()
            out: List[Event] = []
            for r in results:
                out.extend(r)
            return out
        return super()._run_unary(operator, node, streams, memo)
