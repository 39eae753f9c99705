"""TiLT core: IR, frontend, lineage, optimizer, code generation and runtime."""

from .codegen import CompiledQuery, Interpreter, compile_program
from .frontend import LEFT, PAYLOAD, RIGHT, source
from .ir import IRBuilder, TiltProgram, when
from .lineage import BoundarySpec, resolve_boundaries
from .optimizer import optimize
from .runtime import ColumnChunk, Event, EventStream, SSBuf
from .runtime.engine import QueryResult, TiltEngine

# imported after the engine: the session module sits above the low-level
# runtime data structures (it imports the engine and, lazily, the metrics)
from .runtime.session import StreamingSession, TickResult

__all__ = [
    "StreamingSession",
    "TickResult",
    "CompiledQuery",
    "Interpreter",
    "compile_program",
    "source",
    "PAYLOAD",
    "LEFT",
    "RIGHT",
    "IRBuilder",
    "TiltProgram",
    "when",
    "BoundarySpec",
    "resolve_boundaries",
    "optimize",
    "ColumnChunk",
    "Event",
    "EventStream",
    "SSBuf",
    "QueryResult",
    "TiltEngine",
]
