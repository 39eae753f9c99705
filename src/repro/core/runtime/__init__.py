"""TiLT runtime: streams, snapshot buffers, partitioning, executors.

The engine itself lives in :mod:`repro.core.runtime.engine`; it is exported
from :mod:`repro.core` rather than from this package's namespace to keep the
low-level data structures (which the windowing and codegen layers import)
free of upward dependencies.
"""

from .executor import Executor, SerialExecutor, ThreadPoolExecutor, make_executor
from .partition import Partition, partition_inputs, plan_partitions
from .ssbuf import SSBuf, Snapshot, ssbuf_from_stream, ssbufs_from_stream
from .stream import ColumnChunk, Event, EventStream, interleave

__all__ = [
    "ColumnChunk",
    "Event",
    "EventStream",
    "interleave",
    "SSBuf",
    "Snapshot",
    "ssbuf_from_stream",
    "ssbufs_from_stream",
    "Partition",
    "plan_partitions",
    "partition_inputs",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "make_executor",
]
