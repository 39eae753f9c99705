"""Columnar micro-batches for the interpreted baseline engines.

Trill processes events in columnar micro-batches handed from operator to
operator; the batch size is the knob behind the latency/throughput trade-off
measured in Figure 9 of the paper.  A batch is the runtime's own
:class:`~repro.core.runtime.stream.ColumnChunk` (start/end/payload columns
as NumPy arrays); operators may process it column-wise (the Grizzly-like and
LightSaber-like engines) or event-by-event (the Trill-like and StreamBox-like
engines).
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.runtime.stream import ColumnChunk, EventStream

__all__ = ["ColumnarBatch", "batches_from_stream", "stream_from_batches"]

#: a micro-batch *is* a column chunk; the name survives for the baselines
ColumnarBatch = ColumnChunk


def batches_from_stream(stream: EventStream, batch_size: int) -> List[ColumnarBatch]:
    """Split a stream into fixed-size columnar micro-batches (zero-copy)."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    columns = stream.columns()
    return [columns[i : i + batch_size] for i in range(0, len(columns), batch_size)]


def stream_from_batches(batches: Sequence[ColumnarBatch], name: str = "output") -> EventStream:
    """Concatenate micro-batches back into an event stream."""
    return EventStream(ColumnChunk.concat(batches).sorted(), name=name, check_order=False)
