"""Event streams: the ingress data model.

A data stream is an ordered, unbounded sequence of *events*.  Following the
paper (Section 2), every event carries a payload and a validity interval
``(start, end]``.  Payloads are either a single float or a flat mapping of
field name to float (a "struct" payload); structured streams are decomposed
into one column per field before they reach the TiLT runtime.

Physically a stream is columnar: :class:`ColumnChunk` holds parallel float64
arrays (starts, ends, one array per payload field), :class:`EventStream`
stores one chunk, and sources hand chunks to sessions — :class:`Event`
objects are an adapter at the public API edge, materialised on demand.  All
heavy lifting (change-point conversion, windowing, partitioning) happens on
:class:`~repro.core.runtime.ssbuf.SSBuf`, the snapshot-buffer representation
described in Section 6.1.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import QueryBuildError, StreamOrderError

Payload = Union[float, int, Mapping[str, float]]


@dataclass(frozen=True)
class Event:
    """A single stream event.

    Attributes
    ----------
    start:
        Exclusive start of the validity interval.
    end:
        Inclusive end of the validity interval.  ``end`` must be strictly
        greater than ``start``.
    payload:
        Either a scalar (float/int) or a flat mapping of field names to
        scalars for structured streams.
    """

    start: float
    end: float
    payload: Payload

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise QueryBuildError(
                f"event interval must satisfy end > start, got ({self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        """Length of the validity interval."""
        return self.end - self.start

    def field(self, name: str) -> float:
        """Return a named field of a structured payload."""
        if not isinstance(self.payload, Mapping):
            raise QueryBuildError(f"event payload is scalar; field {name!r} does not exist")
        return float(self.payload[name])

    def value(self) -> float:
        """Return the scalar payload value."""
        if isinstance(self.payload, Mapping):
            raise QueryBuildError("event payload is structured; use .field(name)")
        return float(self.payload)


class ColumnChunk:
    """A run of events in columnar form — what every source hands a session.

    ``starts`` and ``ends`` are float64 arrays; ``values`` is one float64
    array (scalar payloads) or a ``{field: array}`` dict (structured
    payloads).  Construction checks equal lengths and ``end > start`` once,
    vectorised; slicing (``chunk[i:j]``, ``chunk[mask]``) returns zero-copy
    views that skip the re-check.  :class:`Event` objects exist only at the
    public API edge: :meth:`coerce` turns a list of them into a chunk, and
    :meth:`to_events` / iteration turn a chunk back.
    """

    __slots__ = ("starts", "ends", "values")

    def __init__(self, starts, ends, values):
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        if isinstance(values, Mapping):
            self.values = {f: np.asarray(v, dtype=np.float64) for f, v in values.items()}
        else:
            self.values = np.asarray(values, dtype=np.float64)
        columns = self.values.values() if self.is_structured else [self.values]
        if any(len(c) != len(self.starts) for c in [self.ends, *columns]):
            raise QueryBuildError("starts, ends and values must have equal length")
        bad = ~(self.ends > self.starts)
        if bad.any():
            i = int(np.argmax(bad))
            raise QueryBuildError(
                "event interval must satisfy end > start, "
                f"got ({float(self.starts[i])}, {float(self.ends[i])}]"
            )

    @classmethod
    def _view(cls, starts: np.ndarray, ends: np.ndarray, values) -> "ColumnChunk":
        """Wrap already-validated arrays without re-checking them."""
        chunk = cls.__new__(cls)
        chunk.starts, chunk.ends, chunk.values = starts, ends, values
        return chunk

    @classmethod
    def empty(cls) -> "ColumnChunk":
        return cls._view(np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def coerce(cls, events: "Events") -> "ColumnChunk":
        """The one ``Event`` list → columns conversion (a chunk passes through).

        Runs in the caller's thread at the public API edge —
        ``QueuedSource.push``, ``QueryService.ingest``, a user source whose
        ``poll`` returns a list — so nothing past it handles ``Event`` objects.
        """
        if isinstance(events, cls):
            return events
        starts, ends, payloads = [], [], []
        for e in events:  # lint: allow(LNT104)
            starts.append(e.start)
            ends.append(e.end)
            payloads.append(e.payload)
        return cls._view(
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
            _payload_columns(payloads),
        )

    @classmethod
    def concat(cls, chunks: "Iterable[ColumnChunk]") -> "ColumnChunk":
        """Concatenate chunks of one payload shape, in the given order."""
        chunks = [c for c in chunks if len(c)]
        if len(chunks) <= 1:
            return chunks[0] if chunks else cls.empty()
        first = chunks[0]
        if any(c.fields() != first.fields() for c in chunks):
            raise QueryBuildError("cannot concatenate events of different payload shapes")
        cat = np.concatenate
        if first.is_structured:
            values = {f: cat([c.values[f] for c in chunks]) for f in first.values}
        else:
            values = cat([c.values for c in chunks])
        return cls._view(cat([c.starts for c in chunks]), cat([c.ends for c in chunks]), values)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index) -> "ColumnChunk":
        """Sub-chunk by slice (zero-copy), boolean mask or index array."""
        if self.is_structured:
            values = {f: v[index] for f, v in self.values.items()}
        else:
            values = self.values[index]
        return ColumnChunk._view(self.starts[index], self.ends[index], values)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.to_events())

    @property
    def is_structured(self) -> bool:
        """True when payloads are field mappings rather than scalars."""
        return isinstance(self.values, dict)

    def fields(self) -> Optional[List[str]]:
        """Payload field names; ``None`` for scalar payloads."""
        return list(self.values) if self.is_structured else None

    def column(self, field: Optional[str] = None) -> np.ndarray:
        """Scalar payloads (``field=None``) or one field of structured ones."""
        if field is None:
            if self.is_structured:
                raise QueryBuildError("event payload is structured; use .field(name)")
            return self.values
        if not self.is_structured:
            raise QueryBuildError(f"event payload is scalar; field {field!r} does not exist")
        if field not in self.values:
            raise QueryBuildError(
                f"event payload has no field {field!r} (fields: {list(self.values)})"
            )
        return self.values[field]

    def shifted(self, dt: float) -> "ColumnChunk":
        """The same events ``dt`` later (re-validated: a large shift can
        round a tiny interval to nothing)."""
        return ColumnChunk(self.starts + dt, self.ends + dt, self.values)

    def sorted(self) -> "ColumnChunk":
        """Stable sort by ``(start, end)``."""
        return self[np.lexsort((self.ends, self.starts))]

    def to_events(self) -> List[Event]:
        """Materialise one :class:`Event` per row."""
        if self.is_structured:
            rows = zip(*(v.tolist() for v in self.values.values()))
            payloads = [dict(zip(self.values, row)) for row in rows]
        else:
            payloads = self.values.tolist()
        return list(map(Event, self.starts.tolist(), self.ends.tolist(), payloads))


#: what the public API edge accepts wherever events come in: columns, or
#: ``Event`` objects that :meth:`ColumnChunk.coerce` converts on entry
Events = Union[ColumnChunk, Iterable[Event]]


def _payload_columns(payloads: Sequence[Payload]):
    """Scalar payloads → one float64 array; mappings → ``{field: array}``."""
    n = len(payloads)
    try:
        if n and isinstance(payloads[0], Mapping):
            return {
                f: np.fromiter((p[f] for p in payloads), np.float64, n) for f in payloads[0]
            }
        return np.asarray(payloads, dtype=np.float64)
    except (TypeError, KeyError) as exc:
        raise QueryBuildError(
            "events of one batch must share one payload shape: all scalar, "
            "or all mappings with the first event's fields"
        ) from exc


class EventStream:
    """An in-order, bounded slice of an event stream, stored as columns.

    The stream keeps its events sorted by start time in one
    :class:`ColumnChunk` (:meth:`columns`).  Helper constructors build
    streams from arrays (the common case for synthetic data generators) or
    from point samples of a fixed-frequency signal; ``events`` / iteration /
    indexing materialise :class:`Event` objects lazily, once.
    """

    def __init__(
        self,
        events: Events,
        name: str = "stream",
        *,
        check_order: bool = True,
    ):
        self.name = name
        self._chunk = ColumnChunk.coerce(events)
        self._events: Optional[List[Event]] = None
        if check_order:
            self._check_order()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        starts: Sequence[float],
        ends: Sequence[float],
        values: Sequence[Payload],
        name: str = "stream",
    ) -> "EventStream":
        """Build a stream from parallel arrays of starts, ends and payloads."""
        return cls(ColumnChunk(starts, ends, _payload_columns(values)), name=name)

    @classmethod
    def from_samples(
        cls,
        values: Sequence[Payload],
        period: float = 1.0,
        start: float = 0.0,
        name: str = "stream",
    ) -> "EventStream":
        """Build a fixed-frequency signal stream.

        Sample ``i`` becomes an event valid over
        ``(start + i*period, start + (i+1)*period]`` — the representation used
        for the 1000 Hz synthetic signals and the ECG/vibration waveforms in
        the paper's benchmark suite.  (Products, never a running sum: the
        grid must be the same floats whichever way it is built.)
        """
        i = np.arange(len(values))
        chunk = ColumnChunk(
            start + i * period, start + (i + 1) * period, _payload_columns(values)
        )
        return cls(chunk, name=name, check_order=False)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._chunk)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, idx):
        return self.events[idx]

    def columns(self) -> ColumnChunk:
        """The stream's columnar storage (do not mutate)."""
        return self._chunk

    @property
    def events(self) -> List[Event]:
        """The events as objects, materialised on first use (do not mutate)."""
        if self._events is None:
            self._events = self._chunk.to_events()
        return self._events

    @property
    def is_structured(self) -> bool:
        """True when payloads are field mappings rather than scalars."""
        return self._chunk.is_structured

    def fields(self) -> List[str]:
        """Field names of a structured stream (empty for scalar streams)."""
        return self._chunk.fields() or []

    def time_range(self) -> Tuple[float, float]:
        """Return ``(min start, max end)`` over all events."""
        if not len(self._chunk):
            return (0.0, 0.0)
        return (float(self._chunk.starts[0]), float(self._chunk.ends.max()))

    def starts(self) -> np.ndarray:
        """Event start times as a float64 array."""
        return self._chunk.starts

    def ends(self) -> np.ndarray:
        """Event end times as a float64 array."""
        return self._chunk.ends

    def values(self, field: Optional[str] = None) -> np.ndarray:
        """Scalar payloads (or one field of structured payloads) as float64."""
        return self._chunk.column(field)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def _derive(self, chunk: ColumnChunk, name: Optional[str] = None) -> "EventStream":
        return EventStream(chunk, name=name or self.name, check_order=False)

    def select_field(self, field: str, name: Optional[str] = None) -> "EventStream":
        """Project a structured stream onto a single scalar field."""
        c = self._chunk
        return self._derive(
            ColumnChunk._view(c.starts, c.ends, c.column(field)), name or f"{self.name}.{field}"
        )

    def filter(self, predicate) -> "EventStream":
        """Return a new stream with only the events satisfying ``predicate``."""
        keep = np.fromiter(map(predicate, self.events), bool, len(self))
        return self._derive(self._chunk[keep])

    def slice_time(self, start: float, end: float) -> "EventStream":
        """Events whose interval intersects ``(start, end]``."""
        c = self._chunk
        return self._derive(c[(c.ends > start) & (c.starts < end)])

    def partition_by(self, key_field: str) -> Dict[float, "EventStream"]:
        """Split a structured stream into per-key sub-streams.

        This models the partitioned-stream parallelism that the paper notes
        is the *only* parallelization option in Trill-like engines.
        """
        keys = self._chunk.column(key_field)
        uniq, first = np.unique(keys, return_index=True)
        return {
            float(k): self._derive(self._chunk[keys == k], f"{self.name}[{key_field}={float(k)}]")
            for k in uniq[np.argsort(first)]
        }

    def concat(self, other: "EventStream") -> "EventStream":
        """Concatenate two streams and re-sort by start time."""
        return self._derive(ColumnChunk.concat([self._chunk, other._chunk]).sorted())

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _check_order(self) -> None:
        starts = self._chunk.starts
        late = starts[1:] < starts[:-1]
        if late.any():
            i = int(np.argmax(late))
            raise StreamOrderError(
                f"stream {self.name!r}: event starting at {float(starts[i + 1])} "
                f"arrived after {float(starts[i])}"
            )


def interleave(streams: Iterable[EventStream], name: str = "interleaved") -> EventStream:
    """Merge several in-order streams into one in-order stream."""
    merged = ColumnChunk.concat([s.columns() for s in streams]).sorted()
    return EventStream(merged, name=name, check_order=False)
