"""Snapshot buffers (SSBuf): the physical representation of temporal objects.

Section 6.1.1 of the paper: a temporal object conceptually defines a value at
*every* point in time, but physically TiLT only stores the *changes* of that
value.  A snapshot buffer is an ordered sequence of snapshots
``(timestamp, value)`` where the snapshot with timestamp ``t_i`` records the
value held over the half-open interval ``(t_{i-1}, t_i]`` (``t_{-1}`` is the
buffer's ``start_time``).  Gaps in the stream are explicit snapshots whose
value is the null value φ (represented here by a ``False`` entry in the
validity mask).

Example (Figure 5 of the paper)::

    events:   a over (5, 10],   b over (16, 23],   c over (30, 35]
    SSBuf:    (5, φ) (10, a) (16, φ) (23, b) (30, φ) (35, c)

The buffer stores three parallel NumPy arrays (``times``, ``values``,
``valid``) so that the code-generated kernels can operate on it without any
per-snapshot Python overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import OverlappingEventsError, QueryBuildError
from .stream import ColumnChunk, Event, Events, EventStream

__all__ = ["Snapshot", "SSBuf", "change_points", "ssbuf_from_stream", "ssbufs_from_stream"]


@dataclass(frozen=True)
class Snapshot:
    """A single change point of a temporal object.

    ``value`` holds over the interval ``(previous timestamp, time]``.  When
    ``valid`` is False the temporal object is φ (null) over that interval and
    ``value`` is meaningless.
    """

    time: float
    value: float
    valid: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.time:g}, {self.value:g})" if self.valid else f"({self.time:g}, φ)"


class SSBuf:
    """An ordered snapshot buffer over a bounded time range.

    Parameters
    ----------
    times:
        Strictly increasing snapshot end-timestamps.
    values:
        Snapshot values (float64).  Entries where ``valid`` is False are
        ignored.
    valid:
        Validity mask; False marks a φ (null) snapshot.
    start_time:
        Time at which the first snapshot's interval begins.  Values before
        ``start_time`` are undefined (treated as φ).  Defaults to the first
        timestamp (an empty first interval).

    This constructor and :meth:`from_events` *validate* (equal lengths,
    strictly increasing times — an O(n) pass).  Everything that derives a
    buffer from already-ordered arrays is validated by construction and
    skips the pass: :meth:`slice`, :meth:`compact`, :meth:`concat`,
    :meth:`shift`, the kernels' ``rt.build`` and a session column's
    ``_IngestColumn.materialize``.
    """

    #: set on a buffer written compacted (a C output kernel's lanes, and a
    #: concatenation of such pieces); kept through pickling
    compacted = False

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[float],
        valid: Optional[Sequence[bool]] = None,
        start_time: Optional[float] = None,
    ):
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if valid is None:
            self.valid = np.ones(len(self.times), dtype=bool)
        else:
            self.valid = np.asarray(valid, dtype=bool)
        if not (len(self.times) == len(self.values) == len(self.valid)):
            raise QueryBuildError("times, values and valid must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise QueryBuildError("snapshot timestamps must be strictly increasing")
        if start_time is None:
            start_time = self.times[0] if len(self.times) else 0.0
        self.start_time = float(start_time)
        if len(self.times) and self.start_time > self.times[0]:
            raise QueryBuildError("start_time must not exceed the first snapshot timestamp")

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        # Serialized as the three raw NumPy arrays plus the start time, and
        # reconstructed without re-validation: the arrays of a live buffer
        # are already ordered/equal-length, and skipping the checks keeps
        # process-parallel partition transfer cheap.
        return (_ssbuf_from_arrays, (self.times, self.values, self.valid, self.start_time, self.compacted))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, start_time: float = 0.0) -> "SSBuf":
        """An SSBuf with no snapshots (φ everywhere)."""
        return cls(np.empty(0), np.empty(0), np.empty(0, dtype=bool), start_time=start_time)

    @classmethod
    def from_events(
        cls,
        events: Events,
        *,
        field: Optional[str] = None,
        on_overlap: str = "error",
        start_time: Optional[float] = None,
    ) -> "SSBuf":
        """Convert an in-order sequence of events to change-point form.

        Gaps between events become φ snapshots.  Overlapping events either
        raise :class:`OverlappingEventsError` (``on_overlap='error'``) or are
        resolved by letting the most recently started event win
        (``on_overlap='last'``), which is the list/map flattening strategy
        mentioned in Section 6.1.1 reduced to a single representative value.

        The non-overlapping form comes from :func:`change_points`, the same
        builder a streaming session appends with tick by tick — which is
        what keeps tick-by-tick ingestion prefix-identical to this one.
        """
        if on_overlap not in ("error", "last"):
            raise QueryBuildError(f"unknown overlap policy {on_overlap!r}")
        chunk = ColumnChunk.coerce(events)
        if not len(chunk):
            return cls.empty(start_time if start_time is not None else 0.0)
        starts, ends, vals = chunk.starts, chunk.ends, chunk.column(field)
        first_start = float(starts[0])
        buf_start = first_start if start_time is None else min(start_time, first_start)
        try:
            # an explicit earlier start is a gap before the first event
            times, valid, (values,) = change_points(starts, ends, [vals], buf_start)
        except OverlappingEventsError:
            if on_overlap == "error":
                raise OverlappingEventsError(
                    "events have overlapping validity intervals; pass on_overlap='last'"
                ) from None
        else:
            return cls(times, values, valid, start_time=buf_start)

        # Overlap resolution via a boundary sweep: the most recently started
        # active event provides the value of each elementary interval.
        # (the one sort in this module: overlapping events are unordered, and
        # this is the explicit-policy ingest edge, not the run path)
        bounds = np.unique(np.concatenate((starts, ends)))  # lint: allow(LNT106)
        # an explicit earlier start is a leading φ snapshot ending at bounds[0]
        first = 0 if buf_start < bounds[0] else 1
        winners = np.full(len(bounds), -1)
        for i in range(1, len(bounds)):
            lo, hi = bounds[i - 1], bounds[i]
            active = np.nonzero((starts < hi) & (ends >= hi) & (starts <= lo))[0]
            if len(active):
                winners[i] = active[np.argmax(starts[active])]
        valid = winners >= 0
        values = np.where(valid, vals[winners], 0.0)
        return cls(bounds[first:], values[first:], valid[first:], start_time=buf_start).compact()

    @classmethod
    def constant(cls, value: float, start: float, end: float) -> "SSBuf":
        """A buffer holding ``value`` over the whole interval ``(start, end]``."""
        return cls([end], [value], [True], start_time=start)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Snapshot]:
        for t, v, ok in zip(self.times, self.values, self.valid):
            yield Snapshot(float(t), float(v), bool(ok))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " ".join(repr(s) for s in list(self)[:8])
        more = " ..." if len(self) > 8 else ""
        return f"SSBuf(start={self.start_time:g}, [{inner}{more}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SSBuf):
            return NotImplemented
        if len(self) != len(other) or self.start_time != other.start_time:
            return False
        if not np.array_equal(self.times, other.times):
            return False
        if not np.array_equal(self.valid, other.valid):
            return False
        return bool(np.allclose(self.values[self.valid], other.values[other.valid]))

    @property
    def end_time(self) -> float:
        """Timestamp of the last snapshot (== ``start_time`` when empty)."""
        return float(self.times[-1]) if len(self.times) else self.start_time

    @property
    def interval_starts(self) -> np.ndarray:
        """Start of every snapshot interval: ``[start_time, times[:-1]...]``."""
        if not len(self.times):
            return np.empty(0)
        return np.concatenate(([self.start_time], self.times[:-1]))

    def num_valid(self) -> int:
        """Number of non-φ snapshots."""
        return int(np.count_nonzero(self.valid))

    def snapshots(self) -> List[Snapshot]:
        """Materialize the snapshots as a Python list."""
        return list(self)

    # ------------------------------------------------------------------ #
    # point and range queries
    # ------------------------------------------------------------------ #
    def index_at(self, t: float) -> int:
        """Index of the snapshot whose interval contains ``t`` (-1 if none)."""
        if not len(self.times) or t <= self.start_time or t > self.times[-1]:
            return -1
        return int(np.searchsorted(self.times, t, side="left"))

    def value_at(self, t: float) -> Tuple[float, bool]:
        """Value and validity of the temporal object at time ``t``."""
        idx = self.index_at(t)
        if idx < 0 or not self.valid[idx]:
            return (0.0, False)
        return (float(self.values[idx]), True)

    def values_at(
        self, ts: np.ndarray, idx: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`value_at` over an array of query times (``idx``:
        their left cursor ``searchsorted(times, ts, "left")``, when the caller
        already holds it)."""
        ts = np.asarray(ts, dtype=np.float64)
        if not len(self.times):
            return np.zeros(len(ts)), np.zeros(len(ts), dtype=bool)
        if idx is None:
            idx = np.searchsorted(self.times, ts, side="left")
        in_range = (ts > self.start_time) & (ts <= self.times[-1])
        idx_c = np.minimum(idx, len(self.times) - 1)
        vals = self.values[idx_c]
        ok = in_range & self.valid[idx_c]
        return np.where(ok, vals, 0.0), ok

    def change_times_in(self, start: float, end: float) -> np.ndarray:
        """Snapshot timestamps lying inside ``(start, end]``."""
        lo = np.searchsorted(self.times, start, side="right")
        hi = np.searchsorted(self.times, end, side="right")
        return self.times[lo:hi]

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def slice(self, start: float, end: float) -> "SSBuf":
        """Restrict the buffer to the interval ``(start, end]``.

        Used by the partitioner (Section 6.2): each worker receives a slice of
        the input SSBuf extended backwards by the resolved lookback margin.

        Slicing is *stable under pruning*, which the streaming session layer
        depends on for its carry-over state: for any ``t <= start``,
        ``buf.slice(t, buf.end_time).slice(start, end) == buf.slice(start, end)``.
        A snapshot spanning the cut point is kept whole (only its implicit
        interval start moves, via ``start_time``), so pruning a buffer to
        ``(t, ·]`` between micro-batch ticks never changes any later slice
        that starts at or after ``t`` — retained tails produce byte-identical
        partitions to the full stream.  A snapshot spanning ``end`` is
        clipped to ``end`` (keeping its value), so a slice always covers its
        whole interval.

        The result holds read-only *views* of this buffer's arrays (one
        appended copy only when the last snapshot is clipped): a partition
        is handed margins of its input, never a rebuilt input.
        """
        if end <= start:
            return SSBuf.empty(start)
        start = max(start, self.start_time)
        if not len(self.times) or start >= self.times[-1] or end <= start:
            return SSBuf.empty(start)
        lo = int(np.searchsorted(self.times, start, side="right"))
        hi = int(np.searchsorted(self.times, end, side="right"))
        columns = [self.times[lo:hi], self.values[lo:hi], self.valid[lo:hi]]
        if hi < len(self.times) and (hi == lo or self.times[hi - 1] < end):
            # the snapshot at index `hi` spans past `end`; clip it.
            clipped = (end, self.values[hi], self.valid[hi])
            columns = [np.append(col, last) for col, last in zip(columns, clipped)]
        for col in columns:
            col.flags.writeable = False
        return _ssbuf_from_arrays(*columns, float(start))

    def shift(self, dt: float) -> "SSBuf":
        """Shift the buffer forward in time by ``dt`` seconds.

        The shifted object at time ``t`` has the value this object had at
        ``t - dt`` — the semantics of the ``Shift`` operator used by the RSI,
        imputation, resampling and fraud-detection queries.
        """
        return _ssbuf_from_arrays(
            self.times + dt, self.values.copy(), self.valid.copy(), self.start_time + dt
        )

    def compact(self) -> "SSBuf":
        """Merge adjacent snapshots that hold identical values.

        Compaction keeps the *last* snapshot of every maximal run of equal
        values, which makes it a canonical form: compacting concatenated
        pieces gives the same result whether or not the pieces were
        compacted individually.  The engine and the streaming session both
        rely on this — partition edges and tick edges introduce snapshot
        boundaries carrying the value the output already holds, and
        compaction erases exactly those, so per-tick deltas concatenate to
        the same bytes as a one-shot run.
        """
        if self.compacted or len(self.times) <= 1:
            return self
        keep = np.ones(len(self.times), dtype=bool)
        keep[:-1] = _differs(self.valid, self.values, slice(None, -1), slice(1, None))
        if keep.all():
            return self
        return _ssbuf_from_arrays(self.times[keep], self.values[keep], self.valid[keep], self.start_time)

    def map_values(self, fn) -> "SSBuf":
        """Apply ``fn`` to every valid snapshot value (φ snapshots unchanged)."""
        vals = self.values.copy()
        vals[self.valid] = np.array([fn(v) for v in self.values[self.valid]], dtype=np.float64)
        return SSBuf(self.times.copy(), vals, self.valid.copy(), start_time=self.start_time)

    def _to_chunk(self, compact: bool) -> ColumnChunk:
        buf = self.compact() if compact else self
        starts = buf.interval_starts
        keep = buf.valid & (buf.times > starts)
        return ColumnChunk(starts[keep], buf.times[keep], buf.values[keep])

    def to_events(self, compact: bool = True) -> List[Event]:
        """Convert back to a list of events (dropping φ snapshots)."""
        return self._to_chunk(compact).to_events()

    def to_stream(self, name: str = "stream") -> EventStream:
        """Convert back to an :class:`EventStream`."""
        return EventStream(self._to_chunk(True), name=name, check_order=False)

    # ------------------------------------------------------------------ #
    # combination helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def concat(parts: Sequence["SSBuf"]) -> "SSBuf":
        """Concatenate partition results back into one buffer (in time order).

        The pieces are ordered runs, so nothing is sorted: each piece (in
        ``start_time`` order) contributes the snapshots after the end of what
        precedes it, losing a repeated edge time or an overlapping head.  The
        result starts at the earliest piece's ``start_time`` — also when
        every piece is empty — and a single piece is not copied.  Pieces
        all written compacted make a compacted result: :meth:`compact` keeps
        a snapshot unless the next one equals it, so only the last snapshot
        before each seam can merge.
        """
        if not parts:
            return SSBuf.empty()
        parts = sorted(parts, key=lambda b: b.start_time)
        runs, end = [], -np.inf
        for part in parts:
            skip = int(np.searchsorted(part.times, end, side="right"))
            if skip < len(part):
                runs.append((part.times[skip:], part.values[skip:], part.valid[skip:]))
                end = part.times[-1]
        if not runs:
            return SSBuf.empty(parts[0].start_time)
        columns = runs[0] if len(runs) == 1 else [np.concatenate(c) for c in zip(*runs)]
        compacted = all(part.compacted for part in parts)
        if compacted and len(runs) > 1:
            times, values, valid = columns
            seams = np.cumsum([len(run[0]) for run in runs[:-1]]) - 1
            same = ~_differs(valid, values, seams, seams + 1)
            if same.any():
                keep = np.ones(len(times), dtype=bool)
                keep[seams[same]] = False
                columns = (times[keep], values[keep], valid[keep])
        return _ssbuf_from_arrays(*columns, parts[0].start_time, compacted)


def change_points(
    starts: np.ndarray, ends: np.ndarray, columns: Sequence[np.ndarray], prev_end: float
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Change-point form of in-order, non-overlapping events: the one builder.

    One snapshot per event end, preceded by a φ snapshot at the event's start
    wherever a gap separates it from the data before it (``prev_end`` for the
    first event).  Returns ``(times, valid, [values per column])``: the
    layout is computed once however many payload columns share it.  Both
    batch conversion (:meth:`SSBuf.from_events`) and the streaming session's
    per-tick append go through here, so a tick-by-tick buffer is
    prefix-identical to the batch one by construction.
    """
    prev_ends = np.empty(len(ends))
    prev_ends[0] = prev_end
    prev_ends[1:] = ends[:-1]
    overlap = starts < prev_ends
    if overlap.any():
        i = int(np.argmax(overlap))
        raise OverlappingEventsError(
            f"event starting at {starts[i]:g} overlaps or precedes data ending at {prev_ends[i]:g}"
        )
    gaps = starts > prev_ends
    if not gaps.any():
        # gapless (every fixed-rate signal): the inputs already are the
        # layout — returned as they are, not copied; ~7x cheaper per chunk
        return ends, np.ones(len(ends), dtype=bool), list(columns)
    pos = np.arange(len(ends)) + np.cumsum(gaps)
    m = int(pos[-1]) + 1
    times = np.empty(m)
    times[pos] = ends
    times[pos[gaps] - 1] = starts[gaps]
    valid = np.zeros(m, dtype=bool)
    valid[pos] = True
    values = []
    for column in columns:
        out = np.zeros(m)
        out[pos] = column
        values.append(out)
    return times, valid, values


def _ssbuf_from_arrays(times, values, valid, start_time, compacted=False) -> "SSBuf":
    """An :class:`SSBuf` over arrays that are ordered and equal-length by
    construction: no validation pass, no copy.  The one constructor behind
    every derived buffer (see the class docstring) and the unpickle hook of
    :meth:`SSBuf.__reduce__`, which passes ``compacted`` on."""
    buf = SSBuf.__new__(SSBuf)
    buf.times = times
    buf.values = values
    buf.valid = valid
    buf.start_time = start_time
    if compacted:
        buf.compacted = True
    return buf


def _differs(valid, values, i, j) -> np.ndarray:
    """Where compaction keeps snapshot ``i`` before snapshot ``j``: their
    validity differs or, when valid, their values compare ``!=`` (NaN never
    merges; -0.0 does with +0.0).  The C entries' ``tilt_compact`` applies
    the same rule."""
    return (valid[i] != valid[j]) | (valid[i] & (values[i] != values[j]))


def ssbuf_from_stream(
    stream: EventStream,
    field: Optional[str] = None,
    on_overlap: str = "error",
) -> SSBuf:
    """Convert an :class:`EventStream` (or one field of it) to an :class:`SSBuf`."""
    return SSBuf.from_events(stream.columns(), field=field, on_overlap=on_overlap)


def ssbufs_from_stream(stream: EventStream, on_overlap: str = "error") -> Dict[str, SSBuf]:
    """Convert a structured stream into one SSBuf per payload field.

    Scalar streams produce a single entry keyed by the stream name.
    """
    if not stream.is_structured:
        return {stream.name: ssbuf_from_stream(stream, on_overlap=on_overlap)}
    return {
        f"{stream.name}.{field}": ssbuf_from_stream(stream, field=field, on_overlap=on_overlap)
        for field in stream.fields()
    }
