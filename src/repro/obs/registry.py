"""Unified metrics registry: counters, gauges and histograms with exporters.

Before this module, the repo's operational numbers lived in three
disconnected places — :class:`~repro.metrics.streaming.SessionMetrics` per
session, :class:`~repro.metrics.fleet.FleetSnapshot` per service, and
ad-hoc fields on the scheduler/admission objects.  The
:class:`MetricsRegistry` is the single sink they all publish into: every
layer (engine compile cache, executor dispatch, session ticks, incremental
state stores, admission control, scheduler) registers named instruments
here, and one registry snapshot answers "what is the system doing" in
either Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`)
or a JSON document (:meth:`MetricsRegistry.to_json`).

Instruments follow the Prometheus data model:

* :class:`Counter` — monotonically increasing total (``*_total`` names);
* :class:`Gauge` — a value that goes up and down (queue depth, tenants);
* :class:`Histogram` — cumulative bucket counts plus sum/count, suitable
  for latency distributions (``repro_tick_seconds`` et al.).

Instruments are identified by ``(name, sorted label items)``; requesting
the same identity returns the same instrument, so call sites do not cache
them (though hot paths may, to skip the dict lookup).  All mutation is a
single GIL-atomic operation or lock-protected, so recording from worker
and scheduler threads is safe.
"""

from __future__ import annotations

import json
import re
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: default histogram buckets (seconds) — tuned for tick/kernel latencies,
#: sub-millisecond through tens of seconds
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]

#: Prometheus charsets — metric names may use colons (recording rules do),
#: label names may not; both are validated at instrument creation so a bad
#: name fails at the registration site instead of corrupting a scrape
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_name(kind: str, name: str) -> None:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: must match {_METRIC_NAME_RE.pattern}"
        )
    # unit-suffix conventions: ``_total`` is the counter suffix — a counter
    # without it (or a gauge/histogram with it) misleads every dashboard
    # that relies on the convention
    if kind == "counter" and not name.endswith("_total"):
        raise ValueError(f"counter {name!r} must end with '_total'")
    if kind != "counter" and name.endswith("_total"):
        raise ValueError(f"{kind} {name!r} must not end with '_total' (counters only)")


def _validate_labels(kind: str, name: str, labels: Mapping[str, object]) -> None:
    for label in labels:
        label = str(label)
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(
                f"invalid label name {label!r} on {name!r}: "
                f"must match {_LABEL_NAME_RE.pattern}"
            )
        if label.startswith("__"):
            raise ValueError(f"label {label!r} on {name!r}: '__' prefix is reserved")
        if kind == "histogram" and label == "le":
            raise ValueError(f"label 'le' on {name!r} is reserved for histogram buckets")


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    """Escape a label value per the exposition format (backslash, quote,
    newline — in that order, so escapes are not double-escaped)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """HELP text escapes backslash and newline only (quotes stay literal)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class Counter:
    """Monotonically increasing total (float increments allowed — per-backend
    kernel *seconds* are counters too)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can be set, raised and lowered."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` is O(len(buckets)) with a single lock acquisition; the
    export renders the classic ``_bucket{le=...}`` / ``_sum`` / ``_count``
    triple with cumulative counts.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, labels: _LabelKey, buckets: Sequence[float]):
        self.name = name
        self.labels = labels
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +inf bucket last
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            i = 0
            for bound in self.buckets:
                if value <= bound:
                    break
                i += 1
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.buckets, counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Central, thread-safe home of every instrument in the system.

    ``counter``/``gauge``/``histogram`` create-or-return instruments;
    ``to_prometheus``/``to_json`` export a consistent point-in-time view.
    A metric name is bound to one type and one help string on first use —
    re-registering it as a different type raises, which catches name
    collisions between layers early.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: name -> (type name, help string)
        self._families: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        #: (name, label key) -> instrument
        self._instruments: "OrderedDict[Tuple[str, _LabelKey], object]" = OrderedDict()

    # -- registration ---------------------------------------------------- #
    def _get(self, kind: str, name: str, help: str, labels: Mapping[str, object], **kw):
        key = (name, _label_key(labels))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                _validate_name(kind, name)
                self._families[name] = (kind, help)
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]} "
                    f"(requested {kind})"
                )
            elif help and not family[1]:
                self._families[name] = (kind, help)
            instrument = self._instruments.get(key)
            if instrument is None:
                _validate_labels(kind, name, labels)
                cls = _TYPES[kind]
                instrument = cls(name, key[1], **kw) if kw else cls(name, key[1])
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        return self._get(
            "histogram", name, help, labels, buckets=buckets or DEFAULT_BUCKETS
        )

    def remove(self, name: str, **labels) -> None:
        """Drop one series whose owner is gone (a closed service's); the
        family stays registered."""
        with self._lock:
            self._instruments.pop((name, _label_key(labels)), None)

    # -- introspection --------------------------------------------------- #
    def families(self) -> Dict[str, Tuple[str, str]]:
        with self._lock:
            return dict(self._families)

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def _grouped(self):
        """``(name, kind, help, [instruments...])`` in registration order."""
        with self._lock:
            families = list(self._families.items())
            instruments = list(self._instruments.items())
        by_name: Dict[str, List[object]] = {}
        for (name, _), instrument in instruments:
            by_name.setdefault(name, []).append(instrument)
        return [
            (name, kind, help, by_name.get(name, []))
            for name, (kind, help) in families
        ]

    # -- exporters ------------------------------------------------------- #
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, kind, help, instruments in self._grouped():
            if help:
                lines.append(f"# HELP {name} {_escape_help(help)}")
            lines.append(f"# TYPE {name} {kind}")
            for inst in instruments:
                if kind == "histogram":
                    for bound, count in inst.bucket_counts():
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        le_label = 'le="%s"' % le
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(inst.labels, le_label)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(inst.labels)} {_format_value(inst.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(inst.labels)} {inst.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(inst.labels)} {_format_value(inst.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, object]:
        """JSON-friendly snapshot: ``{name: {type, help, series: [...]}}``."""
        out: Dict[str, object] = {}
        for name, kind, help, instruments in self._grouped():
            series = []
            for inst in instruments:
                labels = dict(inst.labels)
                if kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "count": inst.count,
                            "sum": inst.sum,
                            "buckets": [
                                {"le": b, "count": c} for b, c in inst.bucket_counts()
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": inst.value})
            out[name] = {"type": kind, "help": help, "series": series}
        return out

    def to_json_str(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_json(), sort_keys=True, **dumps_kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return f"MetricsRegistry({len(self._instruments)} instruments)"
