"""Seeded LNT104 violations: per-event Python in an ingest hot-path module.

The path of this fixture deliberately ends in ``datagen/sources.py`` so the
lint applies its columnar-ingest rule.  Never imported.
"""


def order_check(events, last):
    for e in events:  # LNT104: per-event loop
        if e.start < last:
            raise ValueError("out of order")
        last = e.start


def starts_of(stream):
    return [e.start for e in stream.events]  # LNT104: comprehension over .events


def shift(chunk, dt, Event):
    return Event(chunk.start + dt, chunk.end + dt, chunk.payload)  # LNT104: construction


def fine(chunk, cols, events):
    # negative: column-wise work, and the explicitly allowed coercion edge
    rows = [chunk.column(col.field) for col in cols]
    for e in events:  # lint: allow(LNT104)
        rows.append(e)
    return rows
