"""Helpers shared by the benchmark files.

Besides the console table rows, every benchmark result can be captured as a
machine-readable record (name, params, events/sec, latency percentiles) and
written to a JSON file, so a perf trajectory can be recorded across
commits:

* the argparse-driven ``bench_multitenant.py`` takes ``--json PATH`` (see
  :func:`add_json_option`);
* pytest-benchmark suites (the ``bench_fig*`` files) take
  ``pytest --bench-json PATH`` (wired in ``conftest.py``) — every
  :func:`record_throughput` row is collected automatically.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
from typing import Dict, List, Optional

#: machine-readable results collected during this process (one dict per
#: benchmark row; see :func:`record_result` for the schema)
RECORDS: List[dict] = []

_METADATA: Optional[dict] = None


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_metadata(refresh: bool = False) -> dict:
    """Provenance of this benchmark process, computed once and attached to
    every recorded row: a result file must identify the commit and machine
    it was measured on to be comparable later (the engine configuration is
    in each row's ``params``)."""
    global _METADATA
    if _METADATA is None or refresh:
        import numpy as np

        _METADATA = {
            "git_sha": _git_sha(),
            "hostname": socket.gethostname(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        }
    return dict(_METADATA)


def record_result(
    name: str,
    *,
    params: Optional[Dict] = None,
    events: Optional[int] = None,
    events_per_sec: Optional[float] = None,
    latency_percentiles: Optional[Dict[str, float]] = None,
    extra: Optional[Dict] = None,
) -> dict:
    """Append one benchmark row to the in-process :data:`RECORDS` registry.

    The schema is intentionally flat and stable: ``name`` identifies the
    benchmark and series, ``params`` the configuration axes (workers, tick
    size, tenant count, policy, ...), ``events_per_sec`` the headline
    throughput, and ``latency_percentiles`` a ``{"p50": ..., "p99": ...}``
    mapping in seconds.
    """
    record = {
        "name": name,
        "params": dict(params or {}),
        "events": events,
        "events_per_sec": events_per_sec,
        "latency_percentiles": dict(latency_percentiles or {}),
        "meta": run_metadata(),
    }
    if extra:
        record["extra"] = dict(extra)
    RECORDS.append(record)
    return record


def write_json(path: str, records: Optional[List[dict]] = None) -> None:
    """Write collected benchmark records to ``path`` as a JSON document."""
    payload = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "meta": run_metadata(),
        "results": list(RECORDS if records is None else records),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[benchutil] wrote {len(payload['results'])} result(s) to {path}")


def add_json_option(parser) -> None:
    """Add the standard ``--json PATH`` flag to an argparse parser."""
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable results (name, params, events/sec, "
        "latency percentiles) to this JSON file",
    )


def record_throughput(benchmark, label: str, input_events: int) -> float:
    """Attach throughput info to a finished benchmark and print a table row.

    The paper reports throughput as input events processed per second of
    query execution; ``benchmark.stats`` holds the measured execution times.
    The row is also appended to :data:`RECORDS`, so ``--bench-json`` can
    dump the whole run.
    """
    mean_seconds = benchmark.stats.stats.mean
    throughput = input_events / mean_seconds if mean_seconds > 0 else float("inf")
    benchmark.extra_info["events"] = input_events
    benchmark.extra_info["events_per_sec"] = round(throughput)
    benchmark.extra_info["million_events_per_sec"] = round(throughput / 1e6, 4)
    print(
        f"\n[{label}] {throughput / 1e6:.3f} M events/s "
        f"({input_events} events, {mean_seconds * 1e3:.1f} ms)"
    )
    record_result(
        label,
        events=input_events,
        events_per_sec=throughput,
        extra={"mean_seconds": mean_seconds},
    )
    return throughput


def tilt_native_inputs(streams):
    """Convert event streams to snapshot buffers outside the timed region.

    The paper measures query execution on a dataset already loaded in memory
    in each engine's native format; for TiLT that format is the snapshot
    buffer, so benchmarks convert once before timing (the baselines receive
    their native event batches the same way).
    """
    from repro.core.runtime.ssbuf import ssbuf_from_stream, ssbufs_from_stream

    inputs = {}
    for name, stream in streams.items():
        if stream.is_structured:
            for col, buf in ssbufs_from_stream(stream).items():
                field = col.split(".", 1)[1]
                inputs[f"{name}.{field}"] = buf
        else:
            inputs[name] = ssbuf_from_stream(stream)
    return inputs
