"""Measurement hygiene: a clean, recorded environment for every run.

Everything here is recorded into the result's ``meta`` so two result files
can be compared knowing what differed between the processes that wrote them.
The calibration kernels are tiltbench's own — nothing is imported from
``benchmarks/benchutil.py``, which later PRs remain free to edit.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np

#: root of the checkout (the directory holding ``tiltbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent

#: engine-behaviour knobs: cleared for the run, recorded in ``meta``
KNOBS = ("REPRO_EXECUTOR", "REPRO_INCREMENTAL", "REPRO_TRACE", "REPRO_CODEGEN")

#: scratch directory inside the checkout (native-kernel caches of the run)
SCRATCH = ROOT / ".tiltbench_tmp"


@contextlib.contextmanager
def clean_environment() -> Iterator[Dict[str, object]]:
    """Clear the ``REPRO_*`` knobs, point the native-kernel cache (and
    ``TMPDIR``) at a fresh empty directory inside the checkout and pin the
    process to the CPU it is running on.  Yields what was found and done;
    undoes all of it on exit."""
    saved_env = {k: os.environ.get(k) for k in KNOBS + ("REPRO_NATIVE_CACHE", "TMPDIR")}
    SCRATCH.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="native-", dir=SCRATCH)
    for knob in KNOBS:
        os.environ.pop(knob, None)
    os.environ["REPRO_NATIVE_CACHE"] = cache
    os.environ["TMPDIR"] = cache  # the C compiler's intermediates stay in the checkout too
    affinity = pin_to_current_cpu()
    info = {
        "cleared_env": {k: v for k, v in saved_env.items() if v is not None and k in KNOBS},
        "native_cache": os.path.relpath(cache, ROOT),
        "pinned_cpu": affinity["pinned"],
    }
    try:
        yield info
    finally:
        if affinity["previous"] is not None:
            os.sched_setaffinity(0, affinity["previous"])
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(cache, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no concurrent run still uses it


def pin_to_current_cpu() -> Dict[str, object]:
    """Pin the process to one CPU when the platform permits it."""
    try:
        previous = os.sched_getaffinity(0)
        cpu = _current_cpu(previous)
        os.sched_setaffinity(0, {cpu})
        return {"previous": previous, "pinned": cpu}
    except (AttributeError, OSError):
        return {"previous": None, "pinned": None}


def _current_cpu(allowed) -> int:
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        if cpu in allowed:
            return cpu
    except (OSError, ValueError, IndexError):
        pass
    return min(allowed)


@contextlib.contextmanager
def all_cpus() -> Iterator[None]:
    """Widen the affinity to every CPU (the ``executor.*`` probes only)."""
    try:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, range(os.cpu_count() or 1))
    except (AttributeError, OSError):
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            os.sched_setaffinity(0, previous)


@contextlib.contextmanager
def frozen_heap() -> Iterator[None]:
    """Collect, then freeze everything allocated so far (the generated
    inputs: millions of ``Event`` objects) so no measured tick rescans it."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def host_meta(seed: int) -> Dict[str, object]:
    """Provenance of this process."""
    load = os.getloadavg()[0] if hasattr(os, "getloadavg") else None
    nproc = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "load_average_start": load,
        "load_warning": bool(load is not None and load > 0.5 * nproc),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "runs": "hot: one discarded warm-up pass per workload; setup_s alone is cold",
    }


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def rss_mb() -> float:
    """Resident set size of this process in MB (0.0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError):
        return 0.0


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


# ---------------------------------------------------------------------- #
# calibration kernels
# ---------------------------------------------------------------------- #
def hardware_score(repeats: int = 7) -> float:
    """Dimensionless single-core speed: a fixed NumPy kernel, best of
    ``repeats`` (noise only ever makes the host look slower), scaled so ~1.0
    is a mid-range 2020s core."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(200_000)
    b = rng.standard_normal(200_000)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        checksum = float(np.sort(np.cumsum(a * b))[::4].sum())
        best = min(best, time.perf_counter() - t0)
        if checksum != checksum:
            raise ArithmeticError("calibration kernel produced NaN")
    return 0.002 / best


def memcpy_gb_per_s(megabytes: int = 64, repeats: int = 5) -> float:
    """Bytes read plus bytes written per second of one large array copy."""
    src = np.ones(megabytes * 131_072)  # float64: 8 bytes each
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9
