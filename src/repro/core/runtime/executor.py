"""Worker-pool executors for partition-parallel query execution.

The compiled kernels are pure functions of their partition, so parallel
execution needs no locks, no shared aggregation state and no cross-worker
communication — the property the paper credits for TiLT's scalability
advantage over engines that share aggregation state between workers.
Three executors are provided:

* :class:`SerialExecutor` — runs partitions in the calling thread (the
  single-worker configuration, and the deterministic mode used by tests);
* :class:`ThreadPoolExecutor` — a pool of worker threads; the NumPy kernels
  release the GIL for their array work, so this gives real (if sub-linear)
  multi-core scaling on CPython;
* :class:`ProcessPoolExecutor` — a pool of worker processes; partitions and
  the pickled query are shipped across the boundary, so the kernels are not
  bounded by the GIL, but every map pays pickling both ways.  On a 2-vCPU
  host the thread pool beats it on every picklable application at 200k
  events (README, *Scalability*).

Process dispatch keeps no state in the parent: every map submits the
module-level :func:`run_compiled_partition` task with a ``(payload,
partition, digest)`` tuple, and each worker unpickles a payload it has not
seen once (an LRU keyed by the payload bytes) and then runs partitions
exactly as an in-process worker would.  Queries whose artifacts cannot be
pickled (e.g. lambda-based custom aggregates) never reach this path — the
engine falls back to its in-process executor, counted and reported (see
:meth:`TiltEngine.dispatch_plan`).
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import multiprocessing
import os
import pickle
from typing import Callable, List, Sequence, Tuple, TypeVar

from ...obs.trace import Tracer

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "default_kind",
    "make_executor",
    "run_compiled_partition",
    "worker_kernel_plan",
]

T = TypeVar("T")
R = TypeVar("R")

#: executor kinds accepted by :func:`make_executor` / ``TiltEngine``
EXECUTOR_KINDS = ("serial", "thread", "process")


class Executor:
    """Minimal executor interface: order-preserving map over work items."""

    #: number of workers this executor uses (1 for serial)
    workers: int = 1

    #: backend family: ``"serial"``, ``"thread"`` or ``"process"``
    kind: str = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pool resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """Run every item in the calling thread, in order."""

    workers = 1
    kind = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadPoolExecutor(Executor):
    """Thread-pool executor with an order-preserving map."""

    kind = "thread"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def _warm_worker(_index: int) -> int:
    """No-op pool-warmup task (module-level so it pickles by reference)."""
    return os.getpid()


def _default_mp_context():
    """Multiprocessing start method for the process backend.

    ``fork`` where available: workers inherit the imported modules (cheap
    startup) and — unlike ``forkserver``/``spawn`` — nothing re-imports the
    parent's ``__main__``, so engines embedded in scripts without an
    ``if __name__ == "__main__"`` guard, in REPLs, or in stdin-driven
    programs keep working.  This matches the stdlib's own Linux default
    through Python 3.13.  The known caveat is forking a *multi-threaded*
    parent (locks copied mid-held into the child); embedders for whom that
    matters — and whose ``__main__`` is import-safe — can set the
    ``REPRO_MP_CONTEXT`` environment variable to ``forkserver`` or
    ``spawn``, which this honours verbatim.
    """
    name = os.environ.get("REPRO_MP_CONTEXT")
    if name:
        return multiprocessing.get_context(name)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover - non-POSIX


class ProcessPoolExecutor(Executor):
    """Process-pool executor with an order-preserving map.

    The submitted callable must be picklable by reference (a module-level
    function); the engine uses :func:`run_compiled_partition`.  The pool is
    long-lived — it is created once per engine and reused by every run and
    every streaming tick, so worker startup and per-query kernel rebuilds
    are one-time costs.  The stdlib pool never replaces a dead worker: one
    that dies breaks the pool for good, and the engine replaces the whole
    pool (see ``TiltEngine._map_partitions``).
    """

    kind = "process"

    def __init__(self, workers: int, mp_context=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context if mp_context is not None else _default_mp_context(),
        )
        # Pre-spawn every worker now rather than at the first submit: under
        # the default fork start method this snapshots the parent at pool
        # *creation* time — typically before an embedding application (the
        # multi-tenant service included) has started its own threads — so
        # workers never inherit another thread's locks mid-held.
        list(self._pool.map(_warm_worker, range(self.workers), chunksize=1))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        # One chunk per worker: besides cutting IPC round trips, pickle
        # memoizes repeated objects *within* a chunk, so the query payload
        # embedded in every task crosses the boundary once per worker per
        # map instead of once per partition.  Static chunking is safe
        # here because partitions are cost-uniform by construction (equal
        # output intervals).
        chunksize = max(1, math.ceil(len(items) / self.workers))
        return list(self._pool.map(fn, items, chunksize=chunksize))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def default_kind(workers: int) -> str:
    """The in-process backend for a worker count: serial for one worker, a
    thread pool otherwise."""
    return "serial" if workers <= 1 else "thread"


def make_executor(workers: int, kind: str) -> Executor:
    """Build an executor of the given kind.

    The kind forces the backend regardless of the worker count (a
    one-worker process pool is still a separate process — useful for
    testing the serialization path).
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadPoolExecutor(max(1, workers))
    if kind == "process":
        return ProcessPoolExecutor(max(1, workers))
    raise ValueError(f"unknown executor kind {kind!r} (expected one of {EXECUTOR_KINDS})")


# ---------------------------------------------------------------------- #
# process-pool worker side
# ---------------------------------------------------------------------- #
#: worker-side tracer: its span ids embed the worker's pid, so the records it
#: ships back never collide with the parent tracer's
_WORKER_TRACER = Tracer()


@functools.lru_cache(maxsize=128)
def _worker_query(payload: bytes):
    """This worker's copy of the query ``payload`` pickles: unpickled (its
    kernels rebuilt) once per distinct payload.  The bound comfortably
    exceeds QueryService's default ``max_tenants`` (64), so a full
    default-configuration fleet does not thrash it."""
    return pickle.loads(payload)


def worker_kernel_plan(payload: bytes):
    """Process-pool task: ``kernel_plan()`` of this worker's copy of the
    query ``payload`` pickles — the copy :func:`run_compiled_partition`
    runs.  The parent's ``kernel_plan()`` speaks for the parent's copy only;
    this is how a test or an operator asks the pool."""
    return _worker_query(payload).kernel_plan()


def run_compiled_partition(task: Tuple):
    """Process-pool task: run one partition of a compiled query.

    ``task`` is ``(payload, partition, digest)``: ``payload`` is
    :meth:`~repro.core.codegen.compiled.CompiledQuery.pickle_payload`,
    shipped with every map (one chunk per worker, so once per worker per
    map), and unpickled once per worker; ``partition`` is a
    :class:`~repro.core.runtime.partition.Partition`.  Returns the output
    snapshot buffer (compacted by a C output kernel, as the engine compacts
    the pieces anyway), which pickles back to the parent as raw arrays.

    ``digest`` is ``None`` unless the engine's tracer is enabled; then it is
    the query's short digest, the partition is timed worker-side and the
    return value becomes ``(buffer, [SpanRecord])`` — the span records ship
    back with the result and are adopted under the parent's dispatch span,
    so a traced tick's span tree crosses the process boundary intact.
    """
    payload, partition, digest = task
    compiled = _worker_query(payload)
    if digest is None:
        return compiled.run(partition.inputs, partition.t_start, partition.t_end)
    with _WORKER_TRACER.span(
        "kernel.partition", index=partition.index, t_start=partition.t_start,
        t_end=partition.t_end, kernel_digest=digest,
    ):
        out = compiled.run(partition.inputs, partition.t_start, partition.t_end)
    return out, _WORKER_TRACER.drain()
