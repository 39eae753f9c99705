"""Native (compiled-C) kernel lowering: the second codegen tier.

:mod:`repro.core.codegen.pysource` lowers a fused temporal expression to
vectorized NumPy source — every operator still pays Python dispatch, a
temporary, and one full array pass.  This module (with
:mod:`~repro.core.codegen.c_emit`, which writes the C) lowers the *same*
:class:`~repro.core.codegen.pysource.KernelSpec` to a single-pass,
loop-fused C kernel instead: point accesses become monotone two-pointer
cursors, window reductions query precomputed prefix/deque indexes, and the
whole scalar expression tree runs per output lane inside one loop — the
keep-hot-data-in-register move the paper makes with LLVM, made here with
``cffi`` (ABI mode, no setuptools) plus the system C compiler behind an
optional dependency.

Tier contract
-------------
The native tier is **bit-compatible** with the NumPy tier: for every
lowerable construct the emitted C replicates NumPy's observable arithmetic
exactly — sequential ``np.cumsum`` prefix sums, ``np.maximum``'s
first-operand-wins NaN ordering, extended ``long double`` accumulation for
extended-precision rows with the centering mean computed by ``np.mean``
itself (pairwise summation is not replicated in C; the one place it matters
is computed Python-side and passed in), hex-float constants, and
division-by-zero masking.  What lowers is whatever carries a C fragment in
the two semantics tables — an :class:`~repro.core.ops.Op` row with a ``c``
template, a built-in :class:`~repro.windowing.functions.AggregateFunction`
row that is ``c_lowerable`` (``python -m repro.analysis --rows`` lists
both).  Rows without one — NumPy lowerings that portable C cannot
replicate bit for bit (pairwise-summed ``np.prod``, SIMD transcendentals,
``np.mod``) — and custom Python aggregates are **not lowered**: such
kernels silently stay on the NumPy tier, observable through :func:`stats`
and the engine's ``repro_native_fallbacks_total`` counter.

Life of a kernel
----------------
A native build is never paid by a caller.  A query starts on its NumPy
kernels; :class:`~repro.core.codegen.compiled.CompiledQuery` charges each
kernel the wall time its NumPy twin serves and, once that exceeds what
building the kernels is expected to cost (:func:`expected_build_seconds`
per kernel — the break-even tier-up rule), hands the query to this
module's one daemon builder thread (:func:`submit_build`), which probes the
toolchain, lowers, runs ``cc``, ``dlopen``s and publishes the kernel.
:func:`instantiate` is the synchronous build that thread (and
``CompiledQuery.promote``) calls; :func:`load_cached` is the same minus the
compiler, for pool workers.

Two entry points
----------------
A kernel has two C entry points over the same lowered expression, each its
own artifact.  ``tilt_native`` (:data:`RUN_ENTRY`) serves a one-shot
partition: it builds every index over the buffers it is handed.
``tilt_tick`` (:data:`TICK_ENTRY`) serves a session's in-process tick: each
prefix-sum group reads the arrays of the
:class:`~repro.windowing.prefix.PrefixRangeIndex` the session keeps for that
reduce site (passed by pointer on every call; NumPy still extends, prunes
and rebases it), and each cursor starts at one binary search for the tick's
first grid point instead of at the retained tail's first snapshot.  The
tick entry keeps no state of its own, so a session promoted mid-stream
hands nothing over.  It is built only for a kernel a session ticks
(:func:`instantiate` with ``tick``): a second copy of the loop costs ``cc``
time, and the break-even rule prices every query by what its builds cost.

Caching
-------
Compiled artifacts are cached at two levels, both keyed by
``KernelSpec.digest()``:

* an in-process LRU of instantiated :class:`NativeKernel` objects
  (``_KERNEL_CACHE_LIMIT`` entries), so every copy of a kernel in one
  process — a pool worker unpickling a query again included — shares one
  ``dlopen``;
* an on-disk ``.so`` cache (``REPRO_NATIVE_CACHE``, default
  ``$TMPDIR/repro-native-<uid>``) written via per-process temp files and an
  atomic ``os.replace``, so process-pool workers and later processes
  ``dlopen`` a ready-made artifact instead of running the C compiler.  The
  generated ``.c`` source is kept next to the ``.so`` for debuggability.

The disk cache holds code this process will execute, so it is trusted only
as far as it can be checked: the directory must belong to this user and be
writable by nobody else (it is created ``0700``; anything else is refused
with a stated reason and the kernel stays on NumPy), and every ``.so``
carries a ``.sum`` sidecar (size and SHA-256, written by the same atomic
replace) that must match before ``dlopen`` — a truncated or foreign artifact
is rejected (``cache_rejects_total``) and rebuilt rather than mapped.

Deployment settings: ``REPRO_NATIVE_CC`` (compiler, default ``cc``) and
``REPRO_NATIVE_CACHE`` (disk cache directory).  ``REPRO_NATIVE_DISABLE``
forces the tier unavailable — the test hook that simulates a missing
optional dependency.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import _BUILTIN_SINGLETONS
from ..ir.nodes import BinOp, Call, Expr, Reduce, UnaryOp
from ..runtime.ssbuf import _ssbuf_from_arrays
from .pysource import KernelSpec

if TYPE_CHECKING:  # the emitter is imported by a build, not by import
    from .c_emit import Lowered

__all__ = [
    "NUMPY_TIER",
    "NATIVE_TIER",
    "CODEGEN_TIERS",
    "RUN_ENTRY",
    "TICK_ENTRY",
    "native_available",
    "lowering_blockers",
    "instantiate",
    "load_cached",
    "cached",
    "expected_build_seconds",
    "submit_build",
    "drop_builds",
    "stats",
    "clear_caches",
    "NativeKernel",
]

NUMPY_TIER = "numpy"
NATIVE_TIER = "native"
#: accepted values for ``TiltEngine(codegen_tier=...)``
CODEGEN_TIERS = (NUMPY_TIER, NATIVE_TIER)

#: the two C entry points of every lowered kernel (see "Two entry points")
RUN_ENTRY = "tilt_native"
TICK_ENTRY = "tilt_tick"

_LOG = logging.getLogger("repro.native")

# ---------------------------------------------------------------------- #
# toolchain detection / process-global state
# ---------------------------------------------------------------------- #
_STATE_LOCK = threading.Lock()
_BUILD_LOCK = threading.Lock()
_AVAILABLE: Optional[bool] = None
_LONGDOUBLE_OK = False
_KERNEL_CACHE: "OrderedDict[str, NativeKernel]" = OrderedDict()
_KERNEL_CACHE_LIMIT = 128
_FAILURE_CACHE: "OrderedDict[str, str]" = OrderedDict()
_FAILURE_CACHE_LIMIT = 256
_STATS = {
    "compiles_total": 0,
    "compile_seconds_total": 0.0,
    "fallbacks_total": 0,
    "mem_hits_total": 0,
    "disk_hits_total": 0,
    "cache_rejects_total": 0,
}
#: what one build is taken to cost before this process has measured any
_BUILD_SECONDS_PRIOR = 0.1


def _compiler() -> str:
    return os.environ.get("REPRO_NATIVE_CC") or "cc"


def native_available() -> bool:
    """True when this process can compile and run native-tier kernels.

    Requires importable ``cffi`` and a C compiler on ``PATH``;
    ``REPRO_NATIVE_DISABLE`` forces ``False``.  The probe is cached per
    process (:func:`_reset_toolchain_cache` forgets it for tests).
    """
    if os.environ.get("REPRO_NATIVE_DISABLE", "").strip().lower() in ("1", "true", "yes", "on"):
        return False
    global _AVAILABLE, _LONGDOUBLE_OK
    with _STATE_LOCK:
        if _AVAILABLE is None:
            try:
                import cffi

                ffi = cffi.FFI()
                _LONGDOUBLE_OK = ffi.sizeof("long double") == np.dtype(np.longdouble).itemsize
                _AVAILABLE = shutil.which(_compiler()) is not None
            except Exception:
                _AVAILABLE = False
                _LONGDOUBLE_OK = False
        return bool(_AVAILABLE)


def _reset_toolchain_cache() -> None:
    """Forget the cached toolchain probe (test hook)."""
    global _AVAILABLE, _LONGDOUBLE_OK
    with _STATE_LOCK:
        _AVAILABLE = None
        _LONGDOUBLE_OK = False


def stats() -> Dict[str, float]:
    """Process-wide native-tier counters (compiles, seconds, fallbacks,
    cache hits and rejected cache artifacts)."""
    with _STATE_LOCK:
        return dict(_STATS)


def expected_build_seconds() -> float:
    """What building one kernel is expected to cost: the mean of the ``cc``
    runs this process has timed, seeded with one 0.1 s observation.  The
    other side of the break-even rule in ``CompiledQuery.run``."""
    with _STATE_LOCK:
        return (_BUILD_SECONDS_PRIOR + _STATS["compile_seconds_total"]) / (
            1 + _STATS["compiles_total"]
        )


def clear_caches() -> None:
    """Drop the in-memory kernel and failure caches (test hook; disk kept)."""
    with _STATE_LOCK:
        _KERNEL_CACHE.clear()
        _FAILURE_CACHE.clear()


def _count(key: str, amount: float = 1) -> None:
    with _STATE_LOCK:
        _STATS[key] += amount


# ---------------------------------------------------------------------- #
# the builder thread
# ---------------------------------------------------------------------- #
class _BuildQueue:
    """The process's one native build queue: hot queries, and a daemon
    thread that calls ``promote()`` on them one at a time — so no caller of
    ``run`` ever waits for a compiler and a burst of hot queries costs the
    host one ``cc`` at a time.  The thread is started by the first submit (a
    process whose queries never get hot never has it) and, being a daemon,
    never holds up interpreter exit.
    """

    def __init__(self) -> None:
        self._ready = threading.Condition()
        self._jobs: Deque[Tuple[object, object]] = deque()  # (owner, query)
        self._thread: Optional[threading.Thread] = None

    def submit(self, owner: object, query) -> None:
        with self._ready:
            self._jobs.append((owner, query))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="repro-native-builder", daemon=True
                )
                self._thread.start()
            self._ready.notify()

    def drop(self, owner: object) -> list:
        with self._ready:
            dropped = [query for o, query in self._jobs if o is owner]
            self._jobs = deque(job for job in self._jobs if job[0] is not owner)
        return dropped

    def _serve(self) -> None:
        while True:
            with self._ready:
                while not self._jobs:
                    self._ready.wait()
                _, query = self._jobs.popleft()
            try:
                query.promote()
            except Exception:  # the queue outlives any one query
                _LOG.exception("native build raised")


_BUILDS = _BuildQueue()


def submit_build(owner: object, query) -> None:
    """Queue ``query.promote()`` (a
    :class:`~repro.core.codegen.compiled.CompiledQuery`) for the builder
    thread.  ``owner`` is whoever may :func:`drop_builds` it again."""
    _BUILDS.submit(owner, query)


def drop_builds(owner: object) -> list:
    """Take back every query ``owner`` has queued and the builder thread has
    not started, and return them (theirs to ``unqueue()``).  A build already
    running is not waited for."""
    return _BUILDS.drop(owner)


def _after_fork_in_child() -> None:
    # the forking thread is the only one alive in the child: a lock another
    # thread held, or a builder thread recorded as running, would wait forever
    global _STATE_LOCK, _BUILD_LOCK, _BUILDS
    _STATE_LOCK = threading.Lock()
    _BUILD_LOCK = threading.Lock()
    _BUILDS = _BuildQueue()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ---------------------------------------------------------------------- #
# the disk cache: where it is, whether to trust it, what is in it
# ---------------------------------------------------------------------- #
class _NativeBuildError(RuntimeError):
    pass


def _cache_path() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _trusted_cache_dir() -> str:
    """The cache directory, created private if missing — or a refusal.

    Artifacts in it are ``dlopen``ed, so a directory somebody else owns or
    may write to (say, one pre-created under a shared ``/tmp``) is a way to
    run their code: refuse it and leave the kernel on NumPy.
    """
    path = _cache_path()
    os.makedirs(path, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid"):
        info = os.stat(path)
        if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            raise _NativeBuildError(
                f"native cache directory {path!r} is owned by another user or writable "
                "by group/others; refusing to load code from it"
            )
    return path


def _so_path(digest: str, entry: str = RUN_ENTRY) -> str:
    suffix = "-tick" if entry == TICK_ENTRY else ""
    return os.path.join(_cache_path(), f"tilt-{digest[:32]}{suffix}.so")


def _sum_path(so: str) -> str:
    return so + ".sum"


def _checksum(blob: bytes) -> str:
    return f"{len(blob)} {hashlib.sha256(blob).hexdigest()}\n"


def _artifact_valid(so: str) -> bool:
    """True when ``so`` is present and is the file its sidecar describes;
    one that is present and is not (truncated, no sidecar) is a counted
    reject — mapping it could kill the process with SIGBUS."""
    if not os.path.exists(so):
        return False
    try:
        with open(_sum_path(so)) as fh:
            expected = fh.read()
        with open(so, "rb") as fh:
            valid = _checksum(fh.read()) == expected
    except OSError:
        valid = False
    if not valid:
        _count("cache_rejects_total")
    return valid


def cached(spec: KernelSpec) -> bool:
    """True when the disk cache holds an artifact for ``spec`` — a cheap
    look (no probe, no hash, nothing created) that decides whether a query
    is promoted at compile time; validity is checked when it is loaded."""
    if lowering_blockers(spec):
        return False
    so = _so_path(spec.digest())
    return os.path.exists(so) and os.path.exists(_sum_path(so))


# ---------------------------------------------------------------------- #
# lowerability analysis
# ---------------------------------------------------------------------- #
def lowering_blockers(spec: KernelSpec) -> List[str]:
    """Reasons this spec has no bit-exact native lowering (empty: lowerable):
    an operator or aggregate whose table row carries no C fragment.

    A pure function of the spec's rows — what the toolchain adds (a C
    ``long double`` that is not NumPy's) is decided by :func:`instantiate`,
    where the toolchain is probed.  Checked *before*
    :meth:`KernelSpec.digest` — custom aggregates can make ``digest`` raise,
    and they are precisely what this walk rejects.
    """
    return _blockers(spec, longdouble_ok=True)


def _blockers(spec: KernelSpec, longdouble_ok: bool) -> List[str]:
    if spec.te is None:
        return ["kernel spec carries no IR (pre-native-tier artifact)"]
    blockers: List[str] = []

    def visit(expr: Expr) -> None:
        if isinstance(expr, (BinOp, UnaryOp, Call)):
            if expr.row.c is None:
                kind = "function" if isinstance(expr, Call) else "operator"
                blockers.append(f"{kind} {expr.row.name!r} has no bit-stable native lowering")
        elif isinstance(expr, Reduce):
            agg = expr.agg
            if _BUILTIN_SINGLETONS.get(agg.name) is not agg:
                blockers.append(f"custom aggregate {agg.name!r} requires Python folds")
            elif not agg.c_lowerable:
                blockers.append(f"aggregate {agg.name!r} has no bit-stable native lowering")
            elif agg.prefix_extended_precision:
                if expr.element is not None:
                    # the centering mean would have to be taken over the
                    # element-mapped array NumPy-side; not worth the seam
                    blockers.append("element-mapped extended-precision reduce is not lowered")
                elif not longdouble_ok:
                    blockers.append("C long double does not match numpy longdouble")
        for child in expr.children():
            visit(child)

    visit(spec.te.expr)
    return blockers


# ---------------------------------------------------------------------- #
# compilation
# ---------------------------------------------------------------------- #
def _compile_so(so: str, c_source: str) -> None:
    """Compile ``c_source`` into ``so`` and write its ``.sum`` sidecar.

    Both are written via per-process temp files and atomic ``os.replace``,
    the sidecar last, so concurrent processes warming the same digest never
    load a partial artifact (a ``.so`` whose sidecar is still the previous
    one's fails validation and is rebuilt); the loser of a race overwrites
    with identical bytes.
    """
    base = so[: -len(".so")]
    tag = f".{os.getpid()}.{threading.get_ident()}"
    tmp_c = base + tag + ".c"  # cc infers the language from the extension
    tmp_so = so + tag
    tmp_sum = _sum_path(so) + tag
    with open(tmp_c, "w") as fh:
        fh.write(c_source)
    cmd = [
        _compiler(),
        "-O2",
        "-fPIC",
        "-shared",
        # NumPy never fuses a*b+c into an FMA; neither may we
        "-ffp-contract=off",
        "-fno-strict-aliasing",
        tmp_c,
        "-o",
        tmp_so,
        "-lm",
    ]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:  # compiler gone, timeout, ...
            raise _NativeBuildError(f"C compiler invocation failed: {exc}") from exc
        finally:
            with contextlib.suppress(OSError):
                os.replace(tmp_c, base + ".c")  # keep the source for debuggability
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
            raise _NativeBuildError(f"cc exited {proc.returncode}: " + " | ".join(tail))
        with open(tmp_so, "rb") as fh:
            checksum = _checksum(fh.read())
        with open(tmp_sum, "w") as fh:
            fh.write(checksum)
        os.replace(tmp_so, so)
        os.replace(tmp_sum, _sum_path(so))
    finally:
        for leftover in (tmp_so, tmp_sum):
            with contextlib.suppress(OSError):
                os.unlink(leftover)


# ---------------------------------------------------------------------- #
# the runnable kernel
# ---------------------------------------------------------------------- #
#: the timeline and valid prefix of a prefix index that holds nothing
_NO_EDGES = np.zeros(1)
_NO_EDGES.flags.writeable = False


class NativeKernel:
    """A compiled, loaded, single-pass C kernel for one KernelSpec.

    Drop-in for the generated-Python kernel function, with one method per C
    entry point; both return the same
    :class:`~repro.core.runtime.ssbuf.SSBuf` as the NumPy twin (bit-identical
    values) and take the evaluation-time grid from the runtime ``rt``.
    :meth:`run` serves a one-shot partition; :meth:`tick` — present when
    :attr:`ticks` — a session's in-process tick, reading the reduce-site
    arrays ``rt`` keeps.  Neither holds a pointer past its call, and the
    cffi call releases the GIL, so thread-pool partitions genuinely overlap.
    """

    def __init__(
        self, spec: KernelSpec, digest: str, ffi, loaded: Dict[str, Tuple[Lowered, object, str]]
    ):
        """``loaded``: per entry point, its lowering, library and path."""
        self.spec = spec
        self.digest = digest
        run, run_lib, self.so_path = loaded[RUN_ENTRY]
        self.c_source = run.c_source
        self._refs = run.refs
        self._center_refs = run.center_refs
        self._ffi = ffi
        self._fn = getattr(run_lib, RUN_ENTRY)
        #: whether the tick entry was built (see :func:`instantiate`)
        self.ticks = TICK_ENTRY in loaded
        if self.ticks:
            tick, tick_lib, _ = loaded[TICK_ENTRY]
            self._tick_sites = tick.tick_sites
            self._tick_fn = getattr(tick_lib, TICK_ENTRY)
        self._libs = [lib for _, lib, _ in loaded.values()]  # keep the dlopen handles alive

    def _grid_and_inputs(self, env, t_start: float, t_end: float, rt):
        """``(ts, args)``: the grid, and the call's arguments so far — the
        grid and every referenced buffer by pointer (a validity mask as its
        own bytes: a bool is one byte)."""
        ffi = self._ffi
        ts = np.ascontiguousarray(rt.eval_times(env, t_start, t_end), dtype=np.float64)
        args = [len(ts), ffi.from_buffer("double[]", ts)]
        for ref in self._refs:
            buf = env[ref]
            args += [
                len(buf.times),
                ffi.from_buffer("double[]", np.ascontiguousarray(buf.times, dtype=np.float64)),
                ffi.from_buffer("double[]", np.ascontiguousarray(buf.values, dtype=np.float64)),
                ffi.from_buffer("unsigned char[]", buf.valid.view(np.uint8)),
                float(buf.start_time),
            ]
        return ts, args

    def _call(self, fn, ts, args, t_start: float):
        """Call an entry point with outputs sized here; they become the
        output buffer as they are (C wrote every lane)."""
        n = len(ts)
        out_v = np.empty(n, dtype=np.float64)
        out_k = np.empty(n, dtype=np.uint8)
        args.append(self._ffi.from_buffer("double[]", out_v, require_writable=True))
        args.append(self._ffi.from_buffer("unsigned char[]", out_k, require_writable=True))
        if fn(*args) != 0:
            raise ExecutionError(f"native kernel ~{self.spec.name} failed to allocate")
        return _ssbuf_from_arrays(ts, out_v, out_k.view(np.bool_), float(t_start))

    def tick(self, env, t_start: float, t_end: float, rt):
        """One session tick over ``(t_start, t_end]``: :data:`TICK_ENTRY`
        against the prefix arrays of the sites ``rt`` keeps — each brought
        up to date by the same NumPy ``ingest`` the NumPy twin's
        ``rt.reduce`` runs, so the tick's bytes do not depend on the tier —
        and of a fresh site, built exactly as ``rt.reduce`` builds one, for
        a group ``rt`` does not keep."""
        ts, args = self._grid_and_inputs(env, t_start, t_end, rt)
        if not len(ts):
            return rt.empty(t_start)
        ffi = self._ffi
        for site_key, components, dtype in self._tick_sites:
            ref, agg_idx, elem_idx = site_key
            site = rt.sites.get(site_key) or rt.new_site(agg_idx, elem_idx)
            site.ingest(env[ref], rt)
            edges, valid_prefix, prefixes = site.index.arrays()
            if not len(edges):  # nothing ingested: every window is φ
                edges, valid_prefix = _NO_EDGES, _NO_EDGES
                prefixes = [np.zeros(1, dtype=dtype)] * components
            ctype = "long double[]" if dtype is np.longdouble else "double[]"
            args += [len(edges) - 1, ffi.from_buffer("double[]", edges)]
            args.append(ffi.from_buffer("double[]", valid_prefix))
            args += [ffi.from_buffer(ctype, prefix) for prefix in prefixes]
        return self._call(self._tick_fn, ts, args, t_start)

    def run(self, env, t_start: float, t_end: float, rt):
        ts, args = self._grid_and_inputs(env, t_start, t_end, rt)
        if not len(ts):
            return rt.empty(t_start)
        if self._center_refs:
            centers = np.empty(len(self._center_refs), dtype=np.longdouble)
            for i, ref in enumerate(self._center_refs):
                buf = env[ref]
                # exactly PrefixRangeIndex's centering mean: np.mean over
                # the zero-masked longdouble array (pairwise summation is
                # NumPy's to make — its bits pass through untouched)
                masked = np.where(
                    buf.valid, np.asarray(buf.values, dtype=np.float64), 0.0
                ).astype(np.longdouble)
                centers[i] = np.mean(masked) if len(masked) else np.longdouble(0.0)
            args.append(self._ffi.from_buffer("long double[]", centers))
        else:
            args.append(self._ffi.NULL)
        return self._call(self._fn, ts, args, t_start)


# ---------------------------------------------------------------------- #
# instantiation front door
# ---------------------------------------------------------------------- #
def instantiate(spec: KernelSpec, tick: bool = False) -> Tuple[Optional[NativeKernel], Optional[str]]:
    """Build (or fetch from cache) the native kernel for a spec — with its
    tick entry too when ``tick`` (a session ticks it).

    Never raises: returns ``(kernel, None)`` on success or ``(None,
    reason)`` when the tier is unavailable, the spec is not lowerable, or
    the build fails — every fallback is counted in :func:`stats`.  May run
    the C compiler, so callers that must not wait go through
    :func:`submit_build`.
    """
    return _instantiate(spec, build=True, tick=tick)


def load_cached(spec: KernelSpec) -> Tuple[Optional[NativeKernel], Optional[str]]:
    """:func:`instantiate` for process-pool workers: loads what the memory
    and disk caches hold and never invokes the compiler.  An artifact that
    is simply not there yet is ``(None, None)`` — no fallback, nothing
    counted; the kernel keeps serving from its NumPy twin."""
    return _instantiate(spec, build=False, tick=False)


def _refuse(reason: str, digest: Optional[str] = None) -> Tuple[None, str]:
    with _STATE_LOCK:
        _STATS["fallbacks_total"] += 1
        if digest is not None:
            _FAILURE_CACHE[digest] = reason
            while len(_FAILURE_CACHE) > _FAILURE_CACHE_LIMIT:
                _FAILURE_CACHE.popitem(last=False)
    return None, reason


def _instantiate(
    spec: KernelSpec, build: bool, tick: bool
) -> Tuple[Optional[NativeKernel], Optional[str]]:
    if not native_available():
        return _refuse("native toolchain unavailable (cffi + C compiler required)")
    if spec.bounds_proof is None:
        # the C lowering indexes raw arrays where an uncovered access is
        # silent memory corruption, so it refuses to *trust* the margin
        # contract: only specs stamped by compile_program's analyzer gate
        # (repro.analysis bounds-safety proof) are lowered; everything else
        # falls back to the bounds-checked NumPy tier with this reason.
        return _refuse(
            "spec carries no bounds-safety proof (not produced by "
            "compile_program's analyzer gate); refusing native lowering"
        )
    blockers = _blockers(spec, _LONGDOUBLE_OK)
    if blockers:
        return _refuse("; ".join(blockers))
    digest = spec.digest()
    with _STATE_LOCK:
        kernel = _KERNEL_CACHE.get(digest)
        if kernel is not None and (kernel.ticks or not tick):
            _KERNEL_CACHE.move_to_end(digest)
            _STATS["mem_hits_total"] += 1
            return kernel, None
        failure = _FAILURE_CACHE.get(digest)
    if failure is not None:
        return _refuse(failure)
    try:
        import cffi

        from .c_emit import lower, lower_tick

        _trusted_cache_dir()
        # one artifact per entry point: a kernel no session ticks never
        # pays cc for the tick entry
        entries = [(RUN_ENTRY, lower)] + ([(TICK_ENTRY, lower_tick)] if tick else [])
        if not build and not all(_artifact_valid(_so_path(digest, e)) for e, _ in entries):
            return None, None
        ffi = cffi.FFI()
        loaded, timings = {}, []
        for entry, lower_entry in entries:
            so = _so_path(digest, entry)
            lowered = lower_entry(spec)
            if build:
                started = time.perf_counter()
                with _BUILD_LOCK:  # one cc at a time, whoever asks
                    compiled = not _artifact_valid(so)
                    if compiled:
                        _compile_so(so, lowered.c_source)
                timings.append(time.perf_counter() - started if compiled else None)
            else:
                timings.append(None)
            ffi.cdef(lowered.cdef)
            loaded[entry] = (lowered, ffi.dlopen(so), so)
        kernel = NativeKernel(spec, digest, ffi, loaded)
    except Exception as exc:
        return _refuse(f"native build failed: {exc}", digest)
    with _STATE_LOCK:
        for elapsed in timings:
            if elapsed is None:
                _STATS["disk_hits_total"] += 1
            else:
                _STATS["compiles_total"] += 1
                _STATS["compile_seconds_total"] += elapsed
        _KERNEL_CACHE[digest] = kernel
        _KERNEL_CACHE.move_to_end(digest)
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_LIMIT:
            _KERNEL_CACHE.popitem(last=False)
    return kernel, None
