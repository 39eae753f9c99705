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
optional dependency.  ``docs/architecture.md`` §5 has the details.

Tier contract
-------------
The native tier is **bit-compatible** with the NumPy tier: the emitted C
replicates NumPy's observable arithmetic exactly (sequential ``np.cumsum``
prefix sums, ``np.maximum``'s NaN ordering, ``long double`` accumulation
around a centre ``np.mean`` computes Python-side, hex-float constants,
division-by-zero masking).  What lowers is whatever carries a C fragment in
the two semantics tables (``python -m repro.analysis --rows``); anything
else — and an opaque custom aggregate — silently stays on the NumPy tier,
counted in :func:`stats` and ``repro_native_fallbacks_total``.

Life of a kernel
----------------
A native build is never paid by a caller.  A query starts on its NumPy
kernels; :class:`~repro.core.codegen.compiled.CompiledQuery` charges the
NumPy time to each kernel's :class:`KernelRecord` (shared by every equal
kernel in the process) and, once that heat exceeds
:func:`expected_build_seconds` per kernel (break-even), hands the query to
this module's one daemon builder thread (:func:`submit_build`).
:func:`instantiate` is the synchronous build it calls; :func:`load_cached`
is the same minus the compiler, for pool workers.  A ``cc`` still running
at interpreter exit is killed and its temp files removed (``atexit``).

One entry point
---------------
A kernel has one C entry point, ``tilt_tick`` (:data:`TICK_ENTRY`), one
artifact, and one call path: every call its kernel serves — a one-shot
partition, an intermediate a tick rebuilds, a session's in-process tick —
is one call of it (:meth:`NativeKernel.tick`) over one pointer: the struct
of the caller's :class:`~repro.core.codegen.runtime_support.KernelRuntime`
(:class:`_Bound`), made by the runtime's first call and rebound only where
a :class:`~repro.core.runtime.growable.GrowableArray` was reallocated.  The
entry extends each prefix site (a kept one by the new snapshots, a
rewound per-call one by the whole input) into rows Python reserved, and
evaluates ``grid.py``'s grid, byte for byte, in the runtime's output lanes:
without a precision it merges the grid's runs inside its evaluation loop, a
batch of times at a time; with one it builds the grid first (the merge and
``tilt_grid`` live in one support library every unit links against:
:func:`_load_support`).  When the lanes are too few it returns
the count and is called again with them grown.  For an output kernel it
compacts the lanes as ``SSBuf.compact`` would, and for a session prunes the
kept sites as ``PrefixRangeIndex.prune`` would.  Nothing before the extends
can fail, and the entry keeps no state of its own, so a session promoted
mid-stream hands nothing over.

Caching
-------
Two levels, both keyed by ``KernelSpec.digest()``: an in-process LRU of
:class:`KernelRecord` objects (``_KERNEL_CACHE_LIMIT``; heat and the
loaded kernel or refusal — equal kernels pay toward one build, share one
``dlopen`` and are refused once; a spec with lowering blockers, or a
kernel that did not request the native tier, keeps a private record), and
an on-disk ``.so`` cache (``REPRO_NATIVE_CACHE``, default
``$TMPDIR/repro-native-<uid>``, the ``.c`` kept beside each ``.so``)
written through per-process temp files and an atomic ``os.replace``.  The
disk cache holds code this process will execute, so it is trusted only as
far as it can be checked: the directory must belong to this user and be
writable by nobody else (created ``0700``), and every ``.so`` must match
its ``.sum`` sidecar (size and SHA-256) before ``dlopen`` — a truncated or
foreign artifact is rejected (``cache_rejects_total``) and rebuilt.

Deployment settings: ``REPRO_NATIVE_CC`` (compiler, default ``cc``) and
``REPRO_NATIVE_CACHE``.  ``REPRO_NATIVE_DISABLE`` forces the tier
unavailable — the test hook that simulates a missing optional dependency.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import logging
import math
import os
import shutil
import signal
import stat
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ..ir.nodes import BinOp, Call, Expr, Reduce, UnaryOp
from ..runtime.ssbuf import _ssbuf_from_arrays
from .pysource import KernelSpec

if TYPE_CHECKING:  # the emitter is imported by a build, not by import
    from .c_emit import Lowered

__all__ = [
    "NUMPY_TIER",
    "NATIVE_TIER",
    "CODEGEN_TIERS",
    "TICK_ENTRY",
    "native_available",
    "lowering_blockers",
    "instantiate",
    "load_cached",
    "cached",
    "loaded",
    "expected_build_seconds",
    "submit_build",
    "drop_builds",
    "stats",
    "clear_caches",
    "record",
    "KernelRecord",
    "NativeKernel",
]

NUMPY_TIER = "numpy"
NATIVE_TIER = "native"
#: accepted values for ``TiltEngine(codegen_tier=...)``
CODEGEN_TIERS = (NUMPY_TIER, NATIVE_TIER)

#: the C entry point of every lowered kernel (see "One entry point")
TICK_ENTRY = "tilt_tick"

_LOG = logging.getLogger("repro.native")

# ---------------------------------------------------------------------- #
# toolchain detection / process-global state
# ---------------------------------------------------------------------- #
_STATE_LOCK = threading.Lock()
_BUILD_LOCK = threading.Lock()
_AVAILABLE: Optional[bool] = None
_LONGDOUBLE_OK = False
_RECORDS: "OrderedDict[str, KernelRecord]" = OrderedDict()
_KERNEL_CACHE_LIMIT = 128
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
    """Drop every kernel record — heat, loaded kernels, refusals (test hook;
    disk kept).  Kernels compiled before keep the records they hold."""
    with _STATE_LOCK:
        _RECORDS.clear()


def _count(key: str, amount: float = 1) -> None:
    with _STATE_LOCK:
        _STATS[key] += amount


# ---------------------------------------------------------------------- #
# one record per kernel digest
# ---------------------------------------------------------------------- #
class KernelRecord:
    """What this process knows about one kernel digest, shared by every
    :class:`~repro.core.codegen.compiled.CompiledKernel` that holds it:
    ``heat``, the wall seconds their NumPy twins have served (what the
    break-even rule weighs), and the outcome of building it — the loaded
    ``kernel``, or the ``refusal`` reason.  ``digest`` is ``None`` on a
    private record."""

    __slots__ = ("digest", "heat", "kernel", "refusal")

    def __init__(self, digest: Optional[str] = None):
        self.digest = digest
        self.heat = 0.0
        self.kernel: Optional[NativeKernel] = None
        self.refusal: Optional[str] = None


def record(spec: KernelSpec) -> KernelRecord:
    """The process-wide record of ``spec``'s digest — or a private one for
    a spec with lowering blockers, whose digest may raise and which never
    builds.  A record the LRU evicts lives on in the kernels holding it; a
    later equal kernel starts a new one."""
    if lowering_blockers(spec):
        return KernelRecord()
    digest = spec.digest()
    with _STATE_LOCK:
        return _record(digest)


def _record(digest: str) -> KernelRecord:
    """The table's record of ``digest``, created or made most recent (hold
    ``_STATE_LOCK``)."""
    rec = _RECORDS.get(digest)
    if rec is None:
        rec = _RECORDS[digest] = KernelRecord(digest)
        while len(_RECORDS) > _KERNEL_CACHE_LIMIT:
            _RECORDS.popitem(last=False)
    else:
        _RECORDS.move_to_end(digest)
    return rec


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
    # — and the parent's compiler is not the child's to kill at exit
    global _STATE_LOCK, _BUILD_LOCK, _SPAWN_LOCK, _BUILDS, _IN_FLIGHT
    _STATE_LOCK = threading.Lock()
    _BUILD_LOCK = threading.Lock()
    _SPAWN_LOCK = threading.Lock()
    _BUILDS = _BuildQueue()
    _IN_FLIGHT = None


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


def _so_path(digest: str, c_source: str) -> str:
    """The kernel's artifact: its name carries a hash of the C text as well
    as the spec digest, which does not cover how the kernel is emitted — a
    stale artifact of another emission must not load."""
    tag = hashlib.sha256(c_source.encode()).hexdigest()[:12]
    return os.path.join(_cache_path(), f"tilt-{digest[:32]}-{tag}.so")


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


def cached(spec: KernelSpec, rec: KernelRecord) -> bool:
    """True when ``spec``'s record holds a loaded kernel or the disk cache
    this emission's artifact of it — the look that decides whether a query
    is promoted at compile time: it lowers the spec (a fraction of a
    millisecond) to name the artifact, but probes, builds and creates
    nothing.  An artifact another emission of the digest left is no hit;
    validity is checked when the artifact is loaded.  Never for a private
    record."""
    if rec.digest is None:
        return False
    if rec.kernel is not None:
        return True
    from .c_emit import lower

    return os.path.exists(_sum_path(_so_path(rec.digest, lower(spec).c_source)))


def loaded(records: List[KernelRecord]) -> Optional[List["NativeKernel"]]:
    """The C kernels ``records`` hold, counted as memory hits — or ``None``,
    nothing counted, unless every record holds one and the tier is
    available.  A record's kernel, once set, stays, so a caller may adopt
    them on any thread without building (``CompiledQuery.adopt_loaded``)."""
    with _STATE_LOCK:
        kernels = [rec.kernel for rec in records]
    if any(kernel is None for kernel in kernels) or not native_available():
        return None
    _count("mem_hits_total", len(kernels))
    return kernels


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
            if not agg.generated:
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
#: the ``cc`` running now and its temp files (builds hold ``_BUILD_LOCK``,
#: so there is at most one), for :func:`_kill_compiler`
_IN_FLIGHT: Optional[Tuple[subprocess.Popen, Tuple[str, ...]]] = None
#: set by :func:`_kill_compiler`: no compiler starts after it has run
_EXITING = False
_EXIT_HOOKED = False
#: held while a compiler is started and registered, and by
#: :func:`_kill_compiler` while it reads the registration
_SPAWN_LOCK = threading.Lock()


def _kill_compiler() -> None:
    """``atexit``: the builder is a daemon thread, so the interpreter may
    exit mid-build — kill the compiler's process group (``cc1``, ``as``
    included), reap it and delete its temp files rather than leave it
    running, reparented to init, writing into the cache directory."""
    global _EXITING
    with _SPAWN_LOCK:
        _EXITING = True
        in_flight = _IN_FLIGHT
    if in_flight is None:
        return
    proc, leftovers = in_flight
    with contextlib.suppress(OSError):
        os.killpg(proc.pid, signal.SIGKILL)
    with contextlib.suppress(subprocess.SubprocessError):
        proc.wait(timeout=5)
    for path in leftovers:
        with contextlib.suppress(OSError):
            os.unlink(path)


def _run_compiler(cmd: List[str], leftovers: Tuple[str, ...]) -> Tuple[int, str]:
    """Run ``cmd`` in a process group of its own, where :func:`_kill_compiler`
    can reach it; ``(returncode, output)``."""
    global _IN_FLIGHT, _EXIT_HOOKED
    if not _EXIT_HOOKED:
        atexit.register(_kill_compiler)
        _EXIT_HOOKED = True
    # started and registered in one step: a compiler the exit hook cannot
    # see is never running, and none starts once the hook has run.  Only
    # the exit hook waits on this lock, for the fork and exec
    with _SPAWN_LOCK:
        if _EXITING:
            raise subprocess.SubprocessError("the interpreter is exiting")
        proc = subprocess.Popen(  # lint: allow(LNT101)
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        _IN_FLIGHT = (proc, leftovers)
    try:
        output, _ = proc.communicate(timeout=120)
    except subprocess.SubprocessError:
        with contextlib.suppress(OSError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        _IN_FLIGHT = None
    return proc.returncode, output


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
            returncode, output = _run_compiler(cmd, (tmp_c, tmp_so, tmp_sum))
        except (OSError, subprocess.SubprocessError) as exc:  # compiler gone, timeout, ...
            raise _NativeBuildError(f"C compiler invocation failed: {exc}") from exc
        finally:
            with contextlib.suppress(OSError):
                os.replace(tmp_c, base + ".c")  # keep the source for debuggability
        if returncode != 0:
            tail = output.strip().splitlines()[-5:]
            raise _NativeBuildError(f"cc exited {returncode}: " + " | ".join(tail))
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


#: the support library once loaded (kept alive; see :func:`_load_support`)
_SUPPORT = None


def _load_support(build: bool) -> bool:
    """Load the library every kernel's unit links against
    (``c_emit.TICK_SUPPORT``: the evaluation grid — one artifact for all
    kernels, where a copy in each unit would double its ``cc`` time),
    building it first if the cache does not hold it and ``build`` allows;
    ``False`` when it is neither loaded nor on disk and may not be built.
    Its symbols are loaded global, so a unit ``dlopen``ed after it resolves
    ``tilt_grid`` and the merge there.  Its ``cc`` run is no kernel's build and happens
    once per cache, so :func:`stats` does not count it (nor does the
    break-even rule); the wall time of the build that loads it does."""
    global _SUPPORT
    import cffi

    from .c_emit import TICK_SUPPORT

    with _BUILD_LOCK:
        if _SUPPORT is not None:
            return True
        tag = hashlib.sha256(TICK_SUPPORT.encode()).hexdigest()[:12]
        so = os.path.join(_cache_path(), f"support-{tag}.so")
        if not _artifact_valid(so):
            if not build:
                return False
            _compile_so(so, TICK_SUPPORT)
        ffi = cffi.FFI()
        _SUPPORT = ffi.dlopen(so, ffi.RTLD_NOW | ffi.RTLD_GLOBAL)
        return True


# ---------------------------------------------------------------------- #
# the runnable kernel
# ---------------------------------------------------------------------- #
_CTYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.longdouble): "long double[]",
    np.dtype(np.uint8): "unsigned char[]",
}


class NativeKernel:
    """A compiled, loaded, single-pass C kernel for one KernelSpec.

    Drop-in for the generated-Python kernel function: :meth:`tick` returns
    the same :class:`~repro.core.runtime.ssbuf.SSBuf` as the NumPy twin
    (bit-identical values and times).  Its state lives in the caller's
    runtime, and the cffi call releases the GIL, so thread-pool partitions
    (each with a fresh runtime) genuinely overlap.
    """

    def __init__(self, spec: KernelSpec, ffi, lowered: Lowered, lib):
        self.spec = spec
        self._refs = lowered.refs
        self._sites = lowered.prefix_sites
        self._ffi = ffi
        self._lib = lib  # keep the dlopen handle alive
        self._fn = getattr(lib, TICK_ENTRY)
        #: per input, how many ``(input, boundary offset)`` pairs of the grid read it
        self._grid_reads = [len(spec.accesses[ref].boundary_offsets()) for ref in self._refs]
        #: the struct's field names: per input, per prefix site (see ``c_emit._struct``)
        self._input_fields = [tuple(f"i{i}_{f}" for f in ("t", "v", "k", "lo", "n", "s")) for i in range(len(self._refs))]
        self._site_fields = [
            (
                tuple(f"{site.name}_{f}" for f in ("e", "vp", *(f"p{c}" for c in range(site.components)))),
                tuple(f"{site.name}_{f}" for f in ("lo", "n", "new", "floor", "drop", "c")),
            )
            for site in self._sites
        ]

    def tick(self, env, t_start: float, t_end: float, rt):
        """One :data:`TICK_ENTRY` call over ``(t_start, t_end]`` and ``rt``'s
        struct (:class:`_Bound`, made by the runtime's first call).  The
        result is a view of ``rt``'s lanes, valid until its next call."""
        if t_end <= t_start:  # an empty grid: nothing to evaluate or ingest
            return rt.empty(t_start)
        rt.begin()
        return (rt.bound or _Bound(self, rt)).call(rt, env, t_start, t_end)


class _Bound:
    """One runtime's struct for one kernel's entry: pointers, live windows
    and capacities of the inputs, the prefix sites' arrays and the output
    lanes.  A :class:`~repro.core.runtime.growable.GrowableArray` (an ingest
    column, a site's array) is rebound only when its ``gen`` says it was
    reallocated — a call writes every live window ``[lo, n)`` anyway — and
    a buffer a call is handed (no column) is bound by that call."""

    def __init__(self, kernel: NativeKernel, rt):
        from ...windowing.prefix import PrefixRangeIndex

        # not the runtime, which holds this: a cycle would keep a one-shot
        # call's arrays alive until the collector runs, and later calls
        # would fault in fresh pages
        self.kernel, self.st, self.lanes, self.cap = kernel, kernel._ffi.new("tilt_state *"), (), 0
        self._keep: Dict[str, object] = {}  # what each bound pointer points into
        #: ``[field, GrowableArray, gen bound]`` per bound array
        self.arrays: List[list] = []
        #: per input: ref, ingest column (or ``None``), field names
        self.inputs = []
        for ref, names in zip(kernel._refs, kernel._input_fields):
            column = rt.columns.get(ref)
            if column is not None:
                self.arrays += [[f, a, -1] for f, a in zip(names, (column._times, column._values, column._valid))]
            self.inputs.append((ref, column, names))
        #: no input is a column: every call's buffers bound the grid tightly
        self.presize = all(column is None for _, column, _ in self.inputs)
        #: per prefix site: ref, site, kept?, centre (extended precision), fields
        self.sites = []
        for (key, dtype), (fields, names) in zip(((s.key, s.dtype) for s in kernel._sites), kernel._site_fields):
            site = rt.site(key)
            if site.index is None:
                site.index = PrefixRangeIndex(site.agg)
            self.arrays += [[f, a, -1] for f, a in zip(fields, site.index.storage())]
            center = None
            if dtype is np.longdouble:
                center = np.zeros(1, dtype=np.longdouble)
                setattr(self.st, names[5], self._pin(names[5], center))
            setattr(self.st, names[3], -math.inf)
            self.sites.append((key[0], site, key in rt.kept, center, names))
        self.st.compact = rt.compact
        rt.bound = self

    def _pin(self, field: str, array: np.ndarray, writable: bool = True):
        """``array``'s pointer (a bool as one byte), kept alive for ``field``."""
        if array.dtype == np.bool_:
            array = array.view(np.uint8)
        cdata = self._keep[field] = self.kernel._ffi.from_buffer(
            _CTYPES[array.dtype], array, require_writable=writable
        )
        return cdata

    def _size_lanes(self, cap: int) -> None:
        lanes = (np.empty(cap), np.empty(cap), np.empty(cap, dtype=np.uint8))
        st = self.st
        st.ts, st.out_v, st.out_k = (self._pin(f, a) for f, a in zip(("ts", "out_v", "out_k"), lanes))
        st.cap = self.cap = cap
        self.lanes = lanes[:2] + (lanes[2].view(np.bool_),)

    def _grid_bound(self, rows, span: float) -> int:
        """A bound on the grid's length: every candidate (``t_end``, and per
        ``(input, offset)`` pair each snapshot and the start time), twice on
        a precision grid ``p`` (each marks ``k`` and ``k - 1``) but at most
        the ``span / p + 3`` multiples of ``p``; plus the closing ``t_end``."""
        points = 1 + sum(k * (m + 1) for k, m in zip(self.kernel._grid_reads, rows))
        precision = self.kernel.spec.tdom.precision
        if precision > 0:
            points = min(2 * points, math.ceil(span / precision) + 3)
        return points + 1

    def call(self, rt, env, t_start: float, t_end: float):
        st = self.st
        st.t_start, st.t_end = t_start, t_end
        rows = []
        for ref, column, (t, v, k, lo, n, s) in self.inputs:
            if column is None:  # a buffer of this call
                buf = env[ref]
                times = np.ascontiguousarray(buf.times, dtype=np.float64)
                setattr(st, t, self._pin(t, times, False))
                setattr(st, v, self._pin(v, np.ascontiguousarray(buf.values, dtype=np.float64), False))
                setattr(st, k, self._pin(k, buf.valid, False))
                live = (0, len(times), buf.start_time)
            else:
                live = (column._times._lo, column._times._n, column.anchor or 0.0)
            setattr(st, lo, live[0])
            setattr(st, n, live[1])
            setattr(st, s, live[2])
            rows.append(live[1] - live[0])
        floor = rt.prune_to
        for ref, site, kept, center, (lo, n, new, *_) in self.sites:
            column = rt.columns.get(ref)
            edges = site.index.storage()[0]
            setattr(st, new, site.reserve(env[ref] if column is None else column.materialize()))
            setattr(st, lo, edges._lo)
            setattr(st, n, edges._n)
            if center is not None and site.index.center is not None:
                center[0] = site.index.center
            if kept and site.ingested_through < floor:
                floor = site.ingested_through
        for slot in self.arrays:
            if slot[2] != slot[1].gen:
                slot[2] = slot[1].gen
                setattr(st, slot[0], self._pin(slot[0], slot[1]._data))
        for _, _, kept, _, names in self.sites:  # a session's floor prunes its kept sites
            if kept:
                setattr(st, names[3], floor)
        # lanes for the grid: sized from its bound by a runtime's first call,
        # and by every call over buffers (one-shot, intermediates); over a
        # session's columns — the bound counts the whole retained tail —
        # they grow only when a grid outgrows them
        if self.presize or not self.lanes:
            need = self._grid_bound(rows, t_end - t_start)
            if need > self.cap:
                self._size_lanes(max(need, 2 * self.cap))
        count = self.kernel._fn(st)
        if count > self.cap:  # more points than lanes: grow them, extend nothing twice
            self._size_lanes(max(count, 2 * self.cap))
            for *_, names in self.sites:
                setattr(st, names[2], 0)
            count = self.kernel._fn(st)
        if count < 0:
            raise ExecutionError(f"native kernel ~{self.kernel.spec.name} failed to allocate")
        if floor > -math.inf:
            for _, site, kept, _, names in self.sites:
                dropped = getattr(st, names[4]) if kept else 0
                if dropped:
                    site.index.drop(dropped)
            rt.pruned = floor
        ts, values, valid = self.lanes
        out = _ssbuf_from_arrays(ts[:count], values[:count], valid[:count], float(t_start))
        out.compacted = rt.compact
        return out


# ---------------------------------------------------------------------- #
# instantiation front door
# ---------------------------------------------------------------------- #
def instantiate(spec: KernelSpec) -> Tuple[Optional[NativeKernel], Optional[str]]:
    """Build (or fetch from cache) the native kernel for a spec.

    Never raises: returns ``(kernel, None)`` on success or ``(None,
    reason)`` when the tier is unavailable, the spec is not lowerable, or
    the build fails — every fallback is counted in :func:`stats`.  May run
    the C compiler, so callers that must not wait go through
    :func:`submit_build`.
    """
    return _instantiate(spec, build=True)


def load_cached(spec: KernelSpec) -> Tuple[Optional[NativeKernel], Optional[str]]:
    """:func:`instantiate` for process-pool workers: loads what the memory
    and disk caches hold and never invokes the compiler.  An artifact that
    is simply not there yet is ``(None, None)`` — no fallback, nothing
    counted; the kernel keeps serving from its NumPy twin."""
    return _instantiate(spec, build=False)


def _refuse(reason: str, rec: Optional[KernelRecord] = None) -> Tuple[None, str]:
    with _STATE_LOCK:
        _STATS["fallbacks_total"] += 1
        if rec is not None:
            rec.refusal = reason
    return None, reason


def _instantiate(spec: KernelSpec, build: bool) -> Tuple[Optional[NativeKernel], Optional[str]]:
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
        rec = _record(digest)
        kernel, refusal = rec.kernel, rec.refusal
        if kernel is not None:
            _STATS["mem_hits_total"] += 1
            return kernel, None
    if refusal is not None:
        return _refuse(refusal)
    try:
        import cffi

        from .c_emit import lower

        _trusted_cache_dir()
        lowered = lower(spec)
        so = _so_path(digest, lowered.c_source)
        elapsed = None
        if build:
            started = time.perf_counter()
            with _BUILD_LOCK:  # one cc at a time, whoever asks
                if not _artifact_valid(so):
                    _compile_so(so, lowered.c_source)
                    elapsed = time.perf_counter() - started
        elif not _artifact_valid(so):  # not built yet, or damaged
            return None, None
        if not _load_support(build):  # before the unit that links against it
            return None, None
        ffi = cffi.FFI()
        ffi.cdef(lowered.cdef)
        kernel = NativeKernel(spec, ffi, lowered, ffi.dlopen(so))
    except Exception as exc:
        return _refuse(f"native build failed: {exc}", rec)
    with _STATE_LOCK:
        if elapsed is None:
            _STATS["disk_hits_total"] += 1
        else:
            _STATS["compiles_total"] += 1
            _STATS["compile_seconds_total"] += elapsed
        rec.kernel = kernel
    return kernel, None
