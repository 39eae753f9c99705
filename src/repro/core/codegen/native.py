"""Native (compiled-C) kernel lowering: the second codegen tier.

:mod:`repro.core.codegen.pysource` lowers a fused temporal expression to
vectorized NumPy source — every operator still pays Python dispatch, a
temporary, and one full array pass.  This module lowers the *same*
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
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import _BUILTIN_SINGLETONS, RMQ_DIRECTIONS, AggregateFunction
from ..ir.nodes import (
    ELEM_VAR,
    BinOp,
    Call,
    Coalesce,
    Const,
    Expr,
    IfThenElse,
    IsValid,
    Let,
    Phi,
    Reduce,
    TIndex,
    TRef,
    TWindow,
    UnaryOp,
    Var,
)
from ..ops import bind
from .pysource import KernelSpec

__all__ = [
    "NUMPY_TIER",
    "NATIVE_TIER",
    "CODEGEN_TIERS",
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

_FUNC_NAME = "tilt_native"
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


def _so_path(digest: str) -> str:
    return os.path.join(_cache_path(), f"tilt-{digest[:32]}.so")


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
# C code generation
# ---------------------------------------------------------------------- #
def _c_float(value: float) -> str:
    """Exact C literal for a Python float (hex form, no decimal rounding)."""
    value = float(value)
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "(-INFINITY)"
    return value.hex()


class _Group(NamedTuple):
    """One per-(ref, aggregate, element) index built before the main loop.

    Mirrors the NumPy tier's per-run reduce-site cache key, so e.g. two MEAN
    windows over the same stream share one prefix index in both tiers.
    """

    index: int
    ref: str
    agg: AggregateFunction  # the row: range strategy, accumulator type, C fragments
    element: Optional[Expr]


class _CEmitter:
    """Lowers one KernelSpec's fused IR to a C translation unit.

    Mirrors :class:`~repro.core.codegen.pysource._ExprCompiler` node for
    node: every emitted statement is the per-lane C image of the NumPy
    template the Python tier executes for the same node, including eager
    evaluation of both conditional branches and domain-masked lanes.
    """

    def __init__(self, spec: KernelSpec):
        if spec.te is None:
            raise ValueError("spec has no IR to lower")
        self.spec = spec
        self.refs: List[str] = list(spec.referenced)
        self._ref_pos = {r: i for i, r in enumerate(self.refs)}
        self._counter = 0
        self._site_counter = 0
        self.prelude: List[str] = []  # group index builds (before main loop)
        self.decls: List[str] = []  # persistent cursors / deque heads
        self.body: List[str] = []  # per-lane statements inside the loop
        self.allocs: List[Tuple[str, str]] = []  # (ctype, name) malloc'd
        self.groups: Dict[Tuple[str, int, Optional[int]], _Group] = {}
        self.center_refs: List[str] = []  # one long double center per entry
        self._point_sites: Dict[Tuple[str, float], Tuple[str, str]] = {}
        self._reduce_sites: Dict[
            Tuple[str, float, float, int, Optional[int]], Tuple[str, str]
        ] = {}

    # -- helpers ---------------------------------------------------------- #
    def fresh(self) -> Tuple[str, str]:
        self._counter += 1
        return f"v{self._counter}", f"k{self._counter}"

    def _ref_args(self, ref: str) -> Tuple[str, str, str, str, str]:
        i = self._ref_pos[ref]
        return (f"m{i}", f"bt{i}", f"bv{i}", f"bk{i}", f"bs{i}")

    def _alloc(self, ctype: str, name: str, count: str, where: List[str]) -> None:
        self.allocs.append((ctype, name))
        where.append(f"    {name} = ({ctype}*)malloc(sizeof({ctype}) * (size_t)({count}));")
        where.append(f"    if ({name} == NULL) {{ rc = 1; goto cleanup; }}")

    # -- expression tree --------------------------------------------------- #
    def compile(
        self,
        expr: Expr,
        scope: Dict[str, Tuple[str, str]],
        out: List[str],
        elem: bool,
    ) -> Tuple[str, str]:
        emit = out.append
        if isinstance(expr, Const):
            v, k = self.fresh()
            emit(f"        double {v} = {_c_float(expr.value)};")
            emit(f"        int {k} = 1;")
            return v, k
        if isinstance(expr, Phi):
            v, k = self.fresh()
            emit(f"        double {v} = 0.0;")
            emit(f"        int {k} = 0;")
            return v, k
        if isinstance(expr, Var):
            if expr.name not in scope:
                raise ValueError(f"unbound variable {expr.name!r} during native lowering")
            return scope[expr.name]
        if isinstance(expr, (TRef, TIndex)):
            if elem:
                raise ValueError("temporal access inside a reduce element expression")
            ref = expr.ref if isinstance(expr, TIndex) else expr.name
            return self._point_site(ref, float(getattr(expr, "offset", 0.0)))
        if isinstance(expr, Reduce):
            if elem:
                raise ValueError("nested reduction inside a reduce element expression")
            return self._reduce_site(expr)
        if isinstance(expr, TWindow):
            raise ValueError("windowed temporal object used outside a reduction")
        if isinstance(expr, (BinOp, UnaryOp, Call)):
            row = expr.row
            pairs = [self.compile(operand, scope, out, elem) for operand in expr.children()]
            v, k = self.fresh()
            vals = bind(p[0] for p in pairs)
            emit(f"        double {v} = {row.c.format(**vals)};")
            mask = " && ".join(p[1] for p in pairs)
            if row.c_domain is not None:
                mask = f"({mask}) && {row.c_domain.format(**vals)}"
            emit(f"        int {k} = {mask};")
            return v, k
        if isinstance(expr, IfThenElse):
            cv, ck = self.compile(expr.cond, scope, out, elem)
            tv, tk = self.compile(expr.then, scope, out, elem)
            ev, ek = self.compile(expr.orelse, scope, out, elem)
            v, k = self.fresh()
            emit(f"        double {v} = (({cv} != 0.0) ? {tv} : {ev});")
            emit(f"        int {k} = {ck} && (({cv} != 0.0) ? {tk} : {ek});")
            return v, k
        if isinstance(expr, IsValid):
            _, ok = self.compile(expr.operand, scope, out, elem)
            v, k = self.fresh()
            emit(f"        double {v} = ({ok} ? 1.0 : 0.0);")
            emit(f"        int {k} = 1;")
            return v, k
        if isinstance(expr, Coalesce):
            ov, ok = self.compile(expr.operand, scope, out, elem)
            dv, dk = self.compile(expr.default, scope, out, elem)
            v, k = self.fresh()
            emit(f"        double {v} = ({ok} ? {ov} : {dv});")
            emit(f"        int {k} = {ok} || {dk};")
            return v, k
        if isinstance(expr, Let):
            inner = dict(scope)
            for name, value in expr.bindings:
                inner[name] = self.compile(value, inner, out, elem)
            return self.compile(expr.body, inner, out, elem)
        raise ValueError(f"cannot lower IR node {type(expr).__name__}")

    # -- point access sites ------------------------------------------------ #
    def _point_site(self, ref: str, offset: float) -> Tuple[str, str]:
        key = (ref, offset)
        cached = self._point_sites.get(key)
        if cached is not None:
            return cached
        self._site_counter += 1
        s = f"p{self._site_counter}"
        m, bt, bv, bk, bs = self._ref_args(ref)
        v, k = self.fresh()
        self.decls.append(f"    int64_t {s}_cur = 0;")
        # mirror of SSBuf.values_at: searchsorted(times, q, 'left') by a
        # monotone cursor; in_range = q > start_time && q <= times[m-1]
        self.body.append(f"        double {s}_q = ts[i] + {_c_float(offset)};")
        self.body.append(f"        double {v} = 0.0; int {k} = 0;")
        self.body.append(f"        if ({m} > 0) {{")
        self.body.append(
            f"            while ({s}_cur < {m} && {bt}[{s}_cur] < {s}_q) {s}_cur++;"
        )
        self.body.append(f"            int64_t {s}_c = ({s}_cur < {m}) ? {s}_cur : ({m} - 1);")
        self.body.append(
            f"            {k} = ({s}_q > {bs}) && ({s}_q <= {bt}[{m} - 1]) && {bk}[{s}_c];"
        )
        self.body.append(f"            {v} = {k} ? {bv}[{s}_c] : 0.0;")
        self.body.append("        }")
        self._point_sites[key] = (v, k)
        return v, k

    # -- reduce groups ------------------------------------------------------ #
    def _group_for(self, ref: str, agg, element: Optional[Expr]) -> _Group:
        key = (ref, id(agg), id(element) if element is not None else None)
        group = self.groups.get(key)
        if group is None:
            group = _Group(len(self.groups), ref, agg, element)
            self.groups[key] = group
            self._emit_group_build(group)
        return group

    def _emit_elem(self, group: _Group, out: List[str]) -> Tuple[str, str]:
        """Mapped snapshot value/validity inside a group build loop.

        The NumPy tier maps the *raw* values array (φ lanes included)
        through the element function and ANDs the element's validity into
        the buffer mask; replicated here per lane.
        """
        _, _, bv, bk, _ = self._ref_args(group.ref)
        ev, ek = self.fresh()
        out.append(f"        double {ev} = {bv}[j];")
        out.append(f"        int {ek} = 1;")
        if group.element is not None:
            mv, mk = self.compile(group.element, {ELEM_VAR: (ev, ek)}, out, elem=True)
        else:
            mv, mk = ev, ek
        xv, xk = self.fresh()
        out.append(f"        double {xv} = {mv};")
        out.append(f"        int {xk} = {bk}[j] && {mk};")
        return xv, xk

    def _emit_group_build(self, group: _Group) -> None:
        g = f"g{group.index}"
        m = self._ref_args(group.ref)[0]
        pre = self.prelude
        # every group carries the combined-validity prefix (drives φ)
        self._alloc("int64_t", f"{g}_vp", f"{m} + 1", pre)
        loop: List[str] = []
        xv, xk = self._emit_elem(group, loop)
        agg = group.agg
        kind = agg.strategy.range
        if kind == "prefix":
            ext = agg.prefix_extended_precision
            ctype = "long double" if ext else "double"
            ncomp = len(agg.c_components)
            for c in range(ncomp):
                self._alloc(ctype, f"{g}_p{c}", f"{m} + 1", pre)
            pre.append(f"    {g}_vp[0] = 0;")
            for c in range(ncomp):
                pre.append(f"    {g}_p{c}[0] = 0.0;")
            pre.append(f"    for (int64_t j = 0; j < {m}; j++) {{")
            pre.extend(loop)
            # masked exactly as AggregateFunction.prefix_components: zeros at
            # φ lanes, centred for an extended-precision row, then each
            # component as the row's C text states it
            if ext:
                center = f"centers[{len(self.center_refs)}]"
                self.center_refs.append(group.ref)
                pre.append(f"        long double {g}_mx = (long double)({xk} ? {xv} : 0.0);")
                pre.append(f"        long double {g}_cx = {g}_mx - {center};")
                x, suffix = f"{g}_cx", "L"
            else:
                pre.append(f"        double {g}_mx = {xk} ? {xv} : 0.0;")
                x, suffix = f"{g}_mx", ""
            for c, comp in enumerate(agg.c_components):
                pre.append(f"        {g}_p{c}[j + 1] = {g}_p{c}[j] + {comp.format(x=x, k=xk, L=suffix)};")
            pre.append(f"        {g}_vp[j + 1] = {g}_vp[j] + ({xk} ? 1 : 0);")
            pre.append("    }")
        elif kind == "rmq":
            fill = _c_float(RMQ_DIRECTIONS[agg.rmq].fill)
            self._alloc("double", f"{g}_base", f"{m} > 0 ? {m} : 1", pre)
            self._alloc("int64_t", f"{g}_nc", f"{m} + 1", pre)
            pre.append(f"    {g}_vp[0] = 0; {g}_nc[0] = 0;")
            pre.append(f"    for (int64_t j = 0; j < {m}; j++) {{")
            pre.extend(loop)
            pre.append(f"        {g}_base[j] = {xk} ? {xv} : {fill};")
            pre.append(f"        {g}_nc[j + 1] = {g}_nc[j] + (isnan({g}_base[j]) ? 1 : 0);")
            pre.append(f"        {g}_vp[j + 1] = {g}_vp[j] + ({xk} ? 1 : 0);")
            pre.append("    }")
        else:  # fold with an edge marker: valid-neighbour index arrays
            self._alloc("double", f"{g}_x", f"{m} > 0 ? {m} : 1", pre)
            self._alloc("unsigned char", f"{g}_ok", f"{m} > 0 ? {m} : 1", pre)
            self._alloc("int64_t", f"{g}_nxt", f"{m} + 1", pre)
            self._alloc("int64_t", f"{g}_prv", f"{m} > 0 ? {m} : 1", pre)
            pre.append(f"    {g}_vp[0] = 0;")
            pre.append(f"    for (int64_t j = 0; j < {m}; j++) {{")
            pre.extend(loop)
            pre.append(f"        {g}_x[j] = {xv};")
            pre.append(f"        {g}_ok[j] = (unsigned char)({xk} != 0);")
            pre.append(f"        {g}_vp[j + 1] = {g}_vp[j] + ({xk} ? 1 : 0);")
            pre.append(f"        {g}_prv[j] = {g}_ok[j] ? j : (j > 0 ? {g}_prv[j - 1] : -1);")
            pre.append("    }")
            pre.append(f"    {g}_nxt[{m}] = {m};")
            pre.append(f"    for (int64_t j = {m} - 1; j >= 0; j--)")
            pre.append(f"        {g}_nxt[j] = {g}_ok[j] ? j : {g}_nxt[j + 1];")

    # -- reduce sites -------------------------------------------------------- #
    def _reduce_site(self, expr: Reduce) -> Tuple[str, str]:
        window = expr.window
        key = (
            window.ref,
            float(window.start_offset),
            float(window.end_offset),
            id(expr.agg),
            id(expr.element) if expr.element is not None else None,
        )
        cached = self._reduce_sites.get(key)
        if cached is not None:
            return cached
        group = self._group_for(window.ref, expr.agg, expr.element)
        g = f"g{group.index}"
        self._site_counter += 1
        s = f"r{self._site_counter}"
        m, bt, _, _, bs = self._ref_args(window.ref)
        v, k = self.fresh()
        body = self.body
        self.decls.append(f"    int64_t {s}_lo = 0, {s}_hi = 0;")
        # snapshot_range_indices by monotone cursors:
        #   lo = searchsorted(times, ws, 'right')
        #   hi = searchsorted(interval_starts, we, 'left')
        body.append(f"        double {s}_ws = ts[i] + {_c_float(window.start_offset)};")
        body.append(f"        double {s}_we = ts[i] + {_c_float(window.end_offset)};")
        body.append(f"        while ({s}_lo < {m} && {bt}[{s}_lo] <= {s}_ws) {s}_lo++;")
        body.append(
            f"        while ({s}_hi < {m} && "
            f"(({s}_hi == 0 ? {bs} : {bt}[{s}_hi - 1]) < {s}_we)) {s}_hi++;"
        )
        body.append(f"        int64_t {s}_qlo = {s}_lo;")
        body.append(f"        int64_t {s}_qhi = ({s}_hi > {s}_lo) ? {s}_hi : {s}_lo;")
        body.append(f"        int64_t {s}_cnt = {g}_vp[{s}_qhi] - {g}_vp[{s}_qlo];")
        agg = group.agg
        kind = agg.strategy.range
        if kind == "prefix":
            body.append(f"        int {k} = {s}_cnt > 0;")
            # the row's result text over its components' window sums, in the
            # accumulator type (long double exactly as PrefixRangeIndex)
            sums = {
                f"d{c}": f"{g}_p{c}[{s}_qhi] - {g}_p{c}[{s}_qlo]"
                for c in range(len(agg.c_components))
            }
            body.extend("        " + line.format(s=s, **sums) for line in agg.c_result)
            body.append(f"        double {v} = {k} ? {s}_res : 0.0;")
        elif kind == "rmq":
            pop = RMQ_DIRECTIONS[agg.rmq].c_evicts
            self._alloc("int64_t", f"{s}_dq", f"{m} > 0 ? {m} : 1", self.prelude)
            self.decls.append(f"    int64_t {s}_dh = 0, {s}_dt = 0, {s}_push = 0;")
            body.append(f"        while ({s}_push < {s}_qhi) {{")
            body.append(f"            double {s}_bv = {g}_base[{s}_push];")
            body.append(
                f"            while ({s}_dt > {s}_dh && "
                f"{g}_base[{s}_dq[{s}_dt - 1]] {pop} {s}_bv) {s}_dt--;"
            )
            body.append(f"            {s}_dq[{s}_dt++] = {s}_push++;")
            body.append("        }")
            body.append(f"        while ({s}_dh < {s}_dt && {s}_dq[{s}_dh] < {s}_qlo) {s}_dh++;")
            body.append(f"        int {k} = {s}_cnt > 0;")
            body.append(f"        double {v} = 0.0;")
            body.append(f"        if ({k}) {{")
            # NaN anywhere in the span makes the sparse table's np.maximum
            # chain return NaN; the deque cannot see that, so override
            body.append(f"            if ({g}_nc[{s}_qhi] - {g}_nc[{s}_qlo] > 0) {v} = NAN;")
            body.append(f"            else {v} = {g}_base[{s}_dq[{s}_dh]];")
            body.append("        }")
        else:  # fold: the window's first / last valid snapshot
            body.append(f"        int {k} = 0;")
            body.append(f"        double {v} = 0.0;")
            body.append(f"        if ({s}_qhi > {s}_qlo) {{")
            if agg.edge == 0:
                body.append(f"            int64_t {s}_j = {g}_nxt[{s}_qlo];")
                body.append(f"            if ({s}_j < {s}_qhi) {{ {v} = {g}_x[{s}_j]; {k} = 1; }}")
            else:
                body.append(f"            int64_t {s}_j = {g}_prv[{s}_qhi - 1];")
                body.append(f"            if ({s}_j >= {s}_qlo) {{ {v} = {g}_x[{s}_j]; {k} = 1; }}")
            body.append("        }")
        self._reduce_sites[key] = (v, k)
        return v, k

    # -- assembly ------------------------------------------------------------ #
    def generate(self) -> Tuple[str, str]:
        """Returns ``(c_source, cdef)`` for this spec."""
        out_v, out_k = self.compile(self.spec.te.expr, {}, self.body, elem=False)
        params = ["int64_t n", "const double* ts"]
        for i in range(len(self.refs)):
            params += [
                f"int64_t m{i}",
                f"const double* bt{i}",
                f"const double* bv{i}",
                f"const unsigned char* bk{i}",
                f"double bs{i}",
            ]
        params += ["const long double* centers", "double* out_v", "unsigned char* out_k"]
        signature = f"int64_t {_FUNC_NAME}({', '.join(params)})"
        lines = [
            f"/* native kernel for temporal expression ~{self.spec.name} */",
            "#include <stdint.h>",
            "#include <stdlib.h>",
            "#include <math.h>",
            "",
            "/* NumPy's maximum/minimum: first operand wins on NaN */",
            "#define NPMAX(a, b) (((a) > (b) || isnan(a)) ? (a) : (b))",
            "#define NPMIN(a, b) (((a) < (b) || isnan(a)) ? (a) : (b))",
            "",
            signature,
            "{",
            "    int64_t rc = 0;",
            "    (void)centers;",
        ]
        lines += [f"    {ctype}* {name} = NULL;" for ctype, name in self.allocs]
        lines += self.prelude
        lines += self.decls
        lines.append("    for (int64_t i = 0; i < n; i++) {")
        lines += self.body
        lines.append(f"        out_v[i] = {out_v};")
        lines.append(f"        out_k[i] = (unsigned char)({out_k} != 0);")
        lines.append("    }")
        if self.allocs:
            lines.append("cleanup:")
            lines += [f"    free({name});" for _, name in self.allocs]
        lines.append("    return rc;")
        lines.append("}")
        return "\n".join(lines) + "\n", f"{signature};"


class _Lowered:
    """The C artifact of one spec, before compilation."""

    __slots__ = ("c_source", "cdef", "refs", "center_refs")

    def __init__(self, c_source: str, cdef: str, refs: List[str], center_refs: List[str]):
        self.c_source = c_source
        self.cdef = cdef
        self.refs = refs
        self.center_refs = center_refs


def _lower(spec: KernelSpec) -> _Lowered:
    emitter = _CEmitter(spec)
    c_source, cdef = emitter.generate()
    return _Lowered(c_source, cdef, emitter.refs, emitter.center_refs)


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
class NativeKernel:
    """A compiled, loaded, single-pass C kernel for one KernelSpec.

    Drop-in for the generated-Python kernel function: ``run(env, t_start,
    t_end, rt)`` returns the same :class:`~repro.core.runtime.ssbuf.SSBuf`
    (bit-identical values), using the shared :class:`KernelRuntime` only
    for the evaluation-time grid and output assembly.  The cffi call
    releases the GIL, so thread-pool partitions genuinely overlap.
    """

    def __init__(self, spec: KernelSpec, digest: str, lowered: _Lowered, ffi, lib, so_path: str):
        self.spec = spec
        self.digest = digest
        self.c_source = lowered.c_source
        self.so_path = so_path
        self._refs = lowered.refs
        self._center_refs = lowered.center_refs
        self._ffi = ffi
        self._fn = getattr(lib, _FUNC_NAME)
        self._lib = lib  # keep the dlopen handle alive

    def run(self, env, t_start: float, t_end: float, rt):
        ffi = self._ffi
        ts = np.ascontiguousarray(rt.eval_times(env, t_start, t_end), dtype=np.float64)
        n = len(ts)
        if n == 0:
            return rt.empty(t_start)
        args = [n, ffi.from_buffer("double[]", ts)]
        keepalive = [ts]
        for ref in self._refs:
            buf = env[ref]
            bt = np.ascontiguousarray(buf.times, dtype=np.float64)
            bv = np.ascontiguousarray(buf.values, dtype=np.float64)
            bk = np.ascontiguousarray(buf.valid, dtype=np.uint8)
            keepalive += [bt, bv, bk]
            args += [
                len(bt),
                ffi.from_buffer("double[]", bt),
                ffi.from_buffer("double[]", bv),
                ffi.from_buffer("unsigned char[]", bk),
                float(buf.start_time),
            ]
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
            keepalive.append(centers)
            args.append(ffi.from_buffer("long double[]", centers))
        else:
            args.append(ffi.NULL)
        out_v = np.empty(n, dtype=np.float64)
        out_k = np.empty(n, dtype=np.uint8)
        args.append(ffi.from_buffer("double[]", out_v, require_writable=True))
        args.append(ffi.from_buffer("unsigned char[]", out_k, require_writable=True))
        rc = self._fn(*args)
        del keepalive
        if rc != 0:
            raise ExecutionError(f"native kernel ~{self.spec.name} failed to allocate")
        return rt.build(ts, out_v, out_k.view(np.bool_), t_start)


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


def _refuse(reason: str, digest: Optional[str] = None) -> Tuple[None, str]:
    with _STATE_LOCK:
        _STATS["fallbacks_total"] += 1
        if digest is not None:
            _FAILURE_CACHE[digest] = reason
            while len(_FAILURE_CACHE) > _FAILURE_CACHE_LIMIT:
                _FAILURE_CACHE.popitem(last=False)
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
        kernel = _KERNEL_CACHE.get(digest)
        if kernel is not None:
            _KERNEL_CACHE.move_to_end(digest)
            _STATS["mem_hits_total"] += 1
            return kernel, None
        failure = _FAILURE_CACHE.get(digest)
    if failure is not None:
        return _refuse(failure)
    try:
        import cffi

        _trusted_cache_dir()
        so = _so_path(digest)
        if not build and not _artifact_valid(so):
            return None, None
        lowered = _lower(spec)
        compiled, elapsed = False, 0.0
        if build:
            started = time.perf_counter()
            with _BUILD_LOCK:  # one cc at a time, whoever asks
                compiled = not _artifact_valid(so)
                if compiled:
                    _compile_so(so, lowered.c_source)
            elapsed = time.perf_counter() - started
        ffi = cffi.FFI()
        ffi.cdef(lowered.cdef)
        lib = ffi.dlopen(so)
        kernel = NativeKernel(spec, digest, lowered, ffi, lib, so)
    except Exception as exc:
        return _refuse(f"native build failed: {exc}", digest)
    with _STATE_LOCK:
        if compiled:
            _STATS["compiles_total"] += 1
            _STATS["compile_seconds_total"] += elapsed
        else:
            _STATS["disk_hits_total"] += 1
        _KERNEL_CACHE[digest] = kernel
        _KERNEL_CACHE.move_to_end(digest)
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_LIMIT:
            _KERNEL_CACHE.popitem(last=False)
    return kernel, None
