"""Compilation of TiLT programs into executable query objects.

``compile_program`` is the counterpart of the paper's code-generation stage
(Section 6.1): it validates the program, runs the optimizer (fusion etc.),
resolves boundary conditions, generates one vectorized kernel per remaining
temporal expression and wraps everything into a :class:`CompiledQuery` whose
``run`` method executes the query over an arbitrary symbolic interval
``(Ts, Te]`` — exactly the callable-with-parametrized-boundaries artifact of
Figure 3d, which the parallel runtime then invokes once per partition.

Every kernel runs on one of three tiers behind the same ``run`` signature:
the generated NumPy source, its native C lowering, or — the internal
:data:`INTERPRETED_TIER` behind ``TiltEngine(mode="interpreted")`` — the
reference interpreter evaluating the kernel's IR directly.  The runtime
therefore executes one kind of artifact however it was made.

Life of a kernel that requested the native tier: ``numpy`` → ``queued`` →
``building`` → ``native`` (or ``refused``, with the reason).  It is always
instantiated on its NumPy twin, which needs no toolchain; ``run`` charges
the twin's wall time to the kernel's
:class:`~repro.core.codegen.native.KernelRecord` — one per kernel digest in
the process, so equal queries heat one record, a session's ticks included —
and once a query's undecided kernels' pooled heat exceeds what building them
is expected to cost (:func:`~repro.core.codegen.native.expected_build_seconds`
each: the break-even tier-up rule) the query is handed, once, to whoever
compiled it (``on_hot``; the engine queues it for the builder thread).
Publishing the C kernel is one attribute store that ``run`` branches on per
call — to the C kernel's one entry, over the caller's runtime — and the
tiers are bit-identical, so the swap is invisible in the output,
mid-session included.  :meth:`CompiledQuery.promote` is the same build on
the calling thread.  Where a process pool's workers run the kernels, the
engine charges the parent's copy what each dispatch took
(:meth:`CompiledQuery.charge`); a promoted query pickles to new bytes, so
the workers — which never compile — unpickle it again and load what the
build left in the disk cache.
"""

from __future__ import annotations

import contextlib
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, List, Mapping, Optional

from ...analysis.findings import ProgramReport
from ...analysis.program import analyze_program
from ...errors import AnalysisError, CompilationError, ExecutionError
from ..ir.analysis import topological_order
from ..ir.nodes import TemporalExpr, TiltProgram
from ..ir.validation import validate_program
from ..lineage.boundary import BoundarySpec, resolve_boundaries
from ..optimizer.passes import PassManager, default_pass_manager
from ..runtime.ssbuf import SSBuf
from . import native
from .interpreter import evaluate_temporal_expr
from .native import NATIVE_TIER, NUMPY_TIER
from .pysource import ELEMENT_FUNCTION_NAME, KERNEL_FUNCTION_NAME, KernelSpec, generate_kernel_spec
from .runtime_support import KernelRuntime

__all__ = [
    "CompiledKernel",
    "CompiledQuery",
    "compile_program",
    "lower_program",
    "INTERPRETED_TIER",
]

#: the oracle's kernel tier: ``run`` evaluates the kernel's IR with the
#: reference interpreter and never ``exec``s generated source, so its output
#: is independent of the code generator.  Internal — users spell it
#: ``TiltEngine(mode="interpreted")``.
INTERPRETED_TIER = "interpreted"

#: guards the once-only hand-off of a hot query (held for two stores)
_HAND_OFF_LOCK = threading.Lock()


def _rebuild_kernel(
    spec: KernelSpec, tier: str = NUMPY_TIER, promoted: bool = False
) -> "CompiledKernel":
    """Unpickle hook for :class:`CompiledKernel` (module-level so it pickles
    by reference).  A native-tier kernel loads the C kernel the disk cache
    holds for it and otherwise serves from its NumPy twin — pool workers
    never run the compiler.  ``promoted`` is unused here; it makes a
    promoted query pickle to new bytes, which workers unpickle again."""
    kernel = CompiledKernel(spec, tier=tier)
    kernel.load_cached()
    return kernel


class CompiledKernel:
    """One executable kernel: a spec instantiated on a tier in this process.

    The class separates *what a kernel is* (the :class:`KernelSpec`: sources,
    fused IR, aggregate descriptors, access pattern — picklable whenever its
    aggregates are) from *a kernel instantiated in this process* (the exec'd
    function and element maps; the :class:`KernelRuntime` objects its callers
    hold never cross a process boundary).  Pickling therefore ships only the spec and the tier;
    unpickling instantiates the kernel again.
    """

    def __init__(self, spec: KernelSpec, tier: str = NUMPY_TIER):
        self.spec = spec
        #: the *requested* tier; :attr:`active_tier` is what actually serves
        #: ``run`` right now
        self.tier = tier
        self._native = None
        self.native_fallback_reason: Optional[str] = None
        #: ``numpy`` / ``queued`` / ``building`` / ``native`` / ``refused``
        #: (see the module docstring); an interpreted kernel's is its tier
        self.state = NUMPY_TIER
        #: the heat this kernel shares with every equal native-tier kernel in
        #: the process (a private record when it cannot or may not build)
        self.record = native.record(spec) if tier == NATIVE_TIER else native.KernelRecord()
        #: wall seconds :meth:`promote` spent building this kernel
        self.build_seconds = 0.0
        self._promote_lock = threading.Lock()
        if tier == INTERPRETED_TIER:
            self.element_functions = self._function = None
            self.state = INTERPRETED_TIER
            return
        self.element_functions = [
            self._compile_function(src, ELEMENT_FUNCTION_NAME, f"<tilt-element-{spec.name}-{i}>")
            for i, src in enumerate(spec.element_sources)
        ]
        self._function = self._compile_function(
            spec.source, KERNEL_FUNCTION_NAME, f"<tilt-kernel-{spec.name}>"
        )

    @property
    def active_tier(self) -> str:
        """The tier serving ``run`` calls that carry no runtime override."""
        if self._function is None:
            return INTERPRETED_TIER
        return NATIVE_TIER if self._native is not None else NUMPY_TIER

    @property
    def numpy_seconds(self) -> float:
        """Wall seconds NumPy twins of this kernel's digest have served in
        this process — this kernel's and every equal kernel's, session ticks
        included (its own alone on a private record)."""
        return self.record.heat

    def charge(self, seconds: float) -> None:
        """Add ``seconds`` of NumPy-twin time to the kernel's record: the one
        writer of heat (unlocked — a lost update under threads only delays
        a promotion)."""
        self.record.heat += seconds

    @property
    def undecided(self) -> bool:
        """Requested the native tier and has been neither built nor refused."""
        return self.tier == NATIVE_TIER and self.state not in (NATIVE_TIER, "refused")

    def promote(
        self, scope: Callable[["CompiledKernel"], ContextManager] = contextlib.nullcontext
    ) -> None:
        """Decide an undecided kernel on the calling thread: build (or fetch)
        its C kernel and publish it, or record why not.  ``scope(kernel)``
        wraps the build and only a build — a decided kernel is left alone,
        so every kernel is observed (and any fallback counted) once."""
        with self._promote_lock:
            if self.undecided:
                with scope(self):
                    self.state = "building"
                    started = time.perf_counter()
                    self._adopt(*native.instantiate(self.spec))
                    self.build_seconds += time.perf_counter() - started

    def adopt(self, c_kernel) -> None:
        """:meth:`promote` without a build: publish ``c_kernel``, the one an
        equal kernel's build left in this kernel's record."""
        with self._promote_lock:
            if self.undecided:
                self._adopt(c_kernel, None)

    def load_cached(self) -> None:
        """:meth:`promote` minus the compiler (pool workers): adopt what the
        disk cache holds; a kernel it does not hold stays undecided."""
        with self._promote_lock:
            if self.undecided:
                self._adopt(*native.load_cached(self.spec))

    def _adopt(self, kernel, reason: Optional[str]) -> None:
        self.native_fallback_reason = reason
        if kernel is not None:
            self.state = NATIVE_TIER
        elif reason is not None:
            self.state = "refused"
        self._native = kernel  # last: ``run`` branches on it

    def __reduce__(self):
        return (_rebuild_kernel, (self.spec, self.tier, self._native is not None))

    @staticmethod
    def _compile_function(source: str, function_name: str, filename: str):
        namespace: Dict[str, object] = {}
        try:
            code = compile(source, filename, "exec")
            exec(code, namespace)  # noqa: S102 - intentional: this *is* the code generator
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise CompilationError(f"generated source failed to compile: {exc}\n{source}") from exc
        return namespace[function_name]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def source(self) -> str:
        return self.spec.source

    def run(
        self,
        env: Mapping[str, SSBuf],
        t_start: float,
        t_end: float,
        runtime: Optional[KernelRuntime] = None,
    ) -> SSBuf:
        """Execute the kernel over ``(t_start, t_end]`` with the caller's
        :class:`KernelRuntime` (a session keeps one per kernel; ``None``: a
        fresh one) — on the C entry once promoted
        (:meth:`NativeKernel.tick <repro.core.codegen.native.NativeKernel.tick>`,
        whose result is a view of the runtime's lanes), else on the NumPy
        twin, charged to the kernel's record.  The interpreted tier ignores
        the runtime."""
        if self._function is None:  # interpreted tier: evaluate the IR itself
            return evaluate_temporal_expr(self.spec.te, env, t_start, t_end)
        rt = KernelRuntime(self) if runtime is None else runtime
        c_kernel = self._native
        if c_kernel is not None:
            return c_kernel.tick(env, t_start, t_end, rt)
        started = time.perf_counter()
        rt.begin()
        out = self._function(env, t_start, t_end, rt)
        self.charge(time.perf_counter() - started)
        return out


@dataclass
class CompiledQuery:
    """A fully compiled TiLT query, ready for (parallel) execution.

    Attributes
    ----------
    program:
        The optimized program the kernels were generated from.
    boundary:
        Resolved boundary conditions (drives partitioning).
    kernels:
        One kernel per temporal expression, in evaluation order.
    pass_manager:
        The pass manager that optimized the program (kept for its history /
        statistics; useful for the Figure 10 style sensitivity analysis).
    report:
        The static-analysis :class:`~repro.analysis.findings.ProgramReport`
        that proved the program's bounds safety (error-free by construction:
        ``compile_program`` raises :class:`AnalysisError` otherwise).

    A compiled query is picklable whenever all of its aggregates are
    (built-ins always; custom aggregates only when their callables are
    module-level functions).  Pickling ships the program, the boundary spec
    and the kernel *specs*; unpickling instantiates the kernels again.
    :meth:`pickle_payload` is the process-backend entry point and degrades
    to ``None`` instead of raising when the query cannot cross a process
    boundary.
    """

    program: TiltProgram
    boundary: BoundarySpec
    kernels: List[CompiledKernel]
    pass_manager: Optional[PassManager] = None
    report: Optional[ProgramReport] = None

    #: where ``run`` sends the query, once, when the break-even rule fires —
    #: set by whoever compiled it (``TiltEngine.compile`` queues it for the
    #: builder thread).  ``None``: nothing to send — a NumPy-tier or
    #: interpreted query, a pool worker's copy, or the hand-off has happened.
    on_hot = None
    #: ``build_scope(kernel)`` wraps each kernel build of :meth:`promote`
    #: (the engine's span and counters)
    build_scope = contextlib.nullcontext

    def __getstate__(self):
        # the pass manager holds optimizer history (closures over pass
        # objects) that is neither needed by a worker nor reliably
        # picklable; the cached payload is process-local by definition.
        # The analysis report is likewise a coordinator-side artifact —
        # workers receive proof-stamped kernel specs, not the diagnostics.
        return {
            "program": self.program,
            "boundary": self.boundary,
            "kernels": self.kernels,
            "pass_manager": None,
            "report": None,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)

    def pickle_payload(self) -> Optional[bytes]:
        """The pickled query every process-pool task carries, or ``None``.

        The bytes are computed once per set of promoted kernels and cached:
        a long-running query is serialized a single time no matter how many
        maps ship it, and once more when it is promoted — each kernel's
        pickle says whether it was, so a promoted query is new bytes that
        the workers unpickle again, loading the C kernels the promotion left
        in the disk cache.  ``None`` means the query's artifacts cannot
        cross a process boundary (e.g. lambda-based custom aggregates) and
        the caller should fall back to in-process execution.
        """
        promoted = tuple(k._native is not None for k in self.kernels)
        memo = self.__dict__.get("_payload")
        if memo is None or memo[0] != promoted:
            try:
                payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError, ValueError):
                # the unpicklable-artifact cases (lambda aggregates and the
                # like); anything else — MemoryError, a bug in a component's
                # __reduce__ — propagates instead of being silently cached
                # as "cannot use the process backend"
                payload = None
            memo = self.__dict__["_payload"] = (promoted, payload)
        return memo[1]

    @property
    def picklable(self) -> bool:
        """True when this query can be dispatched to a process pool."""
        return self.pickle_payload() is not None

    @property
    def output(self) -> str:
        return self.program.output

    @property
    def fused(self) -> bool:
        """True when the whole query collapsed into a single kernel."""
        return len(self.kernels) == 1

    def kernel_plan(self) -> List[Dict[str, object]]:
        """One row per kernel, read live: the tier requested, the tier
        serving ``run`` right now and, when a native request was refused,
        why; where the kernel is on the way there (``state``), what NumPy
        twins of its digest have cost so far in this process (``numpy_seconds``,
        pooled over every equal kernel — ``digest`` is the first 12 hex
        digits of the shared record's key, ``None`` on a private record) and
        what deciding it cost."""
        return [
            {
                "kernel": k.name,
                "digest": k.record.digest[:12] if k.record.digest else None,
                "requested_tier": k.tier,
                "active_tier": k.active_tier,
                "fallback_reason": k.native_fallback_reason,
                "state": k.state,
                "numpy_seconds": k.numpy_seconds,
                "build_seconds": k.build_seconds,
            }
            for k in self.kernels
        ]

    # ------------------------------------------------------------------ #
    # promotion
    # ------------------------------------------------------------------ #
    def promote(self) -> None:
        """Decide every undecided kernel now, on the calling thread: the one
        synchronous entry to the native tier (what ``compile_program(
        codegen_tier="native")`` does inline and what the builder thread
        runs).  May invoke the C compiler; never raises for a kernel that
        cannot be built — it stays on NumPy with the reason in
        :meth:`kernel_plan`."""
        self.on_hot = None
        for kernel in self.kernels:
            kernel.promote(self.build_scope)

    def adopt_loaded(self) -> bool:
        """Promote on the calling thread from the kernel records alone, when
        every one of them already holds its loaded C kernel (an equal query
        built them): memory hits — no ``cc``, no builder thread, nothing
        left to hand off.  ``False``, and nothing adopted, otherwise."""
        c_kernels = native.loaded([k.record for k in self.kernels])
        if c_kernels is None:
            return False
        self.on_hot = None
        for kernel, c_kernel in zip(self.kernels, c_kernels):
            kernel.adopt(c_kernel)
        return True

    def hand_off(self) -> None:
        """Send the query to ``on_hot`` — at most once, whichever thread
        gets here first — with its undecided kernels marked ``queued``."""
        with _HAND_OFF_LOCK:
            send, self.on_hot = self.on_hot, None
        if send is not None:
            for kernel in self.kernels:
                if kernel.undecided:
                    kernel.state = "queued"
            send(self)

    def unqueue(self) -> int:
        """The queued build was dropped: its kernels are plain NumPy again.
        Returns how many were waiting."""
        waiting = [k for k in self.kernels if k.state == "queued"]
        for kernel in waiting:
            kernel.state = NUMPY_TIER
        return len(waiting)

    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of NumPy-twin time this process did not see
        kernel by kernel — a process pool's workers ran the kernels, the
        dispatch took this long — split evenly over the undecided kernels,
        and apply the break-even rule."""
        if self.on_hot is not None:
            waiting = [k for k in self.kernels if k.undecided]
            for kernel in waiting:
                kernel.charge(seconds / len(waiting))
            self._check_hot()

    def _check_hot(self) -> None:
        """The break-even rule: hand the query off once the pooled heat of
        its undecided kernels — what NumPy twins of their digests have cost
        in this process, whichever query ran them — exceeds what building
        those kernels is expected to cost."""
        waiting = [k for k in self.kernels if k.undecided]
        spent = sum(k.numpy_seconds for k in waiting)
        if spent > len(waiting) * native.expected_build_seconds():
            self.hand_off()

    def kernel_named(self, name: str) -> CompiledKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def sources(self) -> str:
        """Concatenated sources of the kernels that execute generated code
        (debugging / golden tests / flight-recorder evidence)."""
        return "\n\n".join(
            k.spec.describe()
            if k.active_tier != INTERPRETED_TIER
            else f"# ~{k.name}: interpreted, executes no generated source"
            for k in self.kernels
        )

    def run(
        self,
        inputs: Mapping[str, SSBuf],
        t_start: float,
        t_end: float,
        runtimes: Optional[Mapping[str, KernelRuntime]] = None,
    ) -> SSBuf:
        """Execute the query over ``(t_start, t_end]`` and return the output
        buffer; intermediates are materialized over the interval extended by
        the resolved margins.  ``runtimes`` (by kernel name) is the
        in-process session tick: the output kernel runs over ``inputs``
        *unsliced* (its kept sites must never ingest a slice-clipped
        phantom), intermediates over the margin slices a partition would
        have handed them.  Without it every kernel gets a fresh runtime, the
        output kernel's one that writes ``SSBuf.compact``'s form in C (a
        partition's piece, which its caller compacts anyway; one snapshot
        per grid point is what ``CompiledKernel.run`` returns).  Either way
        the NumPy time is charged and the break-even rule applies."""
        env: Dict[str, SSBuf] = dict(inputs)
        missing = [name for name in self.program.inputs if name not in env]
        if missing:
            raise ExecutionError(f"missing input streams: {missing}")
        lookback = self.boundary.max_lookback
        lookahead = self.boundary.max_lookahead
        margin_env = env
        if runtimes is not None and len(self.kernels) > 1:
            margin_env = {
                name: buf.slice(*self.boundary.input_interval(name, t_start, t_end))
                for name, buf in inputs.items()
            }
        for kernel in self.kernels:
            runtime = None if runtimes is None else runtimes[kernel.name]
            if kernel.name == self.program.output:
                if runtime is None:
                    runtime = KernelRuntime(kernel, compact=True)
                env[kernel.name] = kernel.run(env, t_start, t_end, runtime)
            else:
                env[kernel.name] = margin_env[kernel.name] = kernel.run(
                    margin_env, t_start - lookback, t_end + lookahead, runtime
                )
        if self.on_hot is not None:
            self._check_hot()
        return env[self.program.output]


def lower_program(
    program: TiltProgram,
    *,
    optimize: bool = True,
    enable_fusion: bool = True,
    pass_manager: Optional[PassManager] = None,
    codegen_tier: str = NUMPY_TIER,
) -> CompiledQuery:
    """Validate, optimize and lower a TiLT program to a :class:`CompiledQuery`
    whose kernels are instantiated but not promoted: a ``"native"`` request
    is recorded on every kernel and served from its NumPy twin until
    somebody calls :meth:`CompiledQuery.promote` — :func:`compile_program`
    at once, ``TiltEngine.compile`` when the query has earned it.

    ``optimize=False`` skips the optimizer entirely (the "UnOpt" configuration
    of the Figure 10 study); ``enable_fusion=False`` keeps the cleanup passes
    but disables operator fusion.  The engine's interpreted mode is
    ``optimize=False`` on :data:`INTERPRETED_TIER`.
    """
    tiers = native.CODEGEN_TIERS + (INTERPRETED_TIER,)
    if codegen_tier not in tiers:
        raise CompilationError(
            f"unknown codegen tier {codegen_tier!r} (expected one of {tiers})"
        )
    validate_program(program)
    pm: Optional[PassManager] = None
    if optimize:
        pm = pass_manager or default_pass_manager(enable_fusion=enable_fusion)
        program = pm.run(program)
    boundary = resolve_boundaries(program)
    # bounds-safety gate: the analyzer independently re-composes every
    # access extent and cross-checks it against the boundary plan; kernels
    # are generated only for proven programs, and each spec carries the
    # proof token the native tier demands before lowering to raw-array C.
    # Reports are cached by program digest, so recompilation is one lookup.
    report = analyze_program(program, boundary=boundary)
    if report.has_errors:
        details = "; ".join(f.format() for f in report.errors())
        raise AnalysisError(
            f"static analysis refused the program: {details}", report=report
        )
    proof = report.proof_token()
    order = topological_order(program)
    by_name: Dict[str, TemporalExpr] = {te.name: te for te in program.exprs}
    specs = [generate_kernel_spec(by_name[name]) for name in order]
    for spec in specs:
        spec.bounds_proof = f"{proof}:{spec.name}"
    kernels = [CompiledKernel(spec, tier=codegen_tier) for spec in specs]
    return CompiledQuery(
        program=program, boundary=boundary, kernels=kernels, pass_manager=pm, report=report
    )


def compile_program(
    program: TiltProgram,
    *,
    optimize: bool = True,
    enable_fusion: bool = True,
    pass_manager: Optional[PassManager] = None,
    codegen_tier: str = NUMPY_TIER,
) -> CompiledQuery:
    """:func:`lower_program`, then promoted inline: with
    ``codegen_tier="native"`` every kernel is built (or individually refused,
    with the reason) before this returns — the caller pays the compiler.
    ``"numpy"`` (the default here, where there is no engine to amortise a
    build) has nothing to promote.
    """
    compiled = lower_program(
        program,
        optimize=optimize,
        enable_fusion=enable_fusion,
        pass_manager=pass_manager,
        codegen_tier=codegen_tier,
    )
    compiled.promote()
    return compiled
