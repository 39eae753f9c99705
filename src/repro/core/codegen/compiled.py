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
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

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

__all__ = ["CompiledKernel", "CompiledQuery", "compile_program", "INTERPRETED_TIER"]

#: the oracle's kernel tier: ``run`` evaluates the kernel's IR with the
#: reference interpreter and never ``exec``s generated source, so its output
#: is independent of the code generator.  Internal — users spell it
#: ``TiltEngine(mode="interpreted")``.
INTERPRETED_TIER = "interpreted"

#: per-process kernel rebuild cache, keyed by spec content digest.  When a
#: pickled kernel arrives in a worker process (or is unpickled repeatedly in
#: one), the generated source is compiled once and the instantiated kernel
#: reused — rebuilding is the per-process analogue of the engine's compile
#: cache, and like it the cache is LRU-bounded so a long-lived worker
#: serving an unbounded stream of distinct queries releases old kernels
#: (owners of a live CompiledQuery keep their kernels referenced anyway).
_KERNEL_REBUILD_CACHE: "OrderedDict[Tuple[str, str], CompiledKernel]" = OrderedDict()
_KERNEL_REBUILD_LOCK = threading.Lock()
_KERNEL_REBUILD_LIMIT = 128


def _rebuild_kernel(spec: KernelSpec, tier: str = NUMPY_TIER) -> "CompiledKernel":
    """Unpickle hook for :class:`CompiledKernel` (module-level so it pickles
    by reference).  The requested codegen tier rides in the pickle, so a
    process-pool worker rebuilding a native-tier kernel re-instantiates it
    natively (hitting the shared disk cache rather than the C compiler)."""
    return CompiledKernel.from_spec(spec, tier=tier)


class CompiledKernel:
    """One executable kernel: a spec instantiated on a tier in this process.

    The class separates *what a kernel is* (the :class:`KernelSpec`: sources,
    fused IR, aggregate descriptors, access pattern — picklable whenever its
    aggregates are) from *a kernel instantiated in this process* (the exec'd
    function and its :class:`KernelRuntime`, which never cross a process
    boundary).  Pickling therefore ships only the spec and the tier;
    unpickling re-instantiates through the per-process rebuild cache.
    """

    def __init__(self, spec: KernelSpec, tier: str = NUMPY_TIER):
        self.spec = spec
        #: the *requested* tier; :attr:`active_tier` is what actually serves
        #: ``run`` after any per-kernel fallback
        self.tier = tier
        self._native = None
        self.native_fallback_reason: Optional[str] = None
        self.native_build_seconds = 0.0
        if tier == INTERPRETED_TIER:
            self.runtime = self._function = None
            self.active_tier = INTERPRETED_TIER
            return
        element_functions = [
            self._compile_function(src, ELEMENT_FUNCTION_NAME, f"<tilt-element-{spec.name}-{i}>")
            for i, src in enumerate(spec.element_sources)
        ]
        self.runtime = KernelRuntime(spec.accesses, spec.tdom, spec.aggregates, element_functions)
        self._function = self._compile_function(
            spec.source, KERNEL_FUNCTION_NAME, f"<tilt-kernel-{spec.name}>"
        )
        if tier == NATIVE_TIER:
            started = time.perf_counter()
            self._native, self.native_fallback_reason = native.instantiate(spec)
            self.native_build_seconds = time.perf_counter() - started
        self.active_tier = NATIVE_TIER if self._native is not None else NUMPY_TIER

    @classmethod
    def from_spec(cls, spec: KernelSpec, tier: str = NUMPY_TIER) -> "CompiledKernel":
        """Instantiate a kernel from its spec, reusing a previous
        instantiation of an identical (spec, tier) in this process."""
        key = (spec.digest(), tier)
        with _KERNEL_REBUILD_LOCK:
            kernel = _KERNEL_REBUILD_CACHE.get(key)
            if kernel is not None:
                _KERNEL_REBUILD_CACHE.move_to_end(key)
                return kernel
        # compile outside the lock: kernel compilation is the slow part and
        # two concurrent rebuilds of the same spec are merely redundant
        kernel = cls(spec, tier=tier)
        with _KERNEL_REBUILD_LOCK:
            existing = _KERNEL_REBUILD_CACHE.get(key)
            if existing is not None:
                _KERNEL_REBUILD_CACHE.move_to_end(key)
                return existing
            _KERNEL_REBUILD_CACHE[key] = kernel
            while len(_KERNEL_REBUILD_CACHE) > _KERNEL_REBUILD_LIMIT:
                _KERNEL_REBUILD_CACHE.popitem(last=False)
            return kernel

    def __reduce__(self):
        return (_rebuild_kernel, (self.spec, self.tier))

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
        """Execute the kernel over ``(t_start, t_end]``.

        ``runtime`` substitutes a caller-owned runtime for the kernel's
        shared immutable one — incremental sessions pass their private
        :class:`~repro.core.codegen.incremental.IncrementalKernelRuntime`
        here so reductions hit persistent per-session state.  A runtime
        override therefore forces the NumPy path even on a native-tier
        kernel: the override's whole point is interposing on ``rt.reduce``
        calls, which the fused C loop does not make (nor does the
        interpreted tier, which ignores the override — sessions never pass
        one to it).
        """
        if self._function is None:  # interpreted tier: evaluate the IR itself
            return evaluate_temporal_expr(self.spec.te, env, t_start, t_end)
        if runtime is None and self._native is not None:
            return self._native.run(env, t_start, t_end, self.runtime)
        return self._function(env, t_start, t_end, runtime if runtime is not None else self.runtime)


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
    and the kernel *specs*; unpickling re-instantiates the kernels through
    the per-process rebuild cache.  :meth:`pickle_payload` is the
    process-backend entry point and degrades to ``None`` instead of raising
    when the query cannot cross a process boundary.
    """

    program: TiltProgram
    boundary: BoundarySpec
    kernels: List[CompiledKernel]
    pass_manager: Optional[PassManager] = None
    report: Optional[ProgramReport] = None

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

    def pickle_payload(self) -> Optional[Tuple[str, bytes]]:
        """``(digest, pickled bytes)`` for process-pool dispatch, or ``None``.

        The bytes are computed once and cached: a long-running query is
        serialized a single time no matter how many partitions are shipped.
        ``None`` means the query's artifacts cannot cross a process boundary
        (e.g. lambda-based custom aggregates) and the caller should fall
        back to in-process execution.
        """
        payload = self.__dict__.get("_payload", False)
        if payload is False:
            try:
                blob = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
                payload = (hashlib.sha256(blob).hexdigest(), blob)
            except (pickle.PicklingError, TypeError, AttributeError, ValueError):
                # the unpicklable-artifact cases (lambda aggregates and the
                # like); anything else — MemoryError, a bug in a component's
                # __reduce__ — propagates instead of being silently cached
                # as "cannot use the process backend"
                payload = None
            self.__dict__["_payload"] = payload
        return payload

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

    def kernel_plan(self) -> List[Dict[str, Optional[str]]]:
        """One row per kernel: the tier requested, the tier actually serving
        ``run`` and, when they differ, why."""
        return [
            {
                "kernel": k.name,
                "requested_tier": k.tier,
                "active_tier": k.active_tier,
                "fallback_reason": k.native_fallback_reason,
            }
            for k in self.kernels
        ]

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
        output_runtime: Optional[KernelRuntime] = None,
    ) -> SSBuf:
        """Execute the query over ``(t_start, t_end]`` and return the output buffer.

        Intermediate (non-output) expressions are materialized over an
        interval extended by the resolved margins so that downstream kernels
        can read into the past/future they need.

        ``output_runtime`` is the in-process session tick: the output kernel
        runs with that session-private runtime over ``inputs`` *unsliced*
        (its persistent reduce sites may only ever ingest true input
        snapshots, never slice-clipped phantoms), while intermediates are
        rebuilt from the margin slices a partition would have handed them —
        byte-identical to the single-partition batch materialization.
        """
        env: Dict[str, SSBuf] = dict(inputs)
        missing = [name for name in self.program.inputs if name not in env]
        if missing:
            raise ExecutionError(f"missing input streams: {missing}")
        lookback = self.boundary.max_lookback
        lookahead = self.boundary.max_lookahead
        margin_env = env
        if output_runtime is not None and len(self.kernels) > 1:
            margin_env = {
                name: buf.slice(*self.boundary.input_interval(name, t_start, t_end))
                for name, buf in inputs.items()
            }
        for kernel in self.kernels:
            if kernel.name == self.program.output:
                env[kernel.name] = kernel.run(env, t_start, t_end, runtime=output_runtime)
            else:
                env[kernel.name] = margin_env[kernel.name] = kernel.run(
                    margin_env, t_start - lookback, t_end + lookahead
                )
        return env[self.program.output]


def compile_program(
    program: TiltProgram,
    *,
    optimize: bool = True,
    enable_fusion: bool = True,
    pass_manager: Optional[PassManager] = None,
    codegen_tier: str = NUMPY_TIER,
) -> CompiledQuery:
    """Validate, optimize and lower a TiLT program to a :class:`CompiledQuery`.

    ``optimize=False`` skips the optimizer entirely (the "UnOpt" configuration
    of the Figure 10 study); ``enable_fusion=False`` keeps the cleanup passes
    but disables operator fusion.  ``codegen_tier`` selects the tier every
    kernel is instantiated on (``"numpy"`` or ``"native"``; native-tier
    kernels that cannot be lowered fall back to NumPy individually).  The
    engine's interpreted mode is ``optimize=False`` on
    :data:`INTERPRETED_TIER`.
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
