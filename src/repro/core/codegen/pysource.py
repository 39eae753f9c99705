"""Python source generation for temporal expressions.

The TiLT paper lowers fused temporal expressions to LLVM IR; this
reproduction lowers them to Python source implementing a *vectorized* kernel
over NumPy arrays.  The generated function has the shape of the synthesized
loop of Figure 3d:

* it derives the output timestamps from the change points of its inputs
  (``rt.eval_times`` implements the "advance to the next change" loop-counter
  expression, for all output points at once);
* every point access and every reduction becomes one vectorized runtime call
  producing a ``(values, valid)`` array pair;
* the scalar expression tree is emitted as straight-line NumPy code over
  those arrays, with an explicit validity mask implementing φ-propagation;
* the kernel is parameterized by the symbolic boundaries ``(t_start, t_end]``
  so the same compiled artifact runs on any partition.

The emitted source is compiled with :func:`compile`/``exec`` by
:mod:`repro.core.codegen.compiled`; it references nothing except NumPy (via
``rt.np``) and the :class:`~repro.core.codegen.runtime_support.KernelRuntime`
helper that carries the aggregate registry and element-map functions (which
cannot be serialized into source text).
"""

from __future__ import annotations

import hashlib
import math
import pickle
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...errors import CompilationError
from ...windowing.functions import AggregateFunction
from ..ir.analysis import estimate_static_cost
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
    TDom,
    TIndex,
    TRef,
    TWindow,
    TemporalExpr,
    UnaryOp,
    Var,
)
from ..lineage.boundary import AccessPattern, collect_accesses
from ..ops import bind

__all__ = ["KernelSpec", "generate_kernel_spec", "KERNEL_FUNCTION_NAME", "ELEMENT_FUNCTION_NAME"]

KERNEL_FUNCTION_NAME = "_tilt_kernel"
ELEMENT_FUNCTION_NAME = "_tilt_element"


@dataclass
class KernelSpec:
    """Everything needed to instantiate an executable kernel for one
    temporal expression."""

    name: str
    tdom: TDom
    source: str
    element_sources: List[str]
    aggregates: List[AggregateFunction]
    accesses: Dict[str, AccessPattern]
    referenced: List[str]
    #: one entry per ``rt.reduce`` call site in the generated source, as
    #: ``(ref, start_offset, end_offset, agg_idx, elem_idx)``.  Derived from
    #: the same compilation pass that emits the call, so it is exactly the
    #: set of reductions a session plans state for (see
    #: :func:`repro.core.codegen.runtime_support.reduce_site_plan`).  Not part
    #: of :meth:`digest` — it is fully determined by ``source`` (every entry
    #: mirrors an emitted call).
    reduce_sites: List[Tuple[str, float, float, int, int]] = field(default_factory=list)
    #: the fused IR this spec was generated from.  The native codegen tier
    #: (:mod:`repro.core.codegen.native`) re-lowers it to C instead of
    #: re-parsing :attr:`source`.  Not part of :meth:`digest` — like
    #: :attr:`reduce_sites` it is fully determined by the same compilation
    #: pass that produced ``source``, so it adds no identifying content.
    te: Optional[TemporalExpr] = None
    #: static cost estimate (window depth × op count) from
    #: :func:`repro.core.ir.analysis.estimate_static_cost` — seeds the
    #: scheduler's per-tenant cost EWMA.  Derived, so not part of
    #: :meth:`digest`.
    static_cost: float = 0.0
    #: bounds-safety certificate stamped by ``compile_program`` after the
    #: analyzer proved every windowed access of the program is covered by
    #: the resolved partition margins (``None`` until then).  The native
    #: tier refuses to lower a spec without one (see
    #: :func:`repro.core.codegen.native.instantiate`).  Not part of
    #: :meth:`digest`: the proof certifies the same content the digest
    #: identifies, it does not change the executable artifact.
    bounds_proof: Optional[str] = None

    def describe(self) -> str:
        """Generated source plus element maps — for logging and golden tests."""
        parts = [f"# kernel for ~{self.name}", self.source]
        for i, src in enumerate(self.element_sources):
            parts.append(f"# element map {i}")
            parts.append(src)
        return "\n".join(parts)

    def digest(self) -> str:
        """Content digest identifying this spec's executable artifact.

        Two specs with the same digest instantiate interchangeable kernels,
        which is what the native tier's in-process and on-disk caches key on
        (see :mod:`repro.core.codegen.native`).  The digest covers
        everything execution depends on: the generated sources, the time
        domain, the access pattern and the identity of
        every aggregate (built-ins by name; custom aggregates by their
        pickled callables — unpicklable aggregates make ``digest`` raise,
        matching the fact that such a spec cannot leave the process anyway).
        """
        h = hashlib.sha256()
        for text in (self.name, self.source, *self.element_sources):
            h.update(text.encode())
            h.update(b"\x00")
        h.update(repr((self.tdom.start, self.tdom.end, self.tdom.precision)).encode())
        for ref in sorted(self.accesses):
            pattern = self.accesses[ref]
            h.update(ref.encode())
            h.update(
                repr(
                    (sorted(pattern.point_offsets), sorted(pattern.windows))
                ).encode()
            )
        for agg in self.aggregates:
            h.update(pickle.dumps(agg, protocol=4))
        return h.hexdigest()


class _Emitter:
    """Shared statement emitter used for the main kernel and element maps."""

    def __init__(self, indent: str = "    "):
        self.lines: List[str] = []
        self.indent = indent
        self._counter = 0

    def fresh(self) -> Tuple[str, str]:
        self._counter += 1
        return f"_v{self._counter}", f"_k{self._counter}"

    def emit(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def body(self) -> str:
        # a bare `pass` keeps the enclosing `with` block syntactically valid
        # even when the expression compiled to no statements (e.g. a lone
        # variable reference)
        return "\n".join(self.lines) if self.lines else self.indent + "pass"


class _ExprCompiler:
    """Compile a scalar expression tree into straight-line NumPy statements."""

    def __init__(
        self,
        emitter: _Emitter,
        scope: Dict[str, Tuple[str, str]],
        kernel: "_KernelBuilder",
        allow_temporal: bool,
    ):
        self.emitter = emitter
        self.scope = dict(scope)
        self.kernel = kernel
        self.allow_temporal = allow_temporal

    # ------------------------------------------------------------------ #
    def compile(self, expr: Expr) -> Tuple[str, str]:
        if isinstance(expr, Const):
            v, k = self.emitter.fresh()
            # NaN/±inf (a folded ``Const(-8) ** Const(0.5)``) have no literal
            literal = repr(expr.value) if math.isfinite(expr.value) else f"float({str(expr.value)!r})"
            self.emitter.emit(f"{v} = _np.full(_n, {literal})")
            self.emitter.emit(f"{k} = _TRUE")
            return v, k
        if isinstance(expr, Phi):
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.zeros(_n)")
            self.emitter.emit(f"{k} = _FALSE")
            return v, k
        if isinstance(expr, Var):
            if expr.name not in self.scope:
                raise CompilationError(f"unbound variable {expr.name!r} during code generation")
            return self.scope[expr.name]
        if isinstance(expr, (TRef, TIndex)):
            if not self.allow_temporal:
                raise CompilationError("temporal access inside a reduce element expression")
            ref = expr.name if isinstance(expr, TRef) else expr.ref
            offset = 0.0 if isinstance(expr, TRef) else expr.offset
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v}, {k} = rt.point(env, {ref!r}, {offset!r}, _ts, _cache)")
            return v, k
        if isinstance(expr, Reduce):
            if not self.allow_temporal:
                raise CompilationError("nested reduction inside a reduce element expression")
            return self._compile_reduce(expr)
        if isinstance(expr, TWindow):
            raise CompilationError("windowed temporal object used outside a reduction")
        if isinstance(expr, (BinOp, UnaryOp, Call)):
            row = expr.row
            pairs = [self.compile(operand) for operand in expr.children()]
            v, k = self.emitter.fresh()
            vals = bind(p[0] for p in pairs)
            self.emitter.emit(f"{v} = " + row.numpy.format(**vals))
            mask = " & ".join(p[1] for p in pairs)
            if row.numpy_domain is not None:
                mask = f"({mask}) & " + row.numpy_domain.format(**vals)
            self.emitter.emit(f"{k} = {mask}")
            return v, k
        if isinstance(expr, IfThenElse):
            cv, ck = self.compile(expr.cond)
            tv, tk = self.compile(expr.then)
            ev, ek = self.compile(expr.orelse)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.where({cv} != 0, {tv}, {ev})")
            self.emitter.emit(f"{k} = {ck} & _np.where({cv} != 0, {tk}, {ek})")
            return v, k
        if isinstance(expr, IsValid):
            _, ok = self.compile(expr.operand)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = ({ok}).astype(_np.float64)")
            self.emitter.emit(f"{k} = _TRUE")
            return v, k
        if isinstance(expr, Coalesce):
            ov, ok = self.compile(expr.operand)
            dv, dk = self.compile(expr.default)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.where({ok}, {ov}, {dv})")
            self.emitter.emit(f"{k} = {ok} | {dk}")
            return v, k
        if isinstance(expr, Let):
            saved = dict(self.scope)
            for name, value in expr.bindings:
                self.scope[name] = self.compile(value)
            result = self.compile(expr.body)
            self.scope = saved
            return result
        raise CompilationError(f"cannot generate code for node type {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    def _compile_reduce(self, expr: Reduce) -> Tuple[str, str]:
        agg_idx = self.kernel.register_aggregate(expr.agg)
        elem_idx = self.kernel.register_element(expr.element) if expr.element is not None else -1
        window = expr.window
        self.kernel.reduce_sites.append(
            (window.ref, float(window.start_offset), float(window.end_offset), agg_idx, elem_idx)
        )
        v, k = self.emitter.fresh()
        self.emitter.emit(
            f"{v}, {k} = rt.reduce(env, {window.ref!r}, {window.start_offset!r}, "
            f"{window.end_offset!r}, {agg_idx}, {elem_idx}, _ts, _cache)"
        )
        return v, k


class _KernelBuilder:
    """Builds the full kernel source (main function plus element maps)."""

    def __init__(self, te: TemporalExpr):
        self.te = te
        self.aggregates: List[AggregateFunction] = []
        self.element_sources: List[str] = []
        self.reduce_sites: List[Tuple[str, float, float, int, int]] = []

    def register_aggregate(self, agg: AggregateFunction) -> int:
        for i, existing in enumerate(self.aggregates):
            if existing is agg:
                return i
        self.aggregates.append(agg)
        return len(self.aggregates) - 1

    def register_element(self, element: Expr) -> int:
        source = self._generate_element_source(element)
        self.element_sources.append(source)
        return len(self.element_sources) - 1

    def _generate_element_source(self, element: Expr) -> str:
        emitter = _Emitter(indent="        ")
        compiler = _ExprCompiler(
            emitter, scope={ELEM_VAR: ("_elem_vals", "_elem_ok")}, kernel=self, allow_temporal=False
        )
        out_v, out_k = compiler.compile(element)
        lines = [
            f"def {ELEMENT_FUNCTION_NAME}(elem, rt):",
            "    _np = rt.np",
            "    _n = len(elem)",
            "    _TRUE = _np.ones(_n, dtype=bool)",
            "    _FALSE = _np.zeros(_n, dtype=bool)",
            "    _elem_vals = _np.asarray(elem, dtype=_np.float64)",
            "    _elem_ok = _TRUE",
            # masked-out lanes are evaluated eagerly and discarded via the
            # validity mask; errstate keeps them from emitting RuntimeWarnings
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return _np.asarray({out_v}, dtype=_np.float64), _np.asarray({out_k}, dtype=bool)",
        ]
        return "\n".join(line for line in lines if line.strip() or line == "")

    def generate(self) -> KernelSpec:
        emitter = _Emitter(indent="        ")
        compiler = _ExprCompiler(emitter, scope={}, kernel=self, allow_temporal=True)
        out_v, out_k = compiler.compile(self.te.expr)
        lines = [
            f"def {KERNEL_FUNCTION_NAME}(env, t_start, t_end, rt):",
            f"    # generated kernel for temporal expression ~{self.te.name}",
            "    _np = rt.np",
            "    _ts = rt.eval_times(env, t_start, t_end)",
            "    _n = len(_ts)",
            "    if _n == 0:",
            "        return rt.empty(t_start)",
            "    _TRUE = _np.ones(_n, dtype=bool)",
            "    _FALSE = _np.zeros(_n, dtype=bool)",
            # per-run cursor table and aggregator indexes: execution state
            # lives in the kernel invocation, never in the shared
            # KernelRuntime (concurrent partitions of one compiled query must
            # not see each other)
            "    _cache = {}",
            # both branches of a conditional (and domain-guarded operands)
            # are evaluated eagerly, then discarded through the validity
            # mask; errstate silences the RuntimeWarnings of the masked lanes
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return rt.build(_ts, {out_v}, {out_k}, t_start)",
        ]
        source = "\n".join(line for line in lines if line.strip() or line == "")
        accesses = collect_accesses(self.te.expr)
        return KernelSpec(
            name=self.te.name,
            tdom=self.te.tdom,
            source=source,
            element_sources=list(self.element_sources),
            aggregates=list(self.aggregates),
            accesses=accesses,
            referenced=list(accesses.keys()),
            reduce_sites=list(self.reduce_sites),
            te=self.te,
            static_cost=estimate_static_cost(self.te),
        )


def generate_kernel_spec(te: TemporalExpr) -> KernelSpec:
    """Generate the Python kernel source for one temporal expression."""
    return _KernelBuilder(te).generate()
