"""The TiLT program analyzer: bounds-safety proof + diagnostics.

``analyze_program`` runs a battery of checks over a *validated* program and
returns a :class:`~repro.analysis.findings.ProgramReport`.  The checks, by
finding code:

Bounds safety (the proof obligation of the margin contract)
    * ``BS001`` (error) — an input stream has an unbounded composed extent;
      the query cannot be partitioned at all.
    * ``BS002`` (error) — the resolved boundary plan's margins (and the
      concrete input interval :meth:`BoundarySpec.input_interval` hands the
      partitioner) do not cover an input's composed access extent.
    * ``BS003`` (error) — an intermediate (materialized) expression is
      *consumed* outside the interval ``CompiledQuery.run`` materializes it
      over (``(Ts - max_lookback, Te + max_lookahead]``); the runtime would
      silently read φ where a value was expected.
    * ``BS004`` (warning) — an expression's time-domain precision does not
      divide the partition alignment grid; partition edges may land between
      its output points.

Hygiene
    * ``DD001`` (warning) — dead definition: a temporal expression not
      reachable from the output (it still costs a kernel evaluation).
    * ``DD002`` (warning) — an input stream never referenced.

Domain analysis
    * ``DOM001``/``DOM002``/``DOM003`` (warning) — an unguarded ``/``/``%``,
      ``sqrt``, or ``log`` whose operand is not provably in-domain and whose
      result is not observed through ``IsValid``/``Coalesce``.  The NumPy
      lowering masks these lanes to φ (see ``repro.core.ops``), so the
      symptom is silently missing values rather than NaNs.

Cost
    * ``CE001`` (info) — static per-kernel cost estimate (window depth ×
      op count), also stamped on :class:`KernelSpec` for the scheduler.

The composed extents used by the BS checks are *recomputed here* from
``ir/analysis.reference_extents`` — deliberately not by calling
``lineage.boundary.compose_extents`` — so the analyzer is an independent
cross-check of the boundary resolver rather than a restatement of it.

Reports are cached by program digest (analysis is pure), so the
compile-time hook costs one dict lookup for every recompilation of an
already-seen program.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.ir.analysis import (
    estimate_static_cost,
    reference_extents,
    referenced_streams,
    topological_order,
)
from ..core.ir.nodes import (
    BinOp,
    Call,
    Coalesce,
    Const,
    Expr,
    IsValid,
    Reduce,
    TiltProgram,
    UnaryOp,
)
from ..core.ir.visitor import ExprVisitor
from ..core.lineage.boundary import BoundarySpec, resolve_boundaries
from ..errors import BoundaryResolutionError
from .findings import Finding, ProgramReport, Severity

__all__ = ["analyze_program", "check_boundary", "program_digest", "clear_cache"]

#: tolerance for float comparisons of time offsets / margins
_EPS = 1e-9

_CACHE_LIMIT = 256
_CACHE: "OrderedDict[Tuple[str, Optional[str]], ProgramReport]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def program_digest(program: TiltProgram) -> str:
    """Content digest of a program (IR nodes repr stably; aggregates by name)."""
    return hashlib.sha256(repr(program).encode()).hexdigest()


def clear_cache() -> None:
    """Drop all cached reports (tests / memory pressure)."""
    with _CACHE_LOCK:
        _CACHE.clear()


# ---------------------------------------------------------------------- #
# composed extents, recomputed independently of lineage.boundary
# ---------------------------------------------------------------------- #
def _own_extents(program: TiltProgram) -> Dict[str, Dict[str, Tuple[float, float]]]:
    return {te.name: reference_extents(te.expr) for te in program.exprs}


def _compose_input_extents(
    program: TiltProgram,
    own: Dict[str, Dict[str, Tuple[float, float]]],
    order: List[str],
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Per defined expression, the (lo, hi) offsets it may read of each *input*."""
    inputs = set(program.inputs)
    resolved: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for name in order:
        total: Dict[str, Tuple[float, float]] = {}
        for ref, (lo, hi) in own[name].items():
            if ref in inputs:
                _merge(total, ref, lo, hi)
            else:
                for in_name, (ilo, ihi) in resolved.get(ref, {}).items():
                    _merge(total, in_name, lo + ilo, hi + ihi)
        resolved[name] = total
    return resolved


def _consumed_extents(
    program: TiltProgram,
    own: Dict[str, Dict[str, Tuple[float, float]]],
    order: List[str],
) -> Dict[str, Tuple[float, float]]:
    """Per defined expression, the offsets (relative to output time) at which
    its materialized values are actually *consumed*.

    ``Rd(output) = (0, 0)``; walking the dependency chain backwards from the
    output, a consumer read at ``(a, b)`` of ``e`` extends ``Rd(e)`` by
    ``(Rd(consumer).lo + a, Rd(consumer).hi + b)``.  Expressions never
    consumed (dead definitions) are absent from the result.
    """
    defined = set(program.defined_names())
    consumed: Dict[str, Tuple[float, float]] = {program.output: (0.0, 0.0)}
    for name in reversed(order):
        if name not in consumed:
            continue  # dead: nothing downstream reads it
        rd_lo, rd_hi = consumed[name]
        for ref, (lo, hi) in own[name].items():
            if ref in defined and ref != name:
                _merge(consumed, ref, rd_lo + lo, rd_hi + hi)
    return consumed


def _merge(acc: Dict[str, Tuple[float, float]], name: str, lo: float, hi: float) -> None:
    cur = acc.get(name)
    if cur is None:
        acc[name] = (lo, hi)
    else:
        acc[name] = (min(cur[0], lo), max(cur[1], hi))


# ---------------------------------------------------------------------- #
# domain analysis
# ---------------------------------------------------------------------- #
class _DomainChecker(ExprVisitor):
    """Flag unguarded φ/NaN-producing sites (``/``, ``%``, sqrt, log).

    These proofs reason about *specific* operators (which operand is the
    divisor, that ``abs`` and ``x * x`` are non-negative) — knowledge the
    operator table does not carry — hence the explicit LNT107 allows.

    A site is *guarded* when an enclosing ``IsValid`` or ``Coalesce``
    observes its φ, or when the critical operand is a constant provably in
    the operation's domain.  ``abs(x)`` feeding ``sqrt`` also counts.
    """

    def __init__(self) -> None:
        self.sites: List[Tuple[str, str]] = []  # (code, description)
        self._guard_depth = 0

    # guards ----------------------------------------------------------- #
    def visit_isvalid(self, node: IsValid) -> None:
        self._guard_depth += 1
        self.visit(node.operand)
        self._guard_depth -= 1

    def visit_coalesce(self, node: Coalesce) -> None:
        self._guard_depth += 1
        self.visit(node.operand)
        self._guard_depth -= 1
        self.visit(node.default)

    def visit_reduce(self, node: Reduce) -> None:
        self.visit(node.window)
        if node.element is not None:
            self.visit(node.element)

    # sites ------------------------------------------------------------ #
    def visit_binop(self, node: BinOp) -> None:
        if node.op in ("/", "%") and self._guard_depth == 0:  # lint: allow(LNT107)
            if not self._nonzero(node.rhs):
                self.sites.append(
                    ("DOM001", f"'{node.op}' with a possibly-zero divisor")
                )
        self.visit(node.lhs)
        self.visit(node.rhs)

    def visit_unaryop(self, node: UnaryOp) -> None:
        self._check_unary(node.op, node.operand)
        self.visit(node.operand)

    def visit_call(self, node: Call) -> None:
        if node.args:
            self._check_unary(node.func, node.args[0])
        for arg in node.args:
            self.visit(arg)

    def _check_unary(self, op: str, operand: Expr) -> None:
        if self._guard_depth:
            return
        if op == "sqrt" and not self._nonnegative(operand):  # lint: allow(LNT107)
            self.sites.append(("DOM002", "sqrt of a possibly-negative operand"))
        elif op == "log" and not self._positive_const(operand):  # lint: allow(LNT107)
            self.sites.append(("DOM003", "log of a possibly-non-positive operand"))

    # operand facts ---------------------------------------------------- #
    @classmethod
    def _nonzero(cls, expr: Expr) -> bool:
        if isinstance(expr, Const):
            return expr.value != 0.0
        # max(x, c) with c > 0 is c or more (or NaN): never zero
        return (
            isinstance(expr, BinOp)
            and expr.op == "max"  # lint: allow(LNT107)
            and (cls._positive_const(expr.lhs) or cls._positive_const(expr.rhs))
        )

    @staticmethod
    def _nonnegative(expr: Expr) -> bool:
        if isinstance(expr, Const):
            return expr.value >= 0.0
        if isinstance(expr, UnaryOp) and expr.op == "abs":  # lint: allow(LNT107)
            return True
        if isinstance(expr, IsValid):
            return True  # 0.0 or 1.0
        if isinstance(expr, BinOp) and expr.op == "*" and expr.lhs == expr.rhs:  # lint: allow(LNT107)
            return True  # x * x
        return False

    @staticmethod
    def _positive_const(expr: Expr) -> bool:
        return isinstance(expr, Const) and expr.value > 0.0


# ---------------------------------------------------------------------- #
# boundary cross-checks (reusable against an arbitrary BoundarySpec)
# ---------------------------------------------------------------------- #
def check_boundary(program: TiltProgram, boundary: BoundarySpec) -> List[Finding]:
    """Cross-check ``boundary`` against the program's recomputed extents.

    Returns the BS00x findings (empty when the plan is proven sufficient).
    This is the same obligation ``analyze_program`` discharges, exposed
    separately so tests can probe deliberately-weakened boundary specs.
    """
    findings: List[Finding] = []
    own = _own_extents(program)
    order = topological_order(program)
    composed = _compose_input_extents(program, own, order)
    output_extents = composed.get(program.output, {})

    # BS001/BS002: every input's composed extent must be finite and covered
    # by both the margin pair and the concrete interval handed to the
    # partitioner for a symbolic partition (0, P].
    for name in program.inputs:
        lo, hi = output_extents.get(name, (0.0, 0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            findings.append(
                Finding(
                    code="BS001",
                    severity=Severity.ERROR,
                    site=name,
                    message=(
                        f"input ~{name} has an unbounded composed extent "
                        f"({lo:g}, {hi:g}); the query cannot be partitioned"
                    ),
                    data={"extent": (lo, hi)},
                )
            )
            continue
        lookback = boundary.lookback(name)
        lookahead = boundary.lookahead(name)
        span = 1.0  # symbolic partition (0, 1]
        int_lo, int_hi = boundary.input_interval(name, 0.0, span)
        required_lo = min(lo, 0.0)
        required_hi = span + max(hi, 0.0)
        margin_ok = lookback >= -min(lo, 0.0) - _EPS and lookahead >= max(hi, 0.0) - _EPS
        interval_ok = int_lo <= required_lo + _EPS and int_hi >= required_hi - _EPS
        if not (margin_ok and interval_ok):
            findings.append(
                Finding(
                    code="BS002",
                    severity=Severity.ERROR,
                    site=name,
                    message=(
                        f"boundary margins (lookback={lookback:g}, "
                        f"lookahead={lookahead:g}) do not cover ~{name}'s composed "
                        f"access extent ({lo:g}, {hi:g}); a partition would read "
                        "input snapshots outside its materialized slice"
                    ),
                    data={
                        "extent": (lo, hi),
                        "lookback": lookback,
                        "lookahead": lookahead,
                    },
                )
            )

    # BS003: every *consumed* read of a materialized intermediate must fall
    # inside the interval CompiledQuery.run materializes intermediates over.
    max_lb = boundary.max_lookback
    max_la = boundary.max_lookahead
    consumed = _consumed_extents(program, own, order)
    for name, (lo, hi) in consumed.items():
        if name == program.output:
            continue
        if not (math.isfinite(lo) and math.isfinite(hi)):
            findings.append(
                Finding(
                    code="BS003",
                    severity=Severity.ERROR,
                    site=name,
                    message=(
                        f"intermediate ~{name} is consumed over an unbounded "
                        f"offset range ({lo:g}, {hi:g})"
                    ),
                    data={"consumed": (lo, hi)},
                )
            )
            continue
        if lo < -max_lb - _EPS or hi > max_la + _EPS:
            findings.append(
                Finding(
                    code="BS003",
                    severity=Severity.ERROR,
                    site=name,
                    message=(
                        f"intermediate ~{name} is consumed at offsets "
                        f"({lo:g}, {hi:g}) but is only materialized over "
                        f"(Ts-{max_lb:g}, Te+{max_la:g}]; reads outside would "
                        "silently yield φ"
                    ),
                    data={
                        "consumed": (lo, hi),
                        "materialized": (-max_lb, max_la),
                    },
                )
            )
    return findings


# ---------------------------------------------------------------------- #
# the analyzer
# ---------------------------------------------------------------------- #
def analyze_program(
    program: TiltProgram, boundary: Optional[BoundarySpec] = None
) -> ProgramReport:
    """Analyze a validated program; never raises on findings.

    ``boundary`` is the already-resolved plan when called from
    ``compile_program`` (so the analyzer checks exactly the spec the
    partitioner will use); standalone callers leave it ``None`` and the
    analyzer resolves one itself, converting a
    :class:`BoundaryResolutionError` into a ``BS001`` finding instead of
    raising.
    """
    digest = program_digest(program)
    cache_key = (digest, _boundary_key(boundary))
    with _CACHE_LOCK:
        cached = _CACHE.get(cache_key)
        if cached is not None:
            _CACHE.move_to_end(cache_key)
            return cached

    report = _analyze_uncached(program, boundary, digest)

    with _CACHE_LOCK:
        _CACHE[cache_key] = report
        _CACHE.move_to_end(cache_key)
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
    return report


def _boundary_key(boundary: Optional[BoundarySpec]) -> Optional[str]:
    if boundary is None:
        return None
    return repr(sorted(boundary.margins.items()))


def _analyze_uncached(
    program: TiltProgram, boundary: Optional[BoundarySpec], digest: str
) -> ProgramReport:
    findings: List[Finding] = []

    if boundary is None:
        try:
            boundary = resolve_boundaries(program)
        except BoundaryResolutionError as exc:
            findings.append(
                Finding(
                    code="BS001",
                    severity=Severity.ERROR,
                    message=f"boundary resolution failed: {exc}",
                )
            )

    if boundary is not None:
        findings.extend(check_boundary(program, boundary))

        # BS004: every expression's precision should nest into the partition
        # alignment grid (the max precision — see TiltEngine._partition).
        precisions = [te.tdom.precision for te in program.exprs]
        align = max((p for p in precisions if p > 0), default=0.0)
        for te in program.exprs:
            p = te.tdom.precision
            if p > 0 and align > 0:
                ratio = align / p
                if abs(ratio - round(ratio)) > _EPS:
                    findings.append(
                        Finding(
                            code="BS004",
                            severity=Severity.WARNING,
                            site=te.name,
                            message=(
                                f"~{te.name}'s precision {p:g} does not divide the "
                                f"partition alignment grid {align:g}; partition "
                                "edges may fall between its output points"
                            ),
                            data={"precision": p, "alignment": align},
                        )
                    )

    # DD001/DD002: dead definitions and unused inputs.
    reachable = {program.output}
    by_name = {te.name: te for te in program.exprs}
    stack = [program.output]
    used_inputs = set()
    while stack:
        te = by_name.get(stack.pop())
        if te is None:
            continue
        for ref in referenced_streams(te.expr):
            if ref in program.inputs:
                used_inputs.add(ref)
            elif ref not in reachable:
                reachable.add(ref)
                stack.append(ref)
    for te in program.exprs:
        if te.name not in reachable:
            findings.append(
                Finding(
                    code="DD001",
                    severity=Severity.WARNING,
                    site=te.name,
                    message=(
                        f"~{te.name} is never consumed by ~{program.output}; its "
                        "kernel still runs every partition"
                    ),
                )
            )
    for name in program.inputs:
        if name not in used_inputs:
            findings.append(
                Finding(
                    code="DD002",
                    severity=Severity.WARNING,
                    site=name,
                    message=f"input ~{name} is never referenced",
                )
            )

    # DOM001-003: unguarded NaN/φ-producing sites.
    for te in program.exprs:
        checker = _DomainChecker()
        checker.visit(te.expr)
        for code, desc in checker.sites:
            findings.append(
                Finding(
                    code=code,
                    severity=Severity.WARNING,
                    site=te.name,
                    message=(
                        f"unguarded {desc} in ~{te.name}; the lowering masks the "
                        "lane to φ — wrap in IsValid/Coalesce if intended"
                    ),
                )
            )

    # CE001: static cost estimates (info), one per temporal expression.
    for te in program.exprs:
        cost = estimate_static_cost(te)
        findings.append(
            Finding(
                code="CE001",
                severity=Severity.INFO,
                site=te.name,
                message=f"static cost estimate {cost:g} (window depth × op count)",
                data={"cost": cost},
            )
        )

    return ProgramReport(digest=digest, findings=findings)
