"""Generic optimization passes and the pass manager.

Besides operator fusion (which lives in :mod:`repro.core.optimizer.fusion`),
the optimizer runs a handful of classic, semantics-preserving cleanups:

* **constant folding** — evaluates operators over constants, propagates φ
  literals, and applies the safe algebraic identities (``x+0``, ``x*1``, ...);
* **dead expression elimination** — drops temporal expressions no longer
  reachable from the program output (typically producers fully absorbed by
  fusion);
* **let simplification** — inlines Let bindings that are constants or that
  are referenced at most once, flattening the nested Lets fusion creates.

:class:`PassManager` composes the passes, records per-pass statistics and
exposes the default pipeline used by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.analysis import count_nodes, referenced_streams
from ..ir.nodes import (
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
    TemporalExpr,
    TiltProgram,
    UnaryOp,
    Var,
)
from ..ir.visitor import ExprTransformer
from ..ops import eval_op
from .fusion import fuse_operators
from .rewrite import substitute_vars

__all__ = [
    "constant_fold_expr",
    "constant_folding",
    "dead_expression_elimination",
    "simplify_lets",
    "PassManager",
    "default_pass_manager",
    "optimize",
]

ProgramPass = Callable[[TiltProgram], TiltProgram]

class _ConstantFolder(ExprTransformer):
    def _fold_op(self, node: Expr, operands: Tuple[Expr, ...], rebuilt: Expr) -> Expr:
        """One rule for BinOp/UnaryOp/Call: a φ operand gives φ, constant
        operands apply the operator-table row, and a row's identity constant
        (``x + 0``, ``1 * x``; holds for φ operands as well) drops out."""
        if any(isinstance(o, Phi) for o in operands):
            return Phi()
        row = node.row
        if all(isinstance(o, Const) for o in operands):
            value, ok = eval_op(row, [o.value for o in operands])
            return Const(value) if ok else Phi()
        if len(operands) == 2:
            lhs, rhs = operands
            if isinstance(rhs, Const) and rhs.value == row.identity[1]:
                return lhs
            if isinstance(lhs, Const) and lhs.value == row.identity[0]:
                return rhs
        return rebuilt

    def visit_binop(self, node: BinOp) -> Expr:
        lhs, rhs = self.visit(node.lhs), self.visit(node.rhs)
        return self._fold_op(node, (lhs, rhs), BinOp(node.op, lhs, rhs))

    def visit_unaryop(self, node: UnaryOp) -> Expr:
        operand = self.visit(node.operand)
        return self._fold_op(node, (operand,), UnaryOp(node.op, operand))

    def visit_call(self, node: Call) -> Expr:
        args = tuple(self.visit(a) for a in node.args)
        return self._fold_op(node, args, Call(node.func, args))

    def visit_ifthenelse(self, node: IfThenElse) -> Expr:
        cond = self.visit(node.cond)
        then = self.visit(node.then)
        orelse = self.visit(node.orelse)
        if isinstance(cond, Phi):
            return Phi()
        if isinstance(cond, Const):
            return then if cond.value != 0 else orelse
        return IfThenElse(cond, then, orelse)

    def visit_isvalid(self, node: IsValid) -> Expr:
        operand = self.visit(node.operand)
        if isinstance(operand, Phi):
            return Const(0.0)
        if isinstance(operand, Const):
            return Const(1.0)
        return IsValid(operand)

    def visit_coalesce(self, node: Coalesce) -> Expr:
        operand = self.visit(node.operand)
        default = self.visit(node.default)
        if isinstance(operand, Phi):
            return default
        if isinstance(operand, Const):
            return operand
        return Coalesce(operand, default)


def constant_fold_expr(expr: Expr) -> Expr:
    """Fold constants and φ literals in a single expression."""
    return _ConstantFolder().visit(expr)


def constant_folding(program: TiltProgram) -> TiltProgram:
    """Constant folding over every temporal expression of a program."""
    exprs = [TemporalExpr(te.name, te.tdom, constant_fold_expr(te.expr)) for te in program.exprs]
    return program.with_exprs(exprs)


def dead_expression_elimination(program: TiltProgram) -> TiltProgram:
    """Remove temporal expressions not reachable from the program output."""
    defs = {te.name: te for te in program.exprs}
    reachable = set()
    stack = [program.output]
    while stack:
        name = stack.pop()
        if name in reachable or name not in defs:
            continue
        reachable.add(name)
        stack.extend(referenced_streams(defs[name].expr))
    exprs = [te for te in program.exprs if te.name in reachable]
    return program.with_exprs(exprs)


class _VarUseCounter:
    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def count(self, expr: Expr) -> None:
        if isinstance(expr, Var):
            self.counts[expr.name] = self.counts.get(expr.name, 0) + 1
        for child in expr.children():
            self.count(child)


class _LetSimplifier(ExprTransformer):
    def visit_let(self, node: Let) -> Expr:
        bindings = [(name, self.visit(value)) for name, value in node.bindings]
        body = self.visit(node.body)
        counter = _VarUseCounter()
        counter.count(body)
        for _, value in bindings:
            counter.count(value)
        kept: List[Tuple[str, Expr]] = []
        substitution: Dict[str, Expr] = {}
        for name, value in bindings:
            value = substitute_vars(value, substitution)
            uses = counter.counts.get(name, 0)
            trivial = isinstance(value, (Const, Phi, Var))
            if uses == 0:
                continue
            if trivial or uses == 1:
                substitution[name] = value
            else:
                kept.append((name, value))
        body = substitute_vars(body, substitution)
        if not kept:
            return body
        if isinstance(body, Let):
            return Let(tuple(kept) + body.bindings, body.body)
        return Let(tuple(kept), body)


def simplify_lets(program: TiltProgram) -> TiltProgram:
    """Inline trivial / singly-used Let bindings and flatten nested Lets."""
    simplifier = _LetSimplifier()
    exprs = [TemporalExpr(te.name, te.tdom, simplifier.visit(te.expr)) for te in program.exprs]
    return program.with_exprs(exprs)


@dataclass
class PassRecord:
    """Statistics recorded for one pass application."""

    name: str
    expressions_before: int
    expressions_after: int
    nodes_before: int
    nodes_after: int


@dataclass
class PassManager:
    """Ordered collection of program passes with bookkeeping.

    The default pipeline is ``constant folding → fusion → let simplification
    → constant folding → dead expression elimination``, mirroring the
    compilation pipeline in Figure 3 (translation → boundary resolution →
    optimization → code generation); boundary resolution is not a program
    transformation and runs separately in the engine.
    """

    passes: List[Tuple[str, ProgramPass]] = field(default_factory=list)
    history: List[PassRecord] = field(default_factory=list)

    def add(self, name: str, program_pass: ProgramPass) -> "PassManager":
        """Append a pass to the pipeline (returns self for chaining)."""
        self.passes.append((name, program_pass))
        return self

    def run(self, program: TiltProgram) -> TiltProgram:
        """Run every pass in order, recording statistics."""
        self.history.clear()
        for name, program_pass in self.passes:
            before_exprs = len(program.exprs)
            before_nodes = sum(count_nodes(te.expr) for te in program.exprs)
            program = program_pass(program)
            after_nodes = sum(count_nodes(te.expr) for te in program.exprs)
            self.history.append(
                PassRecord(name, before_exprs, len(program.exprs), before_nodes, after_nodes)
            )
        return program

    def summary(self) -> str:
        """One line per executed pass, for logs and debugging."""
        lines = []
        for rec in self.history:
            lines.append(
                f"{rec.name}: exprs {rec.expressions_before}->{rec.expressions_after}, "
                f"nodes {rec.nodes_before}->{rec.nodes_after}"
            )
        return "\n".join(lines)


def default_pass_manager(enable_fusion: bool = True) -> PassManager:
    """The standard optimization pipeline used by the engine."""
    pm = PassManager()
    pm.add("constant-folding", constant_folding)
    if enable_fusion:
        pm.add("operator-fusion", fuse_operators)
        pm.add("let-simplification", simplify_lets)
    pm.add("constant-folding", constant_folding)
    pm.add("dead-expression-elimination", dead_expression_elimination)
    return pm


def optimize(program: TiltProgram, enable_fusion: bool = True) -> TiltProgram:
    """Convenience wrapper: run the default pipeline on ``program``."""
    return default_pass_manager(enable_fusion=enable_fusion).run(program)
