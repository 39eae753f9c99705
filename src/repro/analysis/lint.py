"""AST-based codebase lint encoding this repo's hard-learned invariants.

Each checker exists because a production-shaped bug of its class was fixed
by hand in an earlier PR and the discipline was, until now, enforced only
by memory:

``LNT101`` — blocking call while a ``Lock``/``RLock`` is held
    Calling ``queue.put``/``get`` with a timeout, ``time.sleep``,
    ``Thread.join``, ``compile``/``exec``/``open``, socket or subprocess
    operations inside a ``with <lock>:`` block serializes the fleet behind
    one tenant (the serving layer's "never block under the service lock"
    rule).  ``lock.acquire``/``cv.wait`` on the *held* object itself is
    exempt (that is what conditions are for).
``LNT102`` — mutation of module-level shared state from generated-kernel
    helper modules
    ``runtime_support.py`` serves every compiled kernel across every
    session and thread; its functions must stay re-entrant (``global`` rebinding or mutating a module-level
    container is a cross-tenant race).
``LNT103`` — Prometheus metric-name discipline
    Counter names end in ``_total``; gauge/histogram names never do; all
    names are ``snake_case`` (the PR 8 exporter contract — a scraper-facing
    API that silently breaks dashboards when drifted).
``LNT104`` — per-event Python in the ingest hot path
    ``session.py``, ``datagen/sources.py`` and ``stream.py`` move events as
    :class:`~repro.core.runtime.stream.ColumnChunk` arrays; a ``for e in
    events`` loop, a comprehension over ``.events`` or an ``Event(...)``
    construction there puts a Python object per event back between source
    and kernel (0.66 µs/event, 0.78 of a YSB tick before PR 13).  The one
    coercion loop at the public API edge carries an explicit allow.

``LNT105`` — execution settings read from the environment
    Every execution setting (backend, codegen tier, tracing, tick path) is
    a ``TiltEngine`` constructor argument resolved once; an ``os.environ``
    read elsewhere is a second, invisible place that decides how queries
    run (the ``REPRO_EXECUTOR``/``REPRO_CODEGEN``/``REPRO_TRACE`` overrides
    PR 15 deleted).  Only the deployment settings in
    :data:`ALLOWED_ENV_READS` may come from the environment.
``LNT106`` — per-snapshot Python or a comparison sort in the run path
    ``ssbuf.py``, ``partition.py``, ``grid.py`` and ``prefix.py`` sit between
    ``TiltEngine.run`` and the kernel: they hand out views and merge sorted
    runs.  ``list(buf.times[lo:hi])``, an ``.append`` in a loop that walks an
    array, or ``np.unique``/``np.sort``/``argsort`` there rebuilds or
    re-sorts an ordered array (``SSBuf.slice`` through lists was 45 % of a
    one-shot run before PR 16); code off the run path carries an allow.

``LNT107`` — a second encoding of an operator or an aggregate
    What an operator or a built-in aggregate *means* — its arity, domain,
    NumPy and C lowering, range strategy — is one row of ``core/ops.py`` /
    ``windowing/functions.py``, read by the interpreter, the folder, both
    codegen tiers and the range indexes.  Outside those two modules,
    comparing a ``.name`` / ``.op`` / ``.func`` against a string literal
    that names a row, or a dict or set literal keyed by two or more row
    names, is a parallel table that will drift (before PR 17 there were
    twelve operator dicts and four aggregate name sets, and they had).
    The analyzer's ``DOM00x`` proofs, which reason about specific
    operators, carry an explicit allow.

A violation line can be suppressed explicitly with a trailing
``# lint: allow(LNT101)`` comment; the suppression is itself visible in
review, which is the point.

``python -m repro.analysis <paths>`` runs these checkers; ``--self`` runs
them over the installed ``repro`` package (the CI gate).
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

__all__ = ["LintViolation", "lint_file", "lint_paths", "lint_source"]

#: modules whose functions are helpers for *generated* kernels (shared by
#: every compiled kernel in the process) — the LNT102 re-entrancy scope
KERNEL_HELPER_MODULES = (
    "core/codegen/runtime_support.py",
)

#: modules between a source's ``poll`` and the kernel — the LNT104 scope
INGEST_HOT_PATH_MODULES = (
    "core/runtime/session.py",
    "core/runtime/stream.py",
    "datagen/sources.py",
)

#: modules between ``TiltEngine.run`` and the kernel — the LNT106 scope
RUN_PATH_MODULES = (
    "core/runtime/ssbuf.py",
    "core/runtime/partition.py",
    "core/codegen/grid.py",
    "windowing/prefix.py",
)

#: the two modules that *are* the semantics tables — the LNT107 exemption
TABLE_MODULES = ("core/ops.py", "windowing/functions.py")

#: environment variables the package may read — where the toolchain, its
#: cache and the multiprocessing start method live on this host, plus the
#: test hook that simulates a missing toolchain (the LNT105 allow-list)
ALLOWED_ENV_READS = frozenset(
    {"REPRO_NATIVE_CC", "REPRO_NATIVE_CACHE", "REPRO_MP_CONTEXT", "REPRO_NATIVE_DISABLE"}
)

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([A-Z0-9,\s]+)\)")
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: bare-name calls that perform I/O or heavy compilation
_BLOCKING_BUILTINS = {"open", "compile", "exec", "input", "breakpoint"}
#: attribute calls that block unconditionally
_BLOCKING_ATTRS = {"sleep", "recv", "send", "sendall", "connect", "accept"}
#: attribute calls that block when aimed at a queue/socket-ish object or
#: carry a timeout/block keyword
_QUEUE_ATTRS = {"get", "put"}
_SUBPROCESS_ATTRS = {"run", "call", "check_call", "check_output", "Popen"}


@dataclass(frozen=True)
class LintViolation:
    """One finding of the codebase lint: where, which rule, and why."""

    path: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain (else None)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_lock_expr(expr: ast.expr) -> bool:
    name = _terminal_name(expr)
    if name is None:
        return False
    lowered = name.lower()
    return "lock" in lowered or "mutex" in lowered


def _expr_key(expr: ast.expr) -> str:
    """Structural identity of an expression (for 'same object' tests)."""
    return ast.dump(expr)


def _base_name(expr: ast.expr) -> Optional[str]:
    """The leftmost identifier of a Name/Attribute/Subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


# ---------------------------------------------------------------------- #
# LNT101: blocking calls under a held lock
# ---------------------------------------------------------------------- #
class _LockDiscipline(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []
        self._held: List[str] = []  # _expr_key of each held lock expr

    # -- scope resets: nested defs do not execute under the lock --------- #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # noqa: N815
    visit_Lambda = visit_FunctionDef  # noqa: N815

    # -- lock tracking --------------------------------------------------- #
    def _visit_with(self, node) -> None:
        acquired: List[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            if _is_lock_expr(item.context_expr):
                acquired.append(_expr_key(item.context_expr))
        self._held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self._held[-len(acquired):]

    visit_With = _visit_with  # noqa: N815
    visit_AsyncWith = _visit_with  # noqa: N815

    # -- call inspection ------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if self._held:
            reason = self._blocking_reason(node)
            if reason is not None:
                self.violations.append(
                    LintViolation(
                        path=self.path,
                        line=node.lineno,
                        code="LNT101",
                        message=f"{reason} while a lock is held",
                    )
                )
        self.generic_visit(node)

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_BUILTINS:
                return f"call to blocking builtin {func.id}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        value = func.value
        # operations on the held object itself are the lock's own protocol
        if _expr_key(value) in self._held:
            return None
        if attr in _BLOCKING_ATTRS:
            return f"call to blocking .{attr}()"
        if attr in ("wait", "acquire") and _is_lock_expr(value):
            return f"call to .{attr}() on another lock (lock-ordering hazard)"
        if attr == "join":
            # discriminate Thread.join() from str.join(iterable): thread
            # joins take no argument or a numeric/None timeout
            timeout_kw = any(kw.arg in ("timeout", None) for kw in node.keywords)
            numeric_arg = (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, (int, float, type(None)))
            )
            if not node.args and not node.keywords or timeout_kw or numeric_arg:
                if not isinstance(value, ast.Constant):
                    return "call to blocking .join()"
            return None
        if attr in _QUEUE_ATTRS:
            base = _terminal_name(value) or ""
            queueish = "queue" in base.lower() or base.lower().endswith("_q")
            has_blocking_kw = any(
                kw.arg in ("timeout", "block") for kw in node.keywords
            )
            if queueish or has_blocking_kw:
                return f"call to queue .{attr}()"
            return None
        if attr in _SUBPROCESS_ATTRS and isinstance(value, ast.Name):
            if value.id == "subprocess":
                return f"call to subprocess.{attr}()"
        return None


# ---------------------------------------------------------------------- #
# LNT102: shared-state mutation in generated-kernel helper modules
# ---------------------------------------------------------------------- #
class _SharedStateDiscipline(ast.NodeVisitor):
    _MUTATORS = {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard",
    }

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.violations: List[LintViolation] = []
        self._module_state = self._collect_module_state(tree)
        self._depth = 0  # function nesting depth

    @staticmethod
    def _collect_module_state(tree: ast.Module) -> set:
        names = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        return names

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=node.lineno,
                code="LNT102",
                message=(
                    f"{what} in a generated-kernel helper module; these "
                    "functions are shared by every compiled kernel and must "
                    "stay re-entrant"
                ),
            )
        )

    def visit_FunctionDef(self, node) -> None:  # noqa: N802
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # noqa: N815

    def visit_Global(self, node: ast.Global) -> None:  # noqa: N802
        if self._depth:
            self._flag(node, f"'global {', '.join(node.names)}' rebinding")

    def _check_store(self, target: ast.expr, node: ast.AST) -> None:
        if not self._depth:
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = _base_name(target)
            if base in self._module_state:
                self._flag(node, f"mutation of module-level {base!r}")

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        for t in node.targets:
            self._check_store(t, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:  # noqa: N802
        self._check_store(node.target, node)
        if self._depth and isinstance(node.target, ast.Name):
            if node.target.id in self._module_state:
                self._flag(node, f"augmented rebinding of module-level {node.target.id!r}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if self._depth and isinstance(node.func, ast.Attribute):
            if node.func.attr in self._MUTATORS and isinstance(node.func.value, ast.Name):
                if node.func.value.id in self._module_state:
                    self._flag(
                        node,
                        f"call to {node.func.value.id}.{node.func.attr}() "
                        f"mutating module-level state",
                    )
        self.generic_visit(node)


# ---------------------------------------------------------------------- #
# LNT103: Prometheus metric-name discipline
# ---------------------------------------------------------------------- #
class _MetricNameDiscipline(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("counter", "gauge", "histogram"):
            if node.args and isinstance(node.args[0], ast.Constant):
                name = node.args[0].value
                if isinstance(name, str):
                    self._check(func.attr, name, node)
        self.generic_visit(node)

    def _flag(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            LintViolation(path=self.path, line=node.lineno, code="LNT103", message=message)
        )

    def _check(self, kind: str, name: str, node: ast.AST) -> None:
        if not _METRIC_NAME_RE.match(name):
            self._flag(node, f"metric name {name!r} is not snake_case")
            return
        if kind == "counter" and not name.endswith("_total"):
            self._flag(node, f"counter {name!r} must end in '_total'")
        elif kind in ("gauge", "histogram") and name.endswith("_total"):
            self._flag(node, f"{kind} {name!r} must not end in '_total'")


# ---------------------------------------------------------------------- #
# LNT104: per-event Python in the ingest hot path
# ---------------------------------------------------------------------- #
class _ColumnarIngestDiscipline(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=node.lineno,
                code="LNT104",
                message=f"{what} in an ingest hot-path module; move columns, not events",
            )
        )

    def _check_iter(self, iterable: ast.expr) -> None:
        name = _terminal_name(iterable)
        if name is not None and name.lstrip("_") == "events":
            self._flag(iterable, f"per-event iteration over {name!r}")

    def visit_For(self, node: ast.For) -> None:  # noqa: N802
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if _terminal_name(node.func) == "Event":
            self._flag(node, "Event(...) construction")
        self.generic_visit(node)


# ---------------------------------------------------------------------- #
# LNT105: execution settings read from the environment
# ---------------------------------------------------------------------- #
def _is_environ(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr == "environ" and _terminal_name(expr.value) == "os"
    return isinstance(expr, ast.Name) and expr.id == "environ"


class _EnvironmentDiscipline(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=node.lineno,
                code="LNT105",
                message=(
                    f"{what}; execution settings are TiltEngine arguments — only "
                    "the deployment settings in ALLOWED_ENV_READS come from the environment"
                ),
            )
        )

    def _check_key(self, node: ast.AST, key: Optional[ast.expr]) -> None:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            self._flag(node, "environment read with a computed variable name")
        elif key.value not in ALLOWED_ENV_READS:
            self._flag(node, f"environment read of {key.value!r}")

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        func = node.func
        if isinstance(func, ast.Attribute) and (
            (func.attr == "get" and _is_environ(func.value))
            or (func.attr == "getenv" and _terminal_name(func.value) == "os")
        ):
            self._check_key(node, node.args[0] if node.args else None)
            for arg in node.args[1:]:
                self.visit(arg)
            return
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:  # noqa: N802
        if _is_environ(node.value):
            self._check_key(node, node.slice)
            return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:  # noqa: N802
        if _is_environ(node):
            self._flag(node, "os.environ used other than to read one named variable")
        self.generic_visit(node)


# ---------------------------------------------------------------------- #
# LNT106: per-snapshot Python or a comparison sort in the run path
# ---------------------------------------------------------------------- #
class _RunPathDiscipline(ast.NodeVisitor):
    _SORTS = {"unique", "sort", "argsort", "lexsort"}
    _SNAPSHOT_ARRAYS = {"times", "values", "valid"}

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []
        self._array_loops = 0  # enclosing loops that walk an array

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=node.lineno,
                code="LNT106",
                message=f"{what} in a run-path module; hand out views and merge sorted runs",
            )
        )

    def _walks_array(self, iterable: ast.expr) -> bool:
        return any(
            isinstance(node, ast.Subscript)
            or (isinstance(node, ast.Call) and _terminal_name(node.func) == "range")
            or _terminal_name(node) in self._SNAPSHOT_ARRAYS
            for node in ast.walk(iterable)
        )

    def _visit_loop(self, node) -> None:
        walks = isinstance(node, ast.While) or self._walks_array(node.iter)
        self._array_loops += walks
        self.generic_visit(node)
        self._array_loops -= walks

    visit_For = _visit_loop  # noqa: N815
    visit_While = _visit_loop  # noqa: N815

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        func = node.func
        if isinstance(func, ast.Name) and func.id == "list" and len(node.args) == 1:
            arg = node.args[0]
            if isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Attribute):
                self._flag(node, "list(...) of an array slice")
        elif isinstance(func, ast.Attribute):
            if func.attr in self._SORTS:
                self._flag(node, f"comparison sort .{func.attr}()")
            elif func.attr == "append" and self._array_loops:
                self._flag(node, ".append() in a loop over an array")
        self.generic_visit(node)


# ---------------------------------------------------------------------- #
# LNT107: a second encoding of an operator or an aggregate
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _table_row_names() -> frozenset:
    # the tables themselves say which names are rows (imported lazily: no
    # other checker needs the package's NumPy-importing modules)
    from ..core.ops import OPS
    from ..windowing.functions import builtin_aggregates

    return frozenset(OPS) | frozenset(builtin_aggregates())


class _SemanticsTableDiscipline(ast.NodeVisitor):
    _ROW_FIELDS = {"name", "op", "func"}

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[LintViolation] = []
        self._rows = _table_row_names()

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=node.lineno,
                code="LNT107",
                message=(
                    f"{what}; an operator's or aggregate's meaning is one row of "
                    "core/ops.py / windowing/functions.py — read the row"
                ),
            )
        )

    def _row_names(self, nodes: Iterable[Optional[ast.expr]]) -> List[str]:
        return [
            n.value
            for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in self._rows
        ]

    def visit_Compare(self, node: ast.Compare) -> None:  # noqa: N802
        sides = [node.left, *node.comparators]
        if any(_terminal_name(side) in self._ROW_FIELDS for side in sides):
            literals = [
                e
                for side in sides
                for e in (side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side])
            ]
            named = self._row_names(literals)
            if named:
                self._flag(node, f"comparison against the row name {named[0]!r}")
        self.generic_visit(node)

    def _check_keys(self, node: ast.AST, keys: Sequence[Optional[ast.expr]]) -> None:
        if len(keys) >= 2 and len(self._row_names(keys)) == len(keys):
            self._flag(node, f"{type(node).__name__.lower()} literal keyed by {len(keys)} row names")

    def visit_Dict(self, node: ast.Dict) -> None:  # noqa: N802
        self._check_keys(node, node.keys)
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:  # noqa: N802
        self._check_keys(node, node.elts)
        self.generic_visit(node)


# ---------------------------------------------------------------------- #
# driver
# ---------------------------------------------------------------------- #
def lint_source(source: str, path: str = "<string>") -> List[LintViolation]:
    """Run every checker over one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                path=path,
                line=exc.lineno or 1,
                code="LNT000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    checkers: List[ast.NodeVisitor] = [
        _LockDiscipline(path),
        _MetricNameDiscipline(path),
        _EnvironmentDiscipline(path),
    ]
    normalized = path.replace("\\", "/")
    if any(normalized.endswith(helper) for helper in KERNEL_HELPER_MODULES):
        checkers.append(_SharedStateDiscipline(path, tree))
    if any(normalized.endswith(module) for module in INGEST_HOT_PATH_MODULES):
        checkers.append(_ColumnarIngestDiscipline(path))
    if any(normalized.endswith(module) for module in RUN_PATH_MODULES):
        checkers.append(_RunPathDiscipline(path))
    if not any(normalized.endswith(module) for module in TABLE_MODULES):
        checkers.append(_SemanticsTableDiscipline(path))
    violations: List[LintViolation] = []
    for checker in checkers:
        checker.visit(tree)
        violations.extend(checker.violations)

    # apply `# lint: allow(CODE)` suppressions
    lines = source.splitlines()
    kept: List[LintViolation] = []
    for v in violations:
        line_text = lines[v.line - 1] if 0 < v.line <= len(lines) else ""
        m = _ALLOW_RE.search(line_text)
        allowed = set()
        if m:
            allowed = {c.strip() for c in m.group(1).split(",")}
        if v.code not in allowed:
            kept.append(v)
    kept.sort(key=lambda v: (v.path, v.line, v.code))
    return kept


def lint_file(path: Path) -> List[LintViolation]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[Path]) -> List[LintViolation]:
    """Lint every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    violations: List[LintViolation] = []
    for f in files:
        violations.extend(lint_file(f))
    return violations
