"""C emission for the native tier: a kernel spec's two translation units.

:func:`lower` turns a :class:`~repro.core.codegen.pysource.KernelSpec`'s
fused IR into the C source of its run entry
(:data:`~repro.core.codegen.native.RUN_ENTRY`), :func:`lower_tick` into
that of its tick entry (:data:`~repro.core.codegen.native.TICK_ENTRY`),
for :mod:`repro.core.codegen.native` to compile.  They are separate units
so that a kernel no session ticks never pays ``cc`` for the second one.
Only a build needs this module, so it is imported by the build, never on
the way to a first result.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ...windowing.functions import RMQ_DIRECTIONS, AggregateFunction
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
from .native import RUN_ENTRY, TICK_ENTRY
from .pysource import KernelSpec

__all__ = ["lower", "lower_tick", "Lowered"]


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
    #: the tick entry's NumPy reduce-site key ``(ref, agg_idx, elem_idx)``
    site: Optional[Tuple[str, int, int]] = None

    @property
    def passed_in(self) -> bool:
        """A tick-entry prefix group: the caller passes its index's arrays."""
        return self.site is not None and self.agg.strategy.range == "prefix"


class _TickSite(NamedTuple):
    """A prefix group of the tick entry: the caller passes its index arrays."""

    key: Tuple[str, int, int]  # ``(ref, agg_idx, elem_idx)``, as ``rt.sites`` keys it
    components: int
    dtype: type  # the accumulator dtype of the component prefixes


_C_HEADER = """#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* NumPy's maximum/minimum: first operand wins on NaN */
#define NPMAX(a, b) (((a) > (b) || isnan(a)) ? (a) : (b))
#define NPMIN(a, b) (((a) < (b) || isnan(a)) ? (a) : (b))
"""

#: the tick entry's cursor seeks
_C_SEEK = """/* searchsorted(t[:m], q, 'left'): the first i with t[i] >= q */
static int64_t tilt_lower(const double* t, int64_t m, double q)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t[mid] < q) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* searchsorted(t[:m], q, 'right'): the first i with t[i] > q */
static int64_t tilt_upper(const double* t, int64_t m, double q)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t[mid] <= q) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* how many interval starts (s, t[0], ..., t[m-2]) lie before q */
static int64_t tilt_starts_before(const double* t, int64_t m, double s, double q)
{
    if (m == 0 || !(s < q)) return 0;
    return 1 + tilt_lower(t, m - 1, q);
}
"""


class _CEmitter:
    """Lowers one KernelSpec's fused IR to one C entry point.

    Mirrors :class:`~repro.core.codegen.pysource._ExprCompiler` node for
    node: every emitted statement is the per-lane C image of the NumPy
    template the Python tier executes for the same node, including eager
    evaluation of both conditional branches and domain-masked lanes.

    ``tick=False`` emits :data:`RUN_ENTRY`, which builds every index itself
    and starts every cursor at 0.  ``tick=True`` emits :data:`TICK_ENTRY`:
    each prefix group reads the arrays of the NumPy
    :class:`~repro.windowing.prefix.PrefixRangeIndex` the caller passes (a
    session's kept site, or one built for the call), and each cursor starts
    at one binary search for the first grid point, then advances
    monotonically — a tick's grid is a short run at the far end of a long
    retained tail.
    """

    def __init__(self, spec: KernelSpec, tick: bool = False):
        if spec.te is None:
            raise ValueError("spec has no IR to lower")
        self.spec = spec
        self.tick = tick
        self.refs: List[str] = list(spec.referenced)
        self._ref_pos = {r: i for i, r in enumerate(self.refs)}
        self._counter = 0
        self._site_counter = 0
        self._reduce_visits = 0  # tick entry: position in spec.reduce_sites
        self.prelude: List[str] = []  # group index builds (before main loop)
        self.decls: List[str] = []  # persistent cursors / deque heads
        self.body: List[str] = []  # per-lane statements inside the loop
        self.allocs: List[Tuple[str, str]] = []  # (ctype, name) malloc'd
        self.groups: Dict[tuple, _Group] = {}
        self.center_refs: List[str] = []  # one long double center per entry
        self.tick_sites: List[_TickSite] = []  # prefix groups of the tick entry
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
        start = f"tilt_lower({bt}, {m}, ts[0] + {_c_float(offset)})" if self.tick else "0"
        self.decls.append(f"    int64_t {s}_cur = {start};")
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
    def _group_for(self, ref: str, agg, element: Optional[Expr], site) -> _Group:
        # the tick entry's groups are the NumPy tier's reduce sites, one
        # index per rt.sites key; the run entry's are keyed by identity
        key = site or (ref, id(agg), id(element) if element is not None else None)
        group = self.groups.get(key)
        if group is None:
            group = _Group(len(self.groups), ref, agg, element, site)
            self.groups[key] = group
            if group.passed_in:
                self._bind_tick_site(group)
            else:
                self._emit_group_build(group)
        return group

    def _bind_tick_site(self, group: _Group) -> None:
        """A tick-entry prefix group: its timeline (``{g}_e``: start time,
        then every snapshot time) and prefixes are parameters."""
        g = f"g{group.index}"
        self.tick_sites.append(
            _TickSite(group.site, len(group.agg.c_components), group.agg.prefix_dtype)
        )
        self.prelude.append(f"    const double* {g}_t = {g}_e + 1;")
        self.prelude.append(f"    double {g}_s = {g}_e[0];")

    def _timeline(self, group: _Group) -> Tuple[str, str, str]:
        """``(count, times, start)`` of the snapshots a group's windows index."""
        if group.passed_in:
            g = f"g{group.index}"
            return f"{g}_m", f"{g}_t", f"{g}_s"
        m, bt, _, _, bs = self._ref_args(group.ref)
        return m, bt, bs

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
        site = None
        if self.tick:
            # the generated NumPy source makes one rt.reduce call per Reduce
            # it visits, in this traversal order, and records each in
            # reduce_sites: the key of the NumPy site this group must read
            ref, _, _, agg_idx, elem_idx = self.spec.reduce_sites[self._reduce_visits]
            self._reduce_visits += 1
            if ref != window.ref or self.spec.aggregates[agg_idx] is not expr.agg:
                raise ValueError("reduce sites out of step with the kernel's IR")
            site = (ref, agg_idx, elem_idx)
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
        group = self._group_for(window.ref, expr.agg, expr.element, site)
        g = f"g{group.index}"
        self._site_counter += 1
        s = f"r{self._site_counter}"
        m, bt, bs = self._timeline(group)
        v, k = self.fresh()
        body = self.body
        if self.tick:
            self.decls.append(
                f"    int64_t {s}_lo = tilt_upper({bt}, {m}, ts[0] + {_c_float(window.start_offset)}),"
                f" {s}_hi = tilt_starts_before({bt}, {m}, {bs}, ts[0] + {_c_float(window.end_offset)});"
            )
        else:
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
            # snapshots before the first window never reach the deque's front
            self.decls.append(
                f"    int64_t {s}_dh = 0, {s}_dt = 0, {s}_push = {s + '_lo' if self.tick else '0'};"
            )
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
        """Returns ``(function, signature)``: this entry point's C text."""
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
        if self.tick:
            for site in self.tick_sites:
                g = f"g{self.groups[site.key].index}"
                ctype = "long double" if site.dtype is np.longdouble else "double"
                params += [f"int64_t {g}_m", f"const double* {g}_e", f"const double* {g}_vp"]
                params += [f"const {ctype}* {g}_p{c}" for c in range(site.components)]
        else:
            params.append("const long double* centers")
        params += ["double* out_v", "unsigned char* out_k"]
        signature = f"int64_t {TICK_ENTRY if self.tick else RUN_ENTRY}({', '.join(params)})"
        lines = [signature, "{", "    int64_t rc = 0;"]
        lines.append("    if (n <= 0) return 0;" if self.tick else "    (void)centers;")
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


class Lowered(NamedTuple):
    """One entry point's C artifact, before compilation."""

    c_source: str
    cdef: str
    refs: List[str]
    center_refs: List[str]  # the run entry's centring means, by input
    tick_sites: List[_TickSite]  # the tick entry's prefix groups, in parameter order


def lower(spec: KernelSpec) -> Lowered:
    """The run entry's translation unit."""
    return _unit(_CEmitter(spec))


def lower_tick(spec: KernelSpec) -> Lowered:
    """The tick entry's translation unit."""
    return _unit(_CEmitter(spec, tick=True), _C_SEEK)


def _unit(emitter: _CEmitter, *helpers: str) -> Lowered:
    function, signature = emitter.generate()
    c_source = "\n".join(
        [f"/* native kernel for temporal expression ~{emitter.spec.name} */\n{_C_HEADER}", *helpers, function]
    )
    return Lowered(c_source, signature, emitter.refs, emitter.center_refs, emitter.tick_sites)
