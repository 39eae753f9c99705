"""C emission for the native tier: a kernel spec's translation unit.

:func:`lower` turns a :class:`~repro.core.codegen.pysource.KernelSpec`'s
fused IR into the C source of its one entry point
(:data:`~repro.core.codegen.native.TICK_ENTRY`), for
:mod:`repro.core.codegen.native` to compile.  Every unit links against one
library, :data:`TICK_SUPPORT` (the evaluation grid: ``tilt_merge_open``
and ``tilt_merge``, merged inside the entry's loop, without a precision;
``tilt_grid``, built first, with one), which a process builds once per
cache instead of into each unit.
Only a build needs this module, so it is imported by the build, never on
the way to a first result.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ...windowing.functions import RMQ_DIRECTIONS, AggregateFunction
from ...windowing.prefix import PRUNE_MIN
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
from ..ops import bind, c_literal
from .native import TICK_ENTRY
from .pysource import KernelSpec

__all__ = ["lower", "Lowered", "TICK_SUPPORT"]


class _Group(NamedTuple):
    """One per-(ref, aggregate, element) index of the entry: the NumPy
    tier's reduce site ``site``, so e.g. two MEAN windows over the same
    stream share one prefix index in both tiers."""

    index: int
    ref: str
    agg: AggregateFunction  # the row: range strategy, accumulator type, C fragments
    element: Optional[Expr]
    site: Tuple[str, int, int]  # the NumPy reduce-site key ``(ref, agg_idx, elem_idx)``

    @property
    def passed_in(self) -> bool:
        """A prefix group: the caller passes its index's arrays."""
        return self.agg.strategy.range == "prefix"


class _PrefixSite(NamedTuple):
    """A prefix group: the caller binds its index arrays in the struct."""

    key: Tuple[str, int, int]  # ``(ref, agg_idx, elem_idx)``, as ``rt.sites`` keys it
    name: str  # the group's prefix in the struct's field names (``g3``)
    components: int
    dtype: type  # the accumulator dtype of the component prefixes


#: what every unit includes: the C library functions the emitted code calls
#: are declared here rather than taken from <math.h> and <stdlib.h>, whose
#: parsing is a fifth of a unit's ``cc`` time (a C template that calls a
#: function not listed here adds its declaration)
_C_HEADER = """#include <stddef.h>
#include <stdint.h>

void* malloc(size_t size);
void free(void* p);
double sqrt(double x), floor(double x), ceil(double x), fabs(double x);
double fmod(double x, double y), copysign(double x, double y);
long double sqrtl(long double x);
#define isnan(x) __builtin_isnan(x)
#define INFINITY __builtin_inff()
#define NAN __builtin_nanf("")

/* NumPy's maximum/minimum: first operand wins on NaN */
#define NPMAX(a, b) (((a) > (b) || isnan(a)) ? (a) : (b))
#define NPMIN(a, b) (((a) < (b) || isnan(a)) ? (a) : (b))

/* np.mod: npy_divmod's remainder — fmod, moved to the divisor's sign when
   nonzero, a zero remainder signed as the divisor */
static inline double tilt_mod(double a, double b)
{
    double mod = fmod(a, b);
    if (mod == 0.0) return copysign(0.0, b);
    if ((b < 0.0) != (mod < 0.0)) mod += b;
    return mod;
}
"""

#: the cursor seeks, called a few times a call: out of line, since a copy
#: inlined at every call site costs ``cc`` time and saves nothing
_C_SEEK = """#define TILT_SEEK __attribute__((noinline)) static int64_t

/* searchsorted(t[:m], q, 'left'): the first i with t[i] >= q */
TILT_SEEK tilt_lower(const double* t, int64_t m, double q)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t[mid] < q) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* searchsorted(t[:m], q, 'right'): the first i with t[i] > q */
TILT_SEEK tilt_upper(const double* t, int64_t m, double q)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t[mid] <= q) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* how many interval starts (s, t[0], ..., t[m-2]) lie before q */
TILT_SEEK tilt_starts_before(const double* t, int64_t m, double s, double q)
{
    if (m == 0 || !(s < q)) return 0;
    return 1 + tilt_lower(t, m - 1, q);
}

/* searchsorted(t, q, 'left') from at, an index at or past it whose times
   before it equal q or exceed it (a grid run's first index, computed with
   another rounding than q's) */
TILT_SEEK tilt_back(const double* t, int64_t at, double q)
{
    while (at > 0 && !(t[at - 1] < q)) at--;
    return at;
}
"""

#: what every unit declares of the support library: an (input, boundary
#: offset) pair of the grid, the compaction and the prune
_C_GRID = """/* one (input, boundary offset) of the grid: m snapshot times t, start s */
typedef struct { int64_t m; const double* t; double s; double o; } tilt_access;
/* a run of grid candidates: the n times t minus o */
typedef struct { const double* t; int64_t n; double o; } tilt_run;

int64_t tilt_compact(double* ts, double* v, unsigned char* k, int64_t n);
int64_t tilt_prune(double* vp, void** ps, int64_t np, int extended, const double* t, int64_t m, double floor);
"""

#: what a unit with a precision declares of the support library's grid
_C_SNAPPED = """int64_t tilt_grid(const tilt_access* a, int64_t na, double p,
                  double t_start, double t_end, double* ts, int64_t cap, int64_t* l);
"""

#: the body of ``tilt_grid``: grid.py's evaluation_times_for_accesses with a
#: precision, in C, byte for byte
_C_GRID_BODY = """/* the grid index ceil(c/p - 1e-9) of a candidate c */
static inline double tilt_snap(double c, double p)
{
    return ceil(c / p - 1e-9);
}

#define TILT_SNAPPED_ARGS tilt_run run, double p, double* b, unsigned char* mark, double first

/* a run snapped, the first of equal neighbours kept: into b, returning
   their count, or, given a bitmap mark whose cell 0 is index first, marking
   each index k and k - 1.  Snapping is monotone, so each group of equal
   ones is found by a galloping search rather than by snapping every
   candidate. */
__attribute__((always_inline)) static inline int64_t tilt_snapped_in(TILT_SNAPPED_ARGS)
{
    int64_t nb = 0, q = 0;
    double k = tilt_snap(run.t[0] - run.o, p), kh = k;
    while (q < run.n) {
        int64_t lo = q, hi = q + 1, step = 1;
        if (mark) {
            int64_t at = (int64_t)(k - first);
            mark[at] = mark[at - 1] = 1;
        } else {
            b[nb++] = k;
        }
        while (hi < run.n && (kh = tilt_snap(run.t[hi] - run.o, p)) == k) {
            lo = hi;
            step *= 2;
            hi = lo + step;
        }
        hi = hi < run.n ? hi : run.n;
        while (hi - lo > 1) {  /* kh: the snap at hi, once hi < run.n */
            int64_t mid = lo + (hi - lo) / 2;
            double km = tilt_snap(run.t[mid] - run.o, p);
            if (km == k) lo = mid; else { hi = mid; kh = km; }
        }
        q = hi;
        k = kh;
    }
    return nb;
}

static int64_t tilt_snapped_any(TILT_SNAPPED_ARGS)
{
    return tilt_snapped_in(run, p, b, mark, first);
}

/* the same where the CPU rounds in one instruction: SSE4.1's roundsd, the
   ceil glibc itself picks there, where a call of ceil per snap was most of
   the grid's time */
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("sse4.1"))) static int64_t tilt_snapped_sse41(TILT_SNAPPED_ARGS)
{
    return tilt_snapped_in(run, p, b, mark, first);
}
#endif

/* the evaluation grid over (t_start, t_end] with precision p > 0, as grid.py
   builds it: the candidate runs — {t_end}, then per access its snapshot
   times in (t_start+o, t_end+o] and its start time if that lies there —
   snapped, each index k marking k and k - 1.  Where grid.py reads the union
   off a bitmap (indices dense among the candidates) so does this, the point
   of cell i being (i + first) * p; otherwise the runs are merged one by one
   as _merge_runs merges them (of two equal values the longer side's is
   kept, the union's on a tie).  The union is cut to
   (t_start+1e-12, t_end+1e-12] and closed with t_end.  Sets l[r], the first
   of access r's times past t_start + o.  Returns the grid's length and
   writes it to ts only if that is at most cap; -1 when its scratch memory
   cannot be had. */
int64_t tilt_grid(const tilt_access* a, int64_t na, double p,
                  double t_start, double t_end, double* ts, int64_t cap, int64_t* l)
{
    int64_t (*snapped)(TILT_SNAPPED_ARGS) = tilt_snapped_any;
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("sse4.1")) snapped = tilt_snapped_sse41;
#endif
    tilt_run* runs = (tilt_run*)malloc(sizeof(tilt_run) * (size_t)(2 * na + 1));
    if (runs == NULL) return -1;
    int64_t nr = 1, total = 0, widest = 1;
    runs[0] = (tilt_run){&t_end, 1, 0.0};
    for (int64_t r = 0; r < na; r++) {
        double o = a[r].o;
        int64_t lo = l[r] = tilt_upper(a[r].t, a[r].m, t_start + o), hi = tilt_upper(a[r].t, a[r].m, t_end + o);
        if (hi > lo) runs[nr++] = (tilt_run){a[r].t + lo, hi - lo, o};
        if (a[r].m > 0 && t_start + o < a[r].s && a[r].s <= t_end + o) runs[nr++] = (tilt_run){&a[r].s, 1, o};
    }
    double kmin = INFINITY, kmax = -INFINITY;
    for (int64_t r = 0; r < nr; r++) {
        double k0 = tilt_snap(runs[r].t[0] - runs[r].o, p);
        double k1 = tilt_snap(runs[r].t[runs[r].n - 1] - runs[r].o, p);
        total += runs[r].n;
        widest = runs[r].n > widest ? runs[r].n : widest;
        kmin = k0 < kmin ? k0 : kmin;
        kmax = k1 > kmax ? k1 : kmax;
    }
    double first = kmin - 1.0, cells = kmax - first + 1.0;
    int dense = !(cells > 8.0 * (double)total + 64.0);
    size_t bytes = sizeof(double) * (size_t)(4 * total + widest) + (dense ? (size_t)cells : 0);
    double* mem = (double*)malloc(bytes);
    if (mem == NULL) { free(runs); return -1; }
    double *u = mem, *spare = mem + 2 * total, *b = mem + 4 * total;
    int64_t nu = 0;
    if (dense) {
        unsigned char* mark = (unsigned char*)(b + widest);
        for (int64_t i = 0; i < (int64_t)cells; i++) mark[i] = 0;
        for (int64_t r = 0; r < nr; r++) snapped(runs[r], p, NULL, mark, first);
        for (int64_t i = 0; i < (int64_t)cells; i++)
            if (mark[i]) u[nu++] = ((double)i + first) * p;
    } else {
        for (int64_t r = 0; r < nr; r++) {
            int64_t nb = snapped(runs[r], p, b, NULL, 0.0);
            for (int shift = 0; shift < 2; shift++) {
                if (shift)  /* then k - 1: the last point the old value holds */
                    for (int64_t q = 0; q < nb; q++) b[q] = b[q] - 1.0;
                const double *x = u, *y = b;
                int64_t nx = nu, ny = nb, i = 0, j = 0, m = 0;
                if (nx < ny) { x = b; y = u; nx = nb; ny = nu; }
                while (i < nx && j < ny) {
                    if (y[j] < x[i]) { spare[m++] = y[j++]; continue; }
                    if (!(x[i] < y[j])) j++;
                    spare[m++] = x[i++];
                }
                while (i < nx) spare[m++] = x[i++];
                while (j < ny) spare[m++] = y[j++];
                double* w = u;
                u = spare;
                spare = w;
                nu = m;
            }
        }
        for (int64_t j = 0; j < nu; j++) u[j] = u[j] * p;
    }
    int64_t lo = tilt_upper(u, nu, t_start + 1e-12), hi = tilt_upper(u, nu, t_end + 1e-12);
    int closed = hi > lo && !(u[hi - 1] < t_end);
    int64_t n = hi - lo + !closed;
    if (n <= cap) {
        for (int64_t j = lo; j < hi; j++) ts[j - lo] = u[j];
        if (!closed) ts[n - 1] = t_end;
    }
    free(mem);
    free(runs);
    return n;
}
"""


#: a grid without a precision, merged inside the evaluation loop: the
#: merge's state between batches, which the entry allocates on its stack
#: (the arrays sized by its pair count) and ``tilt_merge_open`` fills
_C_MERGER = """/* the merge between batches (see tilt_merge); the arrays are the entry's */
typedef struct {
    tilt_run* R;
    const double **q, **e;
    double *o, *y, *z, *E;
    int64_t* first;
    unsigned char* hz;
    int64_t nr, nc, zl;
    double t_lo, t_hi, t_end, last;
    int zs, more;
} tilt_merger;
"""

#: what a unit without a precision declares of the support library's merge
_C_MERGE = _C_MERGER + """
void tilt_merge_open(tilt_merger* G, const tilt_access* a, int64_t na, double t_start, double t_end, int64_t* l);
int64_t tilt_merge(tilt_merger* G, double* ts, int64_t cap, int64_t n);
double tilt_zero(const tilt_merger* G);
"""

#: the support library's merge
_C_MERGE_BODY = _C_MERGER + """
/* opens grid.py's runs of the na pairs a over (t_start, t_end] as the
   merge's cursors: run 0 is t_end; pair j has runs 1 + 2j (its snapshot
   times in (t_start+o, t_end+o], from l[j]) and 2 + 2j (its start time, if
   it lies there).  Cursor j (< na) walks run 1 + 2j; the last, cursor na,
   walks t_end and the start times, sorted into E. */
void tilt_merge_open(tilt_merger* G, const tilt_access* a, int64_t na, double t_start, double t_end, int64_t* l)
{
    int64_t nE = 1;
    G->nr = 1 + 2 * na;
    G->nc = na + 1;
    G->zl = -1;
    G->t_lo = t_start + 1e-12;
    G->t_hi = t_end + 1e-12;
    G->t_end = t_end;
    G->last = -INFINITY;
    G->zs = G->t_lo < 0.0 && 0.0 <= G->t_hi;
    G->more = 1;
    G->R[0] = (tilt_run){&G->t_end, 1, 0.0};
    G->E[0] = t_end;
    for (int64_t j = 0; j < na; j++) {
        const double o = a[j].o, *t = a[j].t;
        const int64_t m = a[j].m, lo = l[j] = tilt_upper(t, m, t_start + o);
        tilt_run* R = G->R + 1 + 2 * j;
        R[0] = (tilt_run){t + lo, tilt_upper(t, m, t_end + o) - lo, o};
        R[1] = (tilt_run){&a[j].s, m > 0 && t_start + o < a[j].s && a[j].s <= t_end + o, o};
        if (R[1].n) G->E[nE++] = a[j].s - o;
        G->q[j] = R[0].t;
        G->e[j] = R[0].t + R[0].n;
        G->o[j] = o;
        G->y[j] = R[0].n ? R[0].t[0] - o : INFINITY;
    }
    for (int64_t i = 1; i < nE; i++)  /* sorted */
        for (int64_t j = i; j > 0 && G->E[j] < G->E[j - 1]; j--) {
            double x = G->E[j];
            G->E[j] = G->E[j - 1];
            G->E[j - 1] = x;
        }
    G->q[na] = G->E;
    G->e[na] = G->E + nE;
    G->o[na] = 0.0;
    G->y[na] = G->E[0];
    for (int64_t r = 0; r < G->nr; r++) {
        G->first[r] = 0;
        G->hz[r] = 0;
    }
}

/* grid.py's grid without a precision, merged from the cursors
   tilt_merge_open opened, cursor j at candidate y[j] = *q[j] - o[j] until
   e[j].  Each step takes the smallest candidate and passes it in every
   cursor (galloping over equal ones), cut to (t_lo, t_hi] as it goes and
   closed with t_end.  Writes up to 256 more times into ts[n..) — those cap
   holds; the rest are counted — and returns the new n.  A call that can
   meet a zero (zs) counts per run the points it is the first to hold, for
   tilt_zero. */
int64_t tilt_merge(tilt_merger* G, double* ts, int64_t cap, int64_t n)
{
    const int64_t to = n + 256, nc = G->nc;
    const double **q = G->q, **e = G->e, *o = G->o;
    double* y = G->y;
    while (n < to) {
        double x = y[nc - 1];
        for (int64_t j = 0; j < nc - 1; j++) x = y[j] < x ? y[j] : x;
        if (!(x < INFINITY)) {  /* none left: t_end closes the grid */
            G->more = 0;
            if (n == 0 || G->last < G->t_end) {
                if (n < cap) ts[n] = G->t_end;
                n++;
            }
            break;
        }
        int64_t f = G->nr, extra = 0;
        for (int64_t j = nc - 1; j >= 0; j--) {
            if (y[j] != x) continue;
            if (j == nc - 1) extra = 1; else f = 1 + 2 * j;
            const double *c = q[j] + 1, *end = e[j];
            if (c < end && *c - o[j] <= x) {  /* gallop */
                int64_t lo = 0, hi = 1, m = end - c, step = 1;
                while (hi < m && c[hi] - o[j] <= x) { lo = hi; step *= 2; hi = lo + step; }
                hi = hi < m ? hi : m;
                while (hi - lo > 1) {
                    int64_t mid = lo + (hi - lo) / 2;
                    if (c[mid] - o[j] <= x) lo = mid; else hi = mid;
                }
                c += hi;
            }
            q[j] = c;
            y[j] = c < end ? *c - o[j] : INFINITY;
        }
        if (G->zs) {  /* the first run holding x; each run's zero */
            const tilt_run* R = G->R;
            for (int64_t r = 0; extra && r < f; r += 2)
                if (R[r].n && R[r].t[0] - R[r].o == x) f = r;
            if (x == 0.0)
                for (int64_t r = 0; r < G->nr; r++) {
                    int64_t at = tilt_lower(R[r].t, R[r].n, R[r].o);
                    if (at < R[r].n && R[r].t[at] - R[r].o == 0.0) { G->z[r] = R[r].t[at] - R[r].o; G->hz[r] = 1; }
                }
            G->first[f]++;
        }
        if (!(x > G->t_lo && x <= G->t_hi)) continue;  /* the cut */
        if (x == 0.0) G->zl = n;
        G->last = x;
        if (n < cap) ts[n] = x;
        n++;
    }
    return n;
}

/* the zero _merge_runs keeps: it merges the runs in order, each with its
   equal neighbours dropped, and of two equal points keeps the longer
   side's (the union's on a tie) */
double tilt_zero(const tilt_merger* G)
{
    int64_t held = 0;
    double zero = 0.0;
    int found = 0;
    for (int64_t r = 0; r < G->nr; r++) {
        const tilt_run* R = G->R + r;
        if (G->hz[r]) {
            int64_t distinct = R->n > 0;
            for (int64_t i = 1; i < R->n; i++) distinct += R->t[i] - R->o != R->t[i - 1] - R->o;
            if (!found || held < distinct) zero = G->z[r];
            found = 1;
        }
        held += G->first[r];
    }
    return zero;
}
"""


#: the arrays of a prefix group that holds no rows: its start time and sums
_C_NONE = """static double tilt_none[1] = {0.0};
static long double tilt_none_l[1] = {0.0L};
"""


class _CEmitter:
    """Lowers one KernelSpec's fused IR to its C entry point.

    Mirrors :class:`~repro.core.codegen.pysource._ExprCompiler` node for
    node: every emitted statement is the per-lane C image of the NumPy
    template the Python tier executes for the same node, including eager
    evaluation of both conditional branches and domain-masked lanes.

    The entry takes one struct (:meth:`_struct`).  Each prefix group first
    extends the :class:`~repro.windowing.prefix.PrefixRangeIndex` the caller
    binds by the input's newest snapshots, into rows the caller reserved, as
    ``PrefixRangeIndex.extend`` would.  Then it evaluates the grid in the
    caller's lanes — without a precision merged a batch at a time by
    ``tilt_merge``, with one built first by ``tilt_grid`` (:meth:`_open`),
    the kernel's ``(input, boundary offset)`` pairs and precision as
    literals — every cursor starting at ``t_start``
    and advancing monotonically; returns the grid's length when the lanes
    are too few; compacts the lanes when the caller asks; and prunes each
    group the caller gave a floor.
    """

    def __init__(self, spec: KernelSpec):
        if spec.te is None:
            raise ValueError("spec has no IR to lower")
        self.spec = spec
        self.refs: List[str] = list(spec.referenced)
        self._ref_pos = {r: i for i, r in enumerate(self.refs)}
        self._counter = 0
        self._site_counter = 0
        self._reduce_visits = 0  # position in spec.reduce_sites
        self.prelude: List[str] = []  # group index builds (before main loop)
        self.decls: List[str] = []  # persistent cursors / deque heads
        self.body: List[str] = []  # per-lane statements inside the loop
        self.allocs: List[Tuple[str, str]] = []  # (ctype, name) malloc'd
        self.groups: Dict[tuple, _Group] = {}
        self.prefix_sites: List[_PrefixSite] = []  # prefix groups, in parameter order
        self.extends: List[str] = []  # the prefix groups' extends (run first)
        self._point_sites: Dict[Tuple[str, float], Tuple[str, str]] = {}
        self._reduce_sites: Dict[
            Tuple[str, float, float, int, Optional[int]], Tuple[str, str]
        ] = {}
        #: the grid's ``(input, boundary offset)`` pairs in ``grid.py``'s
        #: order; pair ``j``'s grid run starts at index ``l[j]`` (:meth:`_open`)
        self.pairs = [(ref, float(o)) for ref, pattern in spec.accesses.items() for o in pattern.boundary_offsets()]
        self._run_lo = {pair: f"l[{j}]" for j, pair in enumerate(self.pairs)}

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
            emit(f"        double {v} = {c_literal(expr.value)};")
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
        # the first grid point's searchsorted(times, q, 'left'), from the
        # grid run's first index (whose rounding differs from q's)
        self.decls.append(
            f"    int64_t {s}_cur = tilt_back({bt}, {self._run_lo[key]}, t_start + {c_literal(offset)});"
        )
        # mirror of SSBuf.values_at: searchsorted(times, q, 'left') by a
        # monotone cursor; in_range = q > start_time && q <= times[m-1]
        self.body.append(f"        double {s}_q = t + {c_literal(offset)};")
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
        # the groups are the NumPy tier's reduce sites, one index per
        # rt.sites key
        group = self.groups.get(site)
        if group is None:
            group = _Group(len(self.groups), ref, agg, element, site)
            self.groups[site] = group
            if group.passed_in:
                self._bind_prefix_site(group)
            else:
                self._emit_group_build(group)
        return group

    def _bind_prefix_site(self, group: _Group) -> None:
        """A prefix group: its timeline (``{g}_e``: start time,
        then every snapshot time), valid prefix and component prefixes are
        bound in the struct, their last ``{g}_new`` rows reserved for the
        input's newest snapshots, which the entry maps and accumulates into them
        before anything else (an extended-precision row around the index's
        centre ``{g}_c``)."""
        g = f"g{group.index}"
        agg = group.agg
        self.prefix_sites.append(_PrefixSite(group.site, g, len(agg.c_components), agg.prefix_dtype))
        m, bt = self._ref_args(group.ref)[:2]
        ctype = "long double" if agg.prefix_extended_precision else "double"
        ext = self.extends
        ext.append(f"    int64_t {g}_from = {m} - {g}_new, {g}_at = {g}_m - {g}_new;")
        ext.append(f"    double {g}_lv = {g}_vp[{g}_at], {g}_av = -0.0;")
        for c in range(len(agg.c_components)):
            ext.append(f"    {ctype} {g}_l{c} = {g}_p{c}[{g}_at], {g}_a{c} = -0.0;")
        ext.append(f"    for (int64_t j = {g}_from; j < {m}; j++) {{")
        ext.append(f"        int64_t {g}_r = {g}_at + 1 + (j - {g}_from);")
        ext.append(f"        {g}_e[{g}_r] = {bt}[j];")
        xv, xk = self._emit_elem(group, ext)
        center = f"{g}_c[0]" if agg.prefix_extended_precision else None
        terms = self._components(group, xv, xk, center, ext)
        # PrefixRangeIndex._accumulate: the chunk's cumsum (-0.0 is the one
        # start that leaves its first term as it is), plus the last sum held
        # unless that is zero — which keeps a -0.0
        ext.append(f"        {g}_av += {xk} ? 1.0 : 0.0;")
        ext.append(f"        {g}_vp[{g}_r] = ({g}_lv != 0) ? {g}_av + {g}_lv : {g}_av;")
        for c, term in enumerate(terms):
            ext.append(f"        {g}_a{c} += {term};")
            ext.append(f"        {g}_p{c}[{g}_r] = ({g}_l{c} != 0) ? {g}_a{c} + {g}_l{c} : {g}_a{c};")
        ext.append("    }")
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

    def _components(
        self, group: _Group, xv: str, xk: str, center: Optional[str], out: List[str]
    ) -> List[str]:
        """The row's component terms of one mapped snapshot, masked exactly
        as :meth:`AggregateFunction.prefix_components`: zeros at φ lanes,
        centred on ``center`` for an extended-precision row, then each
        component as the row's C text states it."""
        g = f"g{group.index}"
        if center is not None:
            out.append(f"        long double {g}_mx = (long double)({xk} ? {xv} : 0.0);")
            out.append(f"        long double {g}_cx = {g}_mx - {center};")
            x, suffix = f"{g}_cx", "L"
        else:
            out.append(f"        double {g}_mx = {xk} ? {xv} : 0.0;")
            x, suffix = f"{g}_mx", ""
        return [comp.format(x=x, k=xk, L=suffix) for comp in group.agg.c_components]

    def _emit_group_build(self, group: _Group) -> None:
        g = f"g{group.index}"
        m = self._ref_args(group.ref)[0]
        pre = self.prelude
        # every group carries the combined-validity prefix (drives φ)
        self._alloc("int64_t", f"{g}_vp", f"{m} + 1", pre)
        loop: List[str] = []
        xv, xk = self._emit_elem(group, loop)
        agg = group.agg
        if agg.strategy.range == "rmq":
            fill = c_literal(RMQ_DIRECTIONS[agg.rmq].fill)
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
        # the generated NumPy source makes one rt.reduce call per Reduce it
        # visits, in this traversal order, and records each in reduce_sites:
        # the key of the NumPy site this group must read
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
        # over the input's own times, the window start's grid run starts where
        # the cursor does
        lo = (
            f"tilt_upper({bt}, {m}, t_start + {c_literal(window.start_offset)})"
            if group.passed_in
            else self._run_lo[(window.ref, float(window.start_offset))]
        )
        self.decls.append(
            f"    int64_t {s}_lo = {lo},"
            f" {s}_hi = tilt_starts_before({bt}, {m}, {bs}, t_start + {c_literal(window.end_offset)});"
        )
        # snapshot_range_indices by monotone cursors:
        #   lo = searchsorted(times, ws, 'right')
        #   hi = searchsorted(interval_starts, we, 'left')
        body.append(f"        double {s}_ws = t + {c_literal(window.start_offset)};")
        body.append(f"        double {s}_we = t + {c_literal(window.end_offset)};")
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
            self.decls.append(f"    int64_t {s}_dh = 0, {s}_dt = 0, {s}_push = {s}_lo;")
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
    def _open(self) -> List[str]:
        """The grid's opening lines: its ``(input, boundary offset)`` pairs
        and precision as literals, and ``l[j]``, the first of pair ``j``'s
        snapshot times past ``t_start + o`` — where its grid run starts, and
        where the cursors of a point or a window start at ``o`` over the
        input start.  With a precision ``tilt_grid`` builds the grid
        (``grid.py``'s bitmap or merge) into the caller's lanes first, or,
        when they are too few, returns its length before anything allocates;
        without one ``tilt_merge_open`` opens its runs as the cursors that
        ``tilt_merge`` merges inside the loop."""
        pairs = []
        for ref, offset in self.pairs:
            m, bt, _, _, bs = self._ref_args(ref)
            pairs.append(f"{{{m}, {bt}, {bs}, {c_literal(offset)}}}")
        na, grid = len(pairs), "grid" if pairs else "NULL"
        lines = [f"    int64_t l[{max(na, 1)}];"]
        if pairs:
            lines.append(f"    const tilt_access grid[{na}] = {{{', '.join(pairs)}}};")
        if self.spec.tdom.precision > 0:
            lines.append(
                f"    int64_t n = tilt_grid({grid}, {na}, {c_literal(self.spec.tdom.precision)}, "
                "t_start, t_end, ts, cap, l);"
            )
            lines.append("    if (n < 0 || n > cap) return n;")
        else:
            nr, nc = 1 + 2 * na, na + 1
            lines.append(f"    tilt_run R[{nr}]; const double *q[{nc}], *e[{nc}]; double o[{nc}], y[{nc}], z[{nr}], E[{nc}];")
            lines.append(f"    int64_t first[{nr}]; unsigned char hz[{nr}];")
            lines.append("    tilt_merger G = {R, q, e, o, y, z, E, first, hz};")
            lines.append(f"    tilt_merge_open(&G, {grid}, {na}, t_start, t_end, l);")
        return lines

    def _struct(self) -> Tuple[List[str], List[str], List[str]]:
        """``(fields, loads, prunes)``: the struct the caller binds (see
        ``native._Bound``), the entry's locals read from it, and each prefix
        group's ``PrefixRangeIndex.prune`` (a floor of ``-inf`` never fires)."""
        fields = ["double t_start, t_end;", "int64_t cap, compact;", "double *ts, *out_v;", "unsigned char* out_k;"]
        loads = [
            "    const double t_start = S->t_start, t_end = S->t_end;",
            "    const int64_t cap = S->cap, compact = S->compact;",
            "    double *ts = S->ts, *out_v = S->out_v;",
            "    unsigned char* out_k = S->out_k;",
        ]
        for i in range(len(self.refs)):
            fields += [f"int64_t i{i}_lo, i{i}_n;", f"const double *i{i}_t, *i{i}_v;", f"const unsigned char* i{i}_k;", f"double i{i}_s;"]
            loads.append(f"    const int64_t m{i} = S->i{i}_n - S->i{i}_lo;")
            loads.append(f"    const double *bt{i} = S->i{i}_t + S->i{i}_lo, *bv{i} = S->i{i}_v + S->i{i}_lo, bs{i} = S->i{i}_s;")
            loads.append(f"    const unsigned char* bk{i} = S->i{i}_k + S->i{i}_lo;")
        prunes = []
        for site in self.prefix_sites:
            g, sums = site.name, [f"p{c}" for c in range(site.components)]
            ctype, none = ("long double", "tilt_none_l") if site.dtype is np.longdouble else ("double", "tilt_none")
            fields += [f"int64_t {g}_lo, {g}_n, {g}_new, {g}_drop;", f"double {g}_floor;", f"double *{g}_e, *{g}_vp;"]
            fields += [f"{ctype}* {g}_{p};" for p in sums]
            loads.append(f"    const int64_t {g}_rows = S->{g}_n - S->{g}_lo, {g}_new = S->{g}_new;")
            loads.append(f"    const int64_t {g}_m = {g}_rows > 0 ? {g}_rows - 1 : 0;")
            for name, ctp, empty in [("e", "double", "tilt_none"), ("vp", "double", "tilt_none")] + [(p, ctype, none) for p in sums]:
                loads.append(f"    {ctp}* {g}_{name} = {g}_rows > 0 ? S->{g}_{name} + S->{g}_lo : {empty};")
            if site.dtype is np.longdouble:
                fields.append(f"const long double* {g}_c;")
                loads.append(f"    const long double* {g}_c = S->{g}_c;")
            extended = int(site.dtype is np.longdouble)
            if sums:
                loads.append(f"    void* {g}_ps[{len(sums)}] = {{{', '.join(f'{g}_{p}' for p in sums)}}};")
            prunes.append(
                f"    S->{g}_drop = tilt_prune({g}_vp, {f'{g}_ps' if sums else 'NULL'}, {len(sums)}, "
                f"{extended}, {g}_t, {g}_m, S->{g}_floor);"
            )
        return fields, loads, prunes

    def generate(self) -> Tuple[str, str]:
        """Returns ``(unit text, cdef)``: the struct and the entry point."""
        out_v, out_k = self.compile(self.spec.te.expr, {}, self.body, elem=False)
        fields, loads, prunes = self._struct()
        merged = not self.spec.tdom.precision > 0
        struct = "typedef struct {\n" + "".join(f"    {f}\n" for f in fields) + "} tilt_state;\n"
        signature = f"int64_t {TICK_ENTRY}(tilt_state* S)"
        lines = [signature, "{", "    int64_t rc = 0;"]
        lines += loads
        lines += [f"    {ctype}* {name} = NULL;" for ctype, name in self.allocs]
        lines += self.extends  # first: nothing before them can fail
        lines += self._open() + self.prelude + self.decls
        if merged:
            lines += [
                "    int64_t n = 0;",
                "    for (int64_t from = 0; G.more; from = n) {  /* a batch merged into the lanes, then evaluated there */",
                "        n = tilt_merge(&G, ts, cap, n);",
                "        for (int64_t i = from; i < n && i < cap; i++) {",
            ]
        else:
            lines.append("    {")
            lines.append("        for (int64_t i = 0; i < n; i++) {")
        lines.append("            const double t = ts[i];")
        lines += ["    " + line for line in self.body]
        lines += [
            f"            out_v[i] = {out_v};",
            f"            out_k[i] = (unsigned char)({out_k} != 0);",
            "        }",
            "    }",
            "    int64_t w = n;",
            "    if (n <= cap) {",
        ]
        if merged:
            lines.append("        if (G.zl >= 0 && G.zs) ts[G.zl] = tilt_zero(&G);")
        lines.append("        if (compact) w = tilt_compact(ts, out_v, out_k, n);")
        lines += ["    " + line for line in prunes]
        lines.append("    }")
        if self.allocs:
            lines.append("cleanup:")
            lines += [f"    free({name});" for _, name in self.allocs]
        lines.append("    return rc ? -1 : w;")
        lines.append("}")
        return struct + "\n" + "\n".join(lines) + "\n", f"{struct}{signature};"


class Lowered(NamedTuple):
    """A kernel's C artifact, before compilation."""

    c_source: str
    cdef: str
    refs: List[str]
    prefix_sites: List[_PrefixSite]  # the prefix groups, in parameter order


def lower(spec: KernelSpec) -> Lowered:
    """The kernel's translation unit; it links against :data:`TICK_SUPPORT`."""
    emitter = _CEmitter(spec)
    function, cdef = emitter.generate()
    grid = _C_SNAPPED if spec.tdom.precision > 0 else _C_MERGE
    c_source = "\n".join(
        [f"/* native kernel for temporal expression ~{spec.name} */\n{_C_HEADER}", _C_SEEK, _C_GRID, grid, _C_NONE, function]
    )
    return Lowered(c_source, cdef, emitter.refs, emitter.prefix_sites)


#: SSBuf.compact over an entry's lanes, PrefixRangeIndex.prune of its groups
_C_AFTER_LOOP = f"""/* SSBuf.compact: a lane equal (!= on both: NaN never merges, -0.0 does
   with +0.0) to the one before replaces it; returns the lanes kept */
int64_t tilt_compact(double* ts, double* v, unsigned char* k, int64_t n)
{{
    int64_t w = 0;
    for (int64_t i = 0; i < n; i++) {{
        if (w > 0 && k[w - 1] == k[i] && (!k[i] || v[w - 1] == v[i])) w--;
        ts[w] = ts[i]; v[w] = v[i]; k[w++] = k[i];
    }}
    return w;
}}

/* PrefixRangeIndex.prune of a group with m snapshot times t: k, the times at
   or before floor, once k >= {PRUNE_MIN} and 2k >= m, after every sum (np of
   them, long double when extended) is rebased on row k; else 0 */
int64_t tilt_prune(double* vp, void** ps, int64_t np, int extended, const double* t, int64_t m, double floor)
{{
    int64_t k = tilt_upper(t, m, floor);
    if (k < {PRUNE_MIN} || 2 * k < m) return 0;
#define TILT_REBASE(T, a) {{ T* x = (T*)(a); T b = x[k]; for (int64_t r = k; r <= m; r++) x[r] -= b; }}
    TILT_REBASE(double, vp)
    for (int64_t c = 0; c < np; c++)
        if (extended) TILT_REBASE(long double, ps[c]) else TILT_REBASE(double, ps[c])
    return k;
}}
"""

#: the library every kernel's unit links against, built once per cache
#: rather than into each unit (see ``native._load_support``): the grid, the
#: compaction and the prune
TICK_SUPPORT = "\n".join(
    ["/* support library of the native tick entries */\n" + _C_HEADER, _C_SEEK, _C_GRID, _C_GRID_BODY, _C_MERGE_BODY, _C_AFTER_LOOP]
)
