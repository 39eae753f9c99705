"""CLI for the static analysis layer — the CI lint/verification gate.

Usage::

    python -m repro.analysis PATH [PATH ...]   # lint specific files/dirs
    python -m repro.analysis --self            # lint the repro package itself
    python -m repro.analysis --apps            # analyze all benchmark programs
    python -m repro.analysis --rows            # print the two semantics tables

Exit status is 0 when no error-severity finding (or lint violation) was
produced, 1 otherwise — so each mode drops straight into CI as a hard gate.
``--apps`` additionally proves the bounds-safety obligation for every
program in :data:`repro.apps.ALL_APPLICATIONS`, in both the raw and the
optimized (fused) form the compiler actually lowers.  ``--rows`` lists every
operator row (``repro.core.ops.OPS``) and every built-in aggregate row with
the tiers that have a lowering for it — the listing a ``kernel_plan()``
fallback reason ("operator '%' has no bit-stable native lowering") is
checked against.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from .lint import lint_paths


def _run_lint(paths: List[Path]) -> int:
    violations = lint_paths(paths)
    for v in violations:
        print(v.format())
    n_files = sum(1 for p in paths for _ in ([p] if p.is_file() else p.rglob("*.py")))
    print(f"lint: {len(violations)} violation(s) across {n_files} file(s)")
    return 1 if violations else 0


def _run_apps(verbose: bool) -> int:
    # imported lazily: --self/path lint must not require numpy
    from ..apps import ALL_APPLICATIONS
    from ..core.optimizer.passes import default_pass_manager
    from ..core.ir.validation import validate_program
    from .program import analyze_program

    failures = 0
    for name, app in ALL_APPLICATIONS.items():
        program = app.program()
        validate_program(program)
        optimized = default_pass_manager(enable_fusion=True).run(program)
        for label, variant in (("raw", program), ("optimized", optimized)):
            report = analyze_program(variant)
            status = "FAIL" if report.has_errors else "ok"
            summary = report.summary()
            print(
                f"{name:>12s} [{label:9s}] {status}: "
                f"{summary['errors']} error(s), {summary['warnings']} warning(s)"
            )
            if verbose or report.has_errors:
                for finding in report.findings:
                    print("    " + finding.format())
            if report.has_errors:
                failures += 1
    print(
        f"analyzer: {len(ALL_APPLICATIONS)} program(s), "
        f"{failures} variant(s) with errors"
    )
    return 1 if failures else 0


def _run_rows() -> int:
    from ..core.codegen.runtime_support import persists
    from ..core.ops import OPS
    from ..windowing.functions import builtin_aggregates

    def tiers(native: bool) -> str:
        return "scalar numpy " + ("native" if native else "-")

    print(f"operators ({len(OPS)} rows)")
    print(f"  {'name':<7s}{'forms':<11s}{'arity':<6s}{'tiers':<21s}domain (φ outside)")
    for row in OPS.values():
        print(
            f"  {row.name:<7s}{'/'.join(row.forms):<11s}{row.arity:<6d}"
            f"{tiers(row.c is not None):<21s}{row.numpy_domain or '-'}"
        )
    aggregates = builtin_aggregates()
    print(f"aggregates ({len(aggregates)} rows)")
    print(f"  {'name':<13s}{'range':<8s}{'session state':<16s}{'accumulator':<13s}tiers")
    for agg in aggregates.values():
        ranged = agg.strategy.range
        state = "persisted" if persists(agg) else "per-invocation"
        accumulator = agg.prefix_dtype.__name__ if ranged == "prefix" else "-"
        print(
            f"  {agg.name:<13s}{ranged:<8s}{state:<16s}"
            f"{accumulator:<13s}{tiers(agg.c_lowerable)}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Codebase lint and TiLT program analyzer (CI gate).",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    parser.add_argument(
        "--self",
        action="store_true",
        dest="lint_self",
        help="lint the installed repro package source tree",
    )
    parser.add_argument(
        "--apps",
        action="store_true",
        help="run the program analyzer over every repro.apps program",
    )
    parser.add_argument(
        "--rows",
        action="store_true",
        help="print the operator and aggregate tables: lowerings per tier, range strategy",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print full reports with --apps"
    )
    args = parser.parse_args(argv)

    if not (args.paths or args.lint_self or args.apps or args.rows):
        parser.error("nothing to do: pass paths, --self, --apps, or --rows")

    status = 0
    paths = list(args.paths)
    if args.lint_self:
        paths.append(Path(__file__).resolve().parent.parent)
    if paths:
        status |= _run_lint(paths)
    if args.apps:
        status |= _run_apps(args.verbose)
    if args.rows:
        status |= _run_rows()
    return status


if __name__ == "__main__":
    sys.exit(main())
