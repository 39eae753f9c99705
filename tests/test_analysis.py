"""The static-analysis layer: bounds proofs, hygiene, domain checks, lint.

Four pillars of coverage:

* **Soundness on real programs**: every shipped application (raw and
  optimized, on both codegen tiers) must analyze with zero error-severity
  findings — the analyzer may not refuse programs the engine demonstrably
  runs correctly.
* **Completeness on the unsafe corpus**: every seeded-hazard fixture in
  ``fixtures.unsafe_programs`` must provoke exactly its expected finding
  code, and error-severity hazards must make ``compile_program`` raise
  :class:`AnalysisError` rather than emit kernels.
* **Proof plumbing**: kernels minted by ``compile_program`` carry a
  bounds proof derived from the report; specs generated outside the gate
  carry none and the native tier refuses them with a reason.
* **Codebase lint**: each AST checker fires on its seeded-violation
  fixture, stays silent on the adjacent negatives, honors inline
  suppressions, and finds nothing in ``src/repro`` itself.
"""

import json
import urllib.request
from pathlib import Path

import pytest

from fixtures.unsafe_programs import (
    UNSAFE_PROGRAMS,
    guarded_domain_program,
)
from repro.analysis import (
    Finding,
    ProgramReport,
    Severity,
    analyze_program,
    check_boundary,
    program_digest,
)
from repro.analysis.lint import lint_file, lint_paths, lint_source
from repro.analysis.program import clear_cache
from repro.apps import ALL_APPLICATIONS
from repro.core.codegen import native
from repro.core.codegen.compiled import compile_program
from repro.core.codegen.pysource import generate_kernel_spec
from repro.core.ir import IRBuilder, TDom, TIndex, TemporalExpr, TiltProgram
from repro.core.lineage.boundary import BoundarySpec, resolve_boundaries
from repro.core.runtime.engine import TiltEngine
from repro.errors import AnalysisError, ValidationError
from repro.serve import QueryService
from repro.windowing import SUM

FIXTURES = Path(__file__).parent / "fixtures"
LINT_FIXTURES = FIXTURES / "lint_violations"


def simple_program():
    b = IRBuilder()
    x = b.stream("x")
    b.define("out", x.window(-10, 0).reduce(SUM), precision=1)
    return b.build(output="out")


# ---------------------------------------------------------------------- #
# soundness: every shipped app is bounds-proven on both tiers
# ---------------------------------------------------------------------- #
class TestAppsAreProvablySafe:
    @pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
    def test_raw_and_optimized_programs_have_no_errors(self, name):
        program = ALL_APPLICATIONS[name].program()
        raw = analyze_program(program)
        assert not raw.has_errors, raw.format()
        assert raw.proof_token() is not None
        optimized = compile_program(program).report
        assert optimized is not None and not optimized.has_errors

    @pytest.mark.parametrize("tier", ["numpy", "native"])
    @pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
    def test_both_tiers_compile_only_proven_kernels(self, name, tier):
        if tier == "native" and not native.native_available():
            pytest.skip("native toolchain unavailable")
        compiled = compile_program(
            ALL_APPLICATIONS[name].program(), codegen_tier=tier
        )
        assert compiled.report is not None
        assert not compiled.report.has_errors
        proof = compiled.report.proof_token()
        for kernel in compiled.kernels:
            assert kernel.spec.bounds_proof == f"{proof}:{kernel.spec.name}"


# ---------------------------------------------------------------------- #
# completeness: the unsafe corpus
# ---------------------------------------------------------------------- #
class TestUnsafeCorpus:
    @pytest.mark.parametrize(
        "entry", UNSAFE_PROGRAMS, ids=[e.name for e in UNSAFE_PROGRAMS]
    )
    def test_expected_finding_fires(self, entry):
        report = analyze_program(entry.program)
        findings = report.by_code(entry.expected_code)
        assert findings, (
            f"{entry.name}: expected {entry.expected_code}, "
            f"got {sorted(report.codes())}\n{report.format()}"
        )
        assert all(
            f.severity == Severity(entry.expected_severity) for f in findings
        )

    @pytest.mark.parametrize(
        "entry",
        [e for e in UNSAFE_PROGRAMS if e.expected_severity == "error"],
        ids=[e.name for e in UNSAFE_PROGRAMS if e.expected_severity == "error"],
    )
    def test_error_findings_block_compilation(self, entry):
        # BS001 programs also fail boundary resolution — either refusal is
        # acceptable, but the BS003 class must be caught by the analyzer gate.
        # optimize=False: the optimizer can constant-fold a hazard away (a
        # legitimate fix!), and the gate must judge the program it will lower.
        with pytest.raises(Exception) as exc_info:
            compile_program(entry.program, optimize=False)
        if entry.expected_code == "BS003":
            assert isinstance(exc_info.value, AnalysisError)
            assert exc_info.value.report is not None
            assert exc_info.value.report.by_code("BS003")

    @pytest.mark.parametrize(
        "entry",
        [e for e in UNSAFE_PROGRAMS if e.expected_severity == "warning"],
        ids=[
            e.name for e in UNSAFE_PROGRAMS if e.expected_severity == "warning"
        ],
    )
    def test_warnings_do_not_block_compilation(self, entry):
        compiled = compile_program(entry.program, optimize=False)
        assert compiled.report is not None

    def test_guarded_domain_sites_are_clean(self):
        report = analyze_program(guarded_domain_program())
        dom = [f for f in report.findings if f.code.startswith("DOM")]
        assert dom == [], [f.format() for f in dom]


# ---------------------------------------------------------------------- #
# the boundary cross-check in isolation
# ---------------------------------------------------------------------- #
class TestBoundaryCrossCheck:
    def test_correct_plan_passes(self):
        program = simple_program()
        assert check_boundary(program, resolve_boundaries(program)) == []

    def test_weakened_margins_are_caught(self):
        # shrink the resolved lookback: a boundary plan that under-fetches
        # input history must be rejected, not trusted
        program = simple_program()
        good = resolve_boundaries(program)
        lb, la = good.margins["x"]
        weak = BoundarySpec({"x": (lb - 5.0, la)})
        findings = check_boundary(program, weak)
        assert any(f.code == "BS002" for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_inflated_margins_are_safe(self):
        # over-fetching wastes work but is sound — no findings
        program = simple_program()
        good = resolve_boundaries(program)
        lb, la = good.margins["x"]
        assert check_boundary(program, BoundarySpec({"x": (lb + 7.0, la)})) == []


# ---------------------------------------------------------------------- #
# proof plumbing: the native tier trusts only gated specs
# ---------------------------------------------------------------------- #
class TestProofPlumbing:
    def test_ungated_spec_is_refused_native_lowering(self):
        if not native.native_available():
            pytest.skip("native toolchain unavailable")
        te = simple_program().exprs[0]
        spec = generate_kernel_spec(te)  # bypasses the analyzer gate
        assert spec.bounds_proof is None
        kernel, reason = native.instantiate(spec)
        assert kernel is None
        assert "bounds-safety proof" in reason

    def test_gated_spec_is_accepted(self):
        if not native.native_available():
            pytest.skip("native toolchain unavailable")
        compiled = compile_program(simple_program(), codegen_tier="native")
        kernel, reason = native.instantiate(compiled.kernels[0].spec)
        assert reason is None or "bounds-safety proof" not in reason

    def test_proof_token_is_stable_and_digest_scoped(self):
        program = simple_program()
        report = analyze_program(program)
        token = report.proof_token()
        assert token == f"bounds-proof:{program_digest(program)[:16]}"

    def test_errors_yield_no_proof(self):
        report = analyze_program(UNSAFE_PROGRAMS[0].program)
        assert report.has_errors
        assert report.proof_token() is None

    def test_static_cost_rides_on_specs(self):
        compiled = compile_program(simple_program())
        assert all(k.spec.static_cost > 0.0 for k in compiled.kernels)

    def test_report_is_dropped_from_pickles(self):
        compiled = compile_program(simple_program())
        assert compiled.__getstate__()["report"] is None


# ---------------------------------------------------------------------- #
# caching and the engine entry point
# ---------------------------------------------------------------------- #
class TestAnalyzerCaching:
    def test_repeat_analysis_hits_cache(self):
        clear_cache()
        program = simple_program()
        assert analyze_program(program) is analyze_program(program)

    def test_distinct_programs_get_distinct_reports(self):
        a = analyze_program(simple_program())
        b = analyze_program(guarded_domain_program())
        assert a.digest != b.digest

    def test_engine_analyze_validates_first(self):
        engine = TiltEngine()
        report = engine.analyze(simple_program())
        assert isinstance(report, ProgramReport)
        bad = TiltProgram(
            ("in",), (TemporalExpr("out", TDom(), TIndex("ghost", 0.0)),), "out"
        )
        with pytest.raises(ValidationError):
            engine.analyze(bad)


# ---------------------------------------------------------------------- #
# report surface
# ---------------------------------------------------------------------- #
class TestReportSurface:
    def test_summary_and_to_dict_round_trip(self):
        report = analyze_program(UNSAFE_PROGRAMS[1].program)
        summary = report.summary()
        assert summary["errors"] >= 1
        assert "BS003" in summary["codes"]
        doc = report.to_dict()
        assert doc["digest"] == report.digest
        assert any(f["code"] == "BS003" for f in doc["findings"])

    def test_finding_format_carries_code_and_site(self):
        f = Finding("XX001", Severity.WARNING, "message", site="~out")
        assert "XX001" in f.format() and "~out" in f.format()


# ---------------------------------------------------------------------- #
# codebase lint
# ---------------------------------------------------------------------- #
class TestLint:
    def codes_at(self, violations):
        return {(v.code, v.line) for v in violations}

    def test_blocking_under_lock_fixture(self):
        found = lint_file(LINT_FIXTURES / "blocking_under_lock.py")
        assert self.codes_at(found) == {
            ("LNT101", 21),
            ("LNT101", 25),
            ("LNT101", 29),
            ("LNT101", 33),
        }

    def test_kernel_helper_fixture(self):
        found = lint_file(
            LINT_FIXTURES / "core" / "codegen" / "runtime_support.py"
        )
        assert self.codes_at(found) == {
            ("LNT102", 13),
            ("LNT102", 17),
            ("LNT102", 18),
            ("LNT102", 22),
        }

    def test_metric_name_fixture(self):
        found = lint_file(LINT_FIXTURES / "metric_names.py")
        assert self.codes_at(found) == {
            ("LNT103", 8),
            ("LNT103", 9),
            ("LNT103", 10),
            ("LNT103", 11),
        }

    def test_columnar_ingest_fixture(self):
        found = lint_file(LINT_FIXTURES / "datagen" / "sources.py")
        assert self.codes_at(found) == {
            ("LNT104", 9),
            ("LNT104", 16),
            ("LNT104", 20),
        }

    def test_environment_settings_fixture(self):
        found = lint_file(LINT_FIXTURES / "env_settings.py")
        assert self.codes_at(found) == {("LNT105", line) for line in range(10, 15)}

    def test_run_path_fixture(self):
        """The parent's list-based ``SSBuf.slice``, an argsort/unique concat
        and a per-snapshot append loop all fail the gate; a loop over
        partitions and an allowed sort do not."""
        found = lint_file(LINT_FIXTURES / "core" / "runtime" / "ssbuf.py")
        assert self.codes_at(found) == {
            ("LNT106", line) for line in (21, 22, 23, 33, 34, 40)
        }

    def test_run_path_rule_only_applies_to_run_path_modules(self):
        src = "import numpy as np\ndef f(buf):\n    return np.unique(list(buf.times[1:]))\n"
        assert lint_source(src, "spe/trill/engine.py") == []
        for module in ("core/runtime/ssbuf.py", "core/runtime/partition.py",
                       "core/codegen/grid.py", "windowing/prefix.py"):
            assert [v.code for v in lint_source(src, module)] == ["LNT106", "LNT106"]

    def test_columnar_ingest_rule_only_applies_to_the_ingest_hot_path(self):
        src = "def f(events):\n    return [e.start for e in events]\n"
        assert lint_source(src, "spe/trill/engine.py") == []
        for module in ("core/runtime/session.py", "datagen/sources.py"):
            assert [v.code for v in lint_source(src, module)] == ["LNT104"]

    def test_semantics_table_fixture(self):
        """The parent's name-keyed dicts, name sets and ``== "max"`` tests all
        fail the gate; a dict with non-row keys, a non-row literal and a
        lookup in a table do not."""
        found = lint_file(LINT_FIXTURES / "semantics_tables.py")
        assert self.codes_at(found) == {("LNT107", line) for line in (7, 8, 12, 14, 16)}

    def test_semantics_table_rule_exempts_the_two_table_modules(self):
        src = 'ROWS = {"sum": 1, "mean": 2}\ndef f(agg):\n    return agg.name == "max"\n'
        assert [v.code for v in lint_source(src, "core/codegen/native.py")] == ["LNT107"] * 2
        for module in ("core/ops.py", "windowing/functions.py"):
            assert lint_source(src, module) == []

    def test_directory_walk_finds_all_seeded_violations(self):
        found = lint_paths([LINT_FIXTURES])
        assert len(found) == 31

    def test_suppression_comment_silences_a_violation(self):
        src = (
            "import time, threading\n"
            "lock = threading.Lock()\n"
            "def f():\n"
            "    with lock:\n"
            "        time.sleep(1)  # lint: allow(LNT101)\n"
        )
        assert lint_source(src, "x.py") == []
        unsuppressed = src.replace("  # lint: allow(LNT101)", "")
        assert [v.code for v in lint_source(unsuppressed, "x.py")] == ["LNT101"]

    def test_shared_state_rules_only_apply_to_kernel_helpers(self):
        src = "_CACHE = {}\ndef f(k, v):\n    _CACHE[k] = v\n"
        assert lint_source(src, "serve/service.py") == []
        flagged = lint_source(src, "core/codegen/runtime_support.py")
        assert [v.code for v in flagged] == ["LNT102"]

    def test_syntax_error_is_reported_not_raised(self):
        found = lint_source("def broken(:\n", "x.py")
        assert [v.code for v in found] == ["LNT000"]

    def test_rows_listing_matches_the_fallback_reasons(self, capsys):
        """``--rows`` prints one line per table row; a row it lists without a
        native lowering is exactly one ``lowering_blockers`` refuses."""
        from repro.analysis.__main__ import main
        from repro.core.ops import OPS
        from repro.windowing import builtin_aggregates

        assert main(["--rows"]) == 0
        operators, aggregates = capsys.readouterr().out.split("aggregates (")
        for text, rows, lowered in (
            (operators, OPS, lambda row: row.c is not None),
            (aggregates, builtin_aggregates(), lambda agg: agg.c_lowerable),
        ):
            listed = {line.split()[0]: "native" in line.split() for line in text.splitlines()[2:]}
            assert listed == {name: lowered(row) for name, row in rows.items()}

    def test_src_repro_is_lint_clean(self):
        repo_src = Path(__file__).parent.parent / "src" / "repro"
        found = lint_paths([repo_src])
        assert found == [], [v.format() for v in found]


# ---------------------------------------------------------------------- #
# observability surface
# ---------------------------------------------------------------------- #
class TestObservabilitySurface:
    def test_analyze_route_serves_reports(self):
        with QueryService(workers=1, telemetry_port=0) as service:
            name = service.submit(simple_program(), name="t0")
            base = service.telemetry.url
            with urllib.request.urlopen(
                f"{base}/analyze?tenant={name}", timeout=5
            ) as resp:
                doc = json.loads(resp.read())
            assert doc["digest"]
            assert isinstance(doc["findings"], list)
            with urllib.request.urlopen(f"{base}/analyze", timeout=5) as resp:
                index = json.loads(resp.read())
            assert index[name]["errors"] == 0

    def test_tenant_static_cost_is_described(self):
        with QueryService(workers=1) as service:
            name = service.submit(simple_program(), name="t0")
            doc = service._tenants[name].describe()
            assert doc["static_cost"] > 0.0


# ---------------------------------------------------------------------- #
# scheduler seeding
# ---------------------------------------------------------------------- #
class TestSchedulerSeeding:
    class FakeTenant:
        def __init__(self, name, static_cost):
            self.name = name
            self.weight = 1.0
            self.static_cost = static_cost
            self.cost_ewma = None

    def test_first_observation_calibrates_later_admissions(self):
        from repro.serve.scheduler import DeficitFairPolicy

        policy = DeficitFairPolicy()
        veteran = self.FakeTenant("veteran", static_cost=200.0)
        policy.admit(veteran)
        assert veteran.cost_ewma is None  # no fleet scale known yet
        policy.record(veteran, seconds=0.02)
        rookie = self.FakeTenant("rookie", static_cost=400.0)
        policy.admit(rookie)
        # 2x the static cost at the learned scale of 1e-4 s/unit
        assert rookie.cost_ewma == pytest.approx(0.04)

    def test_observed_costs_are_never_overwritten(self):
        from repro.serve.scheduler import DeficitFairPolicy

        policy = DeficitFairPolicy()
        first = self.FakeTenant("first", static_cost=100.0)
        policy.admit(first)
        policy.record(first, seconds=0.01)
        seasoned = self.FakeTenant("seasoned", static_cost=100.0)
        seasoned.cost_ewma = 0.5
        policy.admit(seasoned)
        assert seasoned.cost_ewma == 0.5
