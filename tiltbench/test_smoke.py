"""Smoke test of the benchmark, collected by the tier-1 ``pytest -x -q``.

``tiltbench`` is the one thing a later ``src/`` PR may not edit, so this is
how such a PR finds out it broke it: the whole command runs at tiny sizes,
every workload and metric named in ``BENCHMARK.json`` must appear with its
unit, verification must pass, and ``--compare`` must flag a synthetic 30 %
drop (the bound is 0.25) while passing an identical pair.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tiltbench import cli, compare
from tiltbench.metrics import END_TO_END, PER_LAYER, WORKLOADS, manifest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "tiltbench" / "run.py")]


def test_manifest_is_the_registry():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == manifest()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiltbench") / "smoke.json"
    spans = out.with_name("spans.json")
    # the knobs below must be cleared (and recorded) by the benchmark itself
    env = dict(os.environ, REPRO_CODEGEN="native", REPRO_TRACE="1")
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "3", "--json", str(out), "--trace-out", str(spans)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as fh, open(spans) as fs:
        return json.load(fh), done.stdout, json.load(fs)


def test_every_workload_and_metric_is_reported_with_its_unit(smoke):
    document, stdout, _ = smoke
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, entry in document["workloads"].items():
        for metric in END_TO_END:
            row = entry["end_to_end"]["metrics"][metric.name]
            assert row["unit"] == metric.unit and row["value"] > 0, (name, metric.name, row)
        for metric in PER_LAYER:
            row = entry["per_layer"][metric.name]
            assert row["unit"] == metric.unit, (name, metric.name)
            assert row["value"] is not None, (name, metric.name, row.get("reason"))
    for metric in list(END_TO_END) + list(PER_LAYER):
        assert f"{metric.name} " in stdout


def test_verification_passes_and_no_tick_is_empty(smoke):
    document, _, _ = smoke
    for name, entry in document["workloads"].items():
        for part in ("end_to_end", "traced"):
            assert entry[part]["failed"] == 0, (name, entry[part]["failures"])
            assert entry[part]["attempted"] >= 1
        assert entry["per_layer"]["session.empty_ticks"]["value"] == 0
        assert entry["per_layer"]["failed_frac"]["value"] == 0


def test_hygiene_is_recorded(smoke):
    meta = smoke[0]["meta"]
    assert meta["cleared_env"] == {"REPRO_CODEGEN": "native", "REPRO_TRACE": "1"}
    assert meta["seed"] == 3 and meta["nproc"] >= 1 and meta["numpy"]


def test_spans_nest_under_the_harness_calls(smoke):
    spans = smoke[2]["session_ysb"]
    by_id = {s["id"]: s for s in spans}
    assert {s["name"] for s in spans} >= {"bench.tick", "session.tick", "tick.ingest"}
    for span in spans:
        if span["parent"] is None:
            assert span["name"].startswith("bench.")
        else:
            assert span["parent"] in by_id


def test_the_drivers_result_object(smoke):
    entry = smoke[0]["workloads"]["service_fleet"]
    for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
        result = cli.contract_line(entry, trace, attempted=7, failed=0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] == 7
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m.name: m.unit for m in metrics
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert cli.contract_line(entry, 0, attempted=7, failed=1)["correct"] is False


def test_without_the_engine_there_is_no_result(tmp_path):
    bare = tmp_path / "tiltbench"
    bare.mkdir()
    for source in (ROOT / "tiltbench").glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "tiltbench/run.py", "--workload", "session_ysb", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and "metrics" not in done.stdout


def test_compare_flags_a_drop_and_passes_an_identical_pair(tmp_path, capsys):
    base = ROOT / "tiltbench" / "baselines" / "aa_1.json"
    assert compare.compare_files(str(base), str(base)) == 0
    with open(base) as fh:
        slower = json.load(fh)
    row = slower["workloads"]["session_ysb"]["end_to_end"]["metrics"]["events_per_s"]
    row["value"] *= 0.7
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps(slower))
    assert compare.compare_files(str(base), str(dropped)) == 1
    rows = compare.compare(json.loads(base.read_text()), copy.deepcopy(slower))
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("session_ysb", "events_per_s")] == "regressed"
    assert verdicts[("oneshot_apps", "events_per_s")] == "unchanged"
    assert "regressed" in capsys.readouterr().out
