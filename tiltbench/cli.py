"""Command line of the benchmark.

Three ways in:

* ``python -m tiltbench --seed S --json OUT`` — every workload, untraced then
  traced, every metric printed by name with its unit, outputs verified;
* ``python3 tiltbench/run.py --workload W --seed S --seconds N --trace 0|1``
  — the driver's contract: one workload, the end-to-end metrics (``0``) or
  the per-layer metrics (``1``), one JSON object as the last line;
* ``python -m tiltbench --compare A.json B.json`` — apply the bounds.

The exit status is non-zero when any operation failed or any output differed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tiltbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (same seed, same inputs)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall seconds of measured passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--json", metavar="OUT", help="write the full result document here")
    parser.add_argument("--trace-out", metavar="FILE", help="write the traced passes' spans here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few passes, seconds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents under the per-metric bounds")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)

    # imported late: --compare must work without the engine on the path
    from . import bench, hygiene, layers
    from .workloads import SIZES, WORKLOAD_CLASSES

    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    want_e2e = not args.workload or args.trace == 0
    want_layers = not args.workload or args.trace == 1

    document: Dict[str, object] = {"workloads": {}}
    spans: Dict[str, list] = {}
    with hygiene.clean_environment() as environment:
        document["meta"] = {
            **hygiene.host_meta(args.seed), **environment,
            "size": size, "seconds": seconds, "sizes": SIZES[size],
        }
        if document["meta"]["load_warning"]:
            print("warning: load average above half the CPUs; expect wide raw quartiles",
                  file=sys.stderr)
        fixed = layers.Probes()
        own: Dict[str, layers.Probes] = {}
        for name in names:
            entry: Dict[str, object] = {}
            if want_e2e:
                entry["end_to_end"] = bench.end_to_end(name, args.seed, seconds, size)
            if want_layers:
                run = bench.traced(name, args.seed, seconds, size)
                spans[name] = run.pop("spans")
                own[name] = layers.Probes()
                own[name].values.update(run.pop("values"))
                layers.pipeline_probes(
                    own[name], WORKLOAD_CLASSES[name](args.seed, SIZES[size][name])
                )
                entry["traced"] = run
            document["workloads"][name] = entry
        if want_layers:
            layers.host_probes(fixed, args.smoke)
            layers.app_probes(fixed, args.seed, args.smoke)
            layers.deep_window_probes(fixed, args.seed, args.smoke)
            for name, entry in document["workloads"].items():
                entry["per_layer"] = render_layers(own[name], fixed)

    print_report(document)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(spans, fh)
    attempted, failed = totals(document)
    if args.workload:
        print(json.dumps(contract_line(document["workloads"][args.workload], args.trace,
                                       attempted, failed)))
    return 1 if failed else 0


def render_layers(own, fixed) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric by name, with unit — and, where a probe could
    not run, ``None`` and the reason."""
    values = {**fixed.values, **own.values}
    reasons = {**fixed.reasons, **own.reasons}
    rendered = {}
    for metric in PER_LAYER:
        row: Dict[str, object] = {"value": values.get(metric.name), "unit": metric.unit}
        if row["value"] is None:
            row["reason"] = reasons.get(metric.name, "not measured: the traced pass failed")
        rendered[metric.name] = row
    return rendered


def totals(document) -> tuple:
    attempted = failed = 0
    for entry in document["workloads"].values():
        for part in ("end_to_end", "traced"):
            if part in entry:
                attempted += entry[part]["attempted"]
                failed += entry[part]["failed"]
    return max(attempted, 1), failed


def contract_line(entry, trace: int, attempted: int, failed: int) -> Dict[str, object]:
    """The driver's result object: numbers only.  A per-layer probe that
    could not run reads 0 here; the reason is in the report above and in
    ``--json``."""
    rows = entry["per_layer"] if trace else entry["end_to_end"]["metrics"]
    metrics = {
        name: {"value": row["value"] if row["value"] is not None else 0.0, "unit": row["unit"]}
        for name, row in rows.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_report(document) -> None:
    meta = document["meta"]
    print(f"tiltbench  seed={meta['seed']}  size={meta['size']}  git={meta['git_sha']}  "
          f"nproc={meta['nproc']}  pinned_cpu={meta['pinned_cpu']}  "
          f"load={meta['load_average_start']}  python={meta['python']}  numpy={meta['numpy']}")
    if meta["cleared_env"]:
        print(f"cleared for the run: {meta['cleared_env']}")
    for name, entry in document["workloads"].items():
        print(f"\n== {name} ==")
        if "end_to_end" in entry:
            result = entry["end_to_end"]
            print(f"  {result['info']}")
            for metric in END_TO_END:
                row = result["metrics"][metric.name]
                if row["value"] is None:
                    print(f"  {metric.name:<34} not measured")
                    continue
                print(f"  {metric.name:<34} {row['value']:>14.6g} {metric.unit:<10} "
                      f"raw q1/median/q3 {row['raw_q1']:.6g} / {row['raw_median']:.6g} / "
                      f"{row['raw_q3']:.6g}  n={row['n']}  bound {metric.bound}")
            failed_frac = result["failed"] / result["attempted"]
            print(f"  {'failed_frac':<34} {failed_frac:>14.6g} {'frac':<10} "
                  f"ops_attempted={result['attempted']} ops_failed={result['failed']}")
        for name_, row in entry.get("per_layer", {}).items():
            value = "null" if row["value"] is None else f"{row['value']:.6g}"
            print(f"  {name_:<34} {value:>14} {row['unit']:<10} {row.get('reason', '')}")
        for part in ("end_to_end", "traced"):
            for failure in entry.get(part, {}).get("failures", []):
                print(f"  FAILED: {failure}", file=sys.stderr)
