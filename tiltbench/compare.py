"""``--compare A.json B.json``: apply the per-metric bounds to two result
documents (A is the base, B the candidate).

One row per (end-to-end metric, workload): the ratio B/A with its base, and a
verdict —

* ``regressed`` / ``improved``: B is worse / better than A by more than the
  metric's bound *and* by more than the raw run-to-run spread;
* ``unresolved``: the raw spread (interquartile range over the median of the
  unfiltered per-pass figures, the wider of the two sides) exceeds the bound,
  and the change does not clear it — the benchmark cannot tell;
* ``unchanged``: within the bound, and the spread is tighter than the bound.

Any increase of the failed fraction is a regression.  Per-layer metrics carry
no bounds; they are listed with their ratios so a delta can be explained by
where the work went.  Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .metrics import END_TO_END, PER_LAYER


def verdict(better: str, bound: float, a: float, b: float, spread: float) -> Tuple[str, float]:
    """``(verdict, signed gain)``: gain > 0 means B is better than A."""
    change = b / a - 1.0
    gain = change if better == "higher" else -change
    if abs(gain) > max(bound, spread):
        return ("improved" if gain > 0 else "regressed"), gain
    if spread > bound:
        return "unresolved", gain
    return "unchanged", gain


def _spread(row: Dict[str, float]) -> float:
    if not row.get("raw_median"):
        return 0.0
    return (row["raw_q3"] - row["raw_q1"]) / row["raw_median"]


def compare(a: Dict, b: Dict) -> List[Dict[str, object]]:
    """Rows for every workload present in both documents."""
    rows: List[Dict[str, object]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            continue
        e2e_a, e2e_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for metric in END_TO_END:
            row_a, row_b = e2e_a["metrics"][metric.name], e2e_b["metrics"][metric.name]
            row: Dict[str, object] = {
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": row_a["value"], "value": row_b["value"], "bound": metric.bound,
            }
            if row_a["value"] is None or row_b["value"] is None:
                row.update(verdict="regressed" if row_b["value"] is None else "unresolved")
            else:
                spread = max(_spread(row_a), _spread(row_b))
                what, gain = verdict(metric.better, metric.bound, row_a["value"], row_b["value"], spread)
                row.update(verdict=what, ratio=row_b["value"] / row_a["value"], spread=spread)
            rows.append(row)
        frac_a = e2e_a["failed"] / e2e_a["attempted"]
        frac_b = e2e_b["failed"] / e2e_b["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "frac", "base": frac_a,
            "value": frac_b, "bound": 0.0,
            "verdict": "regressed" if frac_b > frac_a else "unchanged",
        })
    return rows


def layer_rows(a: Dict, b: Dict) -> List[Tuple[str, str, Optional[float], Optional[float]]]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        layers_a = entry_a.get("per_layer")
        layers_b = b["workloads"].get(workload, {}).get("per_layer")
        if not layers_a or not layers_b:
            continue
        for metric in PER_LAYER:
            rows.append((workload, metric.name, layers_a[metric.name]["value"],
                         layers_b[metric.name]["value"]))
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows = compare(a, b)
    print(f"base A = {path_a} (git {a['meta'].get('git_sha')}, seed {a['meta'].get('seed')})")
    print(f"cand B = {path_b} (git {b['meta'].get('git_sha')}, seed {b['meta'].get('seed')})")
    print(f"{'workload':<20} {'metric':<13} {'verdict':<10} {'B/A':>7}  {'A (base)':>12} "
          f"{'B':>12} {'unit':<9} {'bound':>5} {'spread':>6}")
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if "ratio" in row else "-"
        spread = f"{row['spread']:.3f}" if "spread" in row else "-"
        base = "null" if row["base"] is None else f"{row['base']:.6g}"
        value = "null" if row["value"] is None else f"{row['value']:.6g}"
        print(f"{row['workload']:<20} {row['metric']:<13} {row['verdict']:<10} {ratio:>7}  "
              f"{base:>12} {value:>12} {row['unit']:<9} {row['bound']:>5} {spread:>6}")
    layers = layer_rows(a, b)
    if layers:
        print("\nper-layer (no bounds; B/A with base A):")
        for workload, name, value_a, value_b in layers:
            if value_a is None or value_b is None:
                note = "null"
            elif value_a == value_b:
                note = "="
            elif value_a == 0:
                note = f"{value_a:.6g} -> {value_b:.6g}"
            else:
                note = f"{value_b / value_a:.3f}  (A {value_a:.6g})"
            print(f"  {workload:<20} {name:<36} {note}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(regressed)} regressed, {len(unresolved)} unresolved, "
          f"{len(rows) - len(regressed) - len(unresolved)} unchanged or improved")
    return 1 if regressed else 0
