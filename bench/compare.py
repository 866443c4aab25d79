#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

Each file is what ``run.py --out`` wrote for an untraced run (side A is
usually the parent commit, side B the change).  For every workload and
end-to-end metric found on both sides it prints each side's median and
quartiles and one verdict, judged against the metric's ``bound`` in
``BENCHMARK.json`` (a share of side A's median):

* ``unresolved`` -- a side's quartile spread is wider than the bound,
  unless every B run beats every A run (then ``better``);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than the bound;
* ``unchanged`` -- otherwise.

The exit status is 0 when every verdict is ``unchanged`` or ``better``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from spec import load_spec, metric_table, quartiles

#: Verdicts that pass.
PASSING = ("unchanged", "better")


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Judge side B's values against side A's for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    scale = abs(med_a) or 1.0
    if sign > 0:
        b_beats_all = max(b) < min(a)
    else:
        b_beats_all = min(b) > max(a)
    if max(q3a - q1a, q3b - q1b) / scale > bound:
        return "better" if b_beats_all else "unresolved"
    change = sign * (med_b - med_a) / scale
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def _values(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced run files."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc["header"]["trace"]:
            print(f"compare.py: skipping traced run {path}", file=sys.stderr)
            continue
        for workload, record in doc["workloads"].items():
            for metric, m in record["metrics"].items():
                out.setdefault((workload, metric), []).append(m["value"])
    return out


def compare(a_paths: Sequence[str], b_paths: Sequence[str],
            spec: Optional[dict] = None) -> List[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    table = metric_table(spec if spec is not None else load_spec(),
                         "end_to_end")
    a, b = _values(a_paths), _values(b_paths)
    rows = []
    for workload, metric in sorted(set(a) & set(b)):
        if metric not in table:
            continue
        m = table[metric]
        va, vb = a[(workload, metric)], b[(workload, metric)]
        qa, qb = quartiles(va), quartiles(vb)
        rows.append({
            "workload": workload, "metric": metric, "unit": m["unit"],
            "a": qa, "b": qb, "runs": (len(va), len(vb)),
            "change": (qb[1] - qa[1]) / (abs(qa[1]) or 1.0),
            "bound": m["bound"],
            "verdict": verdict(va, vb, m["bound"], m["better"]),
        })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    split = args.index("--")
    a_paths, b_paths = args[:split], args[split + 1:]
    if not a_paths or not b_paths:
        print("compare.py: give at least one run file on each side of --",
              file=sys.stderr)
        return 2
    rows = compare(a_paths, b_paths)

    def fmt(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':<17} {'metric':<14} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'change':>8} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<17} {r['metric']:<14} {fmt(r['a']):<36} "
              f"{fmt(r['b']):<36} {r['change']:>+8.1%} {r['bound']:>6.0%}  "
              f"{r['verdict']}")
    return 0 if rows and all(r["verdict"] in PASSING for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
