"""``python -m bench --compare A.json B.json``: did B get worse than A?

Per workload and end-to-end metric: the relative change of the medians in
the metric's own direction, against the metric's bound, with both sides'
quartiles.  A change is ``unresolved`` — not "unchanged" — when either
side's run-to-run spread (quartile distance over median) is wider than the
bound, unless every run of B reads better than every run of A.  Exact
counts must be equal.  Exits non-zero on a regression or an exact-count
mismatch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from bench.metrics import EndToEnd, end_to_end_for

OK, UNRESOLVED, REGRESSION = "ok", "unresolved", "REGRESSION"


def _samples(record: Dict[str, Any], name: str) -> List[float]:
    return [rep["metrics"][name] for rep in record["reps"] if name in rep["metrics"]]


def _spread(record: Dict[str, Any], name: str) -> float:
    q1, q3 = record["quartiles"][name]
    median = record["median"][name]
    return abs(q3 - q1) / abs(median) if median else 0.0


def judge(
    metric: EndToEnd, a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[str, float]:
    """Verdict and worsening (positive = B worse, as a share of A's median;
    absolute for a zero baseline) for one metric of one workload."""
    base, new = a["median"][metric.name], b["median"][metric.name]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new - base)
    worsening = worse_by / abs(base) if base else worse_by
    if metric.name in a["quartiles"] and metric.name in b["quartiles"]:
        a_runs, b_runs = _samples(a, metric.name), _samples(b, metric.name)
        b_always_better = (
            max(sign * v for v in b_runs) < min(sign * v for v in a_runs)
        )
        noisy = (
            max(_spread(a, metric.name), _spread(b, metric.name)) > metric.bound
        )
        if noisy and not b_always_better:
            return UNRESOLVED, worsening
    if worsening > metric.bound and worse_by > metric.floor:
        return REGRESSION, worsening
    return OK, worsening


def _cell(record: Dict[str, Any], name: str) -> str:
    q = record["quartiles"].get(name)
    span = f" [{q[0]:.5g}, {q[1]:.5g}]" if q else ""
    return f"{record['median'][name]:.5g}{span}"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, bool]:
    """The comparison table and whether B passes."""
    lines = [
        f"A: commit {a['commit'][:12]} seed {a['seed']}   "
        f"B: commit {b['commit'][:12]} seed {b['seed']}",
        f"{'workload':<15}{'metric':<21}{'A median [q1, q3]':<36}"
        f"{'B median [q1, q3]':<36}{'worse by':>9}{'bound':>7}  verdict",
    ]
    passed = True
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            lines.append(f"{name:<15}missing from B")
            passed = False
            continue
        for metric in end_to_end_for(rec_a["substrate"]):
            if metric.name not in rec_a["median"] or metric.name not in rec_b["median"]:
                continue
            verdict, worsening = judge(metric, rec_a, rec_b)
            passed = passed and verdict != REGRESSION
            lines.append(
                f"{name:<15}{metric.name:<21}{_cell(rec_a, metric.name):<36}"
                f"{_cell(rec_b, metric.name):<36}"
                f"{worsening:>+9.1%}{metric.bound:>7.0%}  {verdict}"
            )
        if a["seed"] == b["seed"] and rec_a["exact"] != rec_b["exact"]:
            differing = sorted(
                k for k in set(rec_a["exact"]) | set(rec_b["exact"])
                if rec_a["exact"].get(k) != rec_b["exact"].get(k)
            )
            lines.append(f"{name:<15}exact counts DIFFER: {differing}")
            passed = False
        elif rec_a["exact"]:
            same = "equal" if a["seed"] == b["seed"] else "not compared (seeds differ)"
            lines.append(f"{name:<15}exact counts {same}")
    lines.append("PASS" if passed else "FAIL")
    return "\n".join(lines), passed


def main(path_a: str, path_b: str) -> int:
    """Entry point behind ``python -m bench --compare A.json B.json``."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    table, passed = compare(a, b)
    print(table)
    return 0 if passed else 1
