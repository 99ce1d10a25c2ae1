"""The parent side: start one child per rep, aggregate, judge, report.

A workload is measured as N untraced reps (end-to-end metrics: medians,
quartiles, sample count) followed by one traced rep (per-layer metrics and
the tracing overhead).  Seed-deterministic counts are compared for equality
across every rep of a seed.  One workload runs at a time and one child at a
time: the box has two cores and the child is the only load generator.  A
``BENCHMARK.json`` run (:func:`measure_steady`) repeats the workload inside
one child instead and divides the box's slowdown out of every time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from bench import ROOT, SCHEMA
from bench.calibrate import slowdown, spin
from bench.metrics import PER_LAYER_BY_NAME, end_to_end_for, per_layer_for
from bench.workloads import FULL, SMOKE, WORKLOADS, Workload

#: A full-size rep takes 5-10 s here; a child that needs over a minute is
#: stuck or the box is unusable, and a run has to end within 180 s.
CHILD_TIMEOUT_S = 75.0

#: Set-up-only children of a ``BENCHMARK.json`` run: ``setup_s`` is the
#: median over them.
SETUPS = 7

ASSUMPTIONS = (
    "2-core shared box, one load-generating process, no worker pools, "
    "loopback only, closed batch (whole input submitted up front)"
)


def spawn_rep(
    workload: Workload,
    seed: int,
    size: str,
    trace: bool = False,
    setup_only: bool = False,
    spans_out: str = "",
    seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one rep in a fresh child process and return its record; a child
    that crashes, hangs or prints no record yields a failed rep."""
    cmd = [
        sys.executable, "-m", "bench", "--child",
        "--workload", workload.name,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--size", size,
        "--spawned", repr(time.monotonic()),
    ]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return _crashed(f"child exceeded {CHILD_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return _crashed(f"child exited {proc.returncode}: {tail}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return _crashed(f"child printed no record: {lines[-1][:200]}")


def _crashed(why: str) -> Dict[str, Any]:
    return {
        "metrics": {}, "exact": {}, "attempted": 1, "failed": 1,
        "problems": [why], "crashed": True,
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """First and third quartile (``statistics.quantiles(n=4)``); a single
    sample is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def measure(
    workload: Workload,
    seed: int,
    size: str = FULL,
    reps: int = 5,
    traced: bool = True,
    spans_out: str = "",
    log=print,
) -> Dict[str, Any]:
    """Measure one workload — ``reps`` untraced reps, then a traced one —
    and return its result record."""
    untraced: List[Dict[str, Any]] = []
    while len(untraced) < reps:
        rep = spawn_rep(workload, seed, size)
        untraced.append(rep)
        log(f"  {workload.name} rep {len(untraced)}: {_rep_line(rep)}")
        if rep.get("crashed"):
            break
    traced_rep = None
    if traced and not untraced[-1].get("crashed"):
        traced_rep = spawn_rep(workload, seed, size, trace=True, spans_out=spans_out)
        log(f"  {workload.name} traced: {_rep_line(traced_rep)}")

    return _aggregate(workload, size, untraced, traced_rep)


def measure_steady(
    workload: Workload, seed: int, size: str, seconds: float, log=print
) -> Dict[str, Any]:
    """The end-to-end metrics of one ``BENCHMARK.json`` run.

    One child passes over the workload again and again for ``seconds``
    (same seed, so every pass does the same work), unit by unit — a unit is
    the whole workload, or one instance of ``verify-small4``.  Every timed
    thing is divided by the slowdown of the box around it
    (:mod:`bench.calibrate`), and a unit counts with the median over its
    passes: ``wall_s`` is the sum of the units' medians, ``work_per_s``
    their work over their median run phases.  ``setup_s`` is the median
    over ``SETUPS`` set-up-only children.
    """
    child = spawn_rep(workload, seed, size, seconds=seconds)
    problems = list(child["problems"])
    passes = child.get("passes", [])
    records = [unit for units in passes for unit in units]
    attempted = child["attempted"] + sum(r["attempted"] for r in records)
    failed = child["failed"] + sum(r["failed"] for r in records)
    problems += [p for r in records for p in r["problems"]]
    for index, units in enumerate(passes):
        if [u["exact"] for u in units] != [u["exact"] for u in passes[0]]:
            problems.append(f"exact counts of pass {index + 1} differ from pass 1")
            failed += 1
        log(f"  {workload.name} pass {index + 1}: " + " + ".join(
            f"{u['metrics']['wall_s']:.3f}/{u['slowdown']:.2f}" for u in units)
            + " s/slowdown")

    setup_samples = []
    spin()  # the first one in a process is slow: the interpreter warms up
    for _ in range(SETUPS):
        before_s = spin()
        extra = spawn_rep(workload, seed, size, setup_only=True)
        if "setup_s" in extra["metrics"]:
            setup_samples.append(
                extra["metrics"]["setup_s"] / slowdown(before_s, spin())
            )
        else:
            problems += extra["problems"]
            failed += 1

    metrics: Dict[str, float] = {}
    if passes and setup_samples:
        by_unit = list(zip(*passes))
        wall_s = sum(
            statistics.median(u["metrics"]["wall_s"] / u["slowdown"] for u in unit)
            for unit in by_unit
        )
        run_s = sum(
            statistics.median(u["run_s"] / u["slowdown"] for u in unit)
            for unit in by_unit
        )
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "work_per_s": sum(u["work"] for u in passes[0]) / run_s,
            "peak_rss_mb": max(u["metrics"]["peak_rss_mb"] for u in records),
        }
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "ok": failed == 0 and bool(metrics),
    }


def _rep_line(rep: Dict[str, Any]) -> str:
    if rep["problems"]:
        return "FAILED " + "; ".join(rep["problems"])[:300]
    m = rep["metrics"]
    return (
        f"wall_s={m['wall_s']:.3f} work_per_s={m['work_per_s']:.1f} "
        f"setup_s={m['setup_s']:.3f} peak_rss_mb={m['peak_rss_mb']:.1f}"
    )


def _aggregate(
    workload: Workload,
    size: str,
    untraced: List[Dict[str, Any]],
    traced_rep: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    substrate = workload.substrate
    every = untraced + ([traced_rep] if traced_rep else [])
    problems = [p for rep in every for p in rep["problems"]]
    attempted = sum(rep["attempted"] for rep in every)
    failed = sum(rep["failed"] for rep in every)

    median: Dict[str, float] = {}
    spread: Dict[str, List[float]] = {}
    for metric in end_to_end_for(substrate):
        values = [
            r["metrics"][metric.name] for r in untraced
            if metric.name in r["metrics"]
        ]
        if len(values) < len(untraced):
            problems.append(f"metric {metric.name} missing from a rep")
            failed += 1
            continue
        median[metric.name] = statistics.median(values)
        spread[metric.name] = quartiles(values)

    exact = untraced[0]["exact"]
    exact_identical = all(rep["exact"] == exact for rep in every)
    if not exact_identical:
        problems.append("exact counts differ between reps of one seed")
        failed += 1

    record: Dict[str, Any] = {
        "substrate": substrate,
        "why": workload.why,
        "params": workload.sized(size),
        "samples": len(untraced),
        "median": median,
        "quartiles": spread,
        "exact": exact,
        "exact_identical": exact_identical,
        "reps": [
            {k: rep[k] for k in ("metrics", "exact", "attempted", "failed", "info")
             if k in rep}
            for rep in untraced
        ],
        "traced": None,
    }
    if traced_rep is not None and "layers" in traced_rep:
        layers = {**traced_rep["exact"], **traced_rep["layers"]}
        if "wall_s" in median:
            layers["bench.trace_overhead_ratio"] = (
                traced_rep["metrics"]["wall_s"] / median["wall_s"]
            )
        missing = [p.name for p in per_layer_for(substrate) if p.name not in layers]
        unknown = [name for name in layers if name not in PER_LAYER_BY_NAME]
        if missing or unknown:
            problems.append(f"per-layer metrics missing {missing} unknown {unknown}")
            failed += 1
        record["traced"] = {
            "metrics": traced_rep["metrics"],
            "layers": layers,
            "spans": traced_rep["spans"],
        }
    median["failed_share"] = failed / attempted
    record.update(
        attempted=attempted, failed=failed, problems=problems, ok=failed == 0
    )
    return record


def environment(seed: int, size: str) -> Dict[str, Any]:
    """The header of a result file."""
    return {
        "schema": SCHEMA,
        "commit": _commit(),
        "seed": seed,
        "smoke": size == SMOKE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "assumptions": ASSUMPTIONS,
    }


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_suite(
    names: Sequence[str],
    seed: int,
    size: str,
    reps: int,
    spans_dir: str = "",
    log=print,
) -> Dict[str, Any]:
    """Measure the named workloads one after another; returns the result
    file's content."""
    results = environment(seed, size)
    results["workloads"] = {}
    for name in names:
        workload = WORKLOADS[name]
        log(f"{name}: {workload.why}")
        spans_out = (
            os.path.join(spans_dir, f"spans-{name}-seed{seed}.jsonl")
            if spans_dir else ""
        )
        results["workloads"][name] = measure(
            workload, seed, size=size, reps=reps, spans_out=spans_out, log=log
        )
    results["ok"] = all(w["ok"] for w in results["workloads"].values())
    return results


def format_report(results: Dict[str, Any]) -> str:
    """Every metric by name with its unit, per workload."""
    lines = [
        f"bench {results['schema']} commit={results['commit'][:12]} "
        f"seed={results['seed']} nproc={results['nproc']} "
        f"python={results['python']}" + (" SMOKE" if results["smoke"] else ""),
        f"box: {results['assumptions']}",
    ]
    for name, record in results["workloads"].items():
        substrate = record["substrate"]
        lines.append("")
        lines.append(f"== {name}: {record['why']}")
        lines.append(
            f"   end-to-end, {record['samples']} untraced reps: "
            f"median [q1, q3]  (bound)"
        )
        for metric in end_to_end_for(substrate):
            if metric.name not in record["median"]:
                continue
            q = record["quartiles"].get(metric.name)
            span = f"[{q[0]:.6g}, {q[1]:.6g}]" if q else ""
            lines.append(
                f"     {metric.name:<22}{record['median'][metric.name]:>14.6g} "
                f"{metric.unit:<9}{span:<28}({metric.bound:g})"
            )
        if record["exact"]:
            verdict = "identical" if record["exact_identical"] else "DIFFER"
            lines.append(f"   exact counts, {verdict} across all reps:")
            for key, value in record["exact"].items():
                lines.append(f"     {key:<44}{value:>14.6g}")
        traced = record["traced"]
        if traced:
            lines.append("   per-layer, traced rep:")
            for layer in per_layer_for(substrate):
                if layer.exact or layer.name not in traced["layers"]:
                    continue
                lines.append(
                    f"     {layer.name:<44}{traced['layers'][layer.name]:>14.6g} "
                    f"{layer.unit}"
                )
        lines.append(
            f"   checks: {'ok' if record['ok'] else 'FAILED'} "
            f"(failed {record['failed']} of {record['attempted']} attempted)"
        )
        for problem in record["problems"][:5]:
            lines.append(f"     ! {problem[:300]}")
    lines.append("")
    lines.append("all checks passed" if results["ok"] else "SOME CHECKS FAILED")
    return "\n".join(lines)
