"""Registry of experiments: id -> (description, entry point).

Every entry point is a zero-argument callable returning the regenerated
table/transcript as a string: :meth:`~repro.experiments.sweep.Sweep.report`
of the declared sweep for the experiments that are one, the module's own
``report()`` for the multi-table and scripted ones.  The registry names
it by its dotted path under :mod:`repro.experiments`, so an experiment's
module is imported when it runs, never to list its description.
``run_experiment`` looks up and executes one (``repro experiment <id>``),
``run_all`` the whole evaluation (``repro all``).
"""

from __future__ import annotations

import importlib
import pathlib
from typing import Dict, Tuple

#: Experiment id -> (one-line description, entry point's dotted path).
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "F1": ("Figure 1: destination-based buffer graph", "fig1.report"),
    "F2": ("Figure 2: SSMFP two-buffer graph", "fig2.report"),
    "F3": ("Figure 3: worked execution replay", "fig3.report"),
    "F4": ("Figure 4: caterpillar taxonomy", "fig4.report"),
    "P4": ("Proposition 4: 2n invalid-delivery bound", "prop4.SWEEP.report"),
    "P5": ("Proposition 5: delivery time O(max(R_A, Delta^D))", "prop5.SWEEP.report"),
    "P6": ("Proposition 6: delay and waiting time", "prop6.SWEEP.report"),
    "P7": ("Proposition 7: amortized complexity O(max(R_A, D))", "prop7.SWEEP.report"),
    "T1": ("Comparison: SSMFP vs classical scheme", "comparison.SWEEP.report"),
    "T2": ("Overhead of snap-stabilization", "overhead.SWEEP.report"),
    "A1-A4": ("Ablations of colors, fairness, R5, literal R5", "ablations.report"),
    "X1": ("Open problem: buffers/processor vs orientation covers", "open_problem.report"),
    "X2": ("Future work: age-priority choice vs FIFO", "fast_choice.SWEEP.report"),
    "X3": ("Future work: the message-passing port", "message_passing.report"),
    "X4": ("Sustained transient faults: safety and cost", "sustained_faults.SWEEP.report"),
    "X5": ("Exhaustive model checking of small instances", "exhaustive.report"),
    "X6": ("Substrate study: the routing protocol's R_A", "routing_study.SWEEP.report"),
    "X7": ("Congestion: burst drain under growing load", "congestion.SWEEP.report"),
}


def run_experiment(exp_id: str, jsonl_path=None) -> str:
    """Run one experiment by id and return its report.

    With ``jsonl_path``, every table the run renders is also captured (via
    the reporting sink) and its rows — kind ``table_row``, stamped with
    their table's title — written there as a JSONL artifact.
    """
    try:
        description, path = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None
    module, *attrs = path.split(".")
    entry = importlib.import_module(f"repro.experiments.{module}")
    for attr in attrs:
        entry = getattr(entry, attr)
    if jsonl_path is None:
        return entry()
    from repro.obs.export import capture_tables, tables_to_rows, write_jsonl

    with capture_tables() as captured:
        report = entry()
    write_jsonl(
        jsonl_path,
        tables_to_rows(captured),
        kind="table_row",
        name=exp_id,
        meta={"experiment": exp_id, "description": description},
    )
    return report


def run_all(jsonl_dir=None) -> str:
    """Run every experiment back to back (the full evaluation); with
    ``jsonl_dir``, also write one JSONL artifact per experiment there."""
    parts = []
    for exp_id, (description, _) in EXPERIMENTS.items():
        parts.append(f"=== {exp_id}: {description} ===")
        name = f"{exp_id.replace('/', '_')}.jsonl"
        parts.append(
            run_experiment(exp_id, pathlib.Path(jsonl_dir, name) if jsonl_dir else None)
        )
        parts.append("")
    return "\n".join(parts)
