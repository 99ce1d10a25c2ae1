"""Chaos campaigns: matrix expansion × repetition × parallel execution.

A campaign takes one scenario spec and runs the whole family it denotes:
the cartesian product of its ``matrix`` axes (dotted paths into the spec,
e.g. ``"topology.kwargs.n" = [6, 10]``), each combination repeated
``repeat`` times with per-run seed offsets.  Every ``(combination,
repetition)`` is its own run, so a single combination with many repeats
saturates a process pool as well as many combinations do; rows come back
in expansion order and a pooled campaign returns the same rows as a
serial one, modulo wall-clock ``elapsed_s``.  Every run writes its own
``repro.obs/v1`` artifact (fault timeline included), and the summary
JSONL is diffable with ``repro obs diff``.
"""

from __future__ import annotations

import copy
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenario.result import ScenarioResult
from repro.scenario.spec import ScenarioSpec


def _set_path(data: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    cursor = data
    for part in parts[:-1]:
        nxt = cursor.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            cursor[part] = nxt
        cursor = nxt
    cursor[parts[-1]] = value


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "run"


def expand_matrix(data: Dict[str, Any]) -> List[Tuple[str, ScenarioSpec]]:
    """All (label, validated spec) runs a campaign spec denotes.

    Axes apply in sorted-path order, repetitions innermost with the seed
    offset by the repetition index; every expanded dict is validated here,
    once — the run takes the :class:`ScenarioSpec` as it is — so an axis
    value that breaks the spec fails at expansion time with a readable
    error naming the combo.
    """
    base_spec = ScenarioSpec.from_dict(data)  # validates the base shape
    matrix = base_spec.matrix
    repeat = base_spec.repeat
    template = base_spec.to_dict()
    template.pop("matrix", None)
    template["repeat"] = 1

    axes = sorted(matrix)
    combos = list(product(*(matrix[axis] for axis in axes))) if axes else [()]
    runs: List[Tuple[str, ScenarioSpec]] = []
    for combo in combos:
        data_combo = copy.deepcopy(template)
        parts: List[str] = []
        for axis, value in zip(axes, combo):
            _set_path(data_combo, axis, value)
            parts.append(f"{axis.split('.')[-1]}={value}")
        for rep in range(repeat):
            run_data = copy.deepcopy(data_combo)
            run_data["seed"] = int(run_data.get("seed", 0)) + rep
            label_parts = list(parts)
            if repeat > 1:
                label_parts.append(f"rep={rep}")
            label = (
                f"{base_spec.name}[{','.join(label_parts)}]"
                if label_parts
                else base_spec.name
            )
            try:
                runs.append((label, ScenarioSpec.from_dict(run_data)))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{label}: {exc}") from None
    return runs


def run_one_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Dispatch one validated scenario to its target's compiler."""
    if spec.target == "runtime":
        from repro.scenario.runtimedriver import run_runtime_scenario

        return run_runtime_scenario(spec)
    from repro.scenario.simdriver import run_sim_scenario

    return run_sim_scenario(spec)


def _scenario_row(
    *,
    spec: ScenarioSpec,
    label: str,
    smoke: bool = False,
    artifact_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One campaign run → one summary row.  Module-level (not a closure)
    so :func:`_pool_map` can ship it, and the validated (picklable) spec,
    to worker processes."""
    if smoke:
        spec = spec.smoked()
    result = run_one_scenario(spec)
    row = result.row()
    row["label"] = label
    if artifact_dir is not None:
        path = Path(artifact_dir) / f"{_slug(label)}.jsonl"
        result.write_artifact(path, name=label)
        row["artifact"] = str(path)
    return row


def _run_captured(
    runner: Callable[..., Dict[str, Any]], config: Dict[str, Any]
) -> Dict[str, Any]:
    """One row: ``runner(**config)`` stamped with ``elapsed_s``; an
    exception becomes an ``error`` row (a diverging run must not take
    down the campaign)."""
    started = time.perf_counter()
    try:
        row = runner(**config)
    except Exception as exc:  # noqa: BLE001 - captured per-row
        row = {"error": f"{type(exc).__name__}: {exc}"}
    row.setdefault("elapsed_s", round(time.perf_counter() - started, 3))
    return row


def _pool_map(
    runner: Callable[..., Dict[str, Any]],
    configs: List[Dict[str, Any]],
    workers: Optional[int],
) -> List[Dict[str, Any]]:
    """``runner(**config)`` for every config, rows in config order whichever
    worker finishes first.  ``workers`` > 1 fans out over that many
    processes (the runner must then be picklable: a module-level function,
    not a lambda or closure)."""
    if workers is None or workers <= 1 or len(configs) <= 1:
        return [_run_captured(runner, config) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_captured, [runner] * len(configs), configs))


@dataclass
class CampaignResult:
    """Outcome of a whole campaign."""

    name: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and all(
            row.get("verdict") == "PASS" and "error" not in row
            for row in self.rows
        )

    @property
    def passed(self) -> int:
        return sum(1 for row in self.rows if row.get("verdict") == "PASS")

    def summary(self) -> str:
        from repro.sim.reporting import format_table

        columns = ["label", "target", "protocol", "verdict", "steps",
                   "rounds", "generated", "delivered", "faults_injected",
                   "elapsed_s"]
        extra = [
            row for row in self.rows
            if row.get("failures") or row.get("error")
        ]
        lines = [
            format_table(
                self.rows, columns=columns,
                title=f"[campaign] {self.name}: "
                      f"{self.passed}/{len(self.rows)} PASS",
            )
        ]
        for row in extra:
            reason = row.get("failures") or row.get("error")
            lines.append(f"  {row.get('label', '?')}: {reason}")
        return "\n".join(lines)


def run_campaign(
    data: Dict[str, Any],
    *,
    target: Optional[str] = None,
    smoke: bool = False,
    workers: Optional[int] = None,
    artifact_dir: Optional[str] = None,
    jsonl_path: Optional[str] = None,
) -> CampaignResult:
    """Expand and run a whole campaign.

    Spec/axis errors raise :class:`ConfigurationError` (CLI exit 2);
    individual run failures are captured as rows (campaign ``ok`` False,
    CLI exit 1) so one diverging combo never hides the rest.
    """
    if target is not None:
        data = {**data, "target": target}
    runs = expand_matrix(data)
    configs: List[Dict[str, Any]] = [
        {
            "spec": spec,
            "label": label,
            "smoke": smoke,
            "artifact_dir": artifact_dir,
        }
        for label, spec in runs
    ]
    rows = _pool_map(_scenario_row, configs, workers)
    for row, (label, _) in zip(rows, runs):
        row.setdefault("label", label)  # error rows carry no identity yet
    campaign = CampaignResult(name=str(data.get("name", "campaign")), rows=rows)
    if jsonl_path is not None:
        from repro.obs.export import write_jsonl

        # The per-run artifact path is machine-local bookkeeping; keeping
        # it out of the summary rows lets `repro obs diff` align the same
        # campaign across checkouts and artifact directories.
        write_jsonl(
            jsonl_path,
            [{k: v for k, v in row.items() if k != "artifact"} for row in rows],
            kind="scenario_row",
            name=campaign.name,
            meta={
                "runs": len(rows),
                "passed": campaign.passed,
                "smoke": smoke,
                "target": target or "spec",
            },
        )
    return campaign
