"""Scenario outcomes: one shape for both targets.

A :class:`ScenarioResult` carries the verdict (pass criteria evaluated
against the run's metrics), the fault-event timeline, and the prebuilt
``repro.obs/v1`` rows — so the campaign driver and the CLI never care
which compiler produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def evaluate_pass(
    criteria: Dict[str, Any], metrics: Dict[str, Any]
) -> List[str]:
    """Evaluate pass criteria against run metrics; returns the list of
    violated criteria (empty == PASS).  A ceiling of 0 means "no ceiling"
    so TOML specs can spell the default explicitly."""
    failures: List[str] = []
    if criteria.get("deliver_all", True):
        generated = metrics.get("generated", 0)
        delivered = metrics.get("delivered", 0)
        expected = metrics.get("expected", generated)
        if generated < expected:
            failures.append(
                f"deliver_all: only {generated}/{expected} messages generated"
            )
        if delivered < generated:
            failures.append(
                f"deliver_all: {delivered}/{generated} generated messages delivered"
            )
    max_dup = int(criteria.get("max_duplicates", 0))
    if metrics.get("duplicates", 0) > max_dup:
        failures.append(
            f"max_duplicates: {metrics['duplicates']} > {max_dup}"
        )
    for key, metric in (
        ("max_steps", "steps"),
        ("max_rounds", "rounds"),
        ("max_wall_s", "elapsed_s"),
        ("max_latency_p99_s", "latency_p99_s"),
    ):
        ceiling = criteria.get(key, 0)
        if ceiling and metrics.get(metric) is not None:
            if metrics[metric] > ceiling:
                failures.append(f"{key}: {metrics[metric]} > {ceiling}")
    return failures


@dataclass
class ScenarioResult:
    """Outcome of one scenario run on one target."""

    name: str
    target: str
    protocol: str
    ok: bool
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The fault timeline: step-stamped (simulate) or mono-stamped
    #: (runtime) transition dicts, in injection order.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Prebuilt ``repro.obs/v1`` rows (metrics + traces + fault events).
    obs_rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def row(self) -> Dict[str, Any]:
        """One flat campaign-summary row."""
        row: Dict[str, Any] = {
            "scenario": self.name,
            "target": self.target,
            "protocol": self.protocol,
            "verdict": self.verdict,
            "faults_injected": len(self.fault_events),
        }
        for key in ("generated", "delivered", "duplicates", "steps",
                    "rounds", "elapsed_s", "latency_p99_s"):
            if self.metrics.get(key) is not None:
                row[key] = self.metrics[key]
        if self.failures:
            row["failures"] = "; ".join(self.failures)
        return row

    def write_artifact(self, path, name: Optional[str] = None) -> int:
        """Write the run's ``repro.obs/v1`` artifact (metrics, traces and
        the fault timeline); returns the number of rows written."""
        from repro.obs.export import write_jsonl

        return write_jsonl(
            path,
            self.obs_rows,
            kind="metric",
            name=name or self.name,
            meta={
                "scenario": self.name,
                "target": self.target,
                "protocol": self.protocol,
                "verdict": self.verdict,
            },
        )

    def summary(self) -> str:
        """Human-readable run summary (printed by the CLI)."""
        metric_bits = " ".join(
            f"{key}={self.metrics[key]}"
            for key in ("generated", "delivered", "duplicates", "steps",
                        "rounds", "elapsed_s")
            if self.metrics.get(key) is not None
        )
        lines = [
            f"scenario [{self.verdict}] {self.name} target={self.target} "
            f"protocol={self.protocol} faults={len(self.fault_events)}",
        ]
        if metric_bits:
            lines.append(f"  {metric_bits}")
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)
