"""Run records: reproducibility as an artifact.

Every stochastic element of a simulation is seeded, so a scenario spec
determines its simulate-target execution bit for bit — chaos schedule
included.  A :class:`RunRecord` couples the canonical spec with the
outcome fingerprint of one run (steps, rounds, per-rule move counts,
delivery counts), so anyone can re-execute the spec and
:func:`verify_record` that they got the identical execution.  Records
serialize to JSON (``repro record`` / ``repro verify`` on the command
line).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.errors import ConfigurationError, ReproError
from repro.scenario.simdriver import run_sim_scenario
from repro.scenario.spec import ScenarioSpec

_FINGERPRINT_KEYS = (
    "steps", "rounds", "rule_counts", "generated", "delivered",
    "invalid_delivered", "routing_correct",
)


@dataclass
class RunRecord:
    """A canonical scenario dict plus the outcome fingerprint of one
    deterministic run of it on the simulator."""

    spec: Dict[str, Any]
    outcome: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to a JSON document."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Parse a record previously produced by :meth:`to_json`."""
        data = json.loads(text)
        unknown = sorted(set(data) - {"spec", "outcome"})
        if unknown:
            # e.g. the ``max_steps`` of a pre-scenario record, whose run
            # ``budgets.max_steps`` would silently replace.
            raise ValueError(
                f"unknown key(s) {unknown}; a record is {{spec, outcome}}"
            )
        return cls(spec=data["spec"], outcome=data.get("outcome", {}))

    @classmethod
    def load(cls, path) -> "RunRecord":
        """Read a record file; an unreadable or malformed one is one
        :class:`ConfigurationError`."""
        try:
            return cls.from_json(Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read record: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{path} is not a run record: {exc}"
            ) from None


def _fingerprint(spec: ScenarioSpec) -> Dict[str, Any]:
    metrics = run_sim_scenario(spec).metrics
    return {key: metrics[key] for key in _FINGERPRINT_KEYS}


def record_scenario(spec: ScenarioSpec) -> RunRecord:
    """Execute the scenario once and capture its outcome fingerprint."""
    return RunRecord(spec=spec.to_dict(), outcome=_fingerprint(spec))


def record_file(path) -> RunRecord:
    """Record the spec file at ``path`` on the simulator; a spec that
    does not load or run is one :class:`ConfigurationError`."""
    try:
        return record_scenario(ScenarioSpec.from_file(path, target="simulate"))
    except ReproError as exc:
        raise ConfigurationError(f"spec rejected: {exc}") from None


def verify_record(record: RunRecord) -> List[str]:
    """Re-run a record's spec; return the list of fingerprint mismatches
    (empty == bit-identical reproduction).  A spec that no longer runs is
    one :class:`ConfigurationError`."""
    try:
        fresh = _fingerprint(ScenarioSpec.from_dict(record.spec))
    except ReproError as exc:
        raise ConfigurationError(f"record's spec no longer runs: {exc}") from None
    problems: List[str] = []
    for key, expected in record.outcome.items():
        got = fresh.get(key)
        if got != expected:
            problems.append(f"{key}: recorded {expected!r}, reproduced {got!r}")
    return problems
