"""``repro.obs`` — the structured observability layer.

Three zero-dependency pieces, all strictly opt-in (a run that enables none
of them pays nothing):

* :class:`MetricsRegistry` — counters, gauges and histograms the
  :class:`~repro.statemodel.scheduler.Simulator` feeds with
  per-rule/per-protocol execution counts and wall-time, guard-evaluation
  counts, and round/neutralization events;
* :class:`MessageTracer` — per-message causal timelines (submit → R1 →
  bufE/bufR hops → R4 release → R6 delivery) built from ledger + buffer
  notifier hooks;
* :mod:`repro.obs.export` — schema-versioned JSONL artifacts
  (write/validate/summarize/diff) plus :func:`capture_tables`, which turns
  every ASCII table in the repo into a machine-readable twin.

See ``docs/observability.md`` for the full story and the overhead numbers.
"""

from repro.obs.export import (
    Artifact,
    capture_tables,
    diff_artifacts,
    read_artifact,
    summarize_artifact,
    tables_to_rows,
    write_jsonl,
)
from repro.obs.registry import SCHEMA, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import LifecycleEvent, MessageTracer

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MessageTracer",
    "LifecycleEvent",
    "Artifact",
    "write_jsonl",
    "read_artifact",
    "summarize_artifact",
    "diff_artifacts",
    "capture_tables",
    "tables_to_rows",
]
