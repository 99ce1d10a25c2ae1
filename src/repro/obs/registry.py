"""The metrics registry: counters, gauges and histograms.

``repro.obs`` is the structured observability layer: where the ledger and
the message tracer capture *what happened* in one execution, the registry
captures *how much and how expensive* — per-rule/per-protocol execution
counts and wall-time, guard-evaluation counts, round and neutralization
events — as named, labeled instruments that export to schema-versioned
JSONL rows (:mod:`repro.obs.export`).

Instrumentation is strictly opt-in.  The :class:`Simulator` takes an
optional registry and guards every record with a single ``is not None``
check, so a run without a registry (``obs=None``) pays nothing.

Histograms use the repo's exact nearest-rank percentiles
(:func:`repro.sim.stats.summarize`) — no new numeric dependencies.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: Version tag stamped on every exported row; bump on breaking changes.
SCHEMA = "repro.obs/v1"

#: Canonical (sorted) label form used as part of instrument keys.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (int or float — wall-clock
    accumulators are counters too)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative to stay a counter)."""
        self.value += amount


class Gauge:
    """A point-in-time value, overwritten on every set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A sample distribution summarized by nearest-rank percentiles.

    Keeps every observation (runs that enable observability are
    measurement runs); ``summary()`` is computed on demand.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.samples.append(value)

    def summary(self) -> Dict[str, float]:
        """min/p50/p90/p99/max/mean/n of the sample (``{"n": 0}`` empty)."""
        from repro.sim.stats import summarize

        return summarize(self.samples)


class MetricsRegistry:
    """Named, labeled instruments with JSONL export.

    Instruments are created on first use and shared thereafter:
    ``registry.counter("rule_executions", protocol=proto.name, rule="R2")``
    always returns the same :class:`Counter` for the same name/labels
    (label by the protocol's ``name`` attribute, never a hardcoded string,
    so family members stay distinguishable in exported artifacts).
    Hot paths should hold the returned instrument instead of re-resolving
    it every event.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument access -------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name{labels}``."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, **labels: object) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram()
        return inst

    # -- one-shot convenience ----------------------------------------------------

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Add one observation to the histogram ``name{labels}``."""
        self.histogram(name, **labels).observe(value)

    # -- queries -----------------------------------------------------------------

    def value(self, name: str, **labels: object) -> Optional[float]:
        """Current value of a counter or gauge, None if never touched."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key) or self._gauges.get(key)
        return None if inst is None else inst.value

    def counters(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield ``(name, labels, value)`` for every counter, sorted."""
        for (name, labels), inst in sorted(self._counters.items()):
            yield name, dict(labels), inst.value

    # -- export ------------------------------------------------------------------

    def rows(self) -> List[Dict[str, object]]:
        """Every instrument as a schema-versioned JSONL-ready row."""
        out: List[Dict[str, object]] = []
        for (name, labels), counter in sorted(self._counters.items()):
            out.append(
                {
                    "schema": SCHEMA,
                    "kind": "metric",
                    "type": "counter",
                    "metric": name,
                    "labels": dict(labels),
                    "value": counter.value,
                }
            )
        for (name, labels), gauge in sorted(self._gauges.items()):
            out.append(
                {
                    "schema": SCHEMA,
                    "kind": "metric",
                    "type": "gauge",
                    "metric": name,
                    "labels": dict(labels),
                    "value": gauge.value,
                }
            )
        for (name, labels), hist in sorted(self._histograms.items()):
            row: Dict[str, object] = {
                "schema": SCHEMA,
                "kind": "metric",
                "type": "histogram",
                "metric": name,
                "labels": dict(labels),
            }
            row.update(hist.summary())
            out.append(row)
        return out
