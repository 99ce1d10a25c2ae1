"""Conformance: checking a live run against the paper's specification.

A live run is not deterministic — asyncio scheduling, OS timers and real
sockets see to that — so unlike the state-model verifiers we cannot replay
it bit for bit.  What we *can* do is record every generate/deliver event
and check the properties the specification SP demands of any execution:

* **SP-2 / exactly-once** — every valid generated message is delivered at
  its destination, and only once.  Retrying senders and duplicating
  transports make "only once" a real claim: one deduplication bug and the
  oracle sees a double delivery.
* **No phantoms** — nothing is delivered that was never generated.
* **Sequence consistency** — for each (source, destination) pair,
  deliveries occur in generation order (the per-destination lanes are
  FIFO, so the runtime must preserve per-pair order end to end).

The verdict is one sort and two passes over plain dicts: it makes the four
non-strict checks of :class:`~repro.core.ledger.DeliveryLedger` itself,
violation strings included.  The ledger-backed verdict it replaced is the
oracle in ``tests/reference_conformance.py``, and equal reports from the two
(``tests/test_conformance_differential.py``) are what keeps the simulated
and live execution paths judged by one specification.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.statemodel.message import Message
from repro.types import DestId, ProcId


class RuntimeEvent(NamedTuple):
    """One conformance event from a live node.

    ``order`` is the node-local event index: events of one node are totally
    ordered, which is all sequence consistency needs (generations order at
    the source, deliveries order at the destination).  Two timestamps, two
    jobs: ``t`` is a wall-clock stamp for human-readable report rows only;
    ``mono`` is ``time.monotonic()`` (CLOCK_MONOTONIC — comparable across
    processes on one machine) and is the *only* stamp durations may be
    computed from — a wall-clock step (NTP, manual adjustment) between two
    events must never skew a latency metric.  Neither is used for
    correctness.  ``mono == 0.0`` marks an event from a source that does
    not stamp monotonic time (synthetic test events); duration metrics
    skip such pairs.

    A named tuple: ``HopCore._append_event`` builds one positionally per
    generation and per delivery, so the field order is part of the contract.
    """

    kind: str       #: "generated" | "delivered"
    uid: int
    node: ProcId    #: source for generations, destination for deliveries
    dest: DestId
    valid: bool
    t: float        #: wall clock — for exported rows, never for durations
    order: int
    mono: float = 0.0  #: monotonic clock — the duration domain

    def as_message(self, source: Optional[ProcId]) -> Message:
        """Bridge to the ledger's message shape."""
        return Message(
            payload=None,
            last=self.node,
            color=0,
            dest=self.dest,
            uid=self.uid,
            valid=self.valid,
            source=source,
            born_step=0,
        )


@dataclass
class ConformanceReport:
    """The verdict over one live run's event log."""

    generated: int = 0
    delivered: int = 0
    invalid_delivered: int = 0
    duplicates: int = 0
    undelivered: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    sequence_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the run satisfies every checked property."""
        return (
            not self.violations
            and not self.sequence_violations
            and not self.undelivered
            and self.duplicates == 0
        )

    def summary(self) -> str:
        """Human-readable verdict."""
        lines = [
            f"conformance: generated={self.generated} "
            f"delivered={self.delivered} duplicates={self.duplicates} "
            f"undelivered={len(self.undelivered)} "
            f"invalid_delivered={self.invalid_delivered}"
        ]
        for label, texts in (
            ("VIOLATION", self.violations),
            ("SEQUENCE ", self.sequence_violations),
        ):
            for text in texts[:20]:
                lines.append(f"  {label} {text}")
            if len(texts) > 20:
                lines.append(f"  ... {len(texts) - 20} more")
        if self.undelivered:
            shown = ", ".join(str(u) for u in self.undelivered[:10])
            more = "" if len(self.undelivered) <= 10 else ", ..."
            lines.append(f"  UNDELIVERED uids: {shown}{more}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


_ORDER = attrgetter("order")


def _node_ordered(events: Iterable[RuntimeEvent]) -> List[RuntimeEvent]:
    """``events`` stably sorted by ``(node, order)``: bucketed by node, each
    bucket sorted on the bare ``order``.  A tuple sort key would be one
    collector-tracked allocation per event, and at 200,000 events those
    set off a full collection of the finished run's heap in mid-sort."""
    logs: Dict[ProcId, List[RuntimeEvent]] = defaultdict(list)
    for event in events:
        logs[event.node].append(event)
    ordered: List[RuntimeEvent] = []
    for node in sorted(logs):
        ordered.extend(sorted(logs[node], key=_ORDER))
    return ordered


def check_events(
    events: Iterable[RuntimeEvent],
    expect_generated: Optional[int] = None,
) -> ConformanceReport:
    """Judge a run's event log; see the module docstring for the claims.

    ``expect_generated``, when given, additionally checks that the run
    generated exactly that many messages (a soak that silently failed to
    submit its workload must not pass vacuously).
    """
    # Node-local order is the only order that exists (there is no global
    # clock in a live run), and a delivery may sort before its generation
    # at a later node: index every generation, then judge the deliveries.
    report = ConformanceReport()
    generated: Dict[int, RuntimeEvent] = {}
    pair_generated: Dict[Tuple[ProcId, DestId], List[int]] = defaultdict(list)
    deliveries: List[RuntimeEvent] = []
    for event in _node_ordered(events):
        kind = event.kind
        if kind == "generated":
            if not event.valid:
                raise ValueError(f"a generation must be valid, got {event!r}")
            report.generated += 1
            generated[event.uid] = event
            pair_generated[event.node, event.dest].append(event.uid)
        elif kind == "delivered":
            deliveries.append(event)
        else:
            report.violations.append(f"unknown event kind {kind!r}")
    delivered_uids: Set[int] = set()
    # Keyed (source, delivering node); deliveries are sorted by node, so
    # the keys come out grouped by destination in first-delivery order.
    pair_delivered: Dict[Tuple[ProcId, DestId], List[int]] = defaultdict(list)
    for event in deliveries:
        if not event.valid:
            report.invalid_delivered += 1
            continue
        report.delivered += 1
        uid = event.uid
        at = event.node
        problems: List[str] = []
        origin = generated.get(uid)
        if origin is None:
            problems.append(f"delivery of unknown valid uid {uid}")
        else:
            if at != origin.dest:
                problems.append(
                    f"uid {uid} delivered at {at}, destination is {origin.dest}"
                )
            pair_delivered[origin.node, at].append(uid)
        if uid in delivered_uids:
            problems.append(f"uid {uid} delivered twice (duplication)")
        else:
            delivered_uids.add(uid)
        if problems:
            report.violations.append("; ".join(problems))
    report.duplicates = report.delivered - len(delivered_uids)
    report.undelivered = sorted(generated.keys() - delivered_uids)
    if expect_generated is not None and report.generated != expect_generated:
        report.violations.append(
            f"generated {report.generated} messages, expected {expect_generated}"
        )
    # FIFO lanes: each pair's deliveries must come in generation order.
    for (source, dest), got in pair_delivered.items():
        wanted = set(got)
        expected = [
            uid for uid in pair_generated.get((source, dest), ()) if uid in wanted
        ]
        if got != expected:
            report.sequence_violations.append(
                f"pair {source}->{dest}: delivered order {got[:12]} != "
                f"generation order {expected[:12]}"
            )
    return report


def message_latencies(events: Sequence[RuntimeEvent]) -> List[float]:
    """Generate→deliver duration of every delivery, on the monotonic clock.

    One sample per delivery whose generation is in the log, joined in two
    passes: the log is node-ordered, so a delivery may precede its
    generation at a later node.  Only ``mono`` is read (a wall-clock step
    must not skew a duration), and events without a monotonic stamp
    (``mono == 0.0``, synthetic logs) are skipped, not measured on ``t``.
    """
    started = {
        event.uid: event.mono
        for event in events
        if event.kind == "generated" and event.mono
    }
    return [
        max(0.0, event.mono - started[event.uid])
        for event in events
        if event.kind == "delivered" and event.mono and event.uid in started
    ]
