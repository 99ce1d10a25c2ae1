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

The oracle reuses :class:`~repro.core.ledger.DeliveryLedger` in non-strict
mode — the exact same accounting the state-model engine trusts — so the
simulated and live execution paths are judged by one specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ledger import DeliveryLedger
from repro.statemodel.message import Message
from repro.types import DestId, ProcId


@dataclass(frozen=True)
class RuntimeEvent:
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
        for text in self.violations[:20]:
            lines.append(f"  VIOLATION {text}")
        for text in self.sequence_violations[:20]:
            lines.append(f"  SEQUENCE  {text}")
        hidden = (
            len(self.violations) + len(self.sequence_violations) - 40
        )
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
        if self.undelivered:
            shown = ", ".join(str(u) for u in self.undelivered[:10])
            more = "" if len(self.undelivered) <= 10 else ", ..."
            lines.append(f"  UNDELIVERED uids: {shown}{more}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


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
    # clock in a live run); the ledger only needs generations known before
    # deliveries, so feed the two kinds in separate passes.
    ordered = sorted(events, key=lambda e: (e.node, e.order))
    report = ConformanceReport()
    ledger = DeliveryLedger(strict=False)
    delivered_seen: Dict[int, int] = {}
    per_pair_generated: Dict[Tuple[ProcId, DestId], List[int]] = {}
    per_dest_delivered: Dict[DestId, List[int]] = {}
    gen_source: Dict[int, ProcId] = {}
    for event in ordered:
        if event.kind == "generated":
            report.generated += 1
            gen_source[event.uid] = event.node
            per_pair_generated.setdefault((event.node, event.dest), []).append(
                event.uid
            )
            ledger.record_generated(event.as_message(source=event.node))
    for event in ordered:
        if event.kind == "delivered":
            if not event.valid:
                report.invalid_delivered += 1
                continue
            report.delivered += 1
            delivered_seen[event.uid] = delivered_seen.get(event.uid, 0) + 1
            per_dest_delivered.setdefault(event.node, []).append(event.uid)
            ledger.record_delivery(
                event.node, event.as_message(source=None), step=event.order
            )
        elif event.kind != "generated":
            report.violations.append(f"unknown event kind {event.kind!r}")
    report.duplicates = sum(c - 1 for c in delivered_seen.values() if c > 1)
    report.violations.extend(ledger.violations)
    report.undelivered = sorted(ledger.outstanding_uids())
    if expect_generated is not None and report.generated != expect_generated:
        report.violations.append(
            f"generated {report.generated} messages, expected {expect_generated}"
        )
    _check_sequences(report, per_pair_generated, per_dest_delivered, gen_source)
    return report


def _check_sequences(
    report: ConformanceReport,
    per_pair_generated: Dict[Tuple[ProcId, DestId], List[int]],
    per_dest_delivered: Dict[DestId, List[int]],
    gen_source: Dict[int, ProcId],
) -> None:
    """Per (source, dest) pair: the delivered subsequence must equal a
    prefix-closed subsequence of the generation order (FIFO lanes)."""
    for dest, uids in per_dest_delivered.items():
        # Project the destination's delivery order onto each source.
        per_source: Dict[ProcId, List[int]] = {}
        for uid in uids:
            source = gen_source.get(uid)
            if source is None:
                continue  # phantom: already flagged by the ledger
            per_source.setdefault(source, []).append(uid)
        for source, got in per_source.items():
            expected = [
                uid
                for uid in per_pair_generated.get((source, dest), [])
                if uid in set(got)
            ]
            if got != expected:
                report.sequence_violations.append(
                    f"pair {source}->{dest}: delivered order {got[:12]} != "
                    f"generation order {expected[:12]}"
                )
