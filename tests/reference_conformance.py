"""Reference oracle: the ledger-backed conformance verdict, kept verbatim.

Until PR 13 this was ``repro.runtime.conformance.check_events``: every
event boxed into a :class:`~repro.statemodel.message.Message` and fed to the
non-strict :class:`~repro.core.ledger.DeliveryLedger` the state-model engine
trusts, then a per-pair FIFO check that rebuilds ``set(got)`` once per uid
(quadratic in the size of a pair).  The product now inlines the same checks
in one sort and two passes; ``tests/test_conformance_differential.py``
holds the two to equal reports, violation strings included, so "simulator
and runtime are judged by one specification" is enforced by test.

Not a test module and not for production use; the bodies of
``check_events`` and ``_check_sequences`` are not to be edited.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ledger import DeliveryLedger
from repro.runtime.conformance import ConformanceReport, RuntimeEvent
from repro.types import DestId, ProcId


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
