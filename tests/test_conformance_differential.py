"""The linear conformance verdict against its ledger-backed reference.

``repro.runtime.conformance.check_events`` inlines the non-strict checks of
``DeliveryLedger`` and the per-pair FIFO check; the verdict it replaced
lives in ``tests/reference_conformance.py``, and both classify a delivery
by the generation log.  Equal reports on every fuzzed log — counts, uid
lists and violation strings — is what keeps the message-passing substrates
judged by the specification the state-model engine is judged by.  The
scaling guards fail on a quadratic verdict by two orders of magnitude, not
by a tuned threshold.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import defaultdict
from typing import List, Optional, Tuple

from repro.runtime.conformance import RuntimeEvent, check_events
from tests import reference_conformance

NODES = 4
LOGS = 2400


def fuzzed_log(seed: int) -> Tuple[List[RuntimeEvent], Optional[int]]:
    """One shuffled, corrupted event log on ``NODES`` nodes and the
    ``expect_generated`` to judge it with."""
    rng = random.Random(seed)
    # A clean run first: per node, the (kind, uid, dest, valid) it logs.
    per_node: List[List[Tuple[str, int, int, bool]]] = [[] for _ in range(NODES)]
    messages = rng.randrange(0, 40)
    uids = rng.sample(range(1, 400), messages)
    for uid in uids:
        source = rng.randrange(NODES)
        dest = rng.randrange(NODES)
        per_node[source].append(("generated", uid, dest, True))
        per_node[dest].append(("delivered", uid, dest, True))
    # Then the faults, each kind with its own rate for this log.
    rate = {
        kind: rng.choice((0.0, 0.0, 0.05, 0.3))
        for kind in (
            "drop", "duplicate", "phantom", "misdeliver", "invalid",
            "unknown", "swap", "regenerate",
        )
    }
    for node, log in enumerate(per_node):
        corrupted: List[Tuple[str, int, int, bool]] = []
        for entry in log:
            kind, uid, dest, _ = entry
            if kind == "delivered":
                if rng.random() < rate["drop"]:
                    continue
                if rng.random() < rate["misdeliver"]:
                    per_node[(node + 1) % NODES].append(entry)
                    continue
                if rng.random() < rate["duplicate"]:
                    corrupted.append(entry)
            elif rng.random() < rate["regenerate"]:
                # The same uid generated again, possibly elsewhere.
                target = rng.randrange(NODES)
                (corrupted if target == node else per_node[target]).append(
                    ("generated", uid, rng.randrange(NODES), True)
                )
            corrupted.append(entry)
            if rng.random() < rate["phantom"]:
                corrupted.append(("delivered", rng.randrange(400, 420), node, True))
            if rng.random() < rate["invalid"]:
                corrupted.append(("delivered", -rng.randrange(1, 9), node, False))
            if rng.random() < rate["unknown"]:
                corrupted.append((rng.choice(("exploded", "lost")), uid, dest, True))
        for index in range(len(corrupted) - 1):
            if rng.random() < rate["swap"]:
                corrupted[index], corrupted[index + 1] = (
                    corrupted[index + 1], corrupted[index],
                )
        per_node[node] = corrupted
    # The bit a record carried is noise to both judges.
    noise = random.Random(-1 - seed)
    events = [
        RuntimeEvent(kind, uid, node, dest, noise.random() < 0.5, order)
        for node, log in enumerate(per_node)
        for order, (kind, uid, dest, _) in enumerate(log)
    ]
    rng.shuffle(events)
    generated = sum(event.kind == "generated" for event in events)
    expect = rng.choice((None, generated, generated + rng.choice((-1, 1))))
    return events, expect


def foreign_deliveries(events: List[RuntimeEvent]) -> Tuple[int, int, int]:
    """Deliveries of a uid nobody generated, deliveries of a generated uid
    at a node none of its generations addresses, and deliveries every
    generation of their uid addresses to the delivering node."""
    addressed = defaultdict(set)
    for event in events:
        if event.kind == "generated":
            addressed[event.uid].add(event.dest)
    phantoms = misdelivered = valid = 0
    for event in events:
        if event.kind != "delivered":
            continue
        if event.uid not in addressed:
            phantoms += 1
        elif event.node not in addressed[event.uid]:
            misdelivered += 1
        elif addressed[event.uid] == {event.node}:
            valid += 1
    return phantoms, misdelivered, valid


def test_equal_reports_on_fuzzed_logs():
    seen = {
        "delivered twice": 0, "unknown event kind": 0, "expected": 0,
        "pair ": 0, "undelivered": 0, "phantom": 0, "misdelivered": 0,
        "clean": 0,
    }
    for seed in range(LOGS):
        events, expect = fuzzed_log(seed)
        report = check_events(events, expect_generated=expect)
        reference = reference_conformance.check_events(
            list(events), expect_generated=expect
        )
        assert dataclasses.asdict(report) == dataclasses.asdict(reference), seed
        # Phantoms and misdeliveries are invalid deliveries, not violations;
        # only a uid generated to several nodes may go either way.
        phantoms, misdelivered, valid = foreign_deliveries(events)
        deliveries = report.delivered + report.invalid_delivered
        assert phantoms + misdelivered <= report.invalid_delivered, seed
        assert report.invalid_delivered <= deliveries - valid, seed
        for text in report.violations + report.sequence_violations:
            for needle in seen:
                seen[needle] += needle in text
        seen["undelivered"] += bool(report.undelivered)
        seen["phantom"] += bool(phantoms)
        seen["misdelivered"] += bool(misdelivered)
        seen["clean"] += report.ok
    # The corpus is not vacuous: every class of finding occurs, often.
    assert all(count >= 50 for count in seen.values()), seen


def single_pair_log(messages: int) -> List[RuntimeEvent]:
    return [
        RuntimeEvent("generated", uid, 0, 1, True, uid) for uid in range(messages)
    ] + [
        RuntimeEvent("delivered", uid, 1, 1, True, uid) for uid in range(messages)
    ]


class TestScaling:
    """One pair, 50,000 messages: linear is about 0.1 s; one ``set`` per
    uid (the verdict this replaced) is about a minute."""

    MESSAGES = 50_000
    BUDGET_S = 5.0

    def timed_verdict(self, events):
        started = time.perf_counter()
        report = check_events(events, expect_generated=self.MESSAGES)
        return report, time.perf_counter() - started

    def test_clean_single_pair(self):
        report, elapsed = self.timed_verdict(single_pair_log(self.MESSAGES))
        assert report.ok and report.delivered == self.MESSAGES
        assert elapsed < self.BUDGET_S

    def test_two_deliveries_swapped(self):
        events = single_pair_log(self.MESSAGES)
        first, second = self.MESSAGES + 30_000, self.MESSAGES + 30_001
        events[first], events[second] = (
            events[second]._replace(order=events[first].order),
            events[first]._replace(order=events[second].order),
        )
        report, elapsed = self.timed_verdict(events)
        assert not report.ok
        assert not report.violations and not report.undelivered
        assert len(report.sequence_violations) == 1
        assert report.sequence_violations[0].startswith("pair 0->1: ")
        assert elapsed < self.BUDGET_S
