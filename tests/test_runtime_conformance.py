"""Tests for the conformance oracle over live-run event logs."""

import pickle

import pytest

from repro.runtime.conformance import (
    ConformanceReport,
    RuntimeEvent,
    check_events,
    message_latencies,
    require_clean_start,
)


def ev(kind, uid, node, dest, order, valid=True):
    return RuntimeEvent(
        kind=kind, uid=uid, node=node, dest=dest, valid=valid, order=order
    )


def clean_run():
    """Two messages 0 -> 2, generated then delivered in order."""
    return [
        ev("generated", 10, node=0, dest=2, order=0),
        ev("generated", 11, node=0, dest=2, order=1),
        ev("delivered", 10, node=2, dest=2, order=0),
        ev("delivered", 11, node=2, dest=2, order=1),
    ]


class TestCheckEvents:
    def test_clean_run_passes(self):
        report = check_events(clean_run())
        assert report.ok
        assert report.generated == 2
        assert report.delivered == 2
        assert "verdict: PASS" in report.summary()

    def test_duplicate_delivery_fails(self):
        events = clean_run() + [ev("delivered", 10, node=2, dest=2, order=2)]
        report = check_events(events)
        assert not report.ok
        assert report.duplicates == 1
        assert "verdict: FAIL" in report.summary()

    def test_phantom_delivery_is_invalid(self):
        # Nobody generated uid 999: its record's ``valid`` bit does not
        # make it a valid delivery.
        events = clean_run() + [ev("delivered", 999, node=2, dest=2, order=2)]
        report = check_events(events)
        assert (report.delivered, report.invalid_delivered) == (2, 1)
        assert not report.violations

    def test_misdelivery_is_invalid(self):
        # Uid 10 is addressed to node 2; a copy surfacing at node 1 is not
        # a delivery of it, and the original still counts.
        events = clean_run() + [ev("delivered", 10, node=1, dest=2, order=0)]
        report = check_events(events)
        assert (report.delivered, report.invalid_delivered) == (2, 1)
        assert report.ok

    def test_the_valid_bit_is_not_read(self):
        flipped = [event._replace(valid=not event.valid) for event in clean_run()]
        assert check_events(flipped) == check_events(clean_run())

    def test_undelivered_uids_reported(self):
        events = [ev("generated", 10, node=0, dest=2, order=0)]
        report = check_events(events)
        assert not report.ok
        assert report.undelivered == [10]
        assert "UNDELIVERED" in report.summary()

    def test_generation_shortfall_detected(self):
        report = check_events(clean_run(), expect_generated=5)
        assert not report.ok
        assert any("expected 5" in v for v in report.violations)

    def test_cross_node_order_does_not_matter(self):
        # Delivery events may sort before the generations of a higher-pid
        # node; only node-local order is real, so this must still PASS.
        events = [
            ev("delivered", 20, node=0, dest=0, order=0),
            ev("generated", 20, node=3, dest=0, order=0),
        ]
        assert check_events(events).ok

    def test_per_pair_order_violation_detected(self):
        events = [
            ev("generated", 10, node=0, dest=2, order=0),
            ev("generated", 11, node=0, dest=2, order=1),
            # Delivered in the opposite order: FIFO lanes forbid this.
            ev("delivered", 11, node=2, dest=2, order=0),
            ev("delivered", 10, node=2, dest=2, order=1),
        ]
        report = check_events(events)
        assert not report.ok
        assert report.sequence_violations

    def test_interleaved_sources_keep_per_pair_order(self):
        events = [
            ev("generated", 10, node=0, dest=2, order=0),
            ev("generated", 21, node=1, dest=2, order=0),
            ev("generated", 11, node=0, dest=2, order=1),
            # Destination interleaves the sources; each pair stays ordered.
            ev("delivered", 21, node=2, dest=2, order=0),
            ev("delivered", 10, node=2, dest=2, order=1),
            ev("delivered", 11, node=2, dest=2, order=2),
        ]
        assert check_events(events).ok

    def test_invalid_deliveries_counted_separately(self):
        events = clean_run() + [
            ev("delivered", 77, node=1, dest=1, order=0, valid=False)
        ]
        report = check_events(events)
        assert report.invalid_delivered == 1
        assert report.delivered == 2  # invalid ones are not "delivered"

    def test_a_clean_start_fails_on_an_invalid_delivery(self):
        # Garbage may surface as invalid deliveries only from a corrupted
        # start; after a clean one, the same phantom fails the verdict.
        events = clean_run() + [ev("delivered", 77, node=1, dest=1, order=0)]
        assert check_events(events).ok
        report = require_clean_start(check_events(events))
        assert not report.ok
        assert report.violations == [
            "1 invalid deliveries (no generation addressed to the delivering "
            "node) from a clean start"
        ]
        assert require_clean_start(check_events(clean_run())).ok

    def test_unknown_kind_flagged(self):
        report = check_events([ev("exploded", 1, node=0, dest=1, order=0)])
        assert any("unknown event kind" in v for v in report.violations)


class TestSummary:
    @pytest.mark.parametrize(
        "violations, sequence", [(30, 0), (5, 30), (25, 25), (20, 21)]
    )
    def test_rows_beyond_twenty_are_counted_per_list(self, violations, sequence):
        report = ConformanceReport(
            violations=[f"v{i}" for i in range(violations)],
            sequence_violations=[f"s{i}" for i in range(sequence)],
        )
        lines = report.summary().splitlines()
        assert sum("VIOLATION" in line for line in lines) == min(violations, 20)
        assert sum("SEQUENCE" in line for line in lines) == min(sequence, 20)
        hidden = [int(line.split()[1]) for line in lines if line.endswith(" more")]
        assert hidden == [n - 20 for n in (violations, sequence) if n > 20]

    def test_short_lists_hide_nothing(self):
        report = ConformanceReport(violations=["a"], sequence_violations=["b"])
        assert "more" not in report.summary()

    @pytest.mark.parametrize("count, more", [(10, ""), (11, ", ...")])
    def test_ten_undelivered_uids_are_shown(self, count, more):
        report = ConformanceReport(undelivered=list(range(1, count + 1)))
        (line,) = [l for l in report.summary().splitlines() if "UNDELIVERED" in l]
        assert line == "  UNDELIVERED uids: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10" + more


class TestMessageLatencies:
    def test_one_sample_per_delivery_whatever_the_log_order(self):
        # Generated at node 5, delivered at node 2: in the node-ordered log
        # the delivery comes first.
        events = [
            RuntimeEvent("delivered", 6, 2, 2, True, 0, mono=7.3),
            RuntimeEvent("delivered", 14, 2, 2, True, 1, mono=7.5),
            RuntimeEvent("generated", 6, 5, 2, True, 0, mono=7.0),
            RuntimeEvent("generated", 14, 5, 2, True, 1, mono=7.0),
        ]
        assert message_latencies(events) == pytest.approx([0.3, 0.5])

    def test_unstamped_and_unmatched_events_give_no_sample(self):
        events = [
            ev("generated", 1, node=0, dest=1, order=0),  # mono == 0.0
            RuntimeEvent("delivered", 1, 1, 1, True, 0, mono=3.0),
            RuntimeEvent("delivered", 99, 1, 1, True, 1, mono=4.0),
        ]
        assert message_latencies(events) == []


class TestRuntimeEventContract:
    """What hop.py, cluster.py (spawn workers) and the bench harness rely on."""

    FIELDS = dict(
        kind="delivered", uid=9, node=2, dest=2, valid=True, order=3, mono=1.5,
    )

    def test_keyword_and_positional_construction_agree(self):
        event = RuntimeEvent(**self.FIELDS)
        assert event == RuntimeEvent("delivered", 9, 2, 2, True, 3, 1.5)
        for name, value in self.FIELDS.items():
            assert getattr(event, name) == value

    def test_mono_defaults_to_unstamped(self):
        fields = dict(self.FIELDS)
        del fields["mono"]
        assert RuntimeEvent(**fields).mono == 0.0

    def test_immutable(self):
        event = RuntimeEvent(**self.FIELDS)
        with pytest.raises(AttributeError):
            event.uid = 10
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_pickle_round_trip(self):
        event = RuntimeEvent(**self.FIELDS)
        clone = pickle.loads(pickle.dumps(event))
        assert type(clone) is RuntimeEvent and clone == event
