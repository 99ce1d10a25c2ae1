"""Tests for the exactly-once delivery ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger import DeliveryLedger
from repro.errors import SpecificationViolation
from repro.statemodel.message import Message, MessageFactory


def generated(factory=None, source=0, dest=2, payload="m", step=1):
    f = factory or MessageFactory()
    return f.generated(payload, source, dest, 0, step)


class TestGenerations:
    def test_records_generation(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        assert led.generated_count == 1
        assert led.generation_info(msg.uid) == (0, 2, 1)

    def test_rejects_invalid_message(self):
        led = DeliveryLedger()
        f = MessageFactory()
        with pytest.raises(ValueError):
            led.record_generated(f.invalid("g", 0, 0, 1))

    def test_outstanding_until_delivered(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        assert led.outstanding_uids() == {msg.uid}
        assert not led.all_valid_delivered()


class TestDeliveries:
    def test_correct_delivery(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        led.record_delivery(2, msg, step=10)
        assert led.valid_delivered_count == 1
        assert led.all_valid_delivered()
        assert led.latency_steps(msg.uid) == 9

    def test_duplicate_delivery_raises(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        led.record_delivery(2, msg, step=10)
        with pytest.raises(SpecificationViolation, match="twice"):
            led.record_delivery(2, msg, step=11)

    def test_wrong_destination_raises(self):
        led = DeliveryLedger()
        msg = generated(dest=2)
        led.record_generated(msg)
        with pytest.raises(SpecificationViolation, match="destination"):
            led.record_delivery(3, msg, step=10)

    def test_unknown_uid_raises(self):
        led = DeliveryLedger()
        msg = generated()
        with pytest.raises(SpecificationViolation, match="unknown"):
            led.record_delivery(2, msg, step=5)

    def test_invalid_deliveries_counted_not_flagged(self):
        led = DeliveryLedger()
        f = MessageFactory()
        g1 = f.invalid("a", 0, 0, dest=1)
        g2 = f.invalid("b", 0, 0, dest=1)
        led.record_delivery(1, g1, step=3)
        led.record_delivery(1, g2, step=4)
        led.record_delivery(1, g1, step=5)  # invalid dup: allowed
        assert led.invalid_delivery_count == 3
        assert led.invalid_deliveries_by_destination() == {1: 3}

    def test_latency_none_when_undelivered(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        assert led.latency_steps(msg.uid) is None


class TestNonStrictMode:
    def test_violations_recorded_not_raised(self):
        led = DeliveryLedger(strict=False)
        msg = generated()
        led.record_generated(msg)
        led.record_delivery(2, msg, step=1)
        led.record_delivery(2, msg, step=2)
        assert any("twice" in v for v in led.violations)
        # First delivery record kept.
        assert led.delivery_record(msg.uid).step == 1

    def test_loss_recorded(self):
        led = DeliveryLedger(strict=False)
        msg = generated()
        led.record_generated(msg)
        led.record_loss(msg, "test erase")
        assert led.lost_count == 1
        assert any("lost" in v for v in led.violations)

    def test_loss_strict_raises(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        with pytest.raises(SpecificationViolation, match="lost"):
            led.record_loss(msg, "test erase")

    def test_loss_of_invalid_ignored(self):
        led = DeliveryLedger()
        f = MessageFactory()
        led.record_loss(f.invalid("g", 0, 0, 1), "cleanup")
        assert led.lost_count == 0


class TestUidViews:
    def test_delivered_uids_noncontiguous(self):
        # The uid space need not be 1..generated_count: a factory can be
        # shared across simulations, so only some of its uids land here.
        led = DeliveryLedger()
        f = MessageFactory()
        msgs = [f.generated("m", 0, 2, 0, 1) for _ in range(5)]
        mine = [msgs[1], msgs[4]]  # uids 2 and 5
        for msg in mine:
            led.record_generated(msg)
        led.record_delivery(2, mine[1], step=9)
        assert led.generated_uids() == [m.uid for m in mine]
        assert led.delivered_uids() == [mine[1].uid]
        led.record_delivery(2, mine[0], step=11)
        assert led.delivered_uids() == [m.uid for m in mine]

    def test_delivered_uids_excludes_ungenerated_strict_mode_off(self):
        # Non-strict ledgers may record deliveries of uids they never saw
        # generated (flagged as violations); those have no generation stamp
        # and must not appear in the measurable-delivery view.
        led = DeliveryLedger(strict=False)
        stranger = generated()
        led.record_delivery(2, stranger, step=5)
        assert led.violations
        assert led.delivered_uids() == []
        assert led.generated_uids() == []


class TestObservers:
    def collect(self, led):
        events = []
        led.add_observer(lambda kind, uid, info: events.append((kind, uid, info)))
        return events

    def test_lifecycle_stream(self):
        led = DeliveryLedger()
        events = self.collect(led)
        msg = generated()
        led.record_generated(msg)
        led.record_delivery(2, msg, step=10)
        assert events == [
            ("generated", msg.uid, {"source": 0, "dest": 2, "step": 1}),
            ("delivered", msg.uid, {"at": 2, "step": 10, "valid": True}),
        ]

    def test_invalid_delivery_observed(self):
        led = DeliveryLedger()
        events = self.collect(led)
        g = MessageFactory().invalid("g", 0, 0, dest=1)
        led.record_delivery(1, g, step=3)
        assert events == [("delivered", g.uid, {"at": 1, "step": 3, "valid": False})]

    def test_loss_observed_before_strict_raise(self):
        # The observer must see the loss even when strict mode then raises:
        # the tracer's timeline should not silently miss the event that
        # killed the run.
        led = DeliveryLedger()
        events = self.collect(led)
        msg = generated()
        led.record_generated(msg)
        with pytest.raises(SpecificationViolation):
            led.record_loss(msg, "test erase")
        assert ("lost", msg.uid, {"reason": "test erase"}) in events

    def test_multiple_observers_in_order(self):
        led = DeliveryLedger()
        seen = []
        led.add_observer(lambda k, u, i: seen.append(("first", k)))
        led.add_observer(lambda k, u, i: seen.append(("second", k)))
        led.record_generated(generated())
        assert seen == [("first", "generated"), ("second", "generated")]


_ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("generate"), st.integers(1, 5), st.integers(0, 2)),
    # valid deliveries: first, duplicate, wrong place or unknown uid alike
    st.tuples(st.just("deliver"), st.integers(1, 6), st.integers(0, 2)),
    st.tuples(st.just("invalid"), st.integers(1, 3), st.integers(0, 2)),
    st.tuples(st.just("snapshot"), st.just(0), st.just(0)),
    st.tuples(st.just("restore"), st.integers(0, 3), st.just(0)),
), max_size=30)


class TestOutstandingCount:
    """The outstanding uids are kept by the intake paths; after any call
    they equal the generated uids without a delivery record."""

    @settings(max_examples=150, deadline=None)
    @given(_ledger_ops)
    def test_kept_equal_to_the_recomputed_set(self, ops):
        led = DeliveryLedger(strict=False)
        vectors = []
        for kind, a, b in ops:
            if kind == "generate":
                led.record_generated(Message("m", b, 0, b, a, True, b, 0))
            elif kind == "deliver":
                led.record_delivery(b, Message("m", b, 0, b, a, True, b, 0), 1)
            elif kind == "invalid":
                led.record_delivery(b, Message("g", b, 0, b, -a, False), 1)
            elif kind == "snapshot":
                vectors.append(led.snapshot())
            elif vectors:
                vec = vectors[a % len(vectors)]
                led.restore(vec)
                assert led.snapshot() == vec
            recomputed = {
                uid for uid in led.generated_uids()
                if led.delivery_record(uid) is None
            }
            assert led.outstanding_uids() == recomputed
            assert led.all_valid_delivered() == (not recomputed)


class TestSnapshotAnchor:
    def test_a_generation_needs_a_valid_message_with_a_source(self):
        led = DeliveryLedger()
        with pytest.raises(ValueError):
            led.record_generated(Message("m", 0, 0, 2, 1, True, None))
        with pytest.raises(ValueError):
            led.record_generated(Message("g", 0, 0, 2, -1, False, 0))

    def test_the_anchor_comes_back_until_an_event_is_taken_in(self):
        led = DeliveryLedger(strict=False)
        empty = led.snapshot()
        assert empty == ((), (), (), (), ())
        led.record_generated(generated())
        vec = led.snapshot()
        led.restore(vec)
        assert led.snapshot() is vec
        msg = generated()
        led.record_loss(msg, "erased")
        after = led.snapshot()
        assert after != vec and after[3] == (msg.uid,)
        led.restore(empty)
        assert led.snapshot() is empty and led.all_valid_delivered()

    def test_a_loss_drops_the_anchor_before_the_strict_ledger_raises(self):
        led = DeliveryLedger()
        msg = generated()
        led.record_generated(msg)
        vec = led.snapshot()
        led.restore(vec)
        with pytest.raises(SpecificationViolation):
            led.record_loss(msg, "erased")
        assert led.snapshot()[3] == (msg.uid,)
