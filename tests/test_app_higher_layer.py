"""Tests for the higher layer (request handshake, delivery sink)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.higher_layer import HigherLayer
from repro.errors import ConfigurationError
from repro.statemodel.message import MessageFactory


class TestSubmission:
    def test_submit_queues(self):
        hl = HigherLayer(3)
        hl.submit(0, "a", 2)
        assert hl.pending_count(0) == 1
        assert hl.total_pending() == 1

    def test_out_of_range_rejected(self):
        hl = HigherLayer(3)
        with pytest.raises(ConfigurationError):
            hl.submit(0, "a", 5)

    def test_self_addressed_delivered_locally(self):
        hl = HigherLayer(3)
        hl.submit(1, "me", 1)
        assert hl.pending_count(1) == 0


class TestRequestHandshake:
    def test_request_raised_when_message_waits(self):
        hl = HigherLayer(2)
        hl.submit(0, "a", 1)
        assert not hl.request[0]
        hl.before_step(0)
        assert hl.request[0]
        assert not hl.request[1]

    def test_macros_expose_waiting_message(self):
        hl = HigherLayer(2)
        hl.submit(0, "a", 1)
        assert hl.next_message(0) == "a"
        assert hl.next_destination(0) == 1
        assert hl.next_destination(1) is None

    def test_consume_request_pops_and_lowers(self):
        hl = HigherLayer(2)
        hl.submit(0, "a", 1)
        hl.submit(0, "b", 1)
        hl.before_step(0)
        payload, dest = hl.consume_request(0)
        assert (payload, dest) == ("a", 1)
        assert not hl.request[0]
        assert hl.next_message(0) == "b"

    def test_consume_empty_outbox_rejected(self):
        hl = HigherLayer(2)
        with pytest.raises(ConfigurationError):
            hl.consume_request(0)

    def test_request_reraised_for_next_message(self):
        hl = HigherLayer(2)
        hl.submit(0, "a", 1)
        hl.submit(0, "b", 1)
        hl.before_step(0)
        hl.consume_request(0)
        hl.before_step(1)
        assert hl.request[0]

    def test_request_stays_down_when_outbox_empty(self):
        hl = HigherLayer(2)
        hl.before_step(0)
        assert not hl.request[0]


class TestDelivery:
    def test_delivery_logged(self):
        hl = HigherLayer(2)
        msg = MessageFactory().generated("x", 0, 1, 0, 0)
        hl.deliver(1, msg, step=7)
        assert hl.delivered == [(1, msg, 7)]


class TestRequestedDestinationsIndex:
    def test_tracks_raise_and_consume(self):
        hl = HigherLayer(4)
        assert hl.requested_destinations() == set()
        hl.submit(0, "a", 3)
        hl.submit(1, "b", 2)
        hl.before_step(0)
        assert hl.requested_destinations() == {3, 2}
        hl.consume_request(0)
        assert hl.requested_destinations() == {2}
        hl.consume_request(1)
        assert hl.requested_destinations() == set()

    def test_shared_destination_by_two_processors(self):
        hl = HigherLayer(4)
        hl.submit(0, "a", 3)
        hl.submit(1, "b", 3)
        hl.before_step(0)
        assert hl.requested_destinations() == {3}
        hl.consume_request(0)
        assert hl.requested_destinations() == {3}  # processor 1 still asks
        hl.consume_request(1)
        assert hl.requested_destinations() == set()

    def test_out_of_band_lowering_is_filtered(self):
        # A subclass may lower request_p without consume_request (the
        # liveness harness does); the index must not report its destination.
        hl = HigherLayer(3)
        hl.submit(0, "a", 2)
        hl.before_step(0)
        hl.request[0] = False
        assert hl.requested_destinations() == set()
        hl.before_step(1)  # re-raised: same head, index refreshed
        assert hl.requested_destinations() == {2}


_hl_ops = st.lists(st.one_of(
    # a self-addressed submit (p == dest) never enters an outbox
    st.tuples(st.just("submit"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("raise"), st.just(0), st.just(0)),
    st.tuples(st.just("consume"), st.integers(0, 2), st.just(0)),
    st.tuples(st.just("snapshot"), st.just(0), st.just(0)),
    st.tuples(st.just("restore"), st.integers(0, 3), st.just(0)),
), max_size=30)


class TestPendingCount:
    """The pending count is kept by the mutators; after any call it equals
    the sum of the outboxes."""

    @settings(max_examples=150, deadline=None)
    @given(_hl_ops)
    def test_kept_equal_to_the_recomputed_sum(self, ops):
        hl = HigherLayer(3)
        vectors = []
        for step, (kind, a, b) in enumerate(ops):
            if kind == "submit":
                hl.submit(a, f"m{step}", b)
            elif kind == "raise":
                hl.before_step(step)
            elif kind == "consume":
                if hl.pending_count(a):
                    hl.consume_request(a)
                else:
                    with pytest.raises(ConfigurationError):
                        hl.consume_request(a)
            elif kind == "snapshot":
                vectors.append(hl.snapshot())
            elif vectors:
                hl.restore(vectors[a % len(vectors)])
            assert hl.total_pending() == sum(hl.pending_count(p) for p in range(3))
