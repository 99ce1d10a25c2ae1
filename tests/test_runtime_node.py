"""Tests for the windowed hop protocol (pipelining, cumulative + selective
acknowledgement, release watermarks, RTO behavior), driven on the sans-IO
``HopCore`` with hand-fed clock readings, and for the asyncio adapter's run
loop around it."""

import asyncio

import pytest

from repro.network.topologies import line_network
from repro.routing.static import StaticRouting
from repro.runtime.hop import MAX_WINDOW, HopCore, RuntimeParams
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import LocalTransport
from repro.runtime.wire import (
    ACK,
    DATA,
    RACK,
    REL,
    ack_rec,
    data_rec,
    rack_rec,
    rel_rec,
    sack_bitmap,
)

from tests.helpers import tuned_hop_core


def make_node(pid=1, n=2, rto_initial=HopCore._RTO_INITIAL,
              recv_queue=HopCore._RECV_QUEUE, **params):
    """A hop core driven by hand: no event loop, no transport, no clock."""
    net = line_network(n)
    return tuned_hop_core(
        pid, net, StaticRouting(net), RuntimeParams(**params),
        rto_initial=rto_initial, recv_queue=recv_queue,
    )


def handle(node, src, rec, out, now=1.0):
    node.on_records(src, [rec], now, out)


def advance(node, out, now=1.0):
    node.advance(now, out)


def sent_data(out):
    return [rec for _, rec in out if rec["k"] == DATA]


def sent_kind(out, kind):
    return [rec for _, rec in out if rec["k"] == kind]


class TestReceiverWindow:
    def test_in_order_accepted_and_acked(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 1, 11, "a", True, rel=0), out)
        handle(node, 0, data_rec(1, 2, 12, "b", True, rel=0), out)
        lane = node._in_lanes[(0, 1)]
        assert lane.cum == 2
        assert [r["u"] for r in lane.pending] == [11, 12]
        node._emit_acks(out)
        acks = sent_kind(out, ACK)
        assert acks == [ack_rec(1, 2, 0, 0)]  # one coalesced cumulative ACK

    def test_out_of_order_held_and_sacked(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 2, 12, "b", True), out)
        handle(node, 0, data_rec(1, 4, 14, "d", True), out)
        lane = node._in_lanes[(0, 1)]
        assert lane.cum == 0 and sorted(lane.ooo) == [2, 4]
        node._emit_acks(out)
        (ack,) = sent_kind(out, ACK)
        assert ack["c"] == 0
        assert ack["b"] == sack_bitmap(0, [2, 4])
        # The hole arrives: cum jumps over the buffered records.
        out.clear()
        handle(node, 0, data_rec(1, 1, 11, "a", True), out)
        handle(node, 0, data_rec(1, 3, 13, "c", True), out)
        assert lane.cum == 4 and not lane.ooo

    def test_duplicate_data_reacked_not_reaccepted(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 1, 11, "m", True), out)
        handle(node, 0, data_rec(1, 1, 11, "m", True), out)
        lane = node._in_lanes[(0, 1)]
        assert lane.cum == 1 and len(lane.pending) == 1
        assert node.counters["dup_data_acked"] == 1
        assert (0, 1) in node._ack_dirty

    def test_beyond_window_dropped(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, MAX_WINDOW + 1, 11, "m", True), out)
        assert node.counters["stale_records_dropped"] == 1
        assert (0, 1) not in node._in_lanes or not node._in_lanes[(0, 1)].ooo
        advance(node, out)
        assert out == []  # and owes no ACK

    def test_the_last_slot_of_the_horizon_is_held_and_sacked(self):
        # cum + MAX_WINDOW is still inside the acceptance horizon: the
        # SACK bitmap's top bit (63) covers it.
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, MAX_WINDOW, 11, "m", True), out)
        lane = node._in_lanes[(0, 1)]
        assert lane.cum == 0 and list(lane.ooo) == [MAX_WINDOW]
        assert node.counters["stale_records_dropped"] == 0
        advance(node, out)
        assert sent_kind(out, ACK) == [ack_rec(1, 0, 1 << 63, 0)]

    def test_data_for_destination_n_is_dropped_unacked(self):
        # Destinations are 0 .. n-1: one for n opens no lane.
        self._assert_dropped_unacked(2)

    def test_data_for_a_negative_destination_is_dropped_unacked(self):
        self._assert_dropped_unacked(-1)

    @staticmethod
    def _assert_dropped_unacked(dest):
        node = make_node(n=2)
        out = []
        handle(node, 0, data_rec(dest, 1, 11, "m", True), out)
        assert node.counters["stale_records_dropped"] == 1
        assert node._in_lanes == {}
        advance(node, out)
        assert out == []

    def test_backpressure_stays_silent(self):
        node = make_node(recv_queue=2)
        out = []
        handle(node, 0, data_rec(1, 1, 11, "a", True), out)
        handle(node, 0, data_rec(1, 2, 12, "b", True), out)
        lane = node._in_lanes[(0, 1)]
        node._ack_dirty.clear()
        # Queue full: the third record is silently dropped (sender retries),
        # and so is an out-of-order one: the ceiling is ``>=`` on both paths.
        handle(node, 0, data_rec(1, 3, 13, "c", True), out)
        handle(node, 0, data_rec(1, 4, 14, "d", True), out)
        assert lane.cum == 2 and not lane.ooo
        assert node.counters["recv_backpressure"] == 2
        assert not node._ack_dirty

    def test_malformed_records_dropped(self):
        node = make_node()
        out = []
        node.on_records(
            0,
            [
                {"k": "DATA"},                      # missing fields
                {"k": "NOPE", "d": 1, "s": 1},      # unknown kind
                data_rec(99, 1, 1, "m", True),      # dest out of range
            ],
            1.0,
            out,
        )
        assert out == []
        assert node.counters["stale_records_dropped"] == 3


def lane_state(node):
    """Everything a handler may write, in comparable form."""
    return (
        {
            key: (lane.cum, lane.rel_cum, sorted(lane.ooo),
                  [r["s"] for r in lane.pending], lane.coalesced)
            for key, lane in node._in_lanes.items()
        },
        {
            key: (lane.next_seq, sorted(lane.unacked), lane.rel_cum,
                  lane.cum_seen, lane.rel_confirmed, lane.expiry, lane.rto,
                  lane.samples, lane.backoff, lane.rel_backoff)
            for key, lane in node._out_lanes.items()
        },
        set(node._ack_dirty),
        {d: list(node.fwd[d]) for d in node.fwd.live()},
        {k: v for k, v in node.counters.items() if k != "stale_records_dropped"},
        list(node.hop_latencies),
    )


def receiver():
    """Node 1 of line(2), one DATA from 0 accepted and its ACK sent."""
    node = make_node()
    out = []
    handle(node, 0, data_rec(1, 1, 11, "a", True), out)
    advance(node, out)
    return node


def sender():
    """Node 0 of line(2) with one DATA to 1 in flight."""
    node = make_node(pid=0)
    node.submit("x", 1)
    advance(node, [])
    assert list(node._out_lanes[(1, 1)].unacked) == [1]
    return node


class TestAppliedWholeOrDropped:
    """A malformed record changes nothing: each handler reads and
    type-checks every field before it touches a lane."""

    CASES = {
        # Failing before PR 22: accepted (cum 0 -> 1, an ACK owed) *and*
        # counted dropped, because "r" was read after the lane was written.
        "data-lacks-r-fresh-lane": (
            make_node, 0, {"k": DATA, "d": 1, "s": 1, "u": 5, "p": "x", "v": True},
        ),
        "data-lacks-r-open-lane": (
            receiver, 0, {"k": DATA, "d": 1, "s": 2, "u": 5, "p": "x", "v": True},
        ),
        # Failing before: an empty _InLane left behind for a forged (src, d).
        "data-seq-not-an-int": (
            make_node, 0, {"k": DATA, "d": 1, "s": "1", "u": 5, "p": "x",
                           "v": True, "r": 0},
        ),
        "data-rel-not-an-int": (
            receiver, 0, {"k": DATA, "d": 1, "s": 2, "u": 5, "p": "x",
                          "v": True, "r": None},
        ),
        "data-uid-not-coercible": (
            receiver, 0, {"k": DATA, "d": 1, "s": 2, "u": "abc", "p": "x",
                          "v": True, "r": 0},
        ),
        # Failing before: erased the sender's only copy, advanced rel_cum.
        "ack-lacks-r": (sender, 1, {"k": ACK, "d": 1, "c": 1, "b": 0}),
        "ack-cum-not-an-int": (
            sender, 1, {"k": ACK, "d": 1, "c": 1.0, "b": 0, "r": 0},
        ),
        "ack-bitmap-not-an-int": (
            sender, 1, {"k": ACK, "d": 1, "c": 0, "b": "1", "r": 0},
        ),
        # REL and RACK already read before they wrote: pinned (only a
        # float level got through, into rel_confirmed).
        "rel-lacks-r": (receiver, 0, {"k": REL, "d": 1}),
        "rel-level-not-an-int": (receiver, 0, {"k": REL, "d": 1, "r": "1"}),
        "rack-lacks-r": (sender, 1, {"k": RACK, "d": 1}),
        "rack-level-not-an-int": (sender, 1, {"k": RACK, "d": 1, "r": 1.5}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_malformed_record_changes_nothing(self, case):
        build, src, bad = self.CASES[case]
        node = build()
        before = lane_state(node)
        handed = dict(bad)
        out = []
        handle(node, src, bad, out)
        assert lane_state(node) == before
        assert node.counters["stale_records_dropped"] == 1
        assert out == [] and bad == handed
        advance(node, out)  # and nothing is owed afterwards either
        assert sent_kind(out, ACK) == [] and sent_kind(out, RACK) == []


class TestLenientAcceptance:
    """A forged DATA lacking ``u`` / ``v`` / ``p`` is still a record: uid 0,
    invalid, payload ``None`` — coerced once, at acceptance."""

    FORGED = {"k": DATA, "d": 1, "s": 1, "r": 0}

    def test_delivered_as_one_invalid_event_with_uid_zero(self):
        node = make_node()
        forged = dict(self.FORGED)
        out = []
        handle(node, 0, forged, out)
        assert node.counters["stale_records_dropped"] == 0
        assert node._in_lanes[(0, 1)].cum == 1
        handle(node, 0, rel_rec(1, 1), out)          # R2: released
        assert sent_kind(out, RACK) == [rack_rec(1, 1)]
        advance(node, out)
        assert sent_kind(out, ACK) == [ack_rec(1, 1, 0, 1)]
        (event,) = node.events
        assert (event.kind, event.uid, event.valid, event.dest) == (
            "delivered", 0, False, 1,
        )
        assert node.counters["delivered"] == 1
        assert forged == self.FORGED                  # and left as handed

    def test_forwarded_as_a_well_formed_record(self):
        node = make_node(pid=1, n=3)
        out = []
        handle(node, 0, {"k": DATA, "d": 2, "s": 1, "r": 0, "junk": 1}, out)
        handle(node, 0, rel_rec(2, 1), out)
        advance(node, out)
        assert sent_data(out) == [data_rec(2, 1, 0, None, False, 0)]

    def test_odd_types_are_coerced_as_before(self):
        node = make_node()
        out = []
        handle(node, 0, {"k": DATA, "d": 1, "s": 1, "u": "17", "p": "x",
                         "v": 1, "r": 0}, out)
        handle(node, 0, rel_rec(1, 1), out)
        advance(node, out)
        (event,) = node.events
        assert (event.uid, event.valid) == (17, True)


class TestRecordsAreReadOnly:
    def test_a_relay_stores_what_it_was_handed_and_sends_a_fresh_dict(self):
        node = make_node(pid=1, n=3)
        handed = data_rec(2, 1, 11, ["p"], True, rel=0)
        snapshot = {**handed, "p": ["p"]}
        out = []
        handle(node, 0, handed, out)
        assert node._in_lanes[(0, 2)].pending[0] is handed  # boxed once
        handle(node, 0, rel_rec(2, 1), out)
        assert node.fwd[2][0] is handed
        advance(node, out)
        (sent,) = sent_data(out)
        assert sent is not handed and handed == snapshot
        assert sent == data_rec(2, 1, 11, ["p"], True, 0)
        # A retransmission rewrites "r" in the sender's dict, not in ours.
        advance(node, out, now=99.0)
        assert node.counters["retries"] == 1 and handed == snapshot


class TestReleaseWatermark:
    def test_release_piggybacked_on_data_moves_pending_to_fwd(self):
        node = make_node(pid=1, n=3)  # middle of a 3-line: must forward
        out = []
        handle(node, 0, data_rec(2, 1, 11, "a", True, rel=0), out)
        lane = node._in_lanes[(0, 2)]
        assert len(lane.pending) == 1 and not node.fwd[2]
        # Next DATA piggybacks rel=1: seq 1 is erased upstream, forward it.
        handle(node, 0, data_rec(2, 2, 12, "b", True, rel=1), out)
        assert len(lane.pending) == 1  # seq 2 still unreleased
        assert [r["u"] for r in node.fwd[2]] == [11]
        assert 2 in node._active

    def test_release_never_exceeds_cum(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 2, 12, "b", True, rel=2), out)  # ooo
        lane = node._in_lanes[(0, 1)]
        assert lane.rel_cum == 0  # rel=2 clamps to cum=0: nothing released

    def test_standalone_rel_racked_idempotently(self):
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 1, 11, "a", True), out)
        handle(node, 0, data_rec(1, 2, 12, "b", True), out)
        # Then retransmitted, then reordered behind a newer one: each REL
        # RACKs the level applied.
        for rel in (2, 2, 1):
            out.clear()
            handle(node, 0, rel_rec(1, rel), out)
            assert sent_kind(out, RACK) == [rack_rec(1, 2)]

    def test_rel_for_unaccepted_seqs_dropped_without_rack(self):
        node = make_node()
        out = []
        handle(node, 0, rel_rec(1, 5), out)  # never accepted anything
        handle(node, 0, data_rec(1, 1, 11, "m", True), out)
        handle(node, 0, rel_rec(1, 2), out)  # beyond the one accepted
        assert out == []
        assert node.counters["stale_records_dropped"] == 2
        assert node._in_lanes[(0, 1)].rel_cum == 0

    def test_a_corrupted_lane_without_pending_records_still_racks(self):
        # A start may hold cum > rel_cum with nothing pending: the REL
        # moves the level, finds nothing to forward, and is answered.
        node = make_node()
        out = []
        handle(node, 0, data_rec(1, 1, 11, "a", True), out)
        node._in_lanes[(0, 1)].pending.clear()
        out.clear()
        handle(node, 0, rel_rec(1, 1), out)
        assert sent_kind(out, RACK) == [rack_rec(1, 1)]
        assert not node.fwd[1]

    @pytest.mark.parametrize("dest", [2, -1])
    def test_rel_for_destination_n_is_dropped_even_by_a_corrupted_lane(self, dest):
        # Destinations are 0 .. n-1.  A start may hold any lane state, a
        # lane for n (or -1) included: a REL for it still releases nothing.
        node = make_node(n=2)
        out = []
        handle(node, 0, data_rec(1, 1, 11, "m", True), out)
        node._in_lanes[(0, dest)] = node._in_lanes.pop((0, 1))
        out.clear()
        handle(node, 0, rel_rec(dest, 1), out)
        assert out == []
        assert node.counters["stale_records_dropped"] == 1
        assert node._in_lanes[(0, dest)].rel_cum == 0


class TestSenderWindow:
    def test_pipelines_up_to_window(self):
        node = make_node(pid=0, window=4)
        for i in range(10):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        datas = sent_data(out)
        assert len(datas) == 4  # window, not stop-and-wait
        assert [d["s"] for d in datas] == [1, 2, 3, 4]
        assert node.in_flight() == 4
        assert node.counters["generated"] == 4  # generation is window-gated

    def test_cumulative_ack_slides_window(self):
        node = make_node(pid=0, window=4)
        for i in range(6):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        out.clear()
        handle(node, 1, ack_rec(1, 3), out)  # acks seqs 1-3
        assert node.in_flight() == 1
        advance(node, out)
        assert [d["s"] for d in sent_data(out)] == [5, 6]
        assert node.in_flight() == 3

    def test_sack_pops_but_timer_waits_for_cum(self):
        node = make_node(pid=0, window=4)
        for i in range(4):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        lane = node._out_lanes[(1, 1)]
        expiry_before = lane.expiry
        out.clear()
        # SACK seqs 2-4, hole at 1: pops them but keeps the head's timer.
        handle(node, 1, ack_rec(1, 0, sack_bitmap(0, [2, 3, 4])), out)
        assert sorted(lane.unacked) == [1]
        assert lane.expiry == expiry_before

    def test_a_lane_emptied_by_sacks_rearms_at_the_next_send(self):
        # An older ACK whose SACK bits erase the last records leaves no
        # timer behind: the next DATA arms a fresh probe timeout.
        node = make_node(pid=0, window=4)
        for i in range(3):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out, 1.0)
        lane = node._out_lanes[(1, 1)]
        handle(node, 1, ack_rec(1, 1), out, 1.01)
        handle(node, 1, ack_rec(1, 0, sack_bitmap(0, [2, 3])), out, 1.02)
        assert not lane.unacked and lane.expiry is None
        node.submit("m3", 1)
        out.clear()
        advance(node, out, 5.0)
        assert [d["s"] for d in sent_data(out)] == [4]
        assert lane.expiry == 5.0 + node._pto(lane)

    def test_fast_retransmit_after_three_sacks(self):
        node = make_node(pid=0, window=8)
        for i in range(8):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        out.clear()
        lane = node._out_lanes[(1, 1)]
        lane.srtt = 0.0  # no resend-grace for the test
        for sacked in ([2, 3], [2, 3, 4], [2, 3, 4, 5]):
            handle(node, 1, ack_rec(1, 0, sack_bitmap(0, sacked)), out)
        resent = sent_data(out)
        assert [d["s"] for d in resent] == [1]  # the hole, nothing else
        assert node.counters["retries"] == 1

    def test_rto_retransmits_head_probe_first(self):
        node = make_node(pid=0, window=4, retry_base=0.0, retry_cap=0.0)
        for i in range(4):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)  # rto 0: the first expiry fires in the same call
        # Window fill (1-4) plus a head-of-line probe — NOT a full resend.
        assert [d["s"] for d in sent_data(out)] == [1, 2, 3, 4, 1]
        assert node.counters["retries"] == 1
        out.clear()
        advance(node, out)  # second expiry: full age-qualified resend
        assert sorted(d["s"] for d in sent_data(out)) == [1, 2, 3, 4]
        lane = node._out_lanes[(1, 1)]
        assert lane.backoff > 2

    def test_cum_ack_resets_backoff(self):
        node = make_node(pid=0, window=4, retry_base=0.0, retry_cap=0.0)
        node.submit("m", 1)
        out = []
        advance(node, out)
        advance(node, out)
        lane = node._out_lanes[(1, 1)]
        assert lane.backoff > 1
        handle(node, 1, ack_rec(1, 1), out)
        assert lane.backoff == 1 and lane.expiry is None
        assert node.in_flight() == 0

    def test_ack_rtt_sample_skips_retransmitted(self):
        node = make_node(pid=0, retry_base=0.0, retry_cap=0.0)
        node.submit("m", 1)
        out = []
        advance(node, out)
        advance(node, out)  # retransmit: Karn forbids sampling this one
        handle(node, 1, ack_rec(1, 1), out)
        lane = node._out_lanes[(1, 1)]
        assert lane.srtt is None
        assert node.rto_samples == []

    def test_stale_ack_ignored(self):
        node = make_node(pid=0)
        node.submit("m", 1)
        out = []
        advance(node, out)
        out.clear()
        handle(node, 1, ack_rec(1, 99), out)  # beyond anything sent
        assert node.in_flight() == 0
        handle(node, 0, ack_rec(1, 1), out)  # lane never opened toward 0
        handle(node, 0, rack_rec(1, 1), out)
        assert out == []
        assert node.counters["stale_records_dropped"] == 0

    def test_release_watermark_piggybacks_on_next_data(self):
        node = make_node(pid=0, window=2)
        for i in range(4):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        out.clear()
        handle(node, 1, ack_rec(1, 2), out)
        advance(node, out)
        datas = sent_data(out)
        assert [d["s"] for d in datas] == [3, 4]
        assert all(d["r"] == 2 for d in datas)  # release rides along

    def test_standalone_rel_on_quiet_lane_then_rack_stops_it(self):
        node = make_node(pid=0, retry_base=0.0, retry_cap=0.0)
        node.submit("m", 1)
        out = []
        advance(node, out)
        handle(node, 1, ack_rec(1, 1), out)
        out.clear()
        advance(node, out)  # lane quiet, rel unconfirmed: standalone REL
        assert sent_kind(out, REL) == [rel_rec(1, 1)]
        handle(node, 1, rack_rec(1, 1), out)
        out.clear()
        advance(node, out)
        assert sent_kind(out, REL) == []  # confirmed: no more RELs
        assert node.is_idle()

    def test_self_addressed_submit_rejected(self):
        node = make_node(pid=0)
        with pytest.raises(ValueError, match="self-addressed"):
            node.submit("m", 0)


class TestTimers:
    """The lane's timers on explicit clocks: release news goes out at once,
    the first wait after progress is the probe timeout
    ``min(rto, max(2·srtt, retry_base))``, later ones back off the RTO."""

    @staticmethod
    def round_trip(node, now, rtt):
        """One message out at ``now``, cumulatively ACKed ``rtt`` later."""
        node.submit("m", 1)
        out = []
        advance(node, out, now)
        lane = node._out_lanes[(1, 1)]
        handle(node, 1, ack_rec(1, lane.next_seq - 1), out, now + rtt)
        return lane

    def stalled_lane(self):
        """A lane whose one slow sample pinned ``rto`` to ``retry_cap``
        through ``rtt_max`` while 70 fast ones brought ``srtt`` down."""
        node = make_node(pid=0)  # retry_base 0.05, retry_cap 0.4
        lane = self.round_trip(node, 0.0, 0.3)
        for i in range(70):
            self.round_trip(node, 1.0 + i, 0.04)
        assert lane.rto == node.params.retry_cap
        assert 0.04 <= lane.srtt < 0.041
        return node, lane

    def test_higher_release_goes_out_on_the_next_advance(self):
        node = make_node(pid=0)
        lane = self.round_trip(node, 1.0, 0.01)
        out = []
        advance(node, out, 1.01)
        assert sent_kind(out, REL) == [rel_rec(1, 1)]  # arms the REL timer
        assert lane.rel_expiry > 1.03
        self.round_trip(node, 1.02, 0.01)
        out = []
        advance(node, out, 1.03)  # the timer has not expired: news anyway
        assert sent_kind(out, REL) == [rel_rec(1, 2)]
        out = []
        advance(node, out, 1.031)  # announced: a repeat waits for the timer
        assert sent_kind(out, REL) == []
        assert node.counters["retries"] == 0

    def test_progress_arms_the_probe_timeout_not_the_stalled_rto(self):
        node, lane = self.stalled_lane()
        for i in range(2):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out, 100.0)
        assert lane.expiry == 100.0 + 2 * lane.srtt  # sending arms the PTO
        handle(node, 1, ack_rec(1, lane.next_seq - 2), out, 100.04)
        assert len(lane.unacked) == 1
        assert lane.expiry == pytest.approx(100.04 + 2 * lane.srtt)
        assert lane.expiry < 100.04 + lane.rto

    def test_the_probe_timeout_is_floored_at_retry_base(self):
        node = make_node(pid=0, retry_base=0.05)
        lane = self.round_trip(node, 1.0, 0.001)
        assert 2 * lane.srtt < 0.05 < lane.rto
        node.submit("m", 1)
        advance(node, [], 2.0)
        assert lane.expiry == 2.05

    def test_rel_repeat_waits_a_probe_timeout_then_backs_off(self):
        node, lane = self.stalled_lane()
        out = []
        advance(node, out, 100.0)
        assert sent_kind(out, REL) == [rel_rec(1, lane.rel_cum)]
        pto = 2 * lane.srtt
        assert lane.rel_expiry == 100.0 + pto
        out = []
        advance(node, out, 100.0 + pto)  # first repeat: the probe timeout
        assert sent_kind(out, REL) == [rel_rec(1, lane.rel_cum)]
        assert node.counters["retries"] == 1
        assert lane.rel_expiry == pytest.approx(
            100.0 + pto + min(lane.rto * 2, node.params.retry_cap)
        )

    def test_rel_backoff_restarts_on_news_and_on_confirmed_progress_only(self):
        # Three messages erased at once: level 3 goes out and its repeats
        # back off 2, 4 RTOs.  A RACK or ACK confirming part of the level
        # restarts the backoff, a repeated confirmation does not, news of a
        # higher level does; the whole level confirmed ends the repeats.
        node = make_node(pid=0, window=4, retry_cap=2.0)
        for i in range(3):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out, 1.0)
        lane = node._out_lanes[(1, 1)]
        handle(node, 1, ack_rec(1, 3), out, 1.01)
        advance(node, out, 1.02)  # the news: REL(3)

        def repeat():
            """Fire the next repeat; the wait it arms, in RTOs."""
            now = lane.rel_expiry
            out = []
            advance(node, out, now)
            assert sent_kind(out, REL) == [rel_rec(1, lane.rel_cum)]
            return round((lane.rel_expiry - now) / lane.rto, 6)

        def hear(rec):
            handle(node, 1, rec, [], lane.rel_expiry - 0.01)

        assert [repeat(), repeat()] == [2, 4]
        hear(rack_rec(1, 1))  # part of the level
        assert repeat() == 2
        hear(rack_rec(1, 1))  # the same part again
        assert repeat() == 4
        hear(ack_rec(1, 3, 0, 2))
        assert repeat() == 2
        hear(ack_rec(1, 3, 0, 2))
        assert repeat() == 4
        node.submit("m3", 1)
        advance(node, out, lane.rel_expiry - 0.02)
        hear(ack_rec(1, 4, 0, 2))
        advance(node, out, lane.rel_expiry - 0.005)  # the news: REL(4)
        assert repeat() == 2
        hear(ack_rec(1, 4, 0, 4))  # all of it
        out = []
        advance(node, out, lane.rel_expiry + 10)
        assert sent_kind(out, REL) == []

    def test_a_second_expiry_backs_off_and_resends_only_aged_records(self):
        # Unchanged path: after the head probe, wait min(rto·backoff, cap)
        # and resend every record at least one RTO old.
        node = make_node(pid=0, window=8, rto_initial=0.1, retry_cap=0.4)
        for i in range(2):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out, 1.0)  # s1, s2; no sample yet: PTO = RTO = 0.1
        lane = node._out_lanes[(1, 1)]
        assert lane.expiry == 1.1
        node.submit("m2", 1)
        advance(node, out, 1.08)  # s3
        out.clear()
        advance(node, out, 1.1)  # first expiry: the head probe only
        assert [d["s"] for d in sent_data(out)] == [1]
        assert lane.expiry == pytest.approx(1.1 + min(0.1 * 2, 0.4))
        node.submit("m3", 1)
        advance(node, out, 1.25)  # s4, young at the next expiry
        out.clear()
        advance(node, out, lane.expiry - 0.001)
        assert sent_data(out) == []
        advance(node, out, lane.expiry)  # second expiry, no progress
        assert sorted(d["s"] for d in sent_data(out)) == [1, 2, 3]
        assert lane.backoff == 4
        assert lane.expiry == pytest.approx(1.3 + min(0.1 * 4, 0.4))
        assert node.counters["retries"] == 4


class TestDrainedStateLeaves:
    """Queues, lanes and routing reads exist only for live traffic."""

    def test_a_destination_keeps_no_queue_and_opens_no_lane(self):
        node = make_node()  # pid 1 of line(2)
        out = []
        handle(node, 0, data_rec(1, 1, 11, "a", True), out)
        handle(node, 0, rel_rec(1, 1), out)
        advance(node, out)
        assert node.counters["delivered"] == 1
        assert node.fwd.live() == set()
        assert node.window_occupancy() == []

    def test_a_relay_renumbers_then_keeps_no_queue_and_asks_no_route(self):
        node = make_node(pid=1, n=3)
        asked = []
        next_hop = node.routing.next_hop
        node.routing.next_hop = lambda p, d: asked.append(d) or next_hop(p, d)
        node.submit("m", 2)
        out = []
        advance(node, out)  # the local message takes seq 1 toward 2
        handle(node, 0, data_rec(2, 1, 11, "a", True), out)
        handle(node, 0, rel_rec(2, 1), out)
        out.clear()
        advance(node, out)
        assert [(d["u"], d["s"]) for d in sent_data(out)] == [(11, 2)]
        assert node.fwd.live() == set() and node.outbox.live() == set()
        asked.clear()
        advance(node, out, 1.001)
        assert asked == []


class TestObservabilityHooks:
    def test_batch_and_coalesce_metrics_populate(self):
        async def body():
            net = line_network(2)
            transport = LocalTransport(net)
            routing = StaticRouting(net)
            params = RuntimeParams(tick=0.002)
            nodes = [
                RuntimeNode(p, net, routing, transport, params)
                for p in range(2)
            ]
            for i in range(50):
                nodes[0].submit(f"m{i}", 1)
            tasks = [asyncio.ensure_future(n.run()) for n in nodes]
            for _ in range(1000):
                if nodes[1].core.counters["delivered"] == 50 and all(
                    n.is_idle() for n in nodes
                ):
                    break
                await asyncio.sleep(0.005)
            for n in nodes:
                n.stop()
            await asyncio.gather(*tasks)
            assert nodes[0].batch_sizes and max(nodes[0].batch_sizes) > 1
            assert max(nodes[1].core.ack_coalesce, default=0) > 1
            assert nodes[0].core.rto_samples
            assert len(nodes[0].core.hop_latencies) == 50

        asyncio.run(body())

    def test_window_occupancy_reports_per_lane(self):
        node = make_node(pid=0, window=4)
        for i in range(10):
            node.submit(f"m{i}", 1)
        out = []
        advance(node, out)
        assert node.window_occupancy() == [4]


class TestEndToEndOverLocalTransport:
    def test_two_nodes_deliver_and_drain(self):
        async def body():
            net = line_network(2)
            transport = LocalTransport(net)
            routing = StaticRouting(net)
            params = RuntimeParams(tick=0.002)
            nodes = [
                RuntimeNode(p, net, routing, transport, params)
                for p in range(2)
            ]
            for i in range(5):
                nodes[0].submit(f"m{i}", 1)
            tasks = [asyncio.ensure_future(n.run()) for n in nodes]
            for _ in range(1000):
                if nodes[1].core.counters["delivered"] == 5 and all(
                    n.is_idle() for n in nodes
                ):
                    break
                await asyncio.sleep(0.005)
            for n in nodes:
                n.stop()
            await asyncio.gather(*tasks)
            assert nodes[1].core.counters["delivered"] == 5
            assert nodes[0].core.counters["generated"] == 5
            assert len(nodes[0].core.hop_latencies) == 5
            kinds = [e.kind for e in nodes[1].core.events]
            assert kinds == ["delivered"] * 5

        asyncio.run(body())
