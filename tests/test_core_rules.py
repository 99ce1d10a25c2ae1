"""Unit tests for each of the six SSMFP rules against hand-built
configurations.

The fixture network is the 5-path 0-1-2-3-4 with correct static routing:
nextHop_p(d) moves toward d along the path, Δ = 2, colors in {0, 1, 2}.
"""

import pytest

from repro.errors import ReproError
from repro.network.topologies import line_network, paper_figure3_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting

from tests.helpers import make_ssmfp, rule


def gen(proto, source, dest, payload="m", color=0, step=0):
    """Create a tracked valid message as if R1 had generated it."""
    msg = proto.factory.generated(payload, source, dest, color, step)
    proto.ledger.record_generated(msg)
    return msg


class TestR1Generation:
    def test_enabled_and_generates(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "hello", 3)
        proto.before_step(0)
        action = rule(proto, "R1", 0, 3)
        assert action is not None and action.rule == "R1"
        action.execute()
        msg = proto.bufs.get_r(3, 0)
        assert msg.payload == "hello"
        assert msg.last == 0 and msg.color == 0
        assert msg.valid and msg.dest == 3
        assert not proto.hl.request[0]
        assert proto.ledger.generated_count == 1

    def test_disabled_without_request(self, line5):
        proto = make_ssmfp(line5)
        proto.before_step(0)
        assert rule(proto, "R1", 0, 3) is None

    def test_disabled_when_the_request_is_down_though_chosen(self, line5):
        # A start may leave p at the head of its own queue with request_p
        # false: R1 needs both.
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "x", 3)
        proto.before_step(0)
        proto.hl.request[0] = False
        assert rule(proto, "R1", 0, 3) is None

    def test_disabled_for_wrong_destination(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "x", 3)
        proto.before_step(0)
        assert rule(proto, "R1", 0, 2) is None

    def test_disabled_when_reception_occupied(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3)
        proto.bufs.set_r(3, 0, msg)
        proto.hl.submit(0, "y", 3)
        proto.before_step(0)
        assert rule(proto, "R1", 0, 3) is None

    def test_disabled_when_not_chosen(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "x", 3)
        proto.hl.before_step(0)
        proto.queues.force(3, 0, [1, 0])  # neighbor ahead in the queue
        assert rule(proto, "R1", 0, 3) is None

    def test_serves_queue_on_generation(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "x", 3)
        proto.before_step(0)
        rule(proto, "R1", 0, 3).execute()
        assert 0 not in proto.queues.peek(3, 0).items()


class TestR2InternalForwarding:
    def test_fresh_generation_moves_and_recolors(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3)
        proto.bufs.set_r(3, 0, msg)
        action = rule(proto, "R2", 0, 3)
        assert action is not None
        action.execute()
        assert proto.bufs.get_r(3, 0) is None
        moved = proto.bufs.get_e(3, 0)
        assert moved.uid == msg.uid
        assert moved.last == 0
        assert 0 <= moved.color <= proto.delta

    def test_blocked_while_source_holds_original(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_e(3, 0, msg.recolored(0, 1))       # original at 0
        proto.bufs.set_r(3, 1, msg.recolored(0, 1).forwarded_copy(0))  # copy at 1
        assert rule(proto, "R2", 1, 3) is None

    def test_enabled_after_source_erased(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 1, msg.recolored(0, 1).forwarded_copy(0))
        # bufE_0(3) is empty: the (q = p or bufE_q != (m,·,c)) disjunct holds.
        action = rule(proto, "R2", 1, 3)
        assert action is not None
        action.execute()
        assert proto.bufs.get_e(3, 1).uid == msg.uid

    def test_enabled_when_source_holds_different_color(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 1, msg.recolored(0, 1).forwarded_copy(0))
        other = proto.factory.invalid("m", 0, 2, 3)  # same payload, color 2
        proto.bufs.set_e(3, 0, other)
        assert rule(proto, "R2", 1, 3) is not None

    def test_blocked_when_emission_occupied(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3)
        proto.bufs.set_r(3, 0, msg)
        proto.bufs.set_e(3, 0, proto.factory.invalid("z", 0, 2, 3))
        assert rule(proto, "R2", 0, 3) is None

    def test_recolor_avoids_neighbor_reception_colors(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 1, 3)
        proto.bufs.set_r(3, 1, msg)
        # Neighbors 0 and 2 hold colors 0 and 1 -> must pick 2.
        proto.bufs.set_r(3, 0, proto.factory.invalid("a", 0, 0, 3))
        proto.bufs.set_r(3, 2, proto.factory.invalid("b", 2, 1, 3))
        rule(proto, "R2", 1, 3).execute()
        assert proto.bufs.get_e(3, 1).color == 2


class TestR3Forwarding:
    def _setup_candidate(self, proto, s=0, p=1, d=3, color=1):
        msg = gen(proto, s, d, color=color)
        emitted = msg.recolored(s, color)
        proto.bufs.set_e(d, s, emitted)
        proto.before_step(0)
        return emitted

    def test_copies_from_chosen_neighbor(self, line5):
        proto = make_ssmfp(line5)
        emitted = self._setup_candidate(proto)
        action = rule(proto, "R3", 1, 3)
        assert action is not None
        action.execute()
        copy = proto.bufs.get_r(3, 1)
        assert copy.uid == emitted.uid
        assert copy.last == 0          # stamped with the emitter
        assert copy.color == emitted.color  # color preserved
        # The original stays until R4.
        assert proto.bufs.get_e(3, 0) is not None

    def test_serves_queue(self, line5):
        proto = make_ssmfp(line5)
        self._setup_candidate(proto)
        rule(proto, "R3", 1, 3).execute()
        assert 0 not in proto.queues.peek(3, 1).items()

    def test_disabled_when_reception_occupied(self, line5):
        proto = make_ssmfp(line5)
        self._setup_candidate(proto)
        proto.bufs.set_r(3, 1, proto.factory.invalid("z", 1, 0, 3))
        assert rule(proto, "R3", 1, 3) is None

    def test_disabled_without_candidates(self, line5):
        proto = make_ssmfp(line5)
        proto.before_step(0)
        assert rule(proto, "R3", 1, 3) is None

    def test_disabled_when_choice_is_self(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(1, "x", 3)
        proto.before_step(0)
        assert proto.queues.head(3, 1) == 1
        assert rule(proto, "R3", 1, 3) is None

    def test_candidate_requires_next_hop_match(self, line5):
        # Emission at 0 targets 1 (nextHop_0(3) = 1); processor 2 must not
        # see 0 as a candidate.
        proto = make_ssmfp(line5)
        self._setup_candidate(proto)
        assert rule(proto, "R3", 2, 3) is None


class TestR4EraseAfterForwarding:
    def _handshake(self, proto, s=0, p=1, d=3, color=1):
        msg = gen(proto, s, d, color=color)
        emitted = msg.recolored(s, color)
        proto.bufs.set_e(d, s, emitted)
        proto.bufs.set_r(d, p, emitted.forwarded_copy(s))
        return emitted

    def test_erasing_the_last_copy_against_a_foreign_one_is_a_loss(self, line5):
        # Downstream sits another message with the same (payload, last,
        # color): R4 confirms against it and the original's last copy goes.
        proto = make_ssmfp(line5)
        emitted = self._handshake(proto)
        foreign = gen(proto, 0, 3, color=1).recolored(0, 1).forwarded_copy(0)
        proto.bufs.set_r(3, 1, foreign)
        with pytest.raises(ReproError, match=f"valid uid {emitted.uid} lost: R4"):
            rule(proto, "R4", 0, 3).execute()

    def test_erases_after_unique_copy_at_next_hop(self, line5):
        proto = make_ssmfp(line5)
        self._handshake(proto)
        action = rule(proto, "R4", 0, 3)
        assert action is not None
        action.execute()
        assert proto.bufs.get_e(3, 0) is None

    def test_disabled_without_copy(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_e(3, 0, msg.recolored(0, 1))
        assert rule(proto, "R4", 0, 3) is None

    def test_disabled_when_copy_color_differs(self, line5):
        proto = make_ssmfp(line5)
        emitted = self._handshake(proto, color=1)
        # Replace the copy with a same-payload different-color message.
        bad = proto.factory.invalid(emitted.payload, 0, 2, 3)
        proto.bufs.set_r(3, 1, bad)
        assert rule(proto, "R4", 0, 3) is None

    def test_disabled_at_destination(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 2, 3, color=0)
        proto.bufs.set_e(3, 3, msg.recolored(3, 0))
        assert rule(proto, "R4", 3, 3) is None

    def test_blocked_by_stale_copy_elsewhere(self, line5):
        # Processor 1 emitted toward 2 but a stale copy also sits at 0.
        proto = make_ssmfp(line5)
        msg = gen(proto, 1, 3, color=1)
        emitted = msg.recolored(1, 1)
        proto.bufs.set_e(3, 1, emitted)
        proto.bufs.set_r(3, 2, emitted.forwarded_copy(1))  # at next hop
        proto.bufs.set_r(3, 0, emitted.forwarded_copy(1))  # stale copy
        assert rule(proto, "R4", 1, 3) is None

    def test_enabled_once_stale_copy_cleared(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 1, 3, color=1)
        emitted = msg.recolored(1, 1)
        proto.bufs.set_e(3, 1, emitted)
        proto.bufs.set_r(3, 2, emitted.forwarded_copy(1))
        assert rule(proto, "R4", 1, 3) is not None


class TestR5EraseDuplicate:
    def test_erases_copy_when_next_hop_moved(self, line5):
        # Copy of 0's emission sits at 1, but 0's next hop is... on the
        # line nextHop_0(3) = 1; use a corrupted routing to point elsewhere.
        net = paper_figure3_network()  # a=0, b=1, c=2, d=3
        routing = SelfStabilizingBFSRouting(net)
        proto = make_ssmfp(net, routing=routing)
        msg = gen(proto, 0, 1, color=1)  # destination b=1
        emitted = msg.recolored(0, 1)
        proto.bufs.set_e(1, 0, emitted)
        proto.bufs.set_r(1, 2, emitted.forwarded_copy(0))  # stale copy at c
        # nextHop_a(b) = b != c, so the copy at c is erasable.
        action = rule(proto, "R5", 2, 1)
        assert action is not None
        action.execute()
        assert proto.bufs.get_r(1, 2) is None

    def test_disabled_when_copy_at_current_next_hop(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        emitted = msg.recolored(0, 1)
        proto.bufs.set_e(3, 0, emitted)
        proto.bufs.set_r(3, 1, emitted.forwarded_copy(0))
        assert rule(proto, "R5", 1, 3) is None  # nextHop_0(3) == 1

    def test_disabled_when_source_buffer_differs(self, line5):
        net = paper_figure3_network()
        proto = make_ssmfp(net)
        msg = gen(proto, 0, 1, color=1)
        proto.bufs.set_r(1, 2, msg.recolored(0, 1).forwarded_copy(0))
        # bufE_a(b) empty: nothing to compare against.
        assert rule(proto, "R5", 2, 1) is None

    def test_disambiguation_protects_fresh_generation(self, line5):
        # Literal R5 would erase a fresh generation whose payload+color
        # collide with the local emission buffer; the corrected rule
        # (q != p) must not.
        proto = make_ssmfp(line5)
        older = gen(proto, 0, 3, payload="dup", color=0)
        proto.bufs.set_e(3, 0, older.recolored(0, 0))
        fresh = gen(proto, 0, 3, payload="dup", color=0)
        proto.bufs.set_r(3, 0, fresh)  # last = 0 = p
        assert rule(proto, "R5", 0, 3) is None

    def test_literal_mode_reproduces_erratum(self, line5):
        from repro.core.ledger import DeliveryLedger

        proto = make_ssmfp(line5, r5_literal=True)
        proto.ledger = DeliveryLedger(strict=False)
        older = gen(proto, 0, 3, payload="dup", color=0)
        proto.bufs.set_e(3, 0, older.recolored(0, 0))
        fresh = gen(proto, 0, 3, payload="dup", color=0)
        proto.bufs.set_r(3, 0, fresh)
        action = rule(proto, "R5", 0, 3)
        assert action is not None  # the literal rule fires...
        action.execute()
        assert proto.ledger.lost_count == 1  # ...and loses the message

    def test_disabled_entirely_by_ablation(self, line5):
        net = paper_figure3_network()
        proto = make_ssmfp(net, enable_r5=False)
        msg = gen(proto, 0, 1, color=1)
        emitted = msg.recolored(0, 1)
        proto.bufs.set_e(1, 0, emitted)
        proto.bufs.set_r(1, 2, emitted.forwarded_copy(0))
        assert rule(proto, "R5", 2, 1) is None


class TestR6Consumption:
    def test_delivers_from_emission_buffer(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 2, 3, color=1)
        proto.bufs.set_e(3, 3, msg.recolored(3, 1))
        action = rule(proto, "R6", 3, 3)
        assert action is not None
        action.execute()
        assert proto.bufs.get_e(3, 3) is None
        assert proto.ledger.all_valid_delivered()
        assert proto.hl.delivered[0][0] == 3
        assert proto.hl.delivered[0][1].uid == msg.uid

    def test_only_fires_in_own_component(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_e(3, 2, msg.recolored(2, 1))
        assert rule(proto, "R6", 2, 3) is None

    def test_disabled_on_empty_buffer(self, line5):
        proto = make_ssmfp(line5)
        assert rule(proto, "R6", 3, 3) is None

    def test_delivers_invalid_messages_too(self, line5):
        proto = make_ssmfp(line5)
        garbage = proto.factory.invalid("g", 3, 0, 3)
        proto.bufs.set_e(3, 3, garbage)
        rule(proto, "R6", 3, 3).execute()
        assert proto.ledger.invalid_delivery_count == 1


class TestFullHandshakeSequence:
    def test_one_hop_pipeline(self, line5):
        """Walk one message through R1-R2-R3-R4-R2-R6 by hand on the
        2-segment 0->1 of the path with destination 1."""
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "payload", 1)
        proto.before_step(0)
        rule(proto, "R1", 0, 1).execute()          # generated at 0
        rule(proto, "R2", 0, 1).execute()          # into bufE_0(1)
        proto.before_step(1)
        rule(proto, "R3", 1, 1).execute()          # copied to bufR_1(1)
        rule(proto, "R4", 0, 1).execute()          # original erased
        rule(proto, "R2", 1, 1).execute()          # into bufE_1(1)
        rule(proto, "R6", 1, 1).execute()          # delivered
        assert proto.ledger.all_valid_delivered()
        assert proto.bufs.total_occupied() == 0
