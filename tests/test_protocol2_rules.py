"""Unit tests for the six rules of the journal's second protocol (F1-F6)
against hand-built configurations.

The fixture network is the 5-path 0-1-2-3-4 with correct static routing,
as in ``test_core_rules.py`` — but here the buffer plane is fused: one
``bufR_p(d)`` per (processor, destination), ownership encoded in
``msg.last`` (owned iff ``last == p``).
"""

import pytest

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.core.protocol2 import SSMFP2
from repro.errors import SpecificationViolation
from repro.routing.static import StaticRouting

from tests.helpers import make_ssmfp2, rule


def gen(proto, source, dest, payload="m", color=0, step=0):
    """Create a tracked valid message as if F1 had generated it."""
    msg = proto.factory.generated(payload, source, dest, color, step)
    proto.ledger.record_generated(msg)
    return msg


class TestF1Generation:
    def test_enabled_and_generates_owned_colored(self, line5):
        proto = make_ssmfp2(line5)
        proto.hl.submit(0, "hello", 3)
        proto.before_step(0)
        action = rule(proto, "F1", 0, 3)
        assert action is not None and action.rule == "F1"
        assert action.protocol == "SSMFP2"
        action.execute()
        msg = proto.bufs.get_r(3, 0)
        assert msg.payload == "hello"
        assert msg.last == 0  # owned from birth
        assert 0 <= msg.color <= proto.delta
        assert msg.valid and msg.dest == 3
        assert not proto.hl.request[0]
        assert proto.ledger.generated_count == 1
        # The E plane stays empty in the fused scheme.
        assert proto.bufs.get_e(3, 0) is None

    def test_disabled_without_request(self, line5):
        proto = make_ssmfp2(line5)
        proto.before_step(0)
        assert rule(proto, "F1", 0, 3) is None

    def test_disabled_when_the_request_is_down_though_chosen(self, line5):
        proto = make_ssmfp2(line5)
        proto.hl.submit(0, "x", 3)
        proto.before_step(0)
        proto.hl.request[0] = False
        assert rule(proto, "F1", 0, 3) is None

    def test_disabled_when_buffer_occupied(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 0, gen(proto, 0, 3))
        proto.hl.submit(0, "y", 3)
        proto.before_step(0)
        assert rule(proto, "F1", 0, 3) is None

    def test_disabled_when_not_chosen(self, line5):
        proto = make_ssmfp2(line5)
        proto.hl.submit(0, "x", 3)
        proto.hl.before_step(0)
        proto.queues.force(3, 0, [1, 0])  # neighbor ahead in the queue
        assert rule(proto, "F1", 0, 3) is None


class TestF2Adoption:
    def test_adopts_once_upstream_erased(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))  # copy, upstream empty
        action = rule(proto, "F2", 1, 3)
        assert action is not None and action.rule == "F2"
        action.execute()
        adopted = proto.bufs.get_r(3, 1)
        assert adopted.uid == msg.uid
        assert adopted.last == 1  # ownership taken
        assert adopted.hops == msg.hops + 1

    def test_blocked_while_upstream_holds_original(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 0, msg)                    # original, owned by 0
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))  # unadopted copy at 1
        assert rule(proto, "F2", 1, 3) is None

    def test_enabled_when_upstream_holds_different_color(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))
        other = proto.factory.invalid("m", 0, 2, 3)  # same payload, color 2
        proto.bufs.set_r(3, 0, other)
        assert rule(proto, "F2", 1, 3) is not None

    def test_disabled_for_owned_message(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 1, gen(proto, 0, 3).recolored(1, 0))
        assert rule(proto, "F2", 1, 3) is None


class TestF3Forwarding:
    def test_copies_owned_neighbor_message(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 0, msg)  # owned at 0, routed through 1
        proto.before_step(0)
        action = rule(proto, "F3", 1, 3)
        assert action is not None and action.rule == "F3"
        action.execute()
        copy = proto.bufs.get_r(3, 1)
        assert copy.uid == msg.uid
        assert copy.last == 0 and copy.color == msg.color  # unadopted
        assert proto.bufs.get_r(3, 0) is msg  # original stays until F4

    def test_blocked_when_local_buffer_occupied(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 0, gen(proto, 0, 3))
        proto.bufs.set_r(3, 1, proto.factory.invalid("g", 1, 0, 3))
        proto.before_step(0)
        assert rule(proto, "F3", 1, 3) is None

    def test_stale_queue_entry_for_unowned_message_is_guarded(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3)
        proto.bufs.set_r(3, 0, msg.forwarded_copy(4))  # unadopted at 0
        proto.queues.force(3, 1, [0])                  # stale by construction
        assert rule(proto, "F3", 1, 3) is None


class TestF4EraseAfterForward:
    def test_erases_once_copy_confirmed_downstream(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 0, msg)
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))
        action = rule(proto, "F4", 0, 3)
        assert action is not None and action.rule == "F4"
        action.execute()
        assert proto.bufs.get_r(3, 0) is None
        assert proto.ledger.lost_count == 0  # the real copy survives

    def test_blocked_without_downstream_copy(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 0, gen(proto, 0, 3))
        assert rule(proto, "F4", 0, 3) is None

    def test_blocked_while_stale_copy_on_other_neighbor(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 1, 3, color=1).recolored(1, 1)
        proto.bufs.set_r(3, 1, msg)
        proto.bufs.set_r(3, 2, msg.forwarded_copy(1))  # next hop toward 3
        proto.bufs.set_r(3, 0, msg.forwarded_copy(1))  # stale copy behind
        assert rule(proto, "F4", 1, 3) is None

    def test_blocked_at_destination(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 3, gen(proto, 0, 3).recolored(3, 0))
        assert rule(proto, "F4", 3, 3) is None

    def test_foreign_confirmation_records_loss(self, line5):
        # Same (payload, last, color) pattern from a *different* message —
        # possible only from invalid garbage — destroys the original;
        # the ledger must account for it.
        net = line5
        ledger = DeliveryLedger(strict=False)
        proto = SSMFP2(net, StaticRouting(net), HigherLayer(net.n), ledger)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 0, msg)
        proto.bufs.set_r(3, 1, proto.factory.invalid("m", 0, 1, 3))
        action = rule(proto, "F4", 0, 3)
        assert action is not None
        action.execute()
        assert proto.bufs.get_r(3, 0) is None
        assert ledger.lost_count == 1


class TestF5EraseDuplicate:
    def test_erases_copy_when_emitter_routes_elsewhere(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 1, 3, color=1).recolored(1, 1)
        proto.bufs.set_r(3, 1, msg)
        proto.bufs.set_r(3, 2, msg.forwarded_copy(1))  # real copy, kept
        proto.bufs.set_r(3, 0, msg.forwarded_copy(1))  # stale copy at 0
        action = rule(proto, "F5", 0, 3)
        assert action is not None and action.rule == "F5"
        action.execute()
        assert proto.bufs.get_r(3, 0) is None
        assert proto.ledger.lost_count == 0  # other copies survive

    def test_blocked_when_still_the_next_hop(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1)
        proto.bufs.set_r(3, 0, msg)
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))
        assert rule(proto, "F5", 1, 3) is None  # that's F4's confirmation

    def test_erasing_last_copy_is_a_specification_violation(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 1, 3, color=1).recolored(1, 1)
        proto.bufs.set_r(3, 0, msg.forwarded_copy(1))  # only copy anywhere
        # Plant a same-pattern invalid at the emitter so the guard fires.
        proto.bufs.set_r(3, 1, proto.factory.invalid("m", 1, 1, 3))
        action = rule(proto, "F5", 0, 3)
        assert action is not None
        with pytest.raises(SpecificationViolation):
            action.execute()


class TestF6Consumption:
    def test_delivers_owned_message_at_destination(self, line5):
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1).recolored(3, 0)
        proto.bufs.set_r(3, 3, msg)
        action = rule(proto, "F6", 3, 3)
        assert action is not None and action.rule == "F6"
        action.execute()
        assert proto.bufs.get_r(3, 3) is None
        assert proto.ledger.all_valid_delivered()
        (at, delivered, _step) = proto.hl.delivered[0]
        assert at == 3 and delivered.uid == msg.uid

    def test_blocked_for_unadopted_copy(self, line5):
        # Delivering an unadopted copy would wedge the upstream F4: the
        # destination must adopt (F2) first, one extra move per delivery.
        proto = make_ssmfp2(line5)
        msg = gen(proto, 0, 3, color=1).recolored(2, 1)
        proto.bufs.set_r(3, 3, msg.forwarded_copy(2))
        assert rule(proto, "F6", 3, 3) is None
        assert rule(proto, "F2", 3, 3) is not None

    def test_blocked_away_from_destination(self, line5):
        proto = make_ssmfp2(line5)
        proto.bufs.set_r(3, 1, gen(proto, 0, 3).recolored(1, 0))
        assert rule(proto, "F6", 1, 3) is None


class TestEndToEndHop:
    def test_one_message_crosses_the_path(self, line5):
        """Drive the F1→(F3,F4,F2)*→F6 pipeline by hand across 0-1-2-3."""
        proto = make_ssmfp2(line5)
        proto.hl.submit(0, "x", 3)
        proto.before_step(0)
        rule(proto, "F1", 0, 3).execute()
        for hop in (1, 2, 3):
            proto.before_step(hop)
            rule(proto, "F3", hop, 3).execute()      # copy forward
            rule(proto, "F4", hop - 1, 3).execute()  # upstream erases
            rule(proto, "F2", hop, 3).execute()      # adopt
        rule(proto, "F6", 3, 3).execute()
        assert proto.ledger.all_valid_delivered()
        assert proto.network_is_empty()
