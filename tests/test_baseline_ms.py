"""Tests for the Merlin-Schweitzer baseline (both hosting semantics)."""

import pytest

from repro.app.higher_layer import HigherLayer
from repro.app.workload import adversarial_same_payload_workload, uniform_workload
from repro.baselines.merlin_schweitzer import FlaggedMessage, MerlinSchweitzerForwarding
from repro.core.ledger import DeliveryLedger
from repro.network.topologies import line_network, ring_network
from repro.routing.static import StaticRouting
from repro.sim.runner import build_baseline_simulation, delivered_and_drained
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import SynchronousDaemon
from repro.statemodel.scheduler import Simulator


def make_ms(net, atomic=True):
    hl = HigherLayer(net.n)
    proto = MerlinSchweitzerForwarding(
        net, StaticRouting(net), hl, atomic_moves=atomic
    )
    return proto


class TestFlaggedMessage:
    def test_identity_ignores_uid(self):
        a = FlaggedMessage("m", 0, 1, 3, uid=1, valid=True)
        b = FlaggedMessage("m", 0, 1, 3, uid=2, valid=True)
        assert a.same_identity(b)

    def test_identity_distinguishes_flag(self):
        a = FlaggedMessage("m", 0, 0, 3, uid=1, valid=True)
        b = FlaggedMessage("m", 0, 1, 3, uid=2, valid=True)
        assert not a.same_identity(b)

    def test_as_message_bridge(self):
        msg = FlaggedMessage("m", 2, 1, 3, uid=5, valid=True).as_message()
        assert msg.payload == "m" and msg.dest == 3 and msg.uid == 5


class TestAtomicMode:
    def test_single_message_delivered(self):
        net = line_network(4)
        proto = make_ms(net)
        proto.hl.submit(0, "m", 3)
        sim = Simulator(4, PriorityStack([proto]), SynchronousDaemon())
        for _ in range(100):
            if sim.step().terminal:
                break
        assert proto.ledger.valid_delivered_count == 1
        assert proto.ledger.violations == []
        assert all(m is None for row in proto.buf for m in row)

    def test_exactly_once_with_correct_tables(self):
        net = ring_network(6)
        sim = build_baseline_simulation(
            net,
            workload=uniform_workload(net.n, 15, seed=3),
            routing_mode="static", seed=3,
        )
        sim.run(100_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 15
        assert sim.ledger.violations == []
        assert sim.ledger.lost_count == 0

    def test_same_payload_stream_safe_in_atomic_mode(self):
        net = line_network(4)
        sim = build_baseline_simulation(
            net,
            workload=adversarial_same_payload_workload(0, 3, 6),
            routing_mode="static", seed=1,
        )
        sim.run(100_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 6
        assert sim.ledger.violations == []

    def test_flag_alternates_per_generation(self):
        net = line_network(3)
        proto = make_ms(net)
        proto.hl.submit(0, "a", 2)
        proto.hl.submit(0, "b", 2)
        proto.before_step(0)
        actions = proto.enabled_actions(0)
        gen = [a for a in actions if a.rule == "BG"][0]
        gen.execute()
        first_flag = proto.buf[2][0].flag
        # Clear the buffer, generate again.
        proto.buf[2][0] = None
        proto.before_step(1)
        [a for a in proto.enabled_actions(0) if a.rule == "BG"][0].execute()
        assert proto.buf[2][0].flag == first_flag ^ 1

    def test_atomic_move_empties_source(self):
        net = line_network(3)
        proto = make_ms(net)
        proto.buf[2][0] = FlaggedMessage("m", 0, 0, 2, uid=1, valid=True)
        proto.ledger.record_generated(proto.buf[2][0].as_message())
        bf = [a for a in proto.enabled_actions(0) if a.rule == "BF"][0]
        bf.execute()
        assert proto.buf[2][0] is None
        assert proto.buf[2][1] is not None

    def test_generation_aborts_when_buffer_taken_same_step(self):
        # Regression: a concurrent same-step move fills the generation
        # buffer between guard and apply; BG must abort, not overwrite
        # (overwriting silently destroyed the incoming message).
        net = line_network(3)
        proto = make_ms(net)
        proto.hl.submit(1, "mine", 2)
        proto.before_step(0)
        bg = [a for a in proto.enabled_actions(1) if a.rule == "BG"][0]
        incoming = FlaggedMessage("theirs", 0, 0, 2, uid=7, valid=True)
        proto.buf[2][1] = incoming  # the concurrent move lands first
        bg.execute()
        assert proto.buf[2][1] is incoming  # not overwritten
        assert proto.hl.request[1]          # request still pending

    def test_concurrent_move_aborts_keeping_source(self):
        net = line_network(3)
        proto = make_ms(net)
        proto.buf[2][0] = FlaggedMessage("m", 0, 0, 2, uid=1, valid=True)
        bf = [a for a in proto.enabled_actions(0) if a.rule == "BF"][0]
        # Another message lands in the target before the effect applies.
        proto.buf[2][1] = FlaggedMessage("z", 1, 0, 2, uid=2, valid=True)
        bf.execute()
        assert proto.buf[2][0] is not None  # source kept


class TestSplitMode:
    def test_duplicates_under_adversarial_daemon(self):
        # The naive state-model port duplicates even with CORRECT tables:
        # the receiver's copy moves on before the sender erases, the sender
        # re-forwards.  Found on many random seeds.
        violations = 0
        for seed in range(8):
            net = line_network(5)
            sim = build_baseline_simulation(
                net, atomic_moves=False,
                workload=uniform_workload(net.n, 10, seed=seed),
                routing_mode="static", seed=seed,
            )
            sim.run(60_000, halt=delivered_and_drained, raise_on_limit=False)
            violations += len(sim.ledger.violations)
        assert violations > 0

    def test_erase_rule_only_in_split_mode(self):
        net = line_network(3)
        proto = make_ms(net, atomic=False)
        msg = FlaggedMessage("m", 0, 0, 2, uid=1, valid=True)
        proto.buf[2][0] = msg
        proto.buf[2][1] = msg  # identity match at next hop
        rules = {a.rule for a in proto.enabled_actions(0)}
        assert "BE" in rules
        proto_atomic = make_ms(net, atomic=True)
        proto_atomic.buf[2][0] = msg
        proto_atomic.buf[2][1] = msg
        rules = {a.rule for a in proto_atomic.enabled_actions(0)}
        assert "BE" not in rules

    def test_stale_flag_match_records_loss(self):
        net = line_network(3)
        proto = make_ms(net, atomic=False)
        mine = FlaggedMessage("m", 0, 0, 2, uid=5, valid=True)
        stale = FlaggedMessage("m", 0, 0, 2, uid=3, valid=True)  # same identity!
        proto.ledger.record_generated(mine.as_message())
        proto.buf[2][0] = mine
        proto.buf[2][1] = stale
        be = [a for a in proto.enabled_actions(0) if a.rule == "BE"][0]
        be.execute()
        assert proto.ledger.lost_count == 1


class TestInvalidGarbage:
    def test_planted_garbage_delivered_as_invalid(self):
        net = line_network(3)
        proto = make_ms(net)
        proto.buf[2][1] = FlaggedMessage("junk", 0, 0, 2, -1, False)  # garbage
        sim = Simulator(3, PriorityStack([proto]), SynchronousDaemon())
        for _ in range(50):
            if sim.step().terminal:
                break
        assert proto.ledger.invalid_delivery_count == 1
