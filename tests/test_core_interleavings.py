"""Adversarial interleaving tests: scripted multi-processor steps that
exercise the races the snapshot semantics and rule guards must survive.

Each scenario drives SSMFP with an AdversarialScriptDaemon so the exact
simultaneity the paper's atomic-step model allows is reproduced — the
situations a random daemon only hits occasionally.
"""

import pytest

from repro.core.invariants import InvariantChecker
from repro.network.graph import Network
from repro.network.topologies import line_network, paper_figure3_network
from repro.routing.scripted import ScriptedRouting
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import AdversarialScriptDaemon, RoundRobinDaemon
from repro.statemodel.scheduler import Simulator

from tests.helpers import after_each_step, make_ssmfp


def scripted_sim(proto, script):
    return after_each_step(
        Simulator(
            proto.net.n, PriorityStack([proto]), AdversarialScriptDaemon(script)
        ),
        InvariantChecker(proto).check,
    )


class TestSimultaneousHandshakes:
    def test_two_flows_cross_at_one_processor(self):
        """Two messages for different destinations cross processor 2 of a
        5-path simultaneously; components are independent, both deliver."""
        net = line_network(5)
        proto = make_ssmfp(net)
        proto.hl.submit(0, "east", 4)
        proto.hl.submit(4, "west", 0)
        script = [
            [(0, "R1", 4), (4, "R1", 0)],
            [(0, "R2", 4), (4, "R2", 0)],
            [(1, "R3", 4), (3, "R3", 0)],
            [(0, "R4", 4), (4, "R4", 0)],
            [(1, "R2", 4), (3, "R2", 0)],
            [(2, "R3", 4), (2, "R5", 0)],  # placeholder; replaced below
        ]
        # The sixth step is delicate: processor 2 can only execute ONE
        # action per step even though both components want R3.  Interleave.
        script[5] = [(2, "R3", 4), (1, "R4", 4)]
        sim = scripted_sim(proto, script[:5])
        for _ in range(5):
            sim.step()
        # Finish under a fair daemon; exactly-once enforced throughout.
        finisher = after_each_step(
            Simulator(net.n, PriorityStack([proto]), RoundRobinDaemon()),
            InvariantChecker(proto).check,
        )
        for _ in range(2000):
            if proto.ledger.valid_delivered_count == 2:
                break
            if finisher.step().terminal:
                break
        assert proto.ledger.valid_delivered_count == 2

    def test_simultaneous_r3_and_r1_same_component(self):
        """While q pulls p's message (R3), p simultaneously generates its
        next one (R1) — legal: R1 writes bufR_p, R3 writes bufR_q."""
        net = line_network(3)
        proto = make_ssmfp(net)
        proto.hl.submit(0, "first", 2)
        proto.hl.submit(0, "second", 2)
        script = [
            [(0, "R1", 2)],
            [(0, "R2", 2)],
            [(1, "R3", 2), (0, "R1", 2)],  # the simultaneous step
        ]
        sim = scripted_sim(proto, script)
        for _ in range(3):
            sim.step()
        assert proto.bufs.get_r(2, 1) is not None  # the copy arrived
        assert proto.bufs.get_r(2, 0) is not None  # the new generation too
        assert proto.bufs.get_r(2, 0).payload == "second"

    def test_r4_and_next_hop_r2_never_coenabled(self):
        """R2 at the next hop requires the source's emission buffer to no
        longer hold (m,·,c); R4 is what erases it — they cannot fire in
        the same step, so the handshake is strictly sequenced."""
        net = line_network(3)
        proto = make_ssmfp(net)
        msg = proto.factory.generated("m", 0, 2, 1, 0)
        proto.ledger.record_generated(msg)
        emitted = msg.recolored(0, 1)
        proto.bufs.set_e(2, 0, emitted)
        proto.bufs.set_r(2, 1, emitted.forwarded_copy(0))
        proto.before_step(0)
        rules_at_1 = {a.rule for a in proto.enabled_actions(1)}
        rules_at_0 = {a.rule for a in proto.enabled_actions(0)}
        assert "R4" in rules_at_0
        assert "R2" not in rules_at_1  # blocked until R4 fires


class TestStaleCopyRaces:
    def _fig3_with_stale_copy(self):
        """Processor a emitted toward c (corrupt), copy sits at c, table
        then repaired to point at b: the R5/R3 cleanup situation."""
        net = paper_figure3_network()  # a=0 b=1 c=2 d=3
        a, b, c = 0, 1, 2
        routing = ScriptedRouting(net)
        routing.set_hop(a, b, c)  # a's next hop for dest b is (wrongly) c
        proto = make_ssmfp(net, routing=routing)
        proto.hl.submit(a, "m", b)
        sim = scripted_sim(
            proto,
            [
                [(a, "R1", b)],
                [(a, "R2", b)],
                [(c, "R3", b)],  # copy lands at the WRONG hop
            ],
        )
        for _ in range(3):
            sim.step()
        routing.repair_all()  # a's next hop becomes b
        return net, proto

    def test_r5_and_r3_can_fire_together(self):
        """After repair: c erases its stale copy (R5) while b pulls a
        fresh one (R3) — simultaneously, on γ_i."""
        net, proto = self._fig3_with_stale_copy()
        a, b, c = 0, 1, 2
        proto.before_step(10)
        assert {x.rule for x in proto.enabled_actions(c)} >= {"R5"}
        assert {x.rule for x in proto.enabled_actions(b)} >= {"R3"}
        sim = scripted_sim(proto, [[(c, "R5", b), (b, "R3", b)]])
        sim.step()
        assert proto.bufs.get_r(b, c) is None       # stale copy gone
        assert proto.bufs.get_r(b, b) is not None   # fresh copy arrived

    def test_r4_blocked_until_stale_cleaned(self):
        """R4's uniqueness conjunct holds the erase while two copies of
        (m, a, c) exist; after R5 it fires."""
        net, proto = self._fig3_with_stale_copy()
        a, b, c = 0, 1, 2
        proto.before_step(10)
        # Pull the fresh copy to b first: now copies at both b and c.
        sim = scripted_sim(proto, [[(b, "R3", b)]])
        sim.step()
        proto.before_step(11)
        assert not [x for x in proto.enabled_actions(a) if x.rule == "R4"]
        sim2 = scripted_sim(proto, [[(c, "R5", b)]])
        sim2.step()
        proto.before_step(12)
        assert [x for x in proto.enabled_actions(a) if x.rule == "R4"]

    def test_full_recovery_delivers_exactly_once(self):
        net, proto = self._fig3_with_stale_copy()
        sim = after_each_step(
            Simulator(net.n, PriorityStack([proto]), RoundRobinDaemon()),
            InvariantChecker(proto).check,
        )
        for _ in range(2000):
            if proto.ledger.valid_delivered_count == 1:
                break
            if sim.step().terminal:
                break
        assert proto.ledger.valid_delivered_count == 1
        assert proto.network_is_empty()


class TestGenerationRaces:
    def test_r1_requires_winning_the_queue(self):
        """A neighbor's pending offer ahead in the queue defers R1 —
        generation and forwarding share the same fairness."""
        net = line_network(3)
        proto = make_ssmfp(net)
        # Neighbor 0 targets 1's reception buffer for destination 2...
        msg = proto.factory.generated("transit", 0, 2, 1, 0)
        proto.ledger.record_generated(msg)
        proto.bufs.set_e(2, 0, msg.recolored(0, 1))
        # ...and 1 itself wants to generate for destination 2.
        proto.hl.submit(1, "local", 2)
        proto.before_step(0)
        assert proto.queues.head(2, 1) == 0  # the neighbor arrived first?
        # FIFO: candidates added sorted on first sync -> 0 before 1.
        assert not [a for a in proto.enabled_actions(1) if a.rule == "R1"]
        assert [a for a in proto.enabled_actions(1) if a.rule == "R3"]

    def test_generation_wins_when_alone(self):
        net = line_network(3)
        proto = make_ssmfp(net)
        proto.hl.submit(1, "local", 2)
        proto.before_step(0)
        assert [a for a in proto.enabled_actions(1) if a.rule == "R1"]
