"""Tests for the orientation-cover forwarding protocol (running X1)."""

import pytest

from repro.app.higher_layer import HigherLayer
from repro.baselines.orientation_forwarding import ClassPacket, OrientationForwarding
from repro.buffergraph.orientation_cover import greedy_cover, ring_cover, tree_cover
from repro.core.ledger import DeliveryLedger
from repro.network.topologies import (
    line_network,
    random_connected_network,
    random_tree_network,
    ring_network,
)
from repro.routing.static import StaticRouting
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import DistributedRandomDaemon, RoundRobinDaemon
from repro.statemodel.scheduler import Simulator


def plant_packet(proto, p, klass, payload, dest):
    """Plant an invalid packet at an arbitrary class (the corrupted initial
    configuration the scheme cannot digest)."""
    pkt = ClassPacket(payload, dest, -proto._next_uid, False)
    proto._next_uid += 1
    proto.buf[p][klass] = pkt
    return pkt


def wedged_packets(proto):
    """Stored packets with no feasible class for their next edge — stuck
    forever."""
    stuck = []
    for p in proto.net.processors():
        for c, pkt in enumerate(proto.buf[p]):
            if pkt is None or pkt.dest == p:
                continue
            nh = proto.routing.next_hop(p, pkt.dest)
            if proto.feasible_class(p, nh, c) is None:
                stuck.append((p, c, pkt))
    return stuck


def assemble(net, cover=None, seed=1):
    routing = StaticRouting(net)
    if cover is None:
        if net.m == net.n - 1:
            cover = tree_cover(net)
        elif net.m == net.n and all(net.degree(p) == 2 for p in net.processors()):
            cover = ring_cover(net, routing)
        else:
            cover = greedy_cover(net, seed=seed, routing=routing)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger()  # strict: raises on any violation
    proto = OrientationForwarding(net, routing, cover, hl, ledger)
    sim = Simulator(net.n, PriorityStack([proto]), DistributedRandomDaemon(seed=seed))
    return proto, sim


def run_until(proto, sim, want, max_steps=100_000):
    for _ in range(max_steps):
        if proto.ledger.valid_delivered_count >= want:
            return
        if sim.step().terminal:
            return
    raise AssertionError("budget exhausted")


class TestFaultFreeDelivery:
    def test_single_message_tree(self):
        net = line_network(5)
        proto, sim = assemble(net)
        proto.hl.submit(0, "m", 4)
        run_until(proto, sim, 1)
        assert proto.ledger.valid_delivered_count == 1
        assert proto.ledger.violations == [] if hasattr(proto.ledger, "violations") else True

    def test_ring_with_three_buffers(self):
        net = ring_network(8)
        proto, sim = assemble(net)
        assert proto.cover.size == 3
        count = 0
        for p in net.processors():
            proto.hl.submit(p, f"m{p}", (p + 3) % net.n)
            count += 1
        run_until(proto, sim, count)
        assert proto.ledger.valid_delivered_count == count
        assert all(slot is None for row in proto.buf for slot in row)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_exactly_once(self, seed):
        net = random_connected_network(8, 5, seed=seed)
        proto, sim = assemble(net, seed=seed)
        count = 0
        for p in net.processors():
            dest = (p + 2) % net.n
            if dest != p:
                proto.hl.submit(p, f"m{p}", dest)
                count += 1
        run_until(proto, sim, count)
        assert proto.ledger.valid_delivered_count == count

    def test_same_payload_stream(self):
        net = random_tree_network(7, seed=2)
        proto, sim = assemble(net)
        for _ in range(5):
            proto.hl.submit(0, "dup", 6)
        run_until(proto, sim, 5)
        assert proto.ledger.valid_delivered_count == 5

    def test_heavy_load_drains_without_deadlock(self):
        # The acyclic class graph is deadlock-free even when saturated.
        net = ring_network(6)
        proto, sim = assemble(net, seed=9)
        count = 0
        for p in net.processors():
            for i in range(3):
                proto.hl.submit(p, f"h{p}.{i}", (p + 2) % net.n)
                count += 1
        run_until(proto, sim, count, max_steps=300_000)
        assert proto.ledger.valid_delivered_count == count


class TestClassArithmetic:
    def test_feasible_class_monotone(self):
        net = ring_network(6)
        proto, _ = assemble(net)
        # Whatever the edge, the feasible class never decreases with c.
        for p in net.processors():
            for q in net.neighbors(p):
                prev = -1
                for c in range(proto.cover.size):
                    k = proto.feasible_class(p, q, c)
                    if k is not None:
                        assert k >= c
                        assert k >= prev
                        prev = k

    def test_generated_routes_always_feasible(self):
        # Cover validity means a packet generated at class 0 never wedges.
        net = random_connected_network(7, 4, seed=3)
        proto, sim = assemble(net, seed=3)
        proto.hl.submit(0, "m", net.n - 1)
        run_until(proto, sim, 1)
        assert wedged_packets(proto) == []


class TestNonStabilization:
    def test_planted_high_class_packet_wedges(self):
        # The open problem, live: an invalid packet planted at the TOP
        # class whose next edge needs a lower-class orientation can never
        # move again.
        net = ring_network(6)
        proto, sim = assemble(net)
        top = proto.cover.size - 1
        # Find a (p, dest) whose next edge is infeasible at the top class.
        planted = None
        for p in net.processors():
            for dest in net.processors():
                if dest == p:
                    continue
                nh = proto.routing.next_hop(p, dest)
                if proto.feasible_class(p, nh, top) is None:
                    planted = plant_packet(proto, p, top, "garbage", dest)
                    break
            if planted:
                break
        assert planted is not None
        assert wedged_packets(proto)
        for _ in range(2000):
            if sim.step().terminal:
                break
        # Still wedged: the scheme cannot digest arbitrary initial states.
        assert wedged_packets(proto)

    def test_wedged_buffer_blocks_later_traffic(self):
        # Worse: the wedged buffer is a permanently lost resource; traffic
        # that needs that exact (processor, class) buffer starves.
        net = ring_network(6)
        proto, sim = assemble(net)
        top = proto.cover.size - 1
        victim_proc = None
        for p in net.processors():
            for dest in net.processors():
                if dest != p and proto.feasible_class(
                    p, proto.routing.next_hop(p, dest), top
                ) is None:
                    plant_packet(proto, p, top, "garbage", dest)
                    victim_proc = p
                    break
            if victim_proc is not None:
                break
        assert victim_proc is not None
        # The network still works for routes avoiding that buffer...
        proto.hl.submit(victim_proc, "ok", net.neighbors(victim_proc)[0])
        run_until(proto, sim, 1, max_steps=50_000)
        assert proto.ledger.valid_delivered_count == 1
        # ...but the garbage never leaves.
        assert wedged_packets(proto)


class TestMismatchedCover:
    def test_cover_for_other_network_rejected(self):
        net_a = ring_network(6)
        net_b = ring_network(8)
        cover_b = ring_cover(net_b)
        hl = HigherLayer(net_a.n)
        with pytest.raises(ValueError, match="different network"):
            OrientationForwarding(net_a, StaticRouting(net_a), cover_b, hl)
