"""Tests for routing analysis helpers."""

from repro.network.topologies import line_network, ring_network
from repro.routing.analysis import next_hop_cycles, routing_errors
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting

from tests.helpers import corrupt_with_cycle, routing_is_correct


class TestRoutingErrors:
    def test_correct_tables_have_no_errors(self):
        net = ring_network(6)
        assert routing_errors(net, StaticRouting(net)) == []
        assert routing_is_correct(net, StaticRouting(net))

    def test_corrupted_tables_reported(self):
        net = line_network(5)
        routing = SelfStabilizingBFSRouting(net)
        routing.set_entry(0, 2, 2, 3)  # away from destination 0
        errors = routing_errors(net, routing)
        assert any("not on a minimal path" in e for e in errors)
        assert not routing_is_correct(net, routing)

    def test_non_neighbor_hop_reported(self):
        net = line_network(5)
        routing = SelfStabilizingBFSRouting(net)
        routing.set_entry(0, 2, 2, 0)  # 0 is not adjacent to 2 on the line
        errors = routing_errors(net, routing)
        assert any("not a neighbor" in e for e in errors)


class TestNextHopCycles:
    def test_correct_tables_acyclic(self):
        net = ring_network(6)
        routing = StaticRouting(net)
        for d in net.processors():
            assert next_hop_cycles(net, routing, d) == []

    def test_planted_cycle_found(self):
        net = ring_network(6)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[2, 3])
        cycles = next_hop_cycles(net, routing, dest=0)
        assert len(cycles) == 1
        assert set(cycles[0]) == {2, 3}

    def test_long_cycle_found(self):
        from repro.network.topologies import complete_network

        net = complete_network(6)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[1, 2, 3, 4, 5])
        cycles = next_hop_cycles(net, routing, dest=0)
        assert any(len(c) == 5 for c in cycles)

    def test_each_cycle_reported_once(self):
        net = ring_network(8)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[2, 3])
        corrupt_with_cycle(routing, dest=0, cycle=[5, 6])
        cycles = next_hop_cycles(net, routing, dest=0)
        assert len(cycles) == 2
