"""Tests for the self-stabilizing BFS routing protocol (the paper's A)."""

import pytest

from repro.network.properties import all_pairs_distances
from repro.network.topologies import (
    grid_network,
    line_network,
    random_connected_network,
    ring_network,
    star_network,
)
from repro.routing.corruption import corrupt_random, corrupt_worst_case
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.statemodel.daemon import (
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
)
from repro.statemodel.scheduler import Simulator

from tests.helpers import corrupt_with_cycle, routing_is_correct


def run_to_silence(routing, daemon, max_steps=50_000):
    sim = Simulator(routing.network.n, routing, daemon)
    result = sim.run(max_steps=max_steps)
    assert result.terminal, "routing protocol did not become silent"
    return sim


class TestInitialState:
    def test_starts_converged(self):
        routing = SelfStabilizingBFSRouting(ring_network(6))
        assert routing.is_correct()

    def test_converged_state_is_silent(self):
        routing = SelfStabilizingBFSRouting(ring_network(6))
        assert all(not routing.enabled_actions(p) for p in range(6))

    def test_matches_static_fixpoint(self):
        from repro.routing.static import StaticRouting

        net = random_connected_network(10, 6, seed=3)
        routing = SelfStabilizingBFSRouting(net)
        static = StaticRouting(net)
        for d in net.processors():
            for p in net.processors():
                assert routing.next_hop(p, d) == static.next_hop(p, d)


class TestSelfStabilization:
    @pytest.mark.parametrize("seed", range(5))
    def test_converges_from_random_corruption(self, seed):
        net = random_connected_network(10, 6, seed=seed)
        routing = SelfStabilizingBFSRouting(net)
        hit = corrupt_random(routing, seed=seed, fraction=1.0)
        assert hit == net.n * net.n
        run_to_silence(routing, DistributedRandomDaemon(seed=seed))
        assert routing.is_correct()
        assert routing_is_correct(net, routing)

    @pytest.mark.parametrize(
        "net_builder",
        [
            lambda: line_network(8),
            lambda: ring_network(9),
            lambda: star_network(7),
            lambda: grid_network(3, 3),
        ],
    )
    def test_converges_on_topology_zoo(self, net_builder):
        net = net_builder()
        routing = SelfStabilizingBFSRouting(net)
        corrupt_worst_case(routing, seed=1)
        run_to_silence(routing, SynchronousDaemon())
        assert routing.is_correct()

    def test_converges_under_round_robin(self):
        net = ring_network(6)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_random(routing, seed=2)
        run_to_silence(routing, RoundRobinDaemon())
        assert routing.is_correct()

    def test_silent_after_convergence(self):
        net = line_network(5)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_random(routing, seed=4)
        sim = run_to_silence(routing, SynchronousDaemon())
        # Terminal means no enabled action anywhere: silence.
        assert sim.terminal

    def test_next_hop_always_domain_valid_during_repair(self):
        net = random_connected_network(8, 5, seed=7)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_worst_case(routing, seed=7)
        sim = Simulator(net.n, routing, DistributedRandomDaemon(seed=7))
        for _ in range(200):
            for d in net.processors():
                for p in net.processors():
                    nh = routing.next_hop(p, d)
                    assert nh == p or nh in net.neighbors(p)
            if sim.step().terminal:
                break

    def test_destination_entry_monotone(self):
        # Once RTself fixes the destination's own entry it never changes.
        net = ring_network(5)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_worst_case(routing, seed=3)
        sim = Simulator(net.n, routing, DistributedRandomDaemon(seed=3))
        fixed = {}
        for _ in range(5000):
            for d in net.processors():
                if routing.dist[d][d] == 0 and routing.hop[d][d] == d:
                    fixed[d] = True
                else:
                    assert d not in fixed, "destination entry regressed"
            if sim.step().terminal:
                break
        assert len(fixed) == net.n

    def test_converges_to_minimal_paths(self):
        net = random_connected_network(12, 10, seed=9)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_random(routing, seed=9)
        run_to_silence(routing, SynchronousDaemon())
        true = all_pairs_distances(net)
        for d in net.processors():
            for p in net.processors():
                assert routing.dist[d][p] == true[d][p]

    def test_convergence_rounds_polynomial_in_n(self):
        # Count-to-cap makes worst-case convergence O(n^2) rounds under the
        # synchronous daemon (empirically ~n^2/4 on a line); it must stay
        # within that envelope and, critically, always terminate.
        for n in (4, 8, 16):
            net = line_network(n)
            routing = SelfStabilizingBFSRouting(net)
            corrupt_worst_case(routing, seed=5)
            sim = run_to_silence(routing, SynchronousDaemon())
            assert sim.round_count <= n * n


class TestCorruptionModels:
    def test_corrupt_random_fraction_zero_is_noop(self):
        routing = SelfStabilizingBFSRouting(ring_network(5))
        assert corrupt_random(routing, seed=1, fraction=0.0) == 0
        assert routing.is_correct()

    def test_corrupt_random_rejects_bad_fraction(self):
        routing = SelfStabilizingBFSRouting(ring_network(5))
        with pytest.raises(ValueError):
            corrupt_random(routing, seed=1, fraction=1.5)

    def test_corrupt_with_cycle_creates_cycle(self):
        from repro.routing.analysis import next_hop_cycles

        net = ring_network(5)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[1, 2])
        cycles = next_hop_cycles(net, routing, dest=0)
        assert any(set(c) == {1, 2} for c in cycles)

    def test_corrupt_with_cycle_rejects_non_edges(self):
        net = line_network(4)
        routing = SelfStabilizingBFSRouting(net)
        with pytest.raises(ValueError, match="not an edge"):
            corrupt_with_cycle(routing, dest=3, cycle=[0, 2])

    def test_corrupt_with_cycle_rejects_destination_in_cycle(self):
        net = ring_network(4)
        routing = SelfStabilizingBFSRouting(net)
        with pytest.raises(ValueError, match="destination"):
            corrupt_with_cycle(routing, dest=1, cycle=[1, 2])

    def test_corrupt_worst_case_misroutes_everything(self):
        net = line_network(6)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_worst_case(routing, seed=2)
        assert not routing.is_correct()
        # On a line the worst neighbor for destination 0 is always the
        # higher-id neighbor.
        assert routing.next_hop(1, 0) == 2

    def test_corruption_deterministic(self):
        net = random_connected_network(8, 4, seed=0)
        r1 = SelfStabilizingBFSRouting(net)
        r2 = SelfStabilizingBFSRouting(net)
        corrupt_random(r1, seed=42)
        corrupt_random(r2, seed=42)
        assert r1.dist == r2.dist and r1.hop == r2.hop
