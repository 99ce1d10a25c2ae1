"""Property-based tests for the extension modules: the message-passing
port, orientation covers, and the aged choice policy."""

import random as _random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffergraph.orientation_cover import (
    greedy_cover,
    orientation_cover_buffer_graph,
)
from repro.messagepassing.forwarding import build_mp_network
from repro.network.topologies import random_connected_network, random_tree_network
from repro.routing.static import StaticRouting
from repro.runtime.conformance import check_events, require_clean_start
from repro.runtime.hop import RuntimeParams
from repro.sim.runner import build_simulation, delivered_and_drained

networks = st.builds(
    random_connected_network,
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def drained(sim) -> bool:
    """Nothing in flight and every core idle."""
    return not sim.in_flight() and all(n.core.is_idle() for n in sim.nodes)


class TestMessagePassingPort:
    """The product's port, ``HopCore`` behind ``HopMPNode``, from clean
    starts on random networks and schedules."""

    @slow
    @given(
        net=networks,
        seed=st.integers(min_value=0, max_value=10_000),
        window=st.sampled_from([1, 4]),
    )
    def test_exactly_once_from_clean_starts(self, net, seed, window):
        if net.n < 2:
            return
        sim, nodes = build_mp_network(
            net, StaticRouting(net), seed=seed, params=RuntimeParams(window=window)
        )
        rng = _random.Random(seed)
        count = 0
        for p in net.processors():
            dest = rng.randrange(net.n - 1)
            dest = dest if dest < p else dest + 1
            nodes[p].submit(f"m{p}", dest)
            count += 1
        sim.run(2_000_000)  # raises unless quiescent
        assert drained(sim)
        report = require_clean_start(
            check_events((e for n in nodes for e in n.events), expect_generated=count)
        )
        assert report.ok and report.delivered == count

    @slow
    @given(
        net=networks,
        seed=st.integers(min_value=0, max_value=10_000),
        window=st.sampled_from([1, 4]),
    )
    def test_port_quiesces_and_drains(self, net, seed, window):
        if net.n < 2:
            return
        sim, nodes = build_mp_network(
            net, StaticRouting(net), seed=seed, params=RuntimeParams(window=window)
        )
        nodes[0].submit("probe", net.n - 1)
        sim.run(2_000_000)  # raises unless quiescent
        assert drained(sim)
        report = require_clean_start(check_events(
            (e for n in nodes for e in n.events), expect_generated=1
        ))
        assert report.ok and report.delivered == 1


class TestOrientationCovers:
    @settings(max_examples=25, deadline=None)
    @given(net=networks, seed=st.integers(min_value=0, max_value=100))
    def test_greedy_cover_valid_for_routing(self, net, seed):
        routing = StaticRouting(net)
        cover = greedy_cover(net, seed=seed, routing=routing)
        assert cover.is_valid_for_routing(routing)
        assert orientation_cover_buffer_graph(cover).is_acyclic()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_tree_cover_always_two(self, n, seed):
        from repro.buffergraph.orientation_cover import tree_cover

        net = random_tree_network(n, seed=seed)
        cover = tree_cover(net)
        assert cover.size <= 2
        assert cover.is_valid_for_routing(StaticRouting(net))


class TestPerPairFifo:
    @slow
    @given(
        net=networks,
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=6),
    )
    def test_same_pair_messages_deliver_in_order(self, net, seed, k):
        """With correct constant tables, messages between one (source,
        destination) pair cannot overtake each other: the shared buffer
        chain serializes them (the two-buffer handshake admits no
        leapfrog)."""
        if net.n < 2:
            return
        from repro.app.workload import Workload

        src, dst = 0, net.n - 1
        workload = Workload(
            "fifo", [(0, src, f"seq{i}", dst) for i in range(k)]
        )
        sim = build_simulation(
            net, workload=workload, routing_mode="static", seed=seed
        )
        sim.run(1_000_000, halt=delivered_and_drained)
        payloads = [m.payload for (_, m, _) in sim.hl.delivered]
        assert payloads == [f"seq{i}" for i in range(k)]


class TestNoLivelockAfterStabilization:
    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_every_execution_quiesces_with_static_tables(self, net, seed):
        """With correct constant tables the buffer graph is acyclic, so
        every execution reaches a terminal configuration (no livelock):
        run with no halt predicate and require terminality."""
        if net.n < 2:
            return
        from repro.app.workload import uniform_workload

        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, net.n, seed=seed),
            routing_mode="static",
            garbage={"fraction": 0.5, "seed": seed},
            seed=seed,
        )
        result = sim.run(1_000_000, raise_on_limit=True)
        assert result.terminal
        assert sim.ledger.all_valid_delivered()


class TestAgedPolicyProperty:
    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_aged_policy_preserves_sp(self, net, seed):
        if net.n < 2:
            return
        from repro.app.workload import uniform_workload

        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, net.n, seed=seed),
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
            garbage={"fraction": 0.4, "seed": seed},
            seed=seed,
            protocol_options={"choice_policy": "aged"},
        )
        sim.run(1_000_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()
