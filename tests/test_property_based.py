"""Property-based tests (hypothesis): the paper's theorems under randomly
drawn topologies, corruptions, workloads and daemon behaviors.

Each property is a direct executable restatement of a claim in the paper:

* SP (Propositions 1-3): every generated message delivered exactly once,
  from arbitrary initial configurations, under arbitrary (weakly fair)
  daemons;
* Proposition 4: at most 2n invalid deliveries per destination;
* acyclicity of the buffer-graph constructions under correct tables;
* totality of ``color_p(d)``;
* bounded bypass of the choice queue;
* convergence + silence of the routing protocol.
"""

import random as _random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.workload import Workload
from repro.buffergraph.destination_based import destination_based_buffer_graph
from repro.buffergraph.ssmfp_graph import ssmfp_buffer_graph
from repro.core.choice import FairChoiceQueue
from repro.core.colors import free_color
from repro.network.properties import max_degree
from repro.network.topologies import random_connected_network
from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.sim.runner import build_simulation, delivered_and_drained, fully_quiescent
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.message import Message
from repro.statemodel.scheduler import Simulator

from tests.helpers import weakly_connected_components

# Strategy: a small random connected network described by (n, extra, seed).
networks = st.builds(
    random_connected_network,
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_workload(net, seed, count):
    rng = _random.Random(seed)
    subs = []
    for i in range(count):
        src = rng.randrange(net.n)
        dest = rng.randrange(net.n - 1)
        dest = dest if dest < src else dest + 1
        subs.append((rng.randrange(3), src, f"w{i % 3}", dest))
    return Workload("prop", subs)


class TestExactlyOnceDelivery:
    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_sp_holds_from_arbitrary_configurations(self, net, seed):
        if net.n < 2:
            return
        sim = build_simulation(
            net,
            workload=random_workload(net, seed, count=net.n),
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
            garbage={"fraction": 0.5, "seed": seed},
            scramble_choice_queues=True,
            seed=seed,
        )
        sim.run(1_000_000, halt=delivered_and_drained)
        # Strict ledger would have raised on loss/duplication; double-check.
        assert sim.ledger.all_valid_delivered()

    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_invalid_deliveries_bounded(self, net, seed):
        sim = build_simulation(
            net,
            garbage={"fraction": 1.0, "seed": seed},
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
            seed=seed,
        )
        sim.run(1_000_000, halt=fully_quiescent)
        for count in sim.ledger.invalid_deliveries_by_destination().values():
            assert count <= 2 * net.n

    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_executions_quiesce(self, net, seed):
        sim = build_simulation(
            net,
            workload=random_workload(net, seed, count=net.n) if net.n > 1 else None,
            garbage={"fraction": 0.7, "seed": seed},
            routing_corruption={"kind": "worst", "seed": seed},
            seed=seed,
        )
        result = sim.run(1_000_000, halt=fully_quiescent)
        assert result.halted_by_predicate or result.terminal


class TestBufferGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(net=networks)
    def test_constructions_acyclic_under_correct_tables(self, net):
        routing = StaticRouting(net)
        assert destination_based_buffer_graph(net, routing).is_acyclic()
        assert ssmfp_buffer_graph(net, routing).is_acyclic()

    @settings(max_examples=40, deadline=None)
    @given(net=networks)
    def test_components_one_per_destination(self, net):
        routing = StaticRouting(net)
        g = ssmfp_buffer_graph(net, routing)
        assert len(weakly_connected_components(g)) == net.n


class TestColorTotality:
    @settings(max_examples=60, deadline=None)
    @given(net=networks, data=st.data())
    def test_free_color_always_exists(self, net, data):
        delta = max_degree(net)
        p = data.draw(st.integers(min_value=0, max_value=net.n - 1))
        # Arbitrary occupancy of every reception buffer with arbitrary
        # colors in range.
        row = []
        for q in range(net.n):
            occupied = data.draw(st.booleans())
            if occupied:
                color = data.draw(st.integers(min_value=0, max_value=delta))
                row.append(
                    Message(payload="g", last=q, color=color, dest=0, uid=-1, valid=False)
                )
            else:
                row.append(None)
        c = free_color(net, row, p, delta)
        assert 0 <= c <= delta
        for q in net.neighbors(p):
            if row[q] is not None:
                assert row[q].color != c


class TestChoiceQueueFairness:
    @settings(max_examples=60, deadline=None)
    @given(
        others=st.sets(st.integers(min_value=0, max_value=10), max_size=6),
        target=st.integers(min_value=20, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_bounded_bypass(self, others, target, seed):
        """A persistent candidate is served within |others| services no
        matter how the other requesters churn."""
        rng = _random.Random(seed)
        q = FairChoiceQueue()
        q.sync(others | {target})
        services = 0
        while q.head() != target:
            q.serve(q.head())
            services += 1
            churn = {x for x in others if rng.random() < 0.8}
            q.sync(churn | {target})
            assert services <= len(others) + 1


class TestRoutingConvergence:
    @slow
    @given(net=networks, seed=st.integers(min_value=0, max_value=10_000))
    def test_routing_always_converges_and_silences(self, net, seed):
        routing = SelfStabilizingBFSRouting(net)
        corrupt_random(routing, seed=seed, fraction=1.0)
        sim = Simulator(net.n, routing, DistributedRandomDaemon(seed=seed))
        result = sim.run(max_steps=500_000)
        assert result.terminal
        assert routing.is_correct()
