"""End-to-end integration: the full paper stack (A ≫ SSMFP, adversarial
initial configurations, adversarial daemons) across the topology zoo.

These are the executable versions of the paper's Propositions 1-3: from
*any* initial configuration, with the routing protocol running alongside
with priority, every generated message is delivered exactly once, and the
system quiesces.
"""

import pytest

from repro.app.workload import (
    adversarial_same_payload_workload,
    burst_workload,
    hotspot_workload,
    permutation_workload,
    uniform_workload,
)
from repro.network.topologies import (
    grid_network,
    hypercube_network,
    line_network,
    lollipop_network,
    paper_figure3_network,
    random_connected_network,
    random_tree_network,
    ring_network,
    star_network,
    torus_network,
)
from repro.sim.runner import build_simulation, delivered_and_drained, fully_quiescent
from repro.statemodel.daemon import (
    CentralRandomDaemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
)

from tests.helpers import LocallyCentralRandomDaemon, checked

TOPOLOGIES = [
    ("line", lambda: line_network(6)),
    ("ring", lambda: ring_network(6)),
    ("star", lambda: star_network(6)),
    ("grid", lambda: grid_network(2, 3)),
    ("torus", lambda: torus_network(3, 3)),
    ("hypercube", lambda: hypercube_network(3)),
    ("lollipop", lambda: lollipop_network(4, 2)),
    ("tree", lambda: random_tree_network(7, seed=1)),
    ("random", lambda: random_connected_network(7, 4, seed=2)),
    ("fig3", paper_figure3_network),
]


@pytest.mark.parametrize("name,builder", TOPOLOGIES)
def test_adversarial_initial_configuration_full_stack(name, builder):
    """Corrupted tables + planted garbage + scrambled queues + random
    daemon: every valid message delivered exactly once (strict ledger),
    every per-step invariant holds (checked after each step)."""
    net = builder()
    sim = checked(build_simulation(
        net,
        workload=uniform_workload(net.n, count=2 * net.n, seed=11),
        routing_corruption={"kind": "random", "fraction": 1.0, "seed": 11},
        garbage={"fraction": 0.5, "seed": 11},
        scramble_choice_queues=True,
        seed=11,
    ))
    sim.run(500_000, halt=fully_quiescent)
    assert sim.ledger.all_valid_delivered()
    assert sim.forwarding.network_is_empty()


@pytest.mark.parametrize(
    "daemon_factory",
    [
        lambda net: SynchronousDaemon(),
        lambda net: RoundRobinDaemon(),
        lambda net: CentralRandomDaemon(seed=5),
        lambda net: DistributedRandomDaemon(seed=5, p_select=0.3),
        lambda net: LocallyCentralRandomDaemon(
            seed=5, neighbors=[net.neighbors(p) for p in net.processors()]
        ),
    ],
    ids=["synchronous", "round-robin", "central", "distributed", "locally-central"],
)
def test_every_daemon_kind(daemon_factory):
    net = ring_network(6)
    sim = build_simulation(
        net,
        workload=uniform_workload(net.n, 10, seed=3),
        routing_corruption={"kind": "worst", "seed": 3},
        garbage={"fraction": 0.3, "seed": 3},
        daemon=daemon_factory(net),
        seed=3,
    )
    sim.run(500_000, halt=delivered_and_drained)
    assert sim.ledger.all_valid_delivered()


@pytest.mark.parametrize(
    "workload_factory",
    [
        lambda n: permutation_workload(n, seed=7),
        lambda n: hotspot_workload(n, dest=0, per_source=2, seed=7),
        lambda n: burst_workload(n, bursts=3, burst_size=4, gap=15, seed=7),
        lambda n: adversarial_same_payload_workload(1, 4, count=8),
    ],
    ids=["permutation", "hotspot", "burst", "same-payload"],
)
def test_every_workload_shape(workload_factory):
    net = ring_network(6)
    sim = build_simulation(
        net,
        workload=workload_factory(net.n),
        routing_corruption={"kind": "random", "fraction": 0.8, "seed": 9},
        seed=9,
    )
    sim.run(500_000, halt=delivered_and_drained)
    assert sim.ledger.all_valid_delivered()


class TestSnapStabilizationProperties:
    def test_generation_happens_despite_full_garbage(self):
        """Liveness of R1 (Lemma 2): even with every buffer initially full
        of garbage, a requesting processor generates in finite time."""
        net = ring_network(5)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 5, seed=13),
            garbage={"fraction": 1.0, "seed": 13},
            routing_corruption={"kind": "worst", "seed": 13},
            seed=13,
        )
        sim.run(500_000, halt=delivered_and_drained)
        assert sim.ledger.generated_count == 5
        assert sim.ledger.all_valid_delivered()

    def test_invalid_deliveries_bounded_by_2n_per_destination(self):
        """Proposition 4's bound holds on every run."""
        net = ring_network(6)
        sim = build_simulation(
            net,
            garbage={"fraction": 1.0, "seed": 17},
            routing_corruption={"kind": "random", "seed": 17},
            seed=17,
        )
        sim.run(500_000, halt=fully_quiescent)
        for dest, count in sim.ledger.invalid_deliveries_by_destination().items():
            assert count <= 2 * net.n

    def test_messages_submitted_mid_recovery(self):
        """Snap-stabilization means service starts immediately — submit
        while the tables are still being repaired."""
        net = grid_network(3, 3)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 12, seed=19, spread_steps=30),
            routing_corruption={"kind": "worst", "seed": 19},
            seed=19,
        )
        sim.run(500_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()

    def test_large_network_drains(self):
        net = random_connected_network(16, 12, seed=23)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 30, seed=23),
            routing_corruption={"kind": "random", "fraction": 0.5, "seed": 23},
            garbage={"fraction": 0.2, "seed": 23},
            seed=23,
        )
        sim.run(1_000_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()
