"""Sustained transient faults: routing tables re-corrupted mid-run.

The paper proves snap-stabilization from one arbitrary initial
configuration; these tests exercise the operational consequence — repeated
routing faults during live forwarding never lose or duplicate a valid
message (Lemmas 4-5 hold *while A runs*, not only after it converges), and
delivery completes once faults stop.
"""

import pytest

from repro.app.workload import uniform_workload
from repro.network.topologies import grid_network, ring_network
from repro.sim.faults import RoutingFaultInjector
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.daemon import DistributedRandomDaemon


def drive(injector, sim, max_steps, halt=None):
    """The injector under the one loop that steps a simulation; True when
    the halt condition was met (never raises on budget exhaustion — the
    tests inspect the ledger)."""
    return sim.run(
        max_steps, halt=halt, raise_on_limit=False,
        before_step=injector.before_step,
    ).halted_by_predicate


def build(net, seed, workload_count=12):
    return build_simulation(
        net,
        workload=uniform_workload(net.n, workload_count, seed=seed, spread_steps=50),
        routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
        garbage={"fraction": 0.3, "seed": seed},
        daemon=DistributedRandomDaemon(seed=seed),
        seed=seed,
    )


class TestInjectorMechanics:
    def test_periodic_schedule(self):
        net = ring_network(5)
        sim = build(net, seed=1)
        injector = RoutingFaultInjector(
            sim.routing, period=10, fraction=1.0, stop_after=35
        )
        for step in range(50):
            injector.maybe_inject(step)
        assert injector.injections == [10, 20, 30]

    def test_injection_actually_corrupts(self):
        net = ring_network(5)
        sim = build_simulation(net, seed=1)  # starts correct
        assert sim.routing.is_correct()
        injector = RoutingFaultInjector(sim.routing, period=1, fraction=1.0)
        injector.maybe_inject(1)
        assert not sim.routing.is_correct()

    def test_rejects_bad_period(self):
        net = ring_network(5)
        sim = build(net, seed=1)
        with pytest.raises(ValueError):
            RoutingFaultInjector(sim.routing, period=0)


class TestDriveHaltSemantics:
    def test_halt_reported_when_met_exactly_at_budget(self):
        # Regression: RoutingFaultInjector.drive() — a copy of the run
        # loop, since folded into it — checked halt only *before* each
        # step, so a halt condition satisfied by the very last budgeted
        # step was reported as a miss (Simulation.run's for-else does the
        # final check).
        net = ring_network(6)
        sim = build(net, seed=2)
        injector = RoutingFaultInjector(
            sim.routing, period=25, fraction=0.5, seed=2, stop_after=200
        )
        assert drive(injector, sim, 300_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()
        steps_used = sim.sim.step_count

        # Re-run the identical scenario with the budget set exactly to the
        # number of steps the halt needed: the final evaluation must still
        # report success.
        sim2 = build(net, seed=2)
        injector2 = RoutingFaultInjector(
            sim2.routing, period=25, fraction=0.5, seed=2, stop_after=200
        )
        assert drive(injector2, sim2, steps_used, halt=delivered_and_drained)
        assert sim2.sim.step_count == steps_used

    def test_returns_false_when_halt_not_reached(self):
        net = ring_network(6)
        sim = build(net, seed=5)
        injector = RoutingFaultInjector(sim.routing, period=25, seed=5)
        assert not drive(injector, sim, 10, halt=delivered_and_drained)

    def test_returns_false_without_halt(self):
        net = ring_network(6)
        sim = build(net, seed=6)
        injector = RoutingFaultInjector(sim.routing, period=25, seed=6)
        assert drive(injector, sim, 10) is False


class TestExactlyOnceUnderSustainedFaults:
    @pytest.mark.parametrize("seed", range(5))
    def test_ring_with_periodic_faults(self, seed):
        net = ring_network(6)
        sim = build(net, seed=seed)
        injector = RoutingFaultInjector(
            sim.routing, period=25, fraction=0.6, seed=seed, stop_after=400
        )
        drive(injector, sim, 300_000, halt=delivered_and_drained)
        assert injector.injections, "faults must actually have been injected"
        assert sim.ledger.all_valid_delivered()

    def test_grid_with_heavy_faults(self):
        net = grid_network(3, 3)
        sim = build(net, seed=9, workload_count=18)
        injector = RoutingFaultInjector(
            sim.routing, period=15, fraction=1.0, seed=9, stop_after=600
        )
        drive(injector, sim, 500_000, halt=delivered_and_drained)
        assert len(injector.injections) >= 10
        assert sim.ledger.all_valid_delivered()

    def test_faults_during_generation_window(self):
        # Faults land exactly while messages are being generated.
        net = ring_network(6)
        sim = build(net, seed=3)
        injector = RoutingFaultInjector(
            sim.routing, period=6, fraction=1.0, seed=3, stop_after=35
        )
        drive(injector, sim, 300_000, halt=delivered_and_drained)
        assert injector.injections == [6, 12, 18, 24, 30]
        assert sim.ledger.all_valid_delivered()

    def test_routing_recovers_after_last_fault(self):
        net = ring_network(6)
        sim = build(net, seed=4)
        injector = RoutingFaultInjector(
            sim.routing, period=20, fraction=1.0, seed=4, stop_after=200
        )
        drive(injector, sim, 300_000, halt=delivered_and_drained)
        # Let the routing layer finish converging (forwarding may have
        # drained first).
        sim.run(100_000, halt=lambda s: s.routing.is_correct(), raise_on_limit=False)
        assert sim.routing.is_correct()
