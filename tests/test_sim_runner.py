"""Tests for simulation assembly and driving."""

import pytest

from repro.app.workload import uniform_workload
from repro.core.protocol import SSMFP
from repro.errors import ConfigurationError, SimulationLimitExceeded
from repro.network.topologies import line_network, ring_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.sim.runner import (
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
    fully_quiescent,
)
from repro.statemodel.daemon import RoundRobinDaemon


class TestBuildSimulation:
    def test_static_routing_mode(self):
        sim = build_simulation(line_network(4), routing_mode="static")
        assert isinstance(sim.routing, StaticRouting)

    def test_selfstab_routing_mode(self):
        sim = build_simulation(line_network(4))
        assert isinstance(sim.routing, SelfStabilizingBFSRouting)
        assert sim.routing.is_correct()  # uncorrupted by default

    def test_static_with_corruption_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(
                line_network(4), routing_mode="static",
                routing_corruption={"kind": "random"},
            )

    def test_unknown_routing_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(line_network(4), routing_mode="psychic")

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(
                line_network(4), routing_corruption={"kind": "gremlins"}
            )

    def test_corruption_applied(self):
        sim = build_simulation(
            ring_network(5), routing_corruption={"kind": "worst", "seed": 1}
        )
        assert not sim.routing.is_correct()

    def test_garbage_planted(self):
        sim = build_simulation(ring_network(5), garbage={"fraction": 1.0, "seed": 2})
        assert sim.forwarding.bufs.total_occupied() == 2 * 25

    def test_ssmfp_options_forwarded(self):
        sim = build_simulation(
            line_network(4), protocol_options={"enable_colors": False}
        )
        assert isinstance(sim.forwarding, SSMFP)
        assert not sim.forwarding.enable_colors


class TestRun:
    def test_workload_fed_and_delivered(self):
        net = ring_network(6)
        sim = build_simulation(
            net, workload=uniform_workload(net.n, 8, seed=1), seed=3
        )
        result = sim.run(100_000, halt=delivered_and_drained)
        assert result.halted_by_predicate or result.terminal
        assert sim.ledger.valid_delivered_count == 8

    def test_halt_not_before_workload_finished(self):
        # delivered_and_drained must not fire while submissions remain.
        net = line_network(4)
        w = uniform_workload(net.n, 5, seed=2, spread_steps=20)
        sim = build_simulation(net, workload=w, seed=1)
        sim.run(100_000, halt=delivered_and_drained)
        assert sim.ledger.generated_count == 5

    def test_budget_exhaustion_raises_with_diagnostics(self):
        net = line_network(4)
        sim = build_simulation(net, workload=uniform_workload(net.n, 5, seed=0))
        with pytest.raises(SimulationLimitExceeded) as exc:
            sim.run(3, halt=delivered_and_drained)
        assert "pending" in str(exc.value)

    def test_budget_soft_mode(self):
        net = line_network(4)
        sim = build_simulation(net, workload=uniform_workload(net.n, 5, seed=0))
        result = sim.run(3, halt=delivered_and_drained, raise_on_limit=False)
        assert result.steps == 3

    def test_fully_quiescent_waits_for_garbage(self):
        net = line_network(4)
        sim = build_simulation(net, garbage={"fraction": 1.0, "seed": 4}, seed=5)
        assert not fully_quiescent(sim)
        sim.run(100_000, halt=fully_quiescent)
        assert sim.forwarding.network_is_empty()

    def test_deterministic_given_seed(self):
        def run_once():
            net = ring_network(5)
            sim = build_simulation(
                net, workload=uniform_workload(net.n, 6, seed=9),
                routing_corruption={"kind": "random", "seed": 9},
                garbage={"fraction": 0.5, "seed": 9},
                seed=9,
            )
            sim.run(100_000, halt=delivered_and_drained)
            return (sim.sim.step_count, sim.sim.rule_counts)

        assert run_once() == run_once()

    def test_round_robin_daemon_injectable(self):
        net = line_network(4)
        sim = build_simulation(
            net, workload=uniform_workload(net.n, 3, seed=1),
            daemon=RoundRobinDaemon(),
        )
        sim.run(50_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 3


class TestRunHooks:
    """The two places a driver hooks into the one loop."""

    def build(self):
        net = line_network(4)
        return build_simulation(
            net, workload=uniform_workload(net.n, 4, seed=2), seed=2,
            routing_mode="static",
        )

    def test_hooks_do_not_change_the_execution(self):
        plain, probed = self.build(), self.build()
        plain.run(50_000, halt=delivered_and_drained)
        probed.run(
            50_000, halt=delivered_and_drained,
            before_step=lambda sim: None, on_idle=lambda sim: False,
        )
        assert probed.sim.step_count == plain.sim.step_count
        assert probed.sim.rule_counts == plain.sim.rule_counts

    def test_before_step_sees_every_configuration_a_step_starts_from(self):
        sim = self.build()
        seen = []
        result = sim.run(
            50_000, halt=delivered_and_drained,
            before_step=lambda s: seen.append(s.sim.step_count),
        )
        # Once per executed step, in order, and never after the halt fired.
        assert result.halted_by_predicate
        assert seen == list(range(result.steps))

    def test_before_step_not_called_once_halted(self):
        sim = self.build()
        calls = []
        sim.run(10, halt=lambda s: True, before_step=calls.append)
        assert calls == []

    def test_on_idle_input_keeps_the_run_going(self):
        # No workload: the network is idle at once.  on_idle submits one
        # message the first time it is asked and declines the second.
        sim = build_simulation(line_network(3), routing_mode="static", seed=1)
        asked = []

        def late_submission(s):
            asked.append(s.sim.step_count)
            if len(asked) > 1:
                return False
            s.hl.submit(0, "late", 2, step=s.sim.step_count)
            return True

        result = sim.run(10_000, on_idle=late_submission)
        assert result.terminal and not result.halted_by_predicate
        assert sim.ledger.valid_delivered_count == 1
        assert len(asked) == 2 and asked[0] == 0 and asked[1] == result.steps

    def test_workload_fast_forward_is_asked_before_on_idle(self):
        # A submission scheduled far in the future: the loop's own
        # fast-forward feeds it when the network idles; on_idle is only
        # consulted once the workload has nothing left.
        from repro.app.workload import Workload

        sim = build_simulation(
            line_network(3), routing_mode="static", seed=1,
            workload=Workload("late", [(500, 0, "m", 2)]),
        )
        idle_at = []
        sim.run(
            10_000,
            on_idle=lambda s: bool(idle_at.append(s.ledger.valid_delivered_count)),
        )
        assert sim.ledger.valid_delivered_count == 1
        assert idle_at == [1]  # asked once, after the message was delivered


class TestBaselineBuilder:
    def test_ms_baseline(self):
        net = line_network(4)
        sim = build_baseline_simulation(
            net, workload=uniform_workload(net.n, 4, seed=1),
            routing_mode="static",
        )
        sim.run(50_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 4
        assert sim.ledger.violations == []
