"""Integration: the simulator's metrics must agree with its own counters.

The registry is a second, independently-wired account of the run; these
tests pin it against the simulator's built-in bookkeeping so the two can
never drift apart silently.
"""

from repro.app.workload import uniform_workload
from repro.network.topologies import ring_network
from repro.obs import MetricsRegistry, MessageTracer
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.daemon import DistributedRandomDaemon

from tests.helpers import complete_uids


def run_instrumented(seed=2, count=8):
    reg = MetricsRegistry()
    net = ring_network(6)
    sim = build_simulation(
        net,
        workload=uniform_workload(net.n, count, seed=seed),
        daemon=DistributedRandomDaemon(seed=seed),
        seed=seed,
        obs=reg,
    )
    result = sim.run(200_000, halt=delivered_and_drained)
    return sim, reg, result


class TestRegistryAgreesWithSimulator:
    def test_rule_counts_match(self):
        sim, reg, result = run_instrumented()
        per_rule = {}
        for name, labels, value in reg.counters():
            if name == "rule_executions":
                rule = labels["rule"]
                per_rule[rule] = per_rule.get(rule, 0) + value
        assert per_rule == {r: c for r, c in result.rule_counts.items() if c}

    def test_aggregate_counters_match(self):
        sim, reg, result = run_instrumented()
        assert reg.value("steps_executed") == result.steps
        assert reg.value("rounds_completed") == result.rounds
        assert reg.value("guard_evals") == sim.sim.guard_evals
        assert reg.value("neutralizations") is not None

    def test_wall_time_recorded(self):
        sim, reg, result = run_instrumented()
        walls = [
            value
            for name, labels, value in reg.counters()
            if name == "rule_wall_s"
        ]
        assert walls and all(w >= 0 for w in walls)
        hist = reg.histogram("step_wall_s")
        assert len(hist.samples) == result.steps
        assert hist.summary()["n"] == result.steps

    def test_run_identical_with_and_without_obs(self):
        # Instrumentation must be purely observational: same seeds, same
        # execution, with or without a registry and tracer attached.
        _, _, instrumented = run_instrumented(seed=5)
        net = ring_network(6)
        plain = build_simulation(
            net,
            workload=uniform_workload(net.n, 8, seed=5),
            daemon=DistributedRandomDaemon(seed=5),
            seed=5,
        )
        bare = plain.run(200_000, halt=delivered_and_drained)
        assert (bare.steps, bare.rounds, bare.rule_counts) == (
            instrumented.steps,
            instrumented.rounds,
            instrumented.rule_counts,
        )

    def test_tracer_and_registry_compose(self):
        reg = MetricsRegistry()
        tracer = MessageTracer()
        net = ring_network(6)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 6, seed=3),
            seed=3,
            obs=reg,
            tracer=tracer,
        )
        sim.run(200_000, halt=delivered_and_drained)
        assert complete_uids(tracer) == tracer.uids()
        assert reg.value("steps_executed") == sim.sim.step_count
