"""Tests for metrics (round clock, latencies, amortized measures)."""

from repro.app.workload import uniform_workload
from repro.core.ledger import DeliveryLedger
from repro.network.topologies import line_network
from repro.sim.metrics import (
    RoundClock,
    amortized_rounds_per_delivery,
    delivery_latency_rounds,
    moves_per_delivery,
)
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.daemon import SynchronousDaemon
from repro.statemodel.message import MessageFactory


class TestRoundClock:
    def test_no_markers_everything_round_one(self):
        clock = RoundClock([])
        assert clock.round_of_step(0) == 1
        assert clock.round_of_step(100) == 1

    def test_rounds_partition_steps(self):
        # A round end at step s means "s is the LAST step of its round": the
        # simulator records the step whose execution paid the round's final
        # debt.  A hand-built clock pins that meaning apart from the engine.
        clock = RoundClock([4, 9])
        assert clock.round_of_step(0) == 1
        assert clock.round_of_step(4) == 1   # round-end step belongs to round 1
        assert clock.round_of_step(5) == 2   # next step opens round 2
        assert clock.round_of_step(9) == 2
        assert clock.round_of_step(10) == 3

    def test_marker_step_is_last_step_of_its_round(self):
        # Under the synchronous daemon every enabled processor executes at
        # every step, so each round's debt is paid by exactly one step and
        # round k's end must be that executing step — not the step at
        # which completion was detected (one later).
        net = line_network(4)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 4, seed=0),
            daemon=SynchronousDaemon(),
            seed=1,
        )
        action_steps = []
        for _ in range(10_000):
            if delivered_and_drained(sim):
                break
            report = sim.step()
            if report.executed:
                action_steps.append(report.step)
        assert delivered_and_drained(sim)
        markers = sim.sim.round_ends
        assert markers, "expected completed rounds"
        # Every round end is a step that actually executed actions, and
        # (synchronous daemon: one round per step) the round ends are
        # exactly the first len(markers) executing steps.
        assert set(markers) <= set(action_steps)
        assert markers == action_steps[: len(markers)]
        clock = RoundClock(markers)
        for k, s in enumerate(markers, start=1):
            assert clock.round_of_step(s) == k
            assert clock.round_of_step(s + 1) == k + 1


class TestLatencies:
    def _ledger_with_delivery(self, born=2, delivered=10):
        led = DeliveryLedger()
        msg = MessageFactory().generated("x", 0, 1, 0, born)
        led.record_generated(msg)
        led.record_delivery(1, msg, step=delivered)
        return led, msg

    def test_latency_rounds(self):
        led, msg = self._ledger_with_delivery(born=0, delivered=9)
        clock = RoundClock([4])
        assert delivery_latency_rounds(led, clock) == {msg.uid: 1}

    def test_undelivered_excluded(self):
        led = DeliveryLedger()
        led.record_generated(MessageFactory().generated("x", 0, 1, 0, 0))
        assert delivery_latency_rounds(led, RoundClock([])) == {}

    def test_noncontiguous_uids_all_measured(self):
        # Regression: latency collection used to scan range(1,
        # generated_count + 1), silently dropping every uid outside that
        # window whenever the ledger's uid space had gaps (e.g. a message
        # factory shared with another simulation).
        led = DeliveryLedger()
        factory = MessageFactory()
        msgs = [factory.generated("x", 0, 1, 0, 2) for _ in range(6)]
        # Only uids 2, 4, 6 of this factory belong to "our" ledger.
        for msg in msgs[1::2]:
            led.record_generated(msg)
            led.record_delivery(1, msg, step=10)
        lat = delivery_latency_rounds(led, RoundClock([5]))  # born round 1, delivered 2
        assert sorted(lat) == [m.uid for m in msgs[1::2]]
        assert all(v == 1 for v in lat.values())

    def test_end_to_end_latencies_nonnegative(self):
        net = line_network(5)
        sim = build_simulation(
            net, workload=uniform_workload(net.n, 6, seed=1), seed=2,
        )
        sim.run(100_000, halt=delivered_and_drained)
        clock = RoundClock(sim.sim.round_ends)
        lat_rounds = delivery_latency_rounds(sim.ledger, clock)
        assert len(lat_rounds) == 6
        assert all(v >= 0 for v in lat_rounds.values())


class TestAggregates:
    def test_moves_per_delivery(self):
        assert moves_per_delivery({"R2": 6, "R3": 4, "R1": 5}, delivered=5) == 2.0

    def test_moves_per_delivery_zero_delivered(self):
        assert moves_per_delivery({"R2": 6}, delivered=0) is None

    def test_amortized(self):
        assert amortized_rounds_per_delivery(30, 10) == 3.0
        assert amortized_rounds_per_delivery(30, 0) is None
