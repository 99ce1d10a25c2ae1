"""The simulator scenario compiler: differential baseline + each action."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, run_sim_scenario
from repro.sim.runner import delivered_and_drained

BASE = {
    "name": "sim-t",
    "target": "simulate",
    "protocol": "ssmfp",
    "seed": 9,
    "topology": {"name": "ring", "kwargs": {"n": 6}},
    "workload": {"name": "uniform", "kwargs": {"count": 10}},
    "sim": {
        "routing": {
            "mode": "selfstab",
            "corruption": {"kind": "random", "fraction": 0.5},
        }
    },
    "schedule": [],
}


def spec_data(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


class TestDifferential:
    """With no chaos the scenario loop must reduce exactly to
    ``Simulation.run`` under the standard halt, on the simulation the one
    builder returns: same halt, same step-for-step schedule, same
    fingerprint — the loop ``repro record`` fingerprints through (and what
    ``record_run`` used to be)."""

    @staticmethod
    def assert_matches_plain_run(spec):
        result = run_sim_scenario(spec)
        simulation = spec.build_simulation()
        plain = simulation.run(
            spec.budgets["max_steps"], halt=delivered_and_drained,
            raise_on_limit=False,
        )
        ledger = simulation.ledger
        assert result.metrics["steps"] == plain.steps
        assert result.metrics["rounds"] == plain.rounds
        assert result.metrics["rule_counts"] == plain.rule_counts
        assert result.metrics["generated"] == ledger.generated_count
        assert result.metrics["delivered"] == ledger.valid_delivered_count
        assert result.metrics["invalid_delivered"] == ledger.invalid_delivery_count
        assert result.metrics["routing_correct"] == simulation.routing.is_correct()
        assert result.ok
        assert result.fault_events == []

    @pytest.mark.parametrize("protocol", ["ssmfp", "ssmfp2"])
    def test_empty_schedule_matches_record_run_bit_for_bit(self, protocol):
        self.assert_matches_plain_run(
            ScenarioSpec.from_dict(spec_data(protocol=protocol))
        )

    def test_empty_schedule_across_seeds(self):
        for protocol in ("ssmfp", "ssmfp2"):
            for seed in range(3):
                self.assert_matches_plain_run(
                    ScenarioSpec.from_dict(spec_data(protocol=protocol, seed=seed))
                )


class TestActions:
    def run(self, **overrides):
        spec = ScenarioSpec.from_dict(spec_data(**overrides))
        return run_sim_scenario(spec)

    def test_corrupt_routing_burst(self):
        result = self.run(
            schedule=[{"at": 0.5, "action": "corrupt_routing", "fraction": 0.6}]
        )
        assert result.ok, result.failures
        assert [e["action"] for e in result.fault_events] == ["corrupt_routing"]
        assert result.fault_events[0]["entries_hit"] > 0

    def test_corrupt_routing_windowed_pulses(self):
        result = self.run(
            schedule=[{"at": 0.5, "until": 3.5, "action": "corrupt_routing",
                       "fraction": 0.5, "period": 1.0}]
        )
        assert result.ok, result.failures
        assert len(result.fault_events) == 3

    def test_garbage_planted_mid_run(self):
        result = self.run(schedule=[{"at": 1.0, "action": "garbage",
                                     "fraction": 0.5}])
        assert result.ok, result.failures
        assert result.fault_events[0]["planted"] > 0
        assert result.metrics["invalid_delivered"] == 0

    def test_link_flap_and_partition(self):
        result = self.run(
            schedule=[
                {"at": 0.5, "until": 2.5, "action": "link_flap",
                 "period": 1.0, "down": 0.5, "edges": [[0, 1], [2, 3]]},
                {"at": 3.0, "until": 4.0, "action": "partition",
                 "edges": [[4, 5]]},
            ]
        )
        assert result.ok, result.failures
        actions = {e["action"] for e in result.fault_events}
        assert actions == {"link_flap", "partition"}

    def test_crash_window(self):
        result = self.run(
            schedule=[{"at": 0.5, "until": 2.0, "action": "crash", "node": 2}]
        )
        assert result.ok, result.failures
        assert result.fault_events[0]["node"] == 2

    def test_flood_counts_toward_expected(self):
        result = self.run(
            schedule=[{"at": 1.0, "action": "flood", "source": 0, "dest": 3,
                       "count": 5, "payload": "dup"}]
        )
        assert result.ok, result.failures
        assert result.metrics["expected"] == 10 + 5
        assert result.metrics["delivered"] == 15

    def test_combined_schedule_still_delivers(self):
        result = self.run(
            schedule=[
                {"at": 0.5, "action": "corrupt_routing", "fraction": 0.5},
                {"at": 1.0, "until": 2.0, "action": "crash", "node": 1},
                {"at": 1.5, "action": "garbage", "fraction": 0.3},
                {"at": 2.5, "action": "flood", "source": 2, "dest": 5,
                 "count": 4},
            ]
        )
        assert result.ok, result.failures
        assert result.metrics["delivered"] == result.metrics["expected"]

    def test_chaos_actions_need_selfstab_routing(self):
        spec = ScenarioSpec.from_dict(
            spec_data(
                sim={"routing": {"mode": "static"}},
                schedule=[{"at": 1.0, "action": "corrupt_routing"}],
            )
        )
        with pytest.raises(ConfigurationError, match="selfstab"):
            run_sim_scenario(spec)


class TestObservability:
    def test_fault_events_land_in_obs_rows(self):
        spec = ScenarioSpec.from_dict(
            spec_data(
                schedule=[
                    {"at": 0.5, "action": "corrupt_routing", "fraction": 0.5},
                    {"at": 1.5, "action": "garbage", "fraction": 0.4},
                ]
            )
        )
        result = run_sim_scenario(spec)
        fault_rows = [r for r in result.obs_rows if r.get("kind") == "fault_event"]
        assert [r["action"] for r in fault_rows] == ["corrupt_routing", "garbage"]
        assert all(r["schema"] == "repro.obs/v1" for r in fault_rows)
        assert all("step" in r and "round" in r for r in fault_rows)

    def test_faults_injected_total_counter(self):
        spec = ScenarioSpec.from_dict(
            spec_data(
                schedule=[
                    {"at": 0.5, "action": "corrupt_routing", "fraction": 0.5},
                    {"at": 1.0, "action": "flood", "source": 0, "dest": 2,
                     "count": 2},
                ]
            )
        )
        result = run_sim_scenario(spec)
        counters = {
            (r["metric"], r["labels"].get("action")): r["value"]
            for r in result.obs_rows
            if r.get("kind") == "metric" and r["metric"] == "faults_injected_total"
        }
        assert counters[("faults_injected_total", "corrupt_routing")] == 1
        assert counters[("faults_injected_total", "flood")] == 1

    def test_budget_exhaustion_reported(self):
        data = spec_data(
            budgets={"max_steps": 5},
            schedule=[{"at": 0.1, "action": "corrupt_routing",
                       "fraction": 0.9}],
        )
        result = run_sim_scenario(ScenarioSpec.from_dict(data))
        assert not result.ok
        assert any("budget" in f or "deliver_all" in f for f in result.failures)
