"""Tests for declarative specs and run records."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sim.recording import RunRecord, record_run, verify_record
from repro.sim.runner import delivered_and_drained
from repro.sim.spec import simulation_from_spec


def basic_spec(**overrides):
    spec = {
        "topology": {"name": "ring", "kwargs": {"n": 6}},
        "workload": {"name": "uniform", "kwargs": {"count": 8, "seed": 3}},
        "routing": {
            "mode": "selfstab",
            "corruption": {"kind": "random", "fraction": 1.0},
        },
        "garbage": {"fraction": 0.3},
        "seed": 9,
    }
    spec.update(overrides)
    return spec


class TestSimulationFromSpec:
    def test_builds_and_runs(self):
        sim = simulation_from_spec(basic_spec())
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 8

    def test_requires_topology(self):
        with pytest.raises(ConfigurationError, match="topology"):
            simulation_from_spec({"seed": 1})

    def test_unknown_workload_rejected(self):
        spec = basic_spec(workload={"name": "mystery", "kwargs": {}})
        with pytest.raises(ConfigurationError, match="unknown workload"):
            simulation_from_spec(spec)

    def test_unknown_daemon_rejected(self):
        spec = basic_spec(daemon={"name": "chaos"})
        with pytest.raises(ConfigurationError, match="unknown daemon"):
            simulation_from_spec(spec)

    def test_daemon_section(self):
        spec = basic_spec(daemon={"name": "round_robin"})
        sim = simulation_from_spec(spec)
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()

    def test_static_routing_mode(self):
        from repro.routing.static import StaticRouting

        spec = basic_spec(routing={"mode": "static"})
        sim = simulation_from_spec(spec)
        assert isinstance(sim.routing, StaticRouting)

    def test_ssmfp_options_section(self):
        spec = basic_spec(protocol_options={"choice_policy": "aged"})
        sim = simulation_from_spec(spec)
        assert sim.forwarding.queues[0][0].policy == "aged"
        # "ssmfp" is not a spec key; the rejection lists the valid spelling.
        with pytest.raises(ConfigurationError, match="protocol_options"):
            simulation_from_spec(basic_spec(ssmfp={"choice_policy": "aged"}))

    def test_hotspot_workload_named(self):
        spec = basic_spec(
            workload={"name": "hotspot", "kwargs": {"dest": 0, "per_source": 1}}
        )
        sim = simulation_from_spec(spec)
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 5  # n-1 sources

    def test_spec_is_json_serializable(self):
        json.dumps(basic_spec())

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            simulation_from_spec(basic_spec(typo_section={}))

    @pytest.mark.parametrize(
        "section, value",
        [
            ("topology", {"name": "ring", "kwargs": {"n": 5}, "size": 5}),
            ("workload", {"name": "uniform", "kwarg": {}}),
            ("routing", {"mode": "selfstab", "corrupt": {}}),
            ("routing", {"mode": "selfstab",
                         "corruption": {"kind": "random", "frac": 0.5}}),
            ("garbage", {"fraction": 0.2, "flavor": "worst"}),
            ("daemon", {"name": "central", "seed": 3}),
        ],
    )
    def test_unknown_section_keys_rejected(self, section, value):
        with pytest.raises(ConfigurationError, match="unknown key"):
            simulation_from_spec(basic_spec(**{section: value}))

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            simulation_from_spec(basic_spec(garbage=0.5))


class TestRunRecords:
    def test_record_and_verify_roundtrip(self):
        record = record_run(basic_spec(), max_steps=300_000)
        assert record.outcome["delivered"] == 8
        assert verify_record(record) == []

    def test_json_roundtrip(self):
        record = record_run(basic_spec(), max_steps=300_000)
        clone = RunRecord.from_json(record.to_json())
        assert clone.spec == record.spec
        assert clone.outcome == record.outcome
        assert verify_record(clone) == []

    def test_tampered_outcome_detected(self):
        record = record_run(basic_spec(), max_steps=300_000)
        record.outcome["steps"] = record.outcome["steps"] + 1
        problems = verify_record(record)
        assert problems and "steps" in problems[0]

    def test_different_seed_changes_fingerprint(self):
        a = record_run(basic_spec(seed=1), max_steps=300_000)
        b = record_run(basic_spec(seed=2), max_steps=300_000)
        assert a.outcome != b.outcome
