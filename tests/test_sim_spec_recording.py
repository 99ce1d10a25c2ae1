"""Tests for the simulate-side of the scenario schema — the ``[sim]``
initial configuration, the builder, run records.  (The file keeps the name
it had when these were ``repro.sim.spec``/``repro.sim.recording``.)"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    RunRecord,
    ScenarioSpec,
    record_scenario,
    verify_record,
)
from repro.sim.runner import delivered_and_drained


def basic_spec(**overrides):
    spec = {
        "topology": {"name": "ring", "kwargs": {"n": 6}},
        "workload": {"name": "uniform", "kwargs": {"count": 8, "seed": 3}},
        "sim": {
            "routing": {
                "mode": "selfstab",
                "corruption": {"kind": "random", "fraction": 1.0},
            },
            "garbage": {"fraction": 0.3},
        },
        "seed": 9,
    }
    spec.update(overrides)
    return spec


def sim_spec(**sim):
    return basic_spec(sim=sim)


def build(data):
    return ScenarioSpec.from_dict(data).build_simulation()


def record(data):
    return record_scenario(ScenarioSpec.from_dict(data))


class TestSimulationFromSpec:
    def test_builds_and_runs(self):
        sim = build(basic_spec())
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 8

    def test_requires_topology(self):
        with pytest.raises(ConfigurationError, match="topology"):
            build({"seed": 1})

    def test_unknown_workload_rejected(self):
        spec = basic_spec(workload={"name": "mystery", "kwargs": {}})
        with pytest.raises(ConfigurationError, match="unknown workload"):
            build(spec)

    def test_unknown_daemon_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown daemon"):
            build(sim_spec(daemon={"name": "chaos"}))

    def test_daemon_section(self):
        from repro.statemodel.daemon import RoundRobinDaemon

        sim = build(sim_spec(daemon={"name": "round_robin"}))
        assert isinstance(sim.sim.daemon, RoundRobinDaemon)
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()

    def test_static_routing_mode(self):
        from repro.routing.static import StaticRouting

        sim = build(sim_spec(routing={"mode": "static"}))
        assert isinstance(sim.routing, StaticRouting)

    def test_ssmfp_options_section(self):
        sim = build(sim_spec(protocol_options={"choice_policy": "aged"}))
        assert sim.forwarding.queues.policy == "aged"
        # "ssmfp" is not a spec key; the rejection lists the valid spelling.
        with pytest.raises(ConfigurationError, match="protocol_options"):
            build(sim_spec(ssmfp={"choice_policy": "aged"}))

    def test_hotspot_workload_named(self):
        spec = basic_spec(
            workload={"name": "hotspot", "kwargs": {"dest": 0, "per_source": 1}}
        )
        sim = build(spec)
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.valid_delivered_count == 5  # n-1 sources

    def test_spec_is_json_serializable(self):
        canonical = ScenarioSpec.from_dict(basic_spec()).to_dict()
        assert json.loads(json.dumps(canonical)) == canonical

    def test_unknown_top_level_key_rejected(self):
        # A flat pre-scenario spec: its sections are not top-level keys,
        # and the message says where they live now.
        flat = basic_spec()
        flat.update(flat.pop("sim"))
        with pytest.raises(ConfigurationError, match="unknown key.*'sim'"):
            build(flat)

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
        if section in ("topology", "workload"):
            data = basic_spec(**{section: value})
        else:
            data = sim_spec(**{section: value})
        with pytest.raises(ConfigurationError, match="unknown key") as excinfo:
            build(data)
        assert section in str(excinfo.value)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            build(sim_spec(garbage=0.5))


class TestRunRecords:
    def test_record_and_verify_roundtrip(self):
        rec = record(basic_spec())
        assert rec.outcome["delivered"] == 8
        assert verify_record(rec) == []

    def test_json_roundtrip(self):
        rec = record(basic_spec())
        clone = RunRecord.from_json(rec.to_json())
        assert clone.spec == rec.spec
        assert clone.outcome == rec.outcome
        assert verify_record(clone) == []

    def test_tampered_outcome_detected(self):
        rec = record(basic_spec())
        rec.outcome["steps"] = rec.outcome["steps"] + 1
        problems = verify_record(rec)
        assert problems and "steps" in problems[0]

    def test_different_seed_changes_fingerprint(self):
        assert record(basic_spec(seed=1)).outcome != record(basic_spec(seed=2)).outcome
