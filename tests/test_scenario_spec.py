"""Scenario spec validation: strictness, normalization, round-trips."""

from __future__ import annotations

import json
import random

import pytest

from repro.app.workload import uniform_workload
from repro.errors import ConfigurationError
from repro.scenario import ACTIONS, ScenarioSpec, load_scenario_file

BASE = {
    "name": "t",
    "target": "simulate",
    "protocol": "ssmfp",
    "seed": 5,
    "topology": {"name": "ring", "kwargs": {"n": 6}},
    "workload": {"name": "uniform", "kwargs": {"count": 8}},
    "sim": {"routing": {"mode": "selfstab"}},
    "schedule": [
        {"at": 1.0, "action": "corrupt_routing", "fraction": 0.4},
        {"at": 2.0, "until": 4.0, "action": "link_flap",
         "period": 1.0, "down": 0.5},
        {"at": 5.0, "action": "flood", "source": 0, "dest": 3, "count": 4},
    ],
}


def spec_data(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


class TestValidation:
    def test_base_spec_validates(self):
        spec = ScenarioSpec.from_dict(spec_data())
        assert spec.name == "t"
        assert len(spec.schedule) == 3
        assert spec.budgets["max_steps"] > 0
        assert spec.pass_criteria["deliver_all"] is True

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(bogus=1),
            lambda d: d["topology"].update(extra=1),
            lambda d: d["workload"].update(extra=1),
            lambda d: d.update(clock={"warp": 9}),
            lambda d: d.update(budgets={"max_stepz": 1}),
            lambda d: d.setdefault("pass", {}).update(deliver_some=True),
            lambda d: d["sim"].update(topology={}),
            lambda d: d.update(runtime={"portbase": 1}),
            # the [sim] sub-sections, on both targets
            lambda d: d["sim"].update(routing={"mdoe": "static"}),
            lambda d: d["sim"]["routing"].update(corruption={"frac": 0.5}),
            lambda d: d["sim"].update(garbage={"flavor": "worst"}),
            lambda d: d["sim"].update(daemon={"name": "central", "seed": 3}),
            lambda d: d.update(target="runtime", schedule=[])
            or d["sim"].update(routing={"mdoe": "static"}),
            # a flat pre-scenario spec: sections at the top level
            lambda d: d.update(d.pop("sim")),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, mutate):
        data = spec_data()
        mutate(data)
        with pytest.raises(ConfigurationError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("section", ["sim", "clock", "topology"])
    def test_section_must_be_a_mapping(self, section):
        with pytest.raises(ConfigurationError, match="must be an object"):
            ScenarioSpec.from_dict(spec_data(**{section: 0.5}))
        with pytest.raises(ConfigurationError, match="must be an object"):
            ScenarioSpec.from_dict(spec_data(sim={"garbage": 0.5}))

    @pytest.mark.parametrize("target", ["simulate", "runtime"])
    @pytest.mark.parametrize(
        "section, mutate, named",
        [
            ("workload", lambda d: d["workload"]["kwargs"].update(cuont=4), "cuont"),
            ("workload", lambda d: d.update(
                workload={"name": "hotspot", "kwargs": {"dest": 0}}), "per_source"),
            ("workload", lambda d: d.update(
                workload={"name": "mystery", "kwargs": {}}), "unknown workload"),
            ("daemon", lambda d: d["sim"].update(
                daemon={"name": "distributed", "kwargs": {"p_selct": 0.5}}),
             "p_selct"),
            ("daemon", lambda d: d["sim"].update(daemon={"name": "chaos"}),
             "unknown daemon"),
            ("protocol_options", lambda d: d["sim"].update(
                protocol_options={"bogus": 1}), "bogus"),
            ("routing", lambda d: d["sim"].update(routing={"mode": "dynamic"}),
             "dynamic"),
            ("corruption", lambda d: d["sim"]["routing"].update(
                corruption={"kind": "mild"}), "mild"),
        ],
    )
    def test_builder_kwargs_validated_at_parse_time(
        self, target, section, mutate, named
    ):
        """What no key set can catch is caught by building the system once
        — before any run starts, whichever the target."""
        data = spec_data(target=target, schedule=[])
        mutate(data)
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert section in str(excinfo.value) and named in str(excinfo.value)

    def test_unknown_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            ScenarioSpec.from_dict(spec_data(target="emulate"))

    def test_unknown_action(self):
        data = spec_data(schedule=[{"at": 0, "action": "meteor_strike"}])
        with pytest.raises(ConfigurationError, match="unknown action"):
            ScenarioSpec.from_dict(data)

    def test_unknown_event_kwarg(self):
        data = spec_data(
            schedule=[{"at": 0, "action": "flood", "source": 0, "dest": 1,
                       "volume": 9}]
        )
        with pytest.raises(ConfigurationError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_event_node_outside_topology(self):
        data = spec_data(
            schedule=[{"at": 0, "until": 1, "action": "crash", "node": 17}]
        )
        with pytest.raises(ConfigurationError, match="outside topology"):
            ScenarioSpec.from_dict(data)

    def test_event_non_edge(self):
        data = spec_data(
            schedule=[{"at": 0, "until": 1, "action": "partition",
                       "edges": [[0, 3]]}]
        )
        with pytest.raises(ConfigurationError, match="not an edge"):
            ScenarioSpec.from_dict(data)

    def test_partition_cutting_everything_rejected(self):
        data = spec_data(
            topology={"name": "star", "kwargs": {"n": 4}},
            schedule=[{"at": 0, "until": 1, "action": "partition",
                       "groups": [[0], [1, 2, 3]]}],
        )
        with pytest.raises(ConfigurationError, match="every edge"):
            ScenarioSpec.from_dict(data)

    def test_window_required(self):
        data = spec_data(schedule=[{"at": 0, "action": "crash", "node": 1}])
        with pytest.raises(ConfigurationError, match="'until' window"):
            ScenarioSpec.from_dict(data)

    def test_window_forbidden(self):
        data = spec_data(
            schedule=[{"at": 0, "until": 2, "action": "flood",
                       "source": 0, "dest": 1}]
        )
        with pytest.raises(ConfigurationError, match="one-shot"):
            ScenarioSpec.from_dict(data)

    def test_overlapping_windows_same_resource(self):
        data = spec_data(
            schedule=[
                {"at": 0, "until": 3, "action": "crash", "node": 1},
                {"at": 2, "until": 4, "action": "crash", "node": 1},
            ]
        )
        with pytest.raises(ConfigurationError, match="overlap"):
            ScenarioSpec.from_dict(data)

    def test_disjoint_windows_same_resource_allowed(self):
        data = spec_data(
            schedule=[
                {"at": 0, "until": 2, "action": "crash", "node": 1},
                {"at": 2, "until": 4, "action": "crash", "node": 1},
            ]
        )
        assert len(ScenarioSpec.from_dict(data).schedule) == 2

    def test_blanket_flap_conflicts_with_partition(self):
        data = spec_data(
            schedule=[
                {"at": 0, "until": 4, "action": "link_flap",
                 "period": 1.0, "down": 0.5},
                {"at": 1, "until": 2, "action": "partition",
                 "edges": [[0, 1]]},
            ]
        )
        with pytest.raises(ConfigurationError, match="overlap"):
            ScenarioSpec.from_dict(data)

    def test_target_action_mismatch(self):
        data = spec_data(
            target="runtime",
            schedule=[{"at": 0, "action": "garbage"}],
        )
        with pytest.raises(ConfigurationError, match="target"):
            ScenarioSpec.from_dict(data)

    def test_netem_action_rejected_on_simulate(self):
        data = spec_data(schedule=[{"at": 0, "action": "netem", "loss": 0.1}])
        with pytest.raises(ConfigurationError, match="target"):
            ScenarioSpec.from_dict(data)

    def test_runtime_netem_config_validated_eagerly(self):
        data = spec_data(
            target="runtime", schedule=[], sim={},
            runtime={"netem": {"lossy": 0.5}},
        )
        with pytest.raises(ConfigurationError, match="unknown netem key"):
            ScenarioSpec.from_dict(data)

    def test_workload_seed_key_rejected(self):
        # A cluster has one seed; the simulator carries the workload's own
        # over (the golden and shipped specs pin runs that use it).
        workload = {"name": "uniform", "kwargs": {"count": 4, "seed": 9}}
        data = spec_data(target="runtime", schedule=[], workload=workload)
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioSpec.from_dict(data)
        spec = ScenarioSpec.from_dict(spec_data(workload=workload))
        own = spec.build_simulation().workload.submissions
        assert own == uniform_workload(6, 4, seed=9).submissions
        assert own != uniform_workload(6, 4, seed=spec.seed).submissions

    def test_runtime_workload_restrictions(self):
        """Valid on the simulator; a cluster cannot regenerate it from
        (name, size, seed), and says what it can."""
        for workload in (
            {"name": "permutation", "kwargs": {}},
            {"name": "burst",
             "kwargs": {"bursts": 2, "burst_size": 3, "gap": 5}},
            {"name": "uniform", "kwargs": {"count": 6, "spread_steps": 4}},
            {"name": "hotspot", "kwargs": {"dest": 3, "per_source": 2}},
            {"name": "hotspot", "kwargs": {"dest": 0, "per_source": 0}},
        ):
            ScenarioSpec.from_dict(spec_data(schedule=[], workload=workload))
            data = spec_data(
                target="runtime", schedule=[], sim={}, workload=workload
            )
            with pytest.raises(
                ConfigurationError, match="workload.*(uniform|hotspot)"
            ):
                ScenarioSpec.from_dict(data)

    def test_runtime_hotspot_accepted(self):
        spec = ScenarioSpec.from_dict(
            spec_data(
                target="runtime", schedule=[], sim={},
                workload={"name": "hotspot",
                          "kwargs": {"dest": 0, "per_source": 2}},
            )
        )
        assert spec.messages() == 10

    def test_matrix_axis_must_be_list(self):
        with pytest.raises(ConfigurationError, match="matrix"):
            ScenarioSpec.from_dict(spec_data(matrix={"protocol": "ssmfp"}))


class TestRoundTrip:
    def test_to_dict_is_fixpoint(self):
        spec = ScenarioSpec.from_dict(spec_data())
        once = spec.to_dict()
        twice = ScenarioSpec.from_dict(once).to_dict()
        assert once == twice

    def test_random_schedules_round_trip(self):
        rng = random.Random(4)
        for _ in range(25):
            schedule = []
            t = 0.0
            for _ in range(rng.randrange(4)):
                t += rng.choice([0.5, 1.0, 1.5])
                kind = rng.choice(["flood", "crash", "corrupt_routing"])
                if kind == "flood":
                    schedule.append(
                        {"at": t, "action": "flood", "source": 0, "dest": 2,
                         "count": rng.randrange(1, 5)}
                    )
                elif kind == "crash":
                    schedule.append(
                        {"at": t, "until": t + 1.0, "action": "crash",
                         "node": rng.randrange(1, 6)}
                    )
                    t += 1.0
                else:
                    schedule.append(
                        {"at": t, "action": "corrupt_routing",
                         "fraction": round(rng.random(), 2)}
                    )
            data = spec_data(schedule=schedule)
            once = ScenarioSpec.from_dict(data).to_dict()
            twice = ScenarioSpec.from_dict(once).to_dict()
            assert once == twice

    def test_smoked_caps_budgets_not_schedule(self):
        spec = ScenarioSpec.from_dict(
            spec_data(workload={"name": "uniform", "kwargs": {"count": 500}})
        )
        smoked = spec.smoked()
        assert smoked.workload["kwargs"]["count"] <= 24
        assert smoked.budgets["max_steps"] <= 60_000
        assert [e.to_dict() for e in smoked.schedule] == [
            e.to_dict() for e in spec.schedule
        ]


class TestLoading:
    def test_toml_loading(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "toml-spec"\nprotocol = "ssmfp"\n'
            '[topology]\nname = "ring"\nkwargs = {n = 4}\n'
            '[workload]\nname = "uniform"\nkwargs = {count = 3}\n'
            '[[schedule]]\nat = 1.0\naction = "flood"\n'
            "source = 0\ndest = 2\n"
        )
        spec = ScenarioSpec.from_file(path)
        assert spec.name == "toml-spec"
        assert spec.schedule[0].action == "flood"

    def test_json_loading(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec_data()))
        assert ScenarioSpec.from_file(path).name == "t"

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario_file("/nonexistent/x.toml")

    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = [unterminated")
        with pytest.raises(ConfigurationError):
            load_scenario_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_scenario_file(path)

    def test_from_file_target_override(self, tmp_path):
        path = tmp_path / "s.json"
        data = spec_data(schedule=[], sim={})
        path.write_text(json.dumps(data))
        assert ScenarioSpec.from_file(path, target="runtime").target == "runtime"


class TestActionRegistry:
    def test_every_action_names_valid_targets(self):
        for action in ACTIONS.values():
            assert action.targets <= {"simulate", "runtime"}
            assert action.windowed in ("required", "optional", "forbidden")

    def test_shipped_spec_files_validate_on_their_targets(self):
        import pathlib

        specs_dir = pathlib.Path(__file__).parent.parent / "specs"
        toml_specs = sorted(specs_dir.glob("*.toml"))
        assert len(toml_specs) >= 4
        for path in toml_specs:
            spec = ScenarioSpec.from_file(path)
            assert spec.schedule, path.name
