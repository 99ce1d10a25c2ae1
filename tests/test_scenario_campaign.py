"""The campaign driver: matrix expansion, repeats, artifacts, parallelism."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import read_artifact
from repro.scenario import ScenarioSpec, expand_matrix, run_campaign

BASE = {
    "name": "camp",
    "target": "simulate",
    "protocol": "ssmfp",
    "seed": 20,
    "topology": {"name": "ring", "kwargs": {"n": 5}},
    "workload": {"name": "uniform", "kwargs": {"count": 6}},
    "sim": {"routing": {"mode": "selfstab"}},
    "schedule": [{"at": 0.5, "action": "corrupt_routing", "fraction": 0.4}],
}


def spec_data(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


class TestExpansion:
    def test_no_matrix_single_run(self):
        runs = expand_matrix(spec_data())
        assert len(runs) == 1
        assert runs[0][0] == "camp"

    def test_matrix_product_with_labels(self):
        runs = expand_matrix(
            spec_data(matrix={"protocol": ["ssmfp", "ssmfp2"],
                              "topology.kwargs.n": [5, 7]})
        )
        assert len(runs) == 4
        labels = [label for label, _ in runs]
        assert labels[0] == "camp[protocol=ssmfp,n=5]"
        assert len(set(labels)) == 4
        protocols = {spec.protocol for _, spec in runs}
        sizes = {spec.topology["kwargs"]["n"] for _, spec in runs}
        assert protocols == {"ssmfp", "ssmfp2"} and sizes == {5, 7}

    def test_repeat_offsets_seeds(self):
        runs = expand_matrix(spec_data(repeat=3))
        assert [spec.seed for _, spec in runs] == [20, 21, 22]
        assert [label for label, _ in runs] == [
            "camp[rep=0]", "camp[rep=1]", "camp[rep=2]"
        ]
        assert all(spec.repeat == 1 for _, spec in runs)

    def test_bad_axis_value_fails_with_combo_name(self):
        with pytest.raises(ConfigurationError, match=r"camp\[n=3\]"):
            expand_matrix(
                spec_data(
                    matrix={"topology.kwargs.n": [5, 3]},
                    schedule=[{"at": 0, "until": 1, "action": "crash",
                               "node": 4}],
                )
            )

    def test_expanded_runs_are_valid_specs(self):
        for _, spec in expand_matrix(spec_data(matrix={"seed": [1, 2]})):
            assert isinstance(spec, ScenarioSpec) and not spec.matrix
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestCampaign:
    def test_serial_campaign_passes(self, tmp_path):
        summary = tmp_path / "c.jsonl"
        campaign = run_campaign(
            spec_data(matrix={"protocol": ["ssmfp", "ssmfp2"]}),
            jsonl_path=str(summary),
        )
        assert campaign.ok
        assert len(campaign.rows) == 2
        assert all(row["verdict"] == "PASS" for row in campaign.rows)
        art = read_artifact(summary)
        assert len(art.rows) == 2
        assert all(r["kind"] == "scenario_row" for r in art.rows)
        assert art.meta["passed"] == 2

    def test_workers_match_serial(self):
        data = spec_data(matrix={"protocol": ["ssmfp", "ssmfp2"]}, repeat=2)
        serial = run_campaign(data)
        pooled = run_campaign(data, workers=3)

        def identity(rows):
            return [
                {k: r.get(k) for k in ("label", "verdict", "steps", "rounds",
                                       "generated", "delivered",
                                       "faults_injected")}
                for r in rows
            ]

        assert identity(serial.rows) == identity(pooled.rows)

    def test_run_time_errors_are_rows_under_workers_too(self):
        # Static tables cannot be faulted: that is only known once the
        # schedule is lowered, i.e. inside the run — a row, not a crash,
        # and the other combination is unaffected.
        data = spec_data(matrix={"sim.routing.mode": ["selfstab", "static"]})
        for workers in (None, 2):
            campaign = run_campaign(data, workers=workers)
            assert not campaign.ok
            good, bad = campaign.rows
            assert good["verdict"] == "PASS" and "error" not in good
            assert good["label"] == "camp[mode=selfstab]"
            assert bad["label"] == "camp[mode=static]"
            assert "ConfigurationError" in bad["error"] and "selfstab" in bad["error"]
            assert "elapsed_s" in bad
            assert "camp[mode=static]: ConfigurationError" in campaign.summary()

    @pytest.mark.parametrize("smoke", [False, True])
    def test_a_row_is_validated_once_and_built_once(self, smoke, monkeypatch):
        # A row used to be parsed (= built) up to four times: at expansion,
        # again in the row runner, again by smoked(), then for real.  Now:
        # one validation at expansion + the run itself, one more parse for
        # the shrunken spec under --smoke; the base spec costs one per
        # campaign.  Serial and pooled rows stay equal (pooled builds
        # happen in the workers, which get the validated spec).
        from repro.scenario import spec as spec_mod

        builds = []
        real = spec_mod.build_simulation

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spec_mod, "build_simulation", counting)
        data = spec_data(matrix={"protocol": ["ssmfp", "ssmfp2"]}, repeat=2)
        serial = run_campaign(data, smoke=smoke)
        rows = len(serial.rows)
        assert rows == 4
        assert len(builds) == 1 + rows * (3 if smoke else 2)

        del builds[:]
        pooled = run_campaign(data, smoke=smoke, workers=2)
        assert len(builds) == 1 + rows  # the parent only validates
        keys = ("label", "verdict", "steps", "rounds", "generated", "delivered")
        assert [[r.get(k) for k in keys] for r in serial.rows] == [
            [r.get(k) for k in keys] for r in pooled.rows
        ]

    def test_per_run_artifacts_carry_fault_timeline(self, tmp_path):
        campaign = run_campaign(
            spec_data(matrix={"protocol": ["ssmfp", "ssmfp2"]}),
            artifact_dir=str(tmp_path),
        )
        assert campaign.ok
        for row in campaign.rows:
            art = read_artifact(row["artifact"])
            assert art.meta["verdict"] == "PASS"
            assert art.rows_of_kind("fault_event")
            assert art.rows_of_kind("metric")

    def test_failing_run_yields_fail_row_not_exception(self):
        campaign = run_campaign(
            spec_data(
                budgets={"max_steps": 4},
                **{"pass": {"deliver_all": True}},
            )
        )
        assert not campaign.ok
        assert campaign.rows[0]["verdict"] == "FAIL"
        assert "failures" in campaign.rows[0]
        assert "deliver_all" in campaign.summary()

    def test_target_override_applies_to_all_runs(self):
        campaign = run_campaign(
            spec_data(
                schedule=[{"at": 0.2, "action": "flood", "source": 0,
                           "dest": 2, "count": 2}],
                sim={},
                clock={"runtime_s_per_unit": 0.1},
            ),
            target="runtime",
            smoke=True,
        )
        assert campaign.ok, campaign.summary()
        assert campaign.rows[0]["target"] == "runtime"

    def test_smoke_caps_workload(self):
        campaign = run_campaign(
            spec_data(workload={"name": "uniform", "kwargs": {"count": 400}}),
            smoke=True,
        )
        assert campaign.ok
        assert campaign.rows[0]["generated"] <= 24

    def test_invalid_base_spec_raises(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            run_campaign(spec_data(bogus=1))

    @pytest.mark.parametrize("target", [None, "runtime"])
    def test_sim_section_typos_raise_before_any_run(self, target, monkeypatch):
        from repro.scenario import campaign as campaign_mod

        def no_runs(*args, **kwargs):
            raise AssertionError("a run started on an invalid spec")

        monkeypatch.setattr(campaign_mod, "_pool_map", no_runs)
        data = spec_data(
            matrix={"seed": [1, 2, 3, 4]}, schedule=[],
            sim={"routing": {"mdoe": "static"}},
        )
        with pytest.raises(ConfigurationError, match="sim.routing"):
            run_campaign(data, target=target)
