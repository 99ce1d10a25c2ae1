"""Tests for ``repro scenario run|campaign``: exit codes and errors."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.export import read_artifact

SPECS_DIR = pathlib.Path(__file__).parent.parent / "specs"

GOOD = {
    "name": "cli-t",
    "target": "simulate",
    "protocol": "ssmfp",
    "seed": 3,
    "topology": {"name": "ring", "kwargs": {"n": 5}},
    "workload": {"name": "uniform", "kwargs": {"count": 5}},
    "sim": {"routing": {"mode": "selfstab"}},
    "schedule": [{"at": 0.5, "action": "corrupt_routing", "fraction": 0.4}],
}


def write_spec(tmp_path, data, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestScenarioRun:
    def test_pass_exits_zero(self, tmp_path, capsys):
        code = main(["scenario", "run", write_spec(tmp_path, GOOD)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "faults=1" in out

    def test_fail_exits_one(self, tmp_path, capsys):
        data = {**GOOD, "budgets": {"max_steps": 4}}
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        code = main(["scenario", "run", "/nope/missing.toml"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_spec_exits_two_no_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("name = [unterminated")
        code = main(["scenario", "run", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        code = main(
            ["scenario", "run", write_spec(tmp_path, {**GOOD, "bogus": 1})]
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_overlapping_schedule_exits_two(self, tmp_path, capsys):
        data = {
            **GOOD,
            "schedule": [
                {"at": 0, "until": 2, "action": "crash", "node": 1},
                {"at": 1, "until": 3, "action": "crash", "node": 1},
            ],
        }
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        assert code == 2
        assert "overlap" in capsys.readouterr().err

    def test_target_override_and_jsonl(self, tmp_path, capsys):
        data = {
            **GOOD,
            "sim": {},
            "clock": {"runtime_s_per_unit": 0.1},
            "schedule": [{"at": 0.3, "action": "flood", "source": 0,
                          "dest": 2, "count": 2}],
        }
        out = tmp_path / "run.jsonl"
        code = main(
            ["scenario", "run", write_spec(tmp_path, data),
             "--target", "runtime", "--smoke", "--jsonl", str(out)]
        )
        assert code == 0
        art = read_artifact(out)
        assert art.meta["target"] == "runtime"
        assert art.meta["verdict"] == "PASS"
        assert art.rows_of_kind("fault_event")

    def test_shipped_toml_spec_smoke(self, capsys):
        code = main(
            ["scenario", "run",
             str(SPECS_DIR / "flapping_ring_soak.toml"), "--smoke"]
        )
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out


class TestScenarioCampaign:
    def test_campaign_pass_exits_zero(self, tmp_path, capsys):
        data = {**GOOD, "matrix": {"protocol": ["ssmfp", "ssmfp2"]}}
        summary = tmp_path / "c.jsonl"
        code = main(
            ["scenario", "campaign", write_spec(tmp_path, data),
             "--jsonl", str(summary), "--artifact-dir", str(tmp_path / "a")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 PASS" in out
        assert read_artifact(summary).meta["passed"] == 2

    def test_campaign_fail_exits_one(self, tmp_path, capsys):
        data = {**GOOD, "budgets": {"max_steps": 4}}
        code = main(["scenario", "campaign", write_spec(tmp_path, data)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_campaign_bad_spec_exits_two(self, tmp_path, capsys):
        data = {**GOOD, "matrix": {"protocol": "ssmfp"}}
        code = main(["scenario", "campaign", write_spec(tmp_path, data)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_campaign_workers_smoke(self, tmp_path, capsys):
        summary = tmp_path / "campaign.jsonl"
        code = main(
            ["scenario", "campaign",
             str(SPECS_DIR / "corruption_burst_sweep.toml"),
             "--workers", "2", "--smoke", "--jsonl", str(summary)]
        )
        assert code == 0
        assert "8/8 PASS" in capsys.readouterr().out
        # The adversary really acted in every run the verdict covers.
        rows = read_artifact(summary).rows
        assert len(rows) == 8
        assert all(row["faults_injected"] > 0 for row in rows)


#: Spec errors no key set of the parent's first validator caught: each was
#: found (if at all) by a second validator inside the run.
LATE_AT_PARENT = {
    "sim.routing": {"sim": {"routing": {"mdoe": "static"}}},
    "sim.routing.corruption": {
        "sim": {"routing": {"corruption": {"kind": "random", "frac": 0.5}}}
    },
    "sim.garbage": {"sim": {"garbage": {"flavor": "worst"}}},
    "sim.daemon": {"sim": {"daemon": {"name": "central", "seed": 3}}},
    "workload": {"workload": {"name": "uniform", "kwargs": {"cuont": 4}}},
    "per_source": {"workload": {"name": "hotspot", "kwargs": {"dest": 0}}},
}


class TestSpecErrorsSurfaceAtParseTime:
    """Exit 2, one ``error:`` line naming the section, nothing on stdout —
    through every entry point, on both targets, before any run starts."""

    @pytest.mark.parametrize("target", ["simulate", "runtime"])
    @pytest.mark.parametrize("command", ["run", "campaign"])
    @pytest.mark.parametrize("named", sorted(LATE_AT_PARENT))
    def test_exit_2_one_error_line_no_table(
        self, named, command, target, tmp_path, capsys
    ):
        data = {
            **GOOD, "schedule": [], "matrix": {"seed": [1, 2, 3, 4]},
            **LATE_AT_PARENT[named],
        }
        if command == "run":
            del data["matrix"]
        code = main(
            ["scenario", command, write_spec(tmp_path, data),
             "--target", target]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, sim",
        [
            ("sim.protocol_options",
             {"protocol_options": {"choice_policy": "bogus"}}),
            ("sim.protocol_options",
             {"protocol_options": {"choice_policy": "aged_fair",
                                   "choice_wait_cap": 0}}),
            ("sim.daemon",
             {"daemon": {"name": "distributed",
                         "kwargs": {"p_select": 5.0}}}),
        ],
        ids=["unknown-policy", "zero-wait-cap", "p_select-above-one"],
    )
    def test_a_value_the_builder_refuses_exits_2(
        self, section, sim, tmp_path, capsys
    ):
        data = {**GOOD, "schedule": [], "sim": sim}
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert section in err and "Traceback" not in err


class TestStaticNetemKnobsMeetTheOneRangeRule:
    """``[runtime] netem`` is validated where a schedule ``netem`` event
    is: at parse time, by ``NetemConfig.from_spec``."""

    @pytest.mark.parametrize(
        "netem, names",
        [
            ({"loss": "x"}, "loss"),
            ({"latency": [0.5]}, "latency"),
            ({"loss": 1.5}, "loss"),
            ({"latency": [-1.0, -0.5]}, "latency"),
        ],
    )
    def test_exit_2_one_error_line_no_traceback(
        self, netem, names, tmp_path, capsys
    ):
        data = {
            **GOOD, "target": "runtime", "schedule": [], "sim": {},
            "runtime": {"netem": netem}, "budgets": {"wall_s": 3},
        }
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert names in err and "Traceback" not in err

    @pytest.mark.parametrize("section", ["runtime", "schedule"])
    @pytest.mark.parametrize("key", ["flap_period", "flap_down", "blocked_edges"])
    def test_removed_knobs_refused_by_name(self, key, section, tmp_path, capsys):
        # A live flap or partition is a schedule event: the static section
        # and a netem event take the same five per-record knobs.
        partition = {"at": 0.5, "until": 4.0, "action": "partition",
                     "edges": [[0, 1]]}
        netem = {key: 0.05}
        data = {**GOOD, "target": "runtime", "sim": {}, "schedule": [partition],
                "budgets": {"wall_s": 3}, "runtime": {"netem": netem}}
        if section == "schedule":
            data["schedule"].append({"at": 5.0, "action": "netem", **netem})
            del data["runtime"]
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert (
            f"unknown netem key(s) ['{key}']; valid keys: "
            "['dup', 'latency', 'loss', 'reorder', 'reorder_extra']"
        ) in captured.err

    def test_schedule_event_and_static_section_agree(self, tmp_path, capsys):
        data = {
            **GOOD, "target": "runtime", "sim": {},
            "schedule": [
                {"at": 0.1, "action": "netem", "latency": [0.005, 0.001]}
            ],
        }
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        err = capsys.readouterr().err
        assert code == 2
        assert "schedule[0]" in err and "latency" in err


class TestClusterSizesMeetTheOneRangeRule:
    """``[runtime] window`` / ``max_batch`` go through the check behind
    ``repro runtime``'s flags (``repro.runtime.sizes.check_sizes``): at
    parse time, before any run, whichever target the spec names."""

    @pytest.mark.parametrize("target", ["simulate", "runtime"])
    @pytest.mark.parametrize(
        "runtime, names",
        [
            ({"max_batch": 0}, "max_batch"),
            ({"window": 65}, "window"),
            ({"window": "abc"}, "window"),
        ],
    )
    def test_cluster_sizes_checked_at_parse_time(
        self, runtime, names, target, tmp_path, capsys
    ):
        data = {
            **GOOD, "target": target, "schedule": [], "sim": {},
            "runtime": runtime, "budgets": {"wall_s": 3},
        }
        code = main(["scenario", "run", write_spec(tmp_path, data)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert names in err and "Traceback" not in err
