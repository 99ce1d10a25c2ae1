"""The checked-in spec library must stay runnable — and, for the files
that predate the scenario schema, must keep reproducing the numbers they
gave as flat ``repro.sim.spec`` dicts (pinned from the last commit that
had that schema)."""

import pathlib

import pytest

from repro.cli import main
from repro.scenario import (
    ScenarioSpec,
    load_scenario_file,
    record_scenario,
    run_campaign,
)

SPEC_DIR = pathlib.Path(__file__).parent.parent / "specs"
SINGLE_SPECS = sorted(
    p for p in SPEC_DIR.glob("*.json") if "sweep" not in p.name
)
SWEEP_SPECS = sorted(p for p in SPEC_DIR.glob("*sweep*.json"))

PINNED_SINGLE = {
    "adversarial_ring": {
        "steps": 371, "rounds": 89, "generated": 30, "delivered": 30,
        "invalid_delivered": 111, "routing_correct": True,
        "rule_counts": {"R1": 30, "R2": 457, "R3": 378, "R4": 375, "R5": 4,
                        "R6": 141, "RTfix": 199, "RTself": 10},
    },
    "clean_grid": {
        "steps": 69, "rounds": 24, "generated": 24, "delivered": 24,
        "invalid_delivered": 0, "routing_correct": True,
        "rule_counts": {"R1": 24, "R2": 66, "R3": 42, "R4": 42, "R6": 24},
    },
}
#: axis value -> (steps, rounds)
PINNED_SWEEP = {
    "daemon_sweep": {"synchronous": (49, 48), "round_robin": (246, 45),
                     "central": (267, 21), "distributed": (92, 26)},
    "policy_sweep": {"fifo": (182, 65), "aged": (189, 63),
                     "aged_fair": (174, 56)},
}


class TestSpecLibrary:
    def test_library_is_populated(self):
        assert len(SINGLE_SPECS) >= 2
        assert len(SWEEP_SPECS) >= 2

    @pytest.mark.parametrize("path", SINGLE_SPECS, ids=lambda p: p.stem)
    def test_single_spec_runs_exactly_once(self, path):
        record = record_scenario(ScenarioSpec.from_file(path))
        assert record.outcome == PINNED_SINGLE[path.stem]

    @pytest.mark.parametrize("path", SWEEP_SPECS, ids=lambda p: p.stem)
    def test_sweep_spec_runs_via_cli(self, path, capsys):
        assert main(["scenario", "campaign", str(path)]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out and "rounds" in out

    @pytest.mark.parametrize("path", SWEEP_SPECS, ids=lambda p: p.stem)
    def test_sweep_spec_reproduces_flat_numbers(self, path):
        campaign = run_campaign(load_scenario_file(path))
        assert campaign.ok, campaign.summary()
        got = {
            row["label"].split("=")[1].rstrip("]"): (row["steps"], row["rounds"])
            for row in campaign.rows
        }
        assert got == PINNED_SWEEP[path.stem]
        assert all(row["delivered"] == row["generated"] for row in campaign.rows)

    @pytest.mark.parametrize("path", SINGLE_SPECS, ids=lambda p: p.stem)
    def test_specs_buildable(self, path):
        ScenarioSpec.from_file(path).build_simulation()
