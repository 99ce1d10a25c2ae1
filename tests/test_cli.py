"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main

SPECS_DIR = pathlib.Path(__file__).parent.parent / "specs"


class TestList:
    def test_lists_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("F1", "P4", "T1", "X1", "X2"):
            assert exp_id in out


class TestExperiment:
    def test_runs_known_experiment(self, capsys):
        assert main(["experiment", "F1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "ZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSimulate:
    def test_clean_run(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "5",
             "--messages", "5", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered=5" in out
        assert "exactly once" in out

    def test_corrupted_run(self, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "6", "--messages", "6",
             "--corrupt", "worst", "--garbage", "0.5", "--seed", "2"]
        )
        assert code == 0
        assert "invalid_delivered=" in capsys.readouterr().out

    def test_watch_prints_component(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "4", "--messages", "4",
             "--seed", "3", "--watch", "0", "--daemon", "round-robin"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "component:" in out

    def test_hotspot_workload(self, capsys):
        code = main(
            ["simulate", "--topology", "star", "--n", "5",
             "--workload", "hotspot", "--messages", "8", "--seed", "4"]
        )
        assert code == 0

    @pytest.mark.parametrize("daemon", ["synchronous", "central", "distributed"])
    def test_all_daemons(self, daemon, capsys):
        assert main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--daemon", daemon, "--seed", "5"]
        ) == 0

    def test_outcome_line_pinned_through_the_scenario_builder(self, capsys):
        # The flags become a scenario dict; the same seeds must reach the
        # same constructors as when cli.py wired them by hand.
        code = main(
            ["simulate", "--corrupt", "worst", "--garbage", "0.3",
             "--daemon", "central", "--workload", "hotspot"]
        )
        assert code == 0
        assert (
            "steps=540 rounds=49 generated=14 delivered=14 invalid_delivered=36"
            in capsys.readouterr().out.splitlines()
        )

    def test_grid_topology_args(self, capsys):
        assert main(
            ["simulate", "--topology", "grid", "--rows", "2", "--cols", "3",
             "--messages", "5", "--seed", "6"]
        ) == 0


def _exits_2_with_one_error_line(argv, capsys):
    """The front-door contract: a bad flag or spec ends in exit code 2 and
    exactly one ``error:`` line — an exception escaping ``main`` (a stack
    trace for the user) fails the test."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestFrontDoorsNeverEndInAStackTrace:
    def test_watch_outside_the_topology(self, capsys):
        # IndexError in Network.name, 25 steps into the run.
        line = _exits_2_with_one_error_line(
            ["simulate", "--n", "5", "--watch", "99"], capsys
        )
        assert "--watch 99" in line and "n=5" in line

    @pytest.mark.parametrize(
        "sim_section, named",
        [
            ({"garbage": {"fraction": 1.5}}, "sim.garbage.fraction"),
            ({"garbage": {"fraction": "lots"}}, "sim.garbage.fraction"),
            (
                {"routing": {"corruption": {"kind": "random", "fraction": -0.1}}},
                "sim.routing.corruption.fraction",
            ),
        ],
    )
    def test_initial_corruption_fraction_out_of_range(
        self, sim_section, named, tmp_path, capsys
    ):
        # ValueError from plant_invalid_messages / corrupt_random escaped
        # every ReproError handler; now the spec is range-checked at parse
        # time with the rule schedule events already obey.
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "bad-fraction",
            "topology": {"name": "ring", "kwargs": {"n": 4}},
            "sim": sim_section,
        }))
        line = _exits_2_with_one_error_line(
            ["scenario", "run", str(spec)], capsys
        )
        assert named in line
        if sim_section.get("garbage", {}).get("fraction") == 1.5:
            line = _exits_2_with_one_error_line(
                ["simulate", "--garbage", "1.5"], capsys
            )
            assert "[0, 1]" in line

    @pytest.mark.parametrize("command", ["simulate", "runtime", "verify"])
    def test_topology_too_small(self, command, capsys):
        # TopologyError was raised outside every try; `verify --n 1` said
        # "empty range for randrange()" on a one-processor line.
        line = _exits_2_with_one_error_line(
            [command, "--topology", "ring", "--n", "1"], capsys
        )
        assert "a ring needs at least 3 processors" in line
        if command == "verify":
            line = _exits_2_with_one_error_line(["verify", "--n", "1"], capsys)
            assert "at least 2 processors" in line and "randrange" not in line

    @pytest.mark.parametrize(
        "argv, named",
        [
            # The registry's refusal was printed without "error:".
            (["experiment", "ZZ"], "unknown experiment 'ZZ'"),
            # --target had its own copy of the spec's targets (an argparse
            # SystemExit); the spec is the one that refuses it now.
            (["scenario", "run", str(SPECS_DIR / "flapping_ring_soak.toml"),
              "--target", "bogus"], "target must be one of"),
            (["scenario", "campaign", str(SPECS_DIR / "daemon_sweep.json"),
              "--target", "bogus"], "target must be one of"),
            (["obs", "summarize", str(SPECS_DIR / "nope.jsonl")],
             "cannot read artifact"),
            (["verify", str(SPECS_DIR / "nope.json")], "cannot read record"),
        ],
        ids=["experiment", "run-target", "campaign-target", "artifact", "record"],
    )
    def test_loader_refusals(self, argv, named, capsys):
        assert named in _exits_2_with_one_error_line(argv, capsys)

    def test_budgets_messages_in_a_spec_is_one_error_line(self, tmp_path, capsys):
        # Nothing read budgets.messages: 12 messages ran under a budget of 1.
        spec = tmp_path / "budget.toml"
        spec.write_text(
            'name = "budget"\n'
            "[topology]\n"
            'name = "ring"\n'
            "kwargs = { n = 4 }\n"
            "[workload]\n"
            'name = "uniform"\n'
            "kwargs = { count = 12 }\n"
            "[budgets]\n"
            "messages = 1\n"
        )
        line = _exits_2_with_one_error_line(["scenario", "run", str(spec)], capsys)
        assert "['messages']" in line and "'budgets'" in line


class TestPooledModesAreGone:
    """The verifier and the runtime are serial: a flag or spec key that
    names a pooled mode is rejected before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["runtime", "--procs", "2"],
            ["verify", "--engine", "parallel"],
            ["verify", "--workers", "2"],
        ],
        ids=["runtime-procs", "verify-engine", "verify-workers"],
    )
    def test_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_runtime_procs_in_a_spec_is_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "pooled.toml"
        spec.write_text(
            'name = "pooled"\n'
            'target = "runtime"\n'
            "[topology]\n"
            'name = "ring"\n'
            "kwargs = { n = 4 }\n"
            "[runtime]\n"
            "procs = 2\n"
        )
        line = _exits_2_with_one_error_line(["scenario", "run", str(spec)], capsys)
        assert "['procs']" in line and "'runtime'" in line


class TestVerifyExhaustive:
    BASE = ["verify", "--topology", "line", "--n", "3", "--messages", "2"]

    def test_clean_instance_verifies(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "safety: states=" in out
        assert "verified: the instance is exhaustively safe" in out

    def test_reduction_line_reports_group_and_skips(self, capsys):
        assert main(self.BASE + ["--reduction", "full"]) == 0
        out = capsys.readouterr().out
        assert "reduction: full" in out
        assert "group=" in out

    def test_liveness_flag_reports_sccs(self, capsys):
        assert main(self.BASE + ["--liveness"]) == 0
        out = capsys.readouterr().out
        assert "liveness: states=" in out
        assert "livelocks=0" in out

    def test_liveness_on_unsafe_instance_exits_1_with_one_line(
        self, capsys, monkeypatch
    ):
        # Without colors three same-payload messages lose one (ablation
        # A1): the safety pass reports it, and the liveness pass — which
        # executes the same violating selection — ends in a verdict line,
        # not a stack trace or an "error:" exit 2.
        from repro.core import registry
        from repro.core.protocol import SSMFP

        class ColorsOff(SSMFP):
            """The CLI only submits distinct payloads; A1 needs equal ones."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, enable_colors=False, **kwargs)
                for _ in range(3):
                    self.hl.submit(0, "dup", 2)

        monkeypatch.setitem(registry.PROTOCOLS, "colors-off", ColorsOff)
        argv = ["verify", "--topology", "line", "--n", "3", "--messages", "0",
                "--protocol", "colors-off", "--liveness"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = [l for l in captured.err.splitlines() if l.startswith("liveness")]
        assert len(lines) == 1
        assert "search truncated: node" in lines[0] and "lost" in lines[0]

    def test_truncated_search_exits_2(self, capsys):
        assert main(self.BASE + ["--max-states", "5"]) == 2
        err = capsys.readouterr().err
        assert "truncated" in err

    def test_rejected_configuration_exits_2(self, capsys):
        # The search is serial: the clone-per-transition explorer is a test
        # oracle (tests/reference_engines.py) and there is no engine flag.
        import repro.verify

        assert not hasattr(repro.verify, "ENGINES")
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--engine", "deepcopy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_log_every_streams_progress(self, capsys):
        assert main(self.BASE + ["--log-every", "20"]) == 0
        err = capsys.readouterr().err
        assert "states=" in err and "rate=" in err

    def test_verify_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import read_artifact

        path = tmp_path / "verify.jsonl"
        assert main(self.BASE + ["--jsonl", str(path)]) == 0
        capsys.readouterr()
        art = read_artifact(path)
        assert art.name == "verify"
        assert art.meta["reduction"] == "none"
        assert "engine" not in art.meta
        metrics = {r["metric"] for r in art.rows_of_kind("metric")}
        assert "verify_states_total" in metrics
        assert "verify_dedup_ratio" in metrics


class TestObservability:
    def _simulate_artifact(self, path, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--seed", "7", "--jsonl", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_simulate_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import read_artifact

        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        art = read_artifact(path)
        kinds = art.kinds()
        assert kinds["metric"] > 0
        assert kinds["trace_event"] > 0
        assert art.meta["topology"] == "ring"

    def test_simulate_timeline_printed(self, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--seed", "7", "--timeline", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "uid 1" in out
        assert "generated" in out and "delivered" in out

    def test_experiment_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import read_artifact

        path = tmp_path / "p4.jsonl"
        assert main(["experiment", "P4", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        art = read_artifact(path)
        assert art.name == "P4"
        assert art.rows_of_kind("table_row")

    def test_obs_summarize(self, tmp_path, capsys):
        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "trace_event" in out

    def test_obs_diff_identical(self, tmp_path, capsys):
        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "0 numeric differences" in capsys.readouterr().out

    def test_obs_rejects_invalid_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no": "schema"}\n')
        assert main(["obs", "summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_sweep_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs import read_artifact

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {
                "name": "tiny",
                "topology": {"name": "ring", "kwargs": {"n": 4}},
                "workload": {"name": "uniform", "kwargs": {"count": 3, "seed": 1}},
                "seed": 1,
            },
        ))
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["scenario", "campaign", str(spec), "--jsonl", str(out_path)]
        ) == 0
        capsys.readouterr()
        art = read_artifact(out_path)
        rows = art.rows_of_kind("scenario_row")
        assert len(rows) == 1
        assert rows[0]["label"] == "tiny"
