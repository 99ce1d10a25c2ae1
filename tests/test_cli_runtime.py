"""Tests for the ``repro runtime`` subcommand and ``repro sweep --workers``."""

import json

import pytest

from repro.cli import main
from repro.obs.export import read_artifact


class TestRuntimeCommand:
    def test_clean_local_run_exits_zero(self, capsys):
        code = main(
            ["runtime", "--topology", "ring", "--n", "4", "--messages", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime [OK]" in out
        assert "verdict: PASS" in out

    def test_jsonl_artifact_written_and_valid(self, tmp_path, capsys):
        path = tmp_path / "runtime.jsonl"
        code = main(
            [
                "runtime", "--topology", "line", "--n", "3",
                "--messages", "8", "--jsonl", str(path),
            ]
        )
        assert code == 0
        artifact = read_artifact(path)  # schema-validated on read
        assert artifact.meta["transport"] == "local"
        assert artifact.meta["partial"] is False
        names = {row["metric"] for row in artifact.rows}
        assert "runtime_delivered" in names

    def test_netem_flags_accepted(self, capsys):
        code = main(
            [
                "runtime", "--topology", "ring", "--n", "3",
                "--messages", "8", "--loss", "0.05", "--dup", "0.05",
                "--latency-ms", "0:2",
            ]
        )
        assert code == 0
        assert "netem:" in capsys.readouterr().out

    def test_bad_latency_spec_exits_two(self, capsys):
        code = main(
            ["runtime", "--topology", "ring", "--n", "3", "--latency-ms", "zap"]
        )
        assert code == 2
        assert "LO:HI" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, names",
        [("--loss", "1.5", "loss"), ("--latency-ms", "5:1", "latency")],
    )
    def test_netem_flag_out_of_range_exits_two(self, flag, value, names, capsys):
        code = main(
            ["runtime", "--topology", "ring", "--n", "3", "--messages", "4",
             "--deadline", "3", flag, value]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # rejected before any run, not FAIL 0/4
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert names in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--flap-period", "--flap-down"])
    def test_flap_flags_are_gone(self, flag, capsys):
        # A live flap is a schedule's link_flap event.
        with pytest.raises(SystemExit) as excinfo:
            main(["runtime", flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-batch", "0"),
            ("--window", "0"),
            ("--window", "100"),
            ("--messages", "-1"),
            ("--deadline", "-1"),
        ],
    )
    def test_size_the_cluster_cannot_honour_exits_two(self, flag, value, capsys):
        # At the parent: max_batch 0 started the run and died on range()
        # (exit 1), windows were clamped to 1..64, -1 messages passed and
        # a negative deadline ran until it was "reached".
        code = main(
            ["runtime", "--topology", "ring", "--n", "3", "--messages", "4",
             flag, value]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # rejected before any run
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert flag in err and "Traceback" not in err

    def test_window_batch_and_wire_flags(self, capsys):
        code = main(
            [
                "runtime", "--topology", "ring", "--n", "3",
                "--messages", "8", "--window", "4", "--max-batch", "8",
            ]
        )
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out
        # One codec: the frame encoding is no longer selectable.
        with pytest.raises(SystemExit) as excinfo:
            main(["runtime", "--wire-version", "2"])
        assert excinfo.value.code == 2

    def test_window_metrics_visible_in_obs_summarize(self, tmp_path, capsys):
        path = tmp_path / "runtime.jsonl"
        assert main(
            [
                "runtime", "--topology", "ring", "--n", "4",
                "--messages", "40", "--jsonl", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        for metric in (
            "runtime_batch_size",
            "runtime_ack_coalesce",
            "runtime_rto_s",
            "runtime_window_occupancy",
        ):
            assert metric in out, metric


SPEC = {
    "topology": {"name": "line", "kwargs": {"n": 4}},
    "workload": {"name": "uniform", "kwargs": {"count": 4, "seed": 1}},
    "seed": 5,
}


class TestSweepWorkers:
    """``scenario campaign --workers N`` (what ``sweep --workers`` became):
    pooled rows are the serial rows, wall-clock ``elapsed_s`` aside."""

    def sweep_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(dict(SPEC, name="s", matrix={"seed": [0, 1, 2, 3]}))
        )
        return path

    def test_parallel_rows_identical_to_serial(self, tmp_path, capsys):
        def table(out):
            return [line.rsplit("|", 1)[0] for line in out.splitlines()]

        path = self.sweep_file(tmp_path)
        assert main(["scenario", "campaign", str(path)]) == 0
        serial = capsys.readouterr().out
        assert main(["scenario", "campaign", str(path), "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert table(serial) == table(parallel)
        assert "s[seed=0]" in serial and "s[seed=3]" in serial

    def test_parallel_jsonl_identical_to_serial(self, tmp_path, capsys):
        def rows(path):
            return [
                {k: v for k, v in row.items() if k != "elapsed_s"}
                for row in read_artifact(path).rows
            ]

        path = self.sweep_file(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["scenario", "campaign", str(path), "--jsonl", str(a)]) == 0
        assert main(
            ["scenario", "campaign", str(path), "--workers", "3",
             "--jsonl", str(b)]
        ) == 0
        capsys.readouterr()
        assert len(rows(a)) == 4 and rows(a) == rows(b)
