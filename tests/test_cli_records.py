"""Tests for the record/verify CLI subcommands."""

import json

import pytest

from repro.cli import main

SPEC = {
    "topology": {"name": "line", "kwargs": {"n": 4}},
    "workload": {"name": "uniform", "kwargs": {"count": 4, "seed": 1}},
    "seed": 5,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


class TestRecordVerify:
    def test_record_writes_default_path(self, spec_file, capsys):
        assert main(["record", str(spec_file)]) == 0
        record_path = spec_file.parent / "spec.record.json"
        assert record_path.exists()
        out = capsys.readouterr().out
        assert "delivered: 4" in out

    def test_verify_accepts_fresh_record(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        main(["record", str(spec_file), "-o", str(out_path)])
        assert main(["verify", str(out_path)]) == 0
        assert "bit-identically" in capsys.readouterr().out

    def test_verify_rejects_tampered_record(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        main(["record", str(spec_file), "-o", str(out_path)])
        data = json.loads(out_path.read_text())
        data["outcome"]["steps"] += 1
        out_path.write_text(json.dumps(data))
        assert main(["verify", str(out_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_tampered_record_diff_names_field_and_both_values(
        self, spec_file, tmp_path, capsys
    ):
        # The rejection must be a readable diff, not a stack trace.
        out_path = tmp_path / "r.json"
        main(["record", str(spec_file), "-o", str(out_path)])
        data = json.loads(out_path.read_text())
        honest = data["outcome"]["delivered"]
        data["outcome"]["delivered"] = honest + 3
        out_path.write_text(json.dumps(data))
        assert main(["verify", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert f"delivered: recorded {honest + 3!r}, reproduced {honest!r}" in err
        assert "Traceback" not in err

    def test_verify_missing_file_is_a_clear_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read record")
        assert "Traceback" not in err

    def test_verify_malformed_json_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a run record" in err

    def test_verify_wrong_shape_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"outcome": {}}))  # no spec
        assert main(["verify", str(path)]) == 2
        assert "not a run record" in capsys.readouterr().err

    def test_verify_unrunnable_spec_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "badspec.json"
        path.write_text(
            json.dumps(
                {
                    "spec": {"topology": {"name": "mobius", "kwargs": {}}},
                    "outcome": {},
                }
            )
        )
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "record's spec no longer runs" in err

    def test_record_missing_spec_is_a_clear_error(self, tmp_path, capsys):
        assert main(["record", str(tmp_path / "ghost.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not found" in err

    def test_record_malformed_spec_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("]]][[")
        assert main(["record", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid JSON" in err

    def test_record_verify_round_trip_through_files(self, spec_file, tmp_path):
        # The full CLI loop: record -> file on disk -> verify, twice
        # (verification must not consume or alter the record).
        out_path = tmp_path / "round.json"
        assert main(["record", str(spec_file), "-o", str(out_path)]) == 0
        first = out_path.read_text()
        assert main(["verify", str(out_path)]) == 0
        assert main(["verify", str(out_path)]) == 0
        assert out_path.read_text() == first

    @pytest.mark.parametrize(
        "flags",
        [
            ["--liveness", "--n", "9", "--reduction", "full",
             "--max-states", "1"],
            ["--topology", "ring"], ["--rows", "2"], ["--cols", "2"],
            ["--dim", "2"], ["--messages", "2"], ["--garbage", "0.5"],
            ["--seed", "0"], ["--protocol", "ssmfp2"], ["--max-width", "1"],
            ["--log-every", "5"], ["--jsonl=out.jsonl"], ["--n", "3"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_verify_record_refuses_model_check_flags(
        self, flags, spec_file, tmp_path, capsys
    ):
        # A record fixes its own instance: a model-check flag next to one
        # was ignored and the run said "verified", even at its default.
        out_path = tmp_path / "rec.json"
        assert main(["record", str(spec_file), "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        for flag in flags:
            if flag.startswith("--"):
                assert flag.split("=")[0] in lines[0]


    def test_chaos_schedule_round_trips(self, tmp_path, capsys):
        # A record covers the timed fault schedule too: same seed, same
        # faults at the same steps, same fingerprint.
        spec = {
            **SPEC,
            "topology": {"name": "ring", "kwargs": {"n": 6}},
            "schedule": [
                {"at": 0.2, "action": "corrupt_routing", "fraction": 0.6},
                {"at": 0.4, "until": 1.0, "action": "crash", "node": 2},
                {"at": 0.6, "action": "flood", "source": 0, "dest": 3,
                 "count": 3},
            ],
        }
        spec_path = tmp_path / "chaos.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "chaos.record.json"
        assert main(["record", str(spec_path), "-o", str(out_path)]) == 0
        assert "generated: 7" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert len(data["spec"]["schedule"]) == 3
        assert main(["verify", str(out_path)]) == 0
        data["spec"]["schedule"][0]["fraction"] = 0.1
        out_path.write_text(json.dumps(data))
        assert main(["verify", str(out_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_record_reads_toml(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text(
            'seed = 5\n[topology]\nname = "line"\nkwargs = {n = 4}\n'
            '[workload]\nname = "uniform"\nkwargs = {count = 4, seed = 1}\n'
        )
        assert main(["record", str(path)]) == 0
        assert (tmp_path / "s.record.json").exists()
        assert "delivered: 4" in capsys.readouterr().out

    def test_pre_scenario_record_is_a_clear_error(self, tmp_path, capsys):
        # {"spec": flat, "max_steps": ...}: SPEC happens to parse under
        # both schemas, so the stale step budget must be what is refused.
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"spec": SPEC, "max_steps": 500_000, "outcome": {}})
        )
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "max_steps" in err and "not a run record" in err


def test_sweep_subcommand_is_gone(tmp_path, capsys):
    # `repro scenario campaign` over a [matrix] is the one sweep driver.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", str(tmp_path / "x.json")])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


#: One misspelt kwarg per spec section that hands its kwargs to a builder.
BAD_KWARGS = {
    "topology": {"topology": {"name": "line", "kwargs": {"n": 4, "bogus": 1}}},
    "workload": {"workload": {"name": "uniform", "kwargs": {"count": 4, "bogus": 1}}},
    "daemon": {"sim": {"daemon": {"name": "distributed", "kwargs": {"p_selct": 0.5}}}},
    "protocol_options": {"sim": {"protocol_options": {"bogus": 1}}},
}


class TestMalformedSpecKwargs:
    """A typo'd kwarg is a verdict about the spec (``error:`` + exit 2),
    never a TypeError traceback with the FAIL exit code."""

    @pytest.mark.parametrize("section", sorted(BAD_KWARGS))
    @pytest.mark.parametrize(
        "entry", ["record", "scenario run", "scenario campaign"]
    )
    def test_exit_2_and_one_error_line(self, entry, section, tmp_path, capsys):
        spec = {**SPEC, "name": "typo", **BAD_KWARGS[section]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main([*entry.split(), str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert section in err and "Traceback" not in err
        assert captured.out == ""
