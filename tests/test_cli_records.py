"""Tests for the record/verify/all CLI subcommands."""

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
        path.write_text(json.dumps({"outcome": {}}))  # no spec/max_steps
        assert main(["verify", str(path)]) == 2
        assert "not a run record" in capsys.readouterr().err

    def test_verify_unrunnable_spec_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "badspec.json"
        path.write_text(
            json.dumps(
                {
                    "spec": {"topology": {"name": "mobius", "kwargs": {}}},
                    "max_steps": 10,
                    "outcome": {},
                }
            )
        )
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "record's spec no longer runs" in err

    def test_record_missing_spec_is_a_clear_error(self, tmp_path, capsys):
        assert main(["record", str(tmp_path / "ghost.json")]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_record_malformed_spec_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("]]][[")
        assert main(["record", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_record_verify_round_trip_through_files(self, spec_file, tmp_path):
        # The full CLI loop: record -> file on disk -> verify, twice
        # (verification must not consume or alter the record).
        out_path = tmp_path / "round.json"
        assert main(["record", str(spec_file), "-o", str(out_path)]) == 0
        first = out_path.read_text()
        assert main(["verify", str(out_path)]) == 0
        assert main(["verify", str(out_path)]) == 0
        assert out_path.read_text() == first


class TestSweep:
    def test_sweep_runs_all_specs(self, tmp_path, capsys):
        specs = [
            dict(SPEC, label="a", seed=1),
            dict(SPEC, label="b", seed=2),
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(specs))
        assert main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out
        assert "delivered" in out

    def test_sweep_accepts_wrapped_form(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"specs": [dict(SPEC, label="only")]}))
        assert main(["sweep", str(path)]) == 0
        assert "only" in capsys.readouterr().out


#: One misspelt kwarg per spec section that hands its kwargs to a builder
#: (over a workload without its own seed, which scenario specs forbid).
BAD_KWARGS = {
    "topology": {"topology": {"name": "line", "kwargs": {"n": 4, "bogus": 1}}},
    "workload": {"workload": {"name": "uniform", "kwargs": {"count": 4, "bogus": 1}}},
    "daemon": {"daemon": {"name": "distributed", "kwargs": {"p_selct": 0.5}}},
    "protocol_options": {"protocol_options": {"bogus": 1}},
}


class TestMalformedSpecKwargs:
    """A typo'd kwarg is a verdict about the spec (``error:`` + exit 2),
    never a TypeError traceback with the FAIL exit code."""

    @pytest.mark.parametrize("section", sorted(BAD_KWARGS))
    @pytest.mark.parametrize("entry", ["record", "sweep", "scenario run"])
    def test_exit_2_and_one_error_line(self, entry, section, tmp_path, capsys):
        workload = {"name": "uniform", "kwargs": {"count": 4}}
        spec = {**SPEC, "workload": workload, **BAD_KWARGS[section]}
        if entry == "sweep":
            spec = [spec]
        elif entry == "scenario run":
            sim = {k: spec.pop(k) for k in ("daemon", "protocol_options") if k in spec}
            spec = {**spec, "name": "typo", "sim": sim}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main([*entry.split(), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert section in err and "Traceback" not in err
