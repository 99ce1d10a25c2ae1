"""Tests for JSONL artifacts (repro.obs.export)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    SCHEMA,
    MetricsRegistry,
    capture_tables,
    diff_artifacts,
    read_artifact,
    summarize_artifact,
    tables_to_rows,
    write_jsonl,
)
from repro.sim.reporting import format_table


class TestWriteRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        n = write_jsonl(
            path,
            [{"x": 1}, {"x": 2}],
            kind="sweep_row",
            name="demo",
            meta={"seed": 7},
        )
        assert n == 2
        art = read_artifact(path)
        assert art.name == "demo"
        assert art.meta == {"seed": 7}
        assert art.kinds() == {"sweep_row": 2}
        assert [r["x"] for r in art.rows_of_kind("sweep_row")] == [1, 2]
        assert all(r["schema"] == SCHEMA for r in art.rows)

    def test_rows_keep_their_own_kind(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("steps").inc(5)
        path = tmp_path / "m.jsonl"
        write_jsonl(path, reg.rows(), kind="row")
        art = read_artifact(path)
        assert art.kinds() == {"metric": 1}

    def test_default_name_is_stem(self, tmp_path):
        path = tmp_path / "fancy_name.jsonl"
        write_jsonl(path, [])
        assert read_artifact(path).name == "fancy_name"

    def test_unjsonable_values_stringified(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_jsonl(path, [{"v": {1, 2}}])
        assert read_artifact(path).rows  # did not raise

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "a.jsonl"
        write_jsonl(path, [{"x": 1}])
        assert path.exists()


class TestValidation:
    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": "repro.obs/v999", "kind": "header"}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="schema"):
            read_artifact(path)

    def test_rejects_missing_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "row"}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            read_artifact(path)

    def test_rejects_missing_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": SCHEMA}) + "\n")
        with pytest.raises(ConfigurationError, match="kind"):
            read_artifact(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(ConfigurationError, match="not JSON"):
            read_artifact(path)


class TestSummarize:
    def test_summary_mentions_kinds_and_fields(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(
            path,
            [{"steps": 10, "label": "x"}, {"steps": 30, "label": "y"}],
            kind="sweep_row",
            name="run",
        )
        text = summarize_artifact(path)
        assert "run" in text
        assert "sweep_row" in text
        assert "steps" in text


class TestDiff:
    def _write(self, path, value):
        write_jsonl(
            path,
            [{"config": "ring64", "steps": value}],
            kind="sweep_row",
        )

    def test_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, 100)
        self._write(b, 100)
        text = diff_artifacts(a, b)
        assert "0 numeric differences" in text
        assert "1 rows aligned" in text

    def test_numeric_difference_reported(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, 100)
        self._write(b, 150)
        text = diff_artifacts(a, b)
        assert "1 numeric differences" in text
        assert "config=ring64" in text
        assert "1.5" in text  # ratio

    def test_rows_only_on_one_side(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [{"config": "x", "v": 1}], kind="sweep_row")
        write_jsonl(b, [{"config": "y", "v": 1}], kind="sweep_row")
        text = diff_artifacts(a, b)
        assert "1 only in A" in text
        assert "1 only in B" in text

    def test_tolerance(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, 1.0)
        self._write(b, 1.0 + 1e-12)
        assert "0 numeric differences" in diff_artifacts(a, b)


class TestCaptureTables:
    def test_captures_structured_tables(self):
        with capture_tables() as captured:
            format_table([{"a": 1}], columns=["a"], title="T")
        assert captured == [
            {"title": "T", "columns": ["a"], "rows": [{"a": 1}]}
        ]

    def test_nested_captures_both_see_tables(self):
        with capture_tables() as outer:
            with capture_tables() as inner:
                format_table([{"a": 1}])
        assert len(inner) == 1
        assert len(outer) == 1

    def test_sink_restored_after_block(self):
        from repro.sim import reporting

        with capture_tables():
            pass
        assert reporting.set_table_sink(None) is None

    def test_tables_to_rows(self):
        with capture_tables() as captured:
            format_table([{"a": 1}, {"a": 2}], title="T")
            format_table([{"b": 3}])
        rows = tables_to_rows(captured)
        assert rows == [
            {"kind": "table_row", "table": "T", "a": 1},
            {"kind": "table_row", "table": "T", "a": 2},
            {"kind": "table_row", "b": 3},
        ]
