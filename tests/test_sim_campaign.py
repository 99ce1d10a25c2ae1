"""Tests for the campaign driver's process-pool map and for table
rendering.  (``run_sweep`` — repeats, aggregation, fail-fast, its own
JSONL — is gone; what is left of it is the ordered, error-capturing map
under :func:`repro.scenario.run_campaign`.)"""

from repro.network.topologies import ring_network
from repro.scenario import run_campaign
from repro.scenario.campaign import _pool_map
from repro.sim.reporting import format_table


def _sweep_runner(seed, n):
    """Module-level (picklable) runner: a tiny real simulation."""
    from repro.app.workload import uniform_workload
    from repro.sim.runner import build_simulation, delivered_and_drained
    from repro.statemodel.daemon import DistributedRandomDaemon

    net = ring_network(n)
    sim = build_simulation(
        net,
        workload=uniform_workload(n, count=4, seed=seed),
        daemon=DistributedRandomDaemon(seed=seed),
        seed=seed,
    )
    result = sim.run(50_000, halt=delivered_and_drained)
    return {
        "steps": result.steps,
        "rounds": result.rounds,
        "delivered": len(sim.hl.delivered),
    }


def _flaky_runner(seed):
    if seed % 2 == 0:
        raise ValueError(f"boom {seed}")
    return {"ok": seed}


class TestRunSweep:
    def test_runs_each_config(self):
        rows = _pool_map(lambda x: {"double": 2 * x}, [{"x": 1}, {"x": 2}], None)
        assert [r["double"] for r in rows] == [2, 4]

    def test_elapsed_recorded(self):
        rows = _pool_map(lambda x: {}, [{"x": 1}], None)
        assert "elapsed_s" in rows[0]

    def test_captured_errors(self):
        def boom(x):
            raise ValueError("nope")

        rows = _pool_map(boom, [{"x": 1}], None)
        assert "ValueError" in rows[0]["error"]


class TestParallelSweep:
    CONFIGS = [{"seed": s, "n": 6} for s in range(6)]

    def test_workers_match_serial(self):
        serial = _pool_map(_sweep_runner, self.CONFIGS, None)
        parallel = _pool_map(_sweep_runner, self.CONFIGS, 4)

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in rows]

        assert strip(parallel) == strip(serial)

    def test_workers_capture_errors(self):
        rows = _pool_map(_flaky_runner, [{"seed": s} for s in range(4)], 2)
        assert "ValueError" in rows[0]["error"]
        assert rows[1]["ok"] == 1
        assert "ValueError" in rows[2]["error"]
        assert rows[3]["ok"] == 3

    def test_workers_one_falls_back_to_serial(self):
        # A lambda runner is not picklable; workers=1 must not try to.
        rows = _pool_map(lambda x: {"y": x}, [{"x": 1}, {"x": 2}], 1)
        assert [r["y"] for r in rows] == [1, 2]


class TestFormatTable:
    def test_renders_columns_in_order(self):
        out = format_table([{"a": 1, "b": 2.5}], columns=["b", "a"])
        lines = out.splitlines()
        assert lines[0].startswith("b")
        assert "2.5" in lines[2]

    def test_union_of_keys_default(self):
        out = format_table([{"a": 1}, {"b": 2}])
        assert "a" in out.splitlines()[0] and "b" in out.splitlines()[0]

    def test_missing_values_dash(self):
        out = format_table([{"a": 1}, {"b": 2}])
        assert "-" in out

    def test_title_prepended(self):
        out = format_table([{"a": 1}], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_floats_compact(self):
        out = format_table([{"x": 0.123456789}])
        assert "0.123" in out and "0.123456789" not in out

    def test_large_floats_not_scientific(self):
        # Regression: "%.3g" rendered 1234.5 as "1.23e+03" — every steps/
        # guard-evals column over 1000 came out mangled and lossy.
        out = format_table([{"x": 1234.5}, {"x": 86272.0}])
        assert "1234.5" in out
        assert "86272" in out
        assert "e+" not in out

    def test_float_rendering_cases(self):
        from repro.sim.reporting import _fmt

        assert _fmt(1234.5) == "1234.5"
        assert _fmt(3.0) == "3"
        assert _fmt(0.1235499) == "0.124"  # 3 decimals, rounded
        assert _fmt(0.0001234) == "0.000123"  # tiny values keep %.3g
        assert _fmt(float("nan")) == "nan"
        assert _fmt(float("inf")) == "inf"
        assert _fmt(True) == "True"  # bool is not a number here
        assert _fmt(None) == "-"

    def test_numeric_columns_right_aligned_golden(self):
        out = format_table(
            [
                {"name": "ring", "steps": 5, "ratio": 1.25},
                {"name": "torus-long", "steps": 12345, "ratio": 0.5},
            ],
            columns=["name", "steps", "ratio"],
            title="T",
        )
        assert out == "\n".join(
            [
                "T",
                "name       | steps | ratio",
                "------------+-------+-------",
                "ring       |     5 |  1.25",
                "torus-long | 12345 |   0.5",
            ]
        )

    def test_mixed_column_stays_left_aligned(self):
        # A column with any non-numeric value is a label column.
        out = format_table(
            [{"v": 10}, {"v": "n/a"}], columns=["v"], title=None
        )
        lines = out.splitlines()
        assert lines[2] == "10 "
        assert lines[3] == "n/a"

    def test_none_cells_do_not_block_numeric_alignment(self):
        out = format_table([{"v": 7}, {"v": None}], columns=["v"])
        lines = out.splitlines()
        assert lines[2] == "7"
        assert lines[3] == "-"

    def test_bool_column_left_aligned(self):
        out = format_table(
            [{"ok": True, "x": 1}, {"ok": False, "x": 2}], columns=["ok", "x"]
        )
        lines = out.splitlines()
        assert lines[2].startswith("True ")


class TestTableSink:
    def test_sink_sees_every_table(self):
        from repro.sim import reporting

        captured = []
        previous = reporting.set_table_sink(
            lambda title, cols, rows: captured.append((title, cols, rows))
        )
        try:
            format_table([{"a": 1}], columns=["a"], title="T1")
            format_table([{"b": 2}])
        finally:
            reporting.set_table_sink(previous)
        assert captured == [
            ("T1", ["a"], [{"a": 1}]),
            (None, ["b"], [{"b": 2}]),
        ]

    def test_set_table_sink_returns_previous(self):
        from repro.sim import reporting

        first = lambda *a: None  # noqa: E731
        assert reporting.set_table_sink(first) is None
        try:
            assert reporting.set_table_sink(None) is first
        finally:
            reporting.set_table_sink(None)


class TestRepeatFanOut:
    """A campaign makes every (combination, repetition) its own run, so a
    pool wider than the combination list is still saturated — and must
    return exactly the serial rows (modulo elapsed_s)."""

    SPEC = {
        "name": "fan",
        "seed": 5,
        "topology": {"name": "ring", "kwargs": {"n": 5}},
        "workload": {"name": "uniform", "kwargs": {"count": 4}},
    }

    @staticmethod
    def strip(campaign):
        return [
            {k: v for k, v in row.items() if k != "elapsed_s"}
            for row in campaign.rows
        ]

    def test_single_config_repeats_match_serial(self):
        data = dict(self.SPEC, repeat=4)
        pooled = run_campaign(data, workers=4)
        assert self.strip(pooled) == self.strip(run_campaign(data))
        assert [row["label"] for row in pooled.rows] == [
            f"fan[rep={r}]" for r in range(4)
        ]
        assert len({row["steps"] for row in pooled.rows}) > 1  # seeds differ

    def test_few_configs_many_repeats_match_serial(self):
        data = dict(self.SPEC, repeat=3, matrix={"topology.kwargs.n": [4, 5]})
        pooled = run_campaign(data, workers=6)
        assert self.strip(pooled) == self.strip(run_campaign(data))
        assert len(pooled.rows) == 6 and pooled.ok

    def test_fan_out_captures_errors_per_rep(self):
        # Static tables cannot be faulted — known only once the schedule is
        # lowered inside the run: every repetition is its own error row.
        data = dict(
            self.SPEC, repeat=3,
            sim={"routing": {"mode": "static"}},
            schedule=[{"at": 1.0, "action": "corrupt_routing"}],
        )
        campaign = run_campaign(data, workers=8)
        assert not campaign.ok
        assert [row["label"] for row in campaign.rows] == [
            f"fan[rep={r}]" for r in range(3)
        ]
        assert all("ConfigurationError" in row["error"] for row in campaign.rows)

