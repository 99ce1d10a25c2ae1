"""Integration tests: full cluster runs on both execution shapes."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import read_artifact, write_jsonl
from repro.runtime import ClusterSpec, run_cluster


def ring_spec(**overrides):
    base = dict(
        topology={"name": "ring", "kwargs": {"n": 4}},
        messages=24,
        seed=7,
        deadline=30.0,
        tick=0.002,
    )
    base.update(overrides)
    return ClusterSpec(**base)


class TestLocalCluster:
    def test_clean_run_delivers_exactly_once(self):
        result = run_cluster(ring_spec())
        assert not result.partial, result.summary()
        assert result.report.generated == 24
        assert result.report.delivered == 24
        assert result.report.duplicates == 0
        assert result.counters["generated"] == 24
        assert result.throughput > 0

    def test_netem_faults_still_exactly_once(self):
        result = run_cluster(
            ring_spec(
                messages=20,
                netem={
                    "loss": 0.1,
                    "dup": 0.1,
                    "reorder": 0.1,
                    "latency": [0.0, 0.002],
                },
                retry_base=0.02,
                retry_cap=0.1,
            )
        )
        assert not result.partial, result.summary()
        assert result.report.delivered == 20
        assert result.report.duplicates == 0
        # The adversary must actually have acted for this to mean anything.
        assert sum(result.netem_stats.values()) > 0

    def test_hotspot_workload(self):
        result = run_cluster(ring_spec(workload="hotspot", messages=12))
        assert not result.partial, result.summary()
        assert result.report.delivered == result.report.generated > 0

    def test_obs_rows_validate_against_schema(self, tmp_path):
        result = run_cluster(ring_spec(messages=8))
        rows = result.obs_rows()
        path = tmp_path / "runtime.jsonl"
        write_jsonl(path, rows, name="runtime")
        artifact = read_artifact(path)  # raises on any schema violation
        names = {row["metric"] for row in artifact.rows}
        assert "runtime_generated" in names
        assert "runtime_hop_latency_s" in names
        assert "runtime_msg_latency_s" in names
        assert "runtime_throughput_msgs" in names

    def test_window_and_batch_observability_exported(self, tmp_path):
        # Satellite: per-lane window occupancy, batch-size / ACK-coalesce
        # histograms and RTO samples flow through repro.obs/v1.
        result = run_cluster(ring_spec(messages=60))
        assert not result.partial, result.summary()
        assert result.batch_sizes and max(result.batch_sizes) >= 1
        assert result.rto_samples  # RTO estimator produced samples
        assert result.window_samples  # monitor sampled lane occupancy
        rows = result.obs_rows()
        path = tmp_path / "runtime.jsonl"
        write_jsonl(path, rows, name="runtime")
        names = {row["metric"] for row in read_artifact(path).rows}
        for metric in (
            "runtime_batch_size",
            "runtime_ack_coalesce",
            "runtime_rto_s",
            "runtime_window_occupancy",
        ):
            assert metric in names, metric


class TestCleanStartVerdict:
    @pytest.mark.parametrize("valid", [True, False])
    def test_a_delivered_ungenerated_uid_fails_the_run(self, monkeypatch, valid):
        # One forged DATA, released at once, on a lane the hotspot workload
        # (everything to node 0) never uses: node 1 delivers uid -7, which
        # nobody generated.  Whatever its ``v`` bit says, a live cluster
        # starts clean, so the verdict is FAIL.
        from repro.runtime import cluster
        from repro.runtime.wire import data_rec

        class ForgingNode(cluster.RuntimeNode):
            async def run(self):
                if self.pid == 1:
                    forged = data_rec(1, 1, -7, "forged", valid, 1)
                    self.inbox.put_nowait((0, [forged]))
                await super().run()

        monkeypatch.setattr(cluster, "RuntimeNode", ForgingNode)
        result = run_cluster(ring_spec(workload="hotspot", messages=12))
        report = result.report
        assert (report.delivered, report.invalid_delivered) == (12, 1)
        assert not report.undelivered and report.duplicates == 0
        assert any("invalid deliveries" in v for v in report.violations)
        assert result.partial and "verdict: FAIL" in result.summary()


class TestProtocolKnobs:
    def test_small_window_still_exactly_once(self):
        result = run_cluster(ring_spec(window=1, max_batch=1))
        assert not result.partial, result.summary()
        assert result.report.delivered == 24
        assert result.report.duplicates == 0


class TestTcpCluster:
    def test_single_process_tcp_smoke(self):
        result = run_cluster(
            ring_spec(
                topology={"name": "ring", "kwargs": {"n": 3}},
                messages=12,
                transport="tcp",
            )
        )
        assert not result.partial, result.summary()
        assert result.report.delivered == 12
        assert result.transport_stats["frames_sent"] > 0


class TestSpecValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown transport"):
            run_cluster(ring_spec(transport="carrier-pigeon"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            run_cluster(ring_spec(workload="nope"))

    @pytest.mark.parametrize("workload", ["burst", "permutation", "single"])
    def test_workload_messages_cannot_size_rejected(self, workload):
        # "burst" was a raw TypeError out of the generator and
        # "permutation" silently ignored ``messages``.
        with pytest.raises(ConfigurationError, match=r"\['hotspot', 'uniform'\]"):
            ring_spec(workload=workload).build_submissions()

    @pytest.mark.parametrize(
        "field, value",
        [("window", 0), ("window", 65), ("max_batch", 0), ("messages", -1),
         ("deadline", 0.0), ("deadline", -1.0)],
    )
    def test_size_out_of_range_refused_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ring_spec(**{field: value})

    def test_size_range_edges_accepted(self):
        spec = ring_spec(window=64, max_batch=1, messages=0, deadline=0.001)
        assert spec.build_params().window == 64


class TestEndOfRunIsSignalled:
    def test_progress_sets_the_event_the_monitor_awaits(self):
        from repro.runtime.cluster import _Progress

        progress = _Progress(target=3)
        progress(2)
        assert not progress.reached.is_set()
        progress(1)
        assert progress.reached.is_set() and progress.delivered == 3
        assert _Progress(target=0).reached.is_set()  # nothing to wait for

    def test_run_returns_within_milliseconds_of_the_last_delivery(
        self, monkeypatch
    ):
        import statistics
        import time

        from repro.runtime import cluster

        monkeypatch.setattr(cluster, "DRAIN_GRACE", 0.0)
        gaps = []
        for seed in range(9):
            result = run_cluster(ring_spec(messages=200, seed=seed))
            returned = time.monotonic()
            assert not result.partial, result.summary()
            last = max(e.mono for e in result.events if e.kind == "delivered")
            gaps.append(returned - last)
        # A 20 ms poll alone averages 10 ms; a signalled end of run is the
        # teardown and the verdict, nothing else.
        assert statistics.median(gaps) < 0.010, gaps


class TestNetemHoldObservability:
    @staticmethod
    def held_rows(result):
        return [
            row for row in result.obs_rows()
            if row.get("metric") == "runtime_netem_held"
        ]

    def test_latency_only_run_exports_the_hold(self):
        # Enough traffic and delay that the hold is busy for most of the
        # run (a 200-message run spends its tail waiting on a quiet lane's
        # standalone REL with nothing held).
        result = run_cluster(
            ring_spec(messages=1000, netem={"latency": [0.02, 0.04]})
        )
        assert not result.partial, result.summary()
        assert result.netem_held_samples
        (row,) = self.held_rows(result)
        assert row["type"] == "histogram"
        assert row["n"] == len(result.netem_held_samples)
        assert row["p50"] > 0  # the adversary was holding records

    def test_clean_run_has_no_hold_row(self):
        result = run_cluster(ring_spec(messages=8))
        assert result.netem_held_samples == []
        assert self.held_rows(result) == []
