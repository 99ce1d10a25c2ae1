"""The runtime scenario compiler: chaos over the live asyncio cluster."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import random

import pytest

from repro.errors import ConfigurationError
from repro.runtime.cluster import ClusterSpec, run_cluster
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.transport import LocalTransport
from repro.scenario import ScenarioSpec, run_runtime_scenario
from repro.scenario.runtimedriver import build_cluster_spec
from repro.scenario.spec import RUNTIME_KEYS

BASE = {
    "name": "rt-t",
    "target": "runtime",
    "protocol": "ssmfp",
    "seed": 5,
    "topology": {"name": "ring", "kwargs": {"n": 4}},
    "workload": {"name": "uniform", "kwargs": {"count": 8}},
    "clock": {"runtime_s_per_unit": 0.1},
    "budgets": {"wall_s": 30.0},
    "schedule": [],
}


def spec_data(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


def spec_of(**overrides):
    return ScenarioSpec.from_dict(spec_data(**overrides))


class TestLowering:
    def test_units_become_seconds(self):
        spec = spec_of(
            schedule=[
                {"at": 2.0, "until": 4.0, "action": "crash", "node": 1},
                {"at": 5.0, "action": "flood", "source": 0, "dest": 2,
                 "count": 3},
            ]
        )
        crash, flood = build_cluster_spec(spec).chaos
        assert (crash.index, crash.action, crash.at, crash.until) == (
            0, "crash", 0.2, 0.4
        )
        assert crash.kwargs == {"node": 1}
        assert (flood.index, flood.at, flood.until) == (1, 0.5, None)
        assert flood.kwargs["count"] == 3

    def test_cluster_spec_carries_chaos_and_deadline(self):
        spec = spec_of(
            schedule=[{"at": 1.0, "until": 2.0, "action": "partition",
                       "edges": [[0, 1]]}],
            runtime={"window": 8},
        )
        cluster = build_cluster_spec(spec)
        assert cluster.chaos and cluster.chaos[0].action == "partition"
        assert cluster.deadline == 30.0
        assert cluster.window == 8
        assert cluster.messages == 8

    def test_unset_runtime_keys_keep_the_cluster_defaults(self):
        # A scenario and ``repro runtime`` share one set of defaults: a
        # spec with no [runtime] section changes none of them.
        cluster = build_cluster_spec(spec_of())
        defaults = {f.name: f.default for f in dataclasses.fields(ClusterSpec)}
        for key in RUNTIME_KEYS:
            assert getattr(cluster, key) == defaults[key], key

    def test_chaos_with_multiple_procs_rejected(self):
        # A cluster is one process: ``procs`` is an unknown runtime key,
        # rejected when the spec is read, before any run.
        with pytest.raises(ConfigurationError, match="procs"):
            spec_of(
                schedule=[
                    {"at": 0.5, "until": 1.0, "action": "crash", "node": 1}
                ],
                runtime={"procs": 2, "transport": "tcp"},
            )


class TestExecution:
    def test_empty_schedule_clean_pass(self):
        result = run_runtime_scenario(spec_of())
        assert result.ok, result.failures
        assert result.metrics["delivered"] == 8
        assert result.fault_events == []

    def test_crash_and_flood_conformant(self):
        result = run_runtime_scenario(
            spec_of(
                schedule=[
                    {"at": 0.5, "until": 1.5, "action": "crash", "node": 2},
                    {"at": 1.0, "action": "flood", "source": 0, "dest": 1,
                     "count": 3, "payload": "dup"},
                ]
            )
        )
        assert result.ok, result.failures
        assert result.metrics["delivered"] == 8 + 3
        actions = [e["action"] for e in result.fault_events]
        assert actions.count("crash") == 1
        assert actions.count("restart") == 1
        assert actions.count("flood") == 1

    def test_partition_heals_and_delivers(self):
        result = run_runtime_scenario(
            spec_of(
                schedule=[{"at": 0.3, "until": 1.0, "action": "partition",
                           "edges": [[0, 1]]}]
            )
        )
        assert result.ok, result.failures
        downs = [e for e in result.fault_events if e["action"] == "link_down"]
        ups = [e for e in result.fault_events if e["action"] == "link_up"]
        assert len(downs) == 1 and len(ups) == 1
        assert downs[0]["mono"] < ups[0]["mono"]

    def test_netem_change_reverts_after_window(self):
        result = run_runtime_scenario(
            spec_of(
                schedule=[{"at": 0.3, "until": 1.0, "action": "netem",
                           "loss": 0.2}]
            )
        )
        assert result.ok, result.failures
        changes = [
            e for e in result.fault_events if e["action"] == "netem_change"
        ]
        assert len(changes) == 2
        assert changes[0]["loss"] == 0.2
        assert changes[1]["loss"] == 0.0

    def test_fault_events_in_obs_rows_with_counter(self):
        result = run_runtime_scenario(
            spec_of(
                schedule=[{"at": 0.3, "until": 0.8, "action": "crash",
                           "node": 1}]
            )
        )
        fault_rows = [
            r for r in result.obs_rows if r.get("kind") == "fault_event"
        ]
        assert {r["action"] for r in fault_rows} == {"crash", "restart"}
        totals = [
            r for r in result.obs_rows
            if r.get("kind") == "metric"
            and r.get("metric") == "faults_injected_total"
        ]
        assert totals and totals[0]["value"] == len(fault_rows)


class TestLinkFlap:
    """The schedule's ``link_flap`` is the one flap implementation of the
    live runtime."""

    def test_a_lowered_flap_keeps_its_duty_cycle(self, monkeypatch):
        # 1 unit = 5 ms: a period-1, down-0.4 flap is 2 ms down, 3 ms up.
        from repro.runtime import cluster

        spec = spec_of(
            clock={"runtime_s_per_unit": 0.005},
            schedule=[{"at": 0.0, "until": 1.0, "action": "link_flap",
                       "period": 1.0, "down": 0.4, "edges": [[0, 1]]}],
        )
        (event,) = build_cluster_spec(spec).chaos
        clock, waits = [0.0], []

        async def sleep(seconds):  # records each wait on a virtual clock
            waits.append(seconds)
            clock[0] += seconds

        async def body():
            net = build_cluster_spec(spec).build_network()
            netem = NetemTransport(LocalTransport(net), NetemConfig())
            with monkeypatch.context() as patch:
                patch.setattr(asyncio.get_running_loop(), "time", lambda: clock[0])
                patch.setattr(cluster.asyncio, "sleep", sleep)
                await cluster._drive_chaos_event(
                    event, spec.seed, net, netem, {}, []
                )
            return [e["action"] for e in netem.fault_events]

        assert asyncio.run(body()) == ["link_down", "link_up"]
        # The window start, then 2 ms down and 3 ms up.
        assert waits == [0.0, pytest.approx(0.002), pytest.approx(0.003)]

    def test_a_flap_draws_the_edges_its_seed_and_times_give(self, monkeypatch):
        # Pinned before chaos events reached the cluster as ScheduleEvents:
        # the lowered times, the event's seed (7 * 1_000_003 + 0) and the
        # edges that seed draws over the flap window on a virtual clock.
        from repro.app.workload import event_rng
        from repro.runtime import cluster

        spec = ScenarioSpec.from_file(
            pathlib.Path(__file__).parent.parent / "specs/flapping_ring_soak.toml",
            target="runtime",
        )
        flap, flood = build_cluster_spec(spec).chaos
        assert (flap.at, flap.until, flap.kwargs) == (
            0.25, 1.25, {"period": 0.125, "down": 0.05}
        )
        assert event_rng(spec.seed, flap.index).getstate() == (
            random.Random(7000021).getstate()
        )
        assert flood.at == 1.5
        clock = [0.0]

        async def sleep(seconds):
            clock[0] += seconds

        async def body():
            net = spec.build_network()
            netem = NetemTransport(LocalTransport(net), NetemConfig())
            with monkeypatch.context() as patch:
                patch.setattr(asyncio.get_running_loop(), "time", lambda: clock[0])
                patch.setattr(cluster.asyncio, "sleep", sleep)
                await cluster._drive_chaos_event(
                    flap, spec.seed, net, netem, {}, []
                )
            return [
                tuple(e["edge"]) for e in netem.fault_events
                if e["action"] == "link_down"
            ]

        assert asyncio.run(body()) == [
            (1, 2), (2, 3), (2, 3), (2, 3), (2, 3), (6, 7), (5, 6), (1, 2)
        ]

    def test_a_flap_window_takes_only_pool_edges_down_and_back(self):
        pool = [[0, 1], [2, 3]]
        result = run_runtime_scenario(
            spec_of(
                schedule=[{"at": 0.2, "until": 2.0, "action": "link_flap",
                           "period": 0.3, "down": 0.1, "edges": pool}]
            )
        )
        assert result.ok, result.failures
        assert result.metrics["delivered"] == result.metrics["expected"] == 8
        # Only link_down / link_up rows (no flap_down / flap_up), in pairs.
        events = result.fault_events
        assert len(events) >= 4 and len(events) % 2 == 0
        for down, up in zip(events[0::2], events[1::2]):
            assert (down["action"], up["action"]) == ("link_down", "link_up")
            assert down["edge"] == up["edge"] and down["edge"] in pool


class TestScheduleHalt:
    """A runtime run halts when delivered *and* its schedule has played
    out (the simulate target's halt), still bounded by the deadline."""

    def test_events_after_the_workload_drained_still_play_out(self):
        spec = spec_of(
            schedule=[
                {"at": 1.0, "until": 2.0, "action": "crash", "node": 1},
                {"at": 6.0, "until": 7.0, "action": "crash", "node": 2},
            ]
        )
        result = run_cluster(build_cluster_spec(spec))
        assert not result.partial, result.summary()
        actions = [e["action"] for e in result.fault_events]
        assert actions == ["crash", "restart", "crash", "restart"]
        last_delivery = max(
            e.mono for e in result.events if e.kind == "delivered"
        )
        assert result.fault_events[2]["mono"] > last_delivery
        assert result.elapsed_s >= 0.7

    def test_a_deadline_that_cuts_the_schedule_names_what_did_not_finish(self):
        result = run_runtime_scenario(
            spec_of(
                schedule=[
                    {"at": 0.5, "action": "flood", "source": 0, "dest": 1,
                     "count": 2},
                    {"at": 20.0, "until": 30.0, "action": "crash", "node": 1},
                ],
                budgets={"wall_s": 0.5},
            )
        )
        assert result.metrics["delivered"] == 8 + 2
        assert not result.ok
        assert [f for f in result.failures if "chaos" in f] == [
            "runtime: deadline of 0.5s reached before chaos events "
            "finished: #1 crash at 2.0s"
        ]


class TestLatencyCriterion:
    def test_p99_counts_a_delivery_logged_before_its_generation(
        self, monkeypatch
    ):
        # The merged log is node-ordered: node 2's deliveries precede node
        # 5's generations.  A one-pass join lost uid 13 (the slow one) and
        # judged latency_p99_s on uid 8 alone.
        from repro.runtime import cluster
        from repro.runtime.conformance import RuntimeEvent, check_events

        events = [
            RuntimeEvent("generated", 8, 0, 2, True, 0, mono=7.0),
            RuntimeEvent("delivered", 8, 2, 2, True, 0, mono=7.1),
            RuntimeEvent("delivered", 13, 2, 2, True, 1, mono=7.9),
            RuntimeEvent("generated", 13, 5, 2, True, 0, mono=7.0),
        ]

        def fake_run_cluster(cluster_spec):
            return cluster.RuntimeResult(
                spec=cluster_spec,
                report=check_events(events, expect_generated=2),
                events=list(events),
                elapsed_s=1.0,
            )

        monkeypatch.setattr(cluster, "run_cluster", fake_run_cluster)
        result = run_runtime_scenario(
            spec_of(
                topology={"name": "ring", "kwargs": {"n": 8}},
                workload={"name": "uniform", "kwargs": {"count": 2}},
                **{"pass": {"max_latency_p99_s": 0.5}},
            )
        )
        assert result.metrics["delivered"] == 2
        assert result.metrics["latency_p99_s"] == pytest.approx(0.9)
        assert not result.ok
        assert any("latency_p99_s" in f for f in result.failures)

    def test_p99_is_the_nearest_rank_the_artifact_reports(self, monkeypatch):
        # 100 samples 0.01 .. 1.00 s: nearest-rank p99 is the 99th (0.99),
        # which is what the runtime_msg_latency_s histogram in the same
        # run's obs rows says; the driver's private int(0.99 * n) index
        # picked the 100th — the maximum — and failed a 0.995 s ceiling the
        # reported p99 meets.
        from repro.runtime import cluster
        from repro.runtime.conformance import RuntimeEvent, check_events
        from repro.sim.stats import percentile

        events = []
        for uid in range(1, 101):
            events.append(
                RuntimeEvent("generated", uid, 0, 2, True, uid, mono=7.0)
            )
            events.append(
                RuntimeEvent("delivered", uid, 2, 2, True, uid, mono=7.0 + uid / 100)
            )

        def fake_run_cluster(cluster_spec):
            return cluster.RuntimeResult(
                spec=cluster_spec,
                report=check_events(events, expect_generated=100),
                events=list(events),
                elapsed_s=1.0,
            )

        monkeypatch.setattr(cluster, "run_cluster", fake_run_cluster)
        result = run_runtime_scenario(
            spec_of(
                workload={"name": "uniform", "kwargs": {"count": 100}},
                **{"pass": {"max_latency_p99_s": 0.995}},
            )
        )
        samples = [uid / 100 for uid in range(1, 101)]
        assert percentile(samples, 99) == pytest.approx(0.99)
        assert result.metrics["latency_p99_s"] == pytest.approx(0.99)
        assert not any("latency_p99_s" in f for f in result.failures)
