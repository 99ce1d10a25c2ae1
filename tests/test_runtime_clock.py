"""Clock-domain regression tests: durations come from the monotonic clock.

The runtime stamps every conformance event with both a wall-clock ``t``
(for human-readable report rows) and a monotonic ``mono`` (for every
duration computation).  These tests prove the two domains are never
mixed: a simulated NTP step — the wall clock jumping minutes forward or
backward mid-run — must leave every latency histogram untouched.
"""

import itertools
import time
from typing import Iterator

from repro.runtime.cluster import ClusterSpec, RuntimeResult
from repro.runtime.conformance import ConformanceReport, RuntimeEvent
from repro.runtime.hop import RuntimeParams
from repro.runtime.node import RuntimeNode
from repro.network.topologies import line_network
from repro.routing.static import StaticRouting
from repro.runtime.transport import LocalTransport


def _result_with(events) -> RuntimeResult:
    return RuntimeResult(
        spec=ClusterSpec(topology={"name": "line", "kwargs": {"n": 2}}),
        report=ConformanceReport(),
        events=list(events),
        elapsed_s=1.0,
    )


def _histogram_rows(result: RuntimeResult, name: str):
    return [
        row
        for row in result.obs_rows()
        if row.get("metric") == name and row.get("type") == "histogram"
    ]


def _ev(kind, uid, order, t, mono, node=None):
    if node is None:
        node = 0 if kind == "generated" else 1
    return RuntimeEvent(
        kind=kind, uid=uid, node=node,
        dest=1, valid=True, t=t, order=order, mono=mono,
    )


class TestMessageLatencyDomain:
    def test_ntp_jump_does_not_skew_latency(self):
        # Wall clock jumps +300s between generate and deliver; monotonic
        # time advances 0.25s.  The histogram must see 0.25s, not 300.25s.
        events = [
            _ev("generated", 1, 0, t=1000.0, mono=50.00),
            _ev("delivered", 1, 0, t=1300.25, mono=50.25),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 1
        assert row["max"] <= 1.0  # a 300s wall step never reaches the metric

    def test_backward_ntp_jump_does_not_clamp_latency_to_zero(self):
        # Wall clock jumps backward (t_deliver < t_generate): the old code
        # clamped to 0.0; the monotonic domain still measures 0.5s.
        events = [
            _ev("generated", 1, 0, t=2000.0, mono=10.0),
            _ev("delivered", 1, 0, t=1700.0, mono=10.5),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 1
        assert 0.4 <= row["max"] <= 0.6

    def test_events_without_monotonic_stamp_are_skipped_not_misread(self):
        # Synthetic logs (mono == 0.0) must not be measured on the wall
        # clock by accident — skipping beats silently mixing domains.
        events = [
            _ev("generated", 1, 0, t=100.0, mono=0.0),
            _ev("delivered", 1, 0, t=400.0, mono=0.0),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 0


    def test_delivery_logged_before_its_generation_still_joins(self):
        # The log is node-ordered: node 2's deliveries come before node 5's
        # generations.  One latency sample per delivery, not per lucky order.
        events = [
            _ev("delivered", 6, 0, t=100.3, mono=7.3, node=2),
            _ev("delivered", 14, 1, t=100.4, mono=7.4, node=2),
            _ev("generated", 6, 0, t=100.0, mono=7.0, node=5),
            _ev("generated", 14, 1, t=100.1, mono=7.1, node=5),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 2
        assert 0.25 <= row["max"] <= 0.35


class TestNodeEventStamps:
    def test_append_event_stamps_both_domains(self, monkeypatch):
        net = line_network(2)
        transport = LocalTransport(net)

        import asyncio

        async def body():
            node = RuntimeNode(
                0, net, StaticRouting(net), transport, RuntimeParams(tick=0.002)
            )
            # An adversarial wall clock that steps a full hour between
            # consecutive reads (worst-case NTP slew).
            wall: Iterator[float] = itertools.count(1_000.0, 3_600.0)
            monkeypatch.setattr(time, "time", lambda: next(wall))
            task = asyncio.ensure_future(node.run())
            for payload in ("a", "b"):  # generated in two separate turns
                node.submit(payload, 1)
                await asyncio.sleep(0.02)
            node.stop()
            await task
            return node.core.events

        events = asyncio.run(body())
        assert [e.kind for e in events] == ["generated", "generated"]
        # Wall stamps show the hour-long jumps ...
        assert events[1].t - events[0].t >= 3600.0
        # ... but the monotonic stamps are untouched by them: the two
        # turns are milliseconds apart, and strictly ordered.
        assert events[0].mono > 0.0
        assert 0.0 < events[1].mono - events[0].mono < 60.0
