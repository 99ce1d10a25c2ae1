"""Clock regression tests: durations come from the monotonic clock.

The runtime stamps every conformance event with one clock, the monotonic
``mono``, and every duration is computed from it.  An unstamped event
(``mono == 0.0``) gives no sample, and a delivery logged before its
generation still joins it.
"""

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


def _ev(kind, uid, order, mono, node=None):
    if node is None:
        node = 0 if kind == "generated" else 1
    return RuntimeEvent(
        kind=kind, uid=uid, node=node, dest=1, valid=True, order=order, mono=mono,
    )


class TestMessageLatencyDomain:
    def test_events_without_monotonic_stamp_are_skipped_not_misread(self):
        # Synthetic logs (mono == 0.0) carry no time: skipping beats
        # measuring a duration from nothing.
        events = [
            _ev("generated", 1, 0, mono=0.0),
            _ev("delivered", 1, 0, mono=0.0),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 0


    def test_delivery_logged_before_its_generation_still_joins(self):
        # The log is node-ordered: node 2's deliveries come before node 5's
        # generations.  One latency sample per delivery, not per lucky order.
        events = [
            _ev("delivered", 6, 0, mono=7.3, node=2),
            _ev("delivered", 14, 1, mono=7.4, node=2),
            _ev("generated", 6, 0, mono=7.0, node=5),
            _ev("generated", 14, 1, mono=7.1, node=5),
        ]
        (row,) = _histogram_rows(_result_with(events), "runtime_msg_latency_s")
        assert row["n"] == 2
        assert 0.25 <= row["max"] <= 0.35


class TestNodeEventStamps:
    def test_append_event_stamps_the_monotonic_clock(self):
        net = line_network(2)
        transport = LocalTransport(net)

        import asyncio

        async def body():
            node = RuntimeNode(
                0, net, StaticRouting(net), transport, RuntimeParams(tick=0.002)
            )
            task = asyncio.ensure_future(node.run())
            for payload in ("a", "b"):  # generated in two separate turns
                node.submit(payload, 1)
                await asyncio.sleep(0.02)
            node.stop()
            await task
            return node.core.events

        events = asyncio.run(body())
        assert [e.kind for e in events] == ["generated", "generated"]
        # The two turns are milliseconds apart, and strictly ordered.
        assert events[0].mono > 0.0
        assert 0.0 < events[1].mono - events[0].mono < 60.0
