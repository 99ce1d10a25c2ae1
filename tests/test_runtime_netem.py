"""Tests for the fault-injecting netem transport decorator.

Since the batching PR the adversary draws faults **per record**: a batch
is torn apart, every record gets its own loss/dup/latency/reorder draws,
undelayed survivors are re-batched into one base send, and each delayed
record travels as its own single-record frame.
"""

import asyncio

import pytest

from repro.network.topologies import line_network
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.transport import LocalTransport
from repro.runtime.wire import ack_rec
from repro.types import normalized_edge


def run(coro):
    return asyncio.run(coro)


def drain_records(inbox):
    """All records currently in the inbox, flattened across frames."""
    records = []
    while not inbox.empty():
        _, batch = inbox.get_nowait()
        records.append(batch)
    return records


class TestNetemConfig:
    def test_noop_detection(self):
        assert NetemConfig().is_noop()
        assert not NetemConfig(loss=0.1).is_noop()
        assert not NetemConfig(latency=(0.0, 0.001)).is_noop()
        assert not NetemConfig(flap_period=1.0).is_noop()

    def test_from_spec(self):
        cfg = NetemConfig.from_spec(
            {
                "loss": 0.1,
                "dup": "0.2",
                "latency": [0.001, 0.002],
                "flap_period": 0.5,
                "blocked_edges": [[1, 0]],
            }
        )
        assert cfg.loss == 0.1
        assert cfg.dup == 0.2
        assert cfg.latency == (0.001, 0.002)
        assert cfg.flap_period == 0.5
        assert cfg.blocked_edges == frozenset({normalized_edge(0, 1)})

    def test_from_spec_rejects_unknown_keys(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as exc_info:
            NetemConfig.from_spec({"loss": 0.1, "lossy": 0.2, "delya": 1})
        message = str(exc_info.value)
        assert "unknown netem key" in message
        assert "'delya', 'lossy'" in message  # names the offenders...
        assert "latency" in message  # ...and lists the valid vocabulary


class TestNetemTransport:
    def test_total_loss_drops_every_record_of_a_batch(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(LocalTransport(net), NetemConfig(loss=1.0), seed=1)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(10)])
            assert inbox.empty()
            assert netem.fault_stats["netem_dropped"] == 10

        run(body())

    def test_partial_loss_rebatches_survivors(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(
                LocalTransport(net), NetemConfig(loss=0.5), seed=7
            )
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(40)])
            batches = drain_records(inbox)
            survivors = [r for b in batches for r in b]
            dropped = netem.fault_stats["netem_dropped"]
            assert len(survivors) + dropped == 40
            assert 0 < dropped < 40  # loss=0.5 over 40 draws: both sides hit
            # Undelayed survivors arrive as ONE re-batched frame.
            assert len(batches) == 1

        run(body())

    def test_total_duplication_delivers_each_record_twice(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(LocalTransport(net), NetemConfig(dup=1.0), seed=1)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(4)])
            batches = drain_records(inbox)
            records = [r for b in batches for r in b]
            assert len(records) == 8
            assert netem.fault_stats["netem_duplicated"] == 4

        run(body())

    def test_blocked_edge_is_silent(self):
        async def body():
            net = line_network(3)
            cfg = NetemConfig(blocked_edges=frozenset({normalized_edge(0, 1)}))
            netem = NetemTransport(LocalTransport(net), cfg, seed=0)
            inbox1, inbox2 = asyncio.Queue(), asyncio.Queue()
            netem.bind(1, inbox1)
            netem.bind(2, inbox2)
            await netem.send(0, 1, [ack_rec(0, 1), ack_rec(0, 2)])  # blocked
            await netem.send(1, 2, [ack_rec(0, 2)])  # open
            assert inbox1.empty()
            assert inbox2.qsize() == 1
            assert netem.fault_stats["netem_dropped"] == 2

        run(body())

    def test_latency_delays_records_as_single_frames(self):
        async def body():
            net = line_network(2)
            cfg = NetemConfig(latency=(0.01, 0.02))
            netem = NetemTransport(LocalTransport(net), cfg, seed=3)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, 7), ack_rec(0, 8)])
            assert inbox.empty()  # not yet: both records are in flight
            got = []
            for _ in range(2):
                src, batch = await asyncio.wait_for(inbox.get(), 2.0)
                assert src == 0
                got.append(batch)
            # Each delayed record arrived as its own single-record frame.
            assert all(len(b) == 1 for b in got)
            assert sorted(b[0]["c"] for b in got) == [7, 8]
            await netem.close()

        run(body())

    def test_seeded_fault_pattern_is_deterministic(self):
        async def pattern(seed):
            net = line_network(2)
            netem = NetemTransport(
                LocalTransport(net), NetemConfig(loss=0.5), seed=seed
            )
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(50)])
            return [
                r["c"] for b in drain_records(inbox) for r in b
            ]

        a = run(pattern(seed=9))
        b = run(pattern(seed=9))
        c = run(pattern(seed=10))
        assert a == b
        assert a != c  # the adversary really depends on the seed

    def test_flap_takes_an_edge_down(self):
        async def body():
            net = line_network(2)
            cfg = NetemConfig(flap_period=0.02, flap_down=10.0)
            netem = NetemTransport(LocalTransport(net), cfg, seed=0)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.start()
            try:
                await asyncio.sleep(0.1)  # at least one flap fired
                assert netem.fault_stats["netem_flaps"] >= 1
                await netem.send(0, 1, [ack_rec(0, 1)])  # only edge is down
                assert inbox.empty()
                assert netem.fault_stats["netem_dropped"] >= 1
            finally:
                await netem.close()

        run(body())
