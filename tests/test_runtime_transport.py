"""Tests for the runtime transports (in-memory and TCP): batch sends,
version locking, write coalescing."""

import asyncio
import socket

import pytest

from repro.errors import ConfigurationError
from repro.network.topologies import line_network, ring_network
from repro.runtime.transport import (
    LocalTransport,
    TcpTransport,
    allocate_ports,
)
from repro.runtime.wire import ack_rec, data_rec, encode_records

from tests.helpers import HostTcpTransport


def run(coro):
    return asyncio.run(coro)


class TestLocalTransport:
    def test_delivers_batch_to_bound_inbox(self):
        async def body():
            net = line_network(2)
            transport = LocalTransport(net)
            inbox = asyncio.Queue()
            transport.bind(1, inbox)
            batch = [
                data_rec(1, 1, 5, "hello", True),
                data_rec(1, 2, 6, "world", True),
                ack_rec(0, 3),
            ]
            await transport.send(0, 1, batch)
            src, got = inbox.get_nowait()
            assert src == 0
            assert got == batch  # one inbox item per frame, not per record
            assert transport.stats["frames_sent"] == 1
            assert transport.stats["records_sent"] == 3
            assert transport.stats["records_received"] == 3

        run(body())

    def test_rejects_non_edges(self):
        async def body():
            net = line_network(3)
            transport = LocalTransport(net)
            with pytest.raises(ConfigurationError, match="no edge"):
                await transport.send(0, 2, [ack_rec(0, 1)])

        run(body())

    def test_unbound_destination_counts_as_drop(self):
        async def body():
            net = line_network(2)
            transport = LocalTransport(net)
            await transport.send(0, 1, [ack_rec(0, 1)])
            assert transport.stats["frames_dropped"] == 1

        run(body())

    def test_serialization_enforced_like_tcp(self):
        async def body():
            net = line_network(2)
            transport = LocalTransport(net)
            transport.bind(1, asyncio.Queue())
            with pytest.raises(ConfigurationError, match="JSON-serializable"):
                await transport.send(0, 1, [data_rec(1, 1, 1, object(), True)])

        run(body())


class TestAllocatePorts:
    def test_base_zero_finds_free_unique_ports(self):
        net = ring_network(5)
        ports = allocate_ports(net)
        assert set(ports) == set(net.processors())
        assert len({p for _, p in ports.values()}) == 5

    def test_base_zero_never_names_a_port_twice(self):
        # Bind-and-release per node let the kernel hand one port out twice
        # (15 of 5,000 ring(8) allocations); holding every socket cannot.
        net = ring_network(8)
        for _ in range(1000):
            ports = allocate_ports(net)
            assert len({port for _, port in ports.values()}) == 8

    def test_nonzero_base_assigns_verbatim(self):
        net = line_network(3)
        ports = allocate_ports(net, base=42000)
        assert ports == {
            0: ("127.0.0.1", 42000),
            1: ("127.0.0.1", 42001),
            2: ("127.0.0.1", 42002),
        }


class TestTcpTransport:
    def test_batch_round_trip_over_loopback(self):
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            transport = TcpTransport(net, ports)
            inbox0, inbox1 = asyncio.Queue(), asyncio.Queue()
            transport.bind(0, inbox0)
            transport.bind(1, inbox1)
            await transport.start()
            try:
                batch = [
                    data_rec(1, 1, 9, {"nested": True}, True),
                    ack_rec(0, 4, sack=0b101),
                ]
                await transport.send(0, 1, batch)
                src, got = await asyncio.wait_for(inbox1.get(), 5.0)
                assert (src, got) == (0, batch)
                # And the reverse direction over its own connection.
                await transport.send(1, 0, [ack_rec(1, 1)])
                src, got = await asyncio.wait_for(inbox0.get(), 5.0)
                assert (src, got) == (1, [ack_rec(1, 1)])
            finally:
                await transport.close()

        run(body())

    def test_many_frames_coalesce_into_stream(self):
        # Several sends queued back-to-back must all arrive intact (the
        # edge pump may combine them into one socket write).
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            transport = TcpTransport(net, ports)
            inbox = asyncio.Queue()
            transport.bind(1, inbox)
            transport.bind(0, asyncio.Queue())
            await transport.start()
            try:
                for i in range(20):
                    await transport.send(0, 1, [ack_rec(1, i + 1)])
                seen = []
                for _ in range(20):
                    _, records = await asyncio.wait_for(inbox.get(), 5.0)
                    seen.extend(r["c"] for r in records)
                assert seen == list(range(1, 21))  # in order, none lost
            finally:
                await transport.close()

        run(body())

    def test_version_mismatch_is_reported_not_crashed(self):
        # A peer still speaking the JSON framing (a '{'-led body): the frame
        # is counted as dropped, nothing reaches the inbox, and the stream
        # stays usable for the well-formed frame behind it.
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            receiver = HostTcpTransport(net, ports, local_pids=(1,))
            inbox = asyncio.Queue()
            receiver.bind(1, inbox)
            await receiver.start()
            try:
                _, writer = await asyncio.open_connection(*ports[1])
                json_body = b'{"f":0,"t":1,"ms":[]}'
                writer.write(len(json_body).to_bytes(4, "big") + json_body)
                writer.write(encode_records(0, 1, [ack_rec(1, 1)]))
                await writer.drain()
                assert await asyncio.wait_for(inbox.get(), 5.0) == (
                    0, [ack_rec(1, 1)]
                )
                assert receiver.stats["frames_dropped"] == 1
                assert receiver.stats["frames_received"] == 1
                writer.close()
            finally:
                await receiver.close()

        run(body())

    def test_missing_ports_rejected(self):
        net = line_network(3)
        with pytest.raises(ConfigurationError, match="ports missing"):
            TcpTransport(net, {0: ("127.0.0.1", 1)})

    def test_port_in_use_raises_oserror(self):
        async def body():
            net = line_network(2)
            blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken = blocker.getsockname()[1]
            try:
                ports = {0: ("127.0.0.1", taken), 1: ("127.0.0.1", taken)}
                transport = TcpTransport(net, ports)
                with pytest.raises(OSError):
                    await transport.start()
                await transport.close()
            finally:
                blocker.close()

        run(body())

    def test_stalled_peer_overflow_counts_dropped_records(self):
        # A peer that never comes up stalls the edge queue; once it is
        # full, drop-oldest must account for every discarded frame AND
        # every record inside it — a stalled peer shows up in the stats,
        # never as a silent loss.
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            sender = HostTcpTransport(net, ports, local_pids=(0,), edge_queue=4)
            sender.bind(0, asyncio.Queue())
            await sender.start()
            try:
                # 10 frames of 3 records into a 4-deep queue: first frame
                # fills slots 1-4, frames 5..10 each evict the oldest.
                for i in range(10):
                    await sender.send(
                        0, 1,
                        [data_rec(1, 3 * i + j + 1, 3 * i + j + 1, "x", True)
                         for j in range(3)],
                    )
                assert sender.stats["frames_sent"] == 10
                assert sender.stats["records_sent"] == 30
                assert sender.stats["frames_dropped"] == 6
                assert sender.stats["records_dropped"] == 18
            finally:
                await sender.close()

        run(body())

    def test_no_drops_reported_when_nothing_dropped(self):
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            transport = TcpTransport(net, ports)
            inbox = asyncio.Queue()
            transport.bind(0, asyncio.Queue())
            transport.bind(1, inbox)
            await transport.start()
            try:
                await transport.send(0, 1, [ack_rec(1, 1)])
                await asyncio.wait_for(inbox.get(), 5.0)
                assert transport.stats["frames_dropped"] == 0
                assert transport.stats["records_dropped"] == 0
            finally:
                await transport.close()

        run(body())

    def test_sender_queues_while_peer_is_down(self):
        # The peer's server starts late; the edge pump must reconnect and
        # deliver the queued frame rather than lose it.
        async def body():
            net = line_network(2)
            ports = allocate_ports(net)
            sender = HostTcpTransport(net, ports, local_pids=(0,))
            sender.bind(0, asyncio.Queue())
            await sender.start()
            batch = [data_rec(1, 1, 3, "late", True)]
            await sender.send(0, 1, batch)  # peer not listening yet
            await asyncio.sleep(0.1)
            receiver = HostTcpTransport(net, ports, local_pids=(1,))
            inbox = asyncio.Queue()
            receiver.bind(1, inbox)
            await receiver.start()
            try:
                src, got = await asyncio.wait_for(inbox.get(), 5.0)
                assert (src, got) == (0, batch)
                assert sender.stats["reconnects"] >= 1
            finally:
                await sender.close()
                await receiver.close()

        run(body())
