"""Pluggable transports for the live runtime.

A :class:`Transport` moves encoded frames (:mod:`repro.runtime.wire`)
between nodes along the edges of a :class:`~repro.network.graph.Network`.
Since the windowed lane protocol, the unit of transfer is a **record
batch**: ``send(src, dst, records)`` packs any number of hop-protocol
records into one length-prefixed frame, so encode and syscall cost
amortize over a node's whole flush.  Delivery is **best-effort**: a
transport may drop, duplicate, delay or reorder frames (the in-memory one
does none of that by itself; the netem decorator and real TCP both do).
End-to-end guarantees are the node protocol's job — windowed ack/retry
plus sequence-number deduplication (:mod:`repro.runtime.hop`).

Two implementations:

* :class:`LocalTransport` — per-node asyncio queues.  Batches still go
  through an encode/decode round-trip so serialization bugs surface
  identically on either transport.
* :class:`TcpTransport` — real sockets on the loopback (or any) interface:
  one listening server per locally hosted node, one lazily opened
  connection per *directed edge*, length-prefixed framing, and reconnect
  with capped exponential backoff.  A peer that is down does not block the
  sender: frames queue on the edge (bounded; overflow drops the oldest)
  and a per-edge pump task drains them as soon as the connection is back —
  coalescing every queued frame into a single write.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.graph import Network
from repro.runtime.wire import (
    WIRE_V2,
    WireFormatError,
    decode_frame_body,
    encode_records,
    split_frames,
)
from repro.types import ProcId

#: One inbox item: (sender pid, decoded record batch).
InboxItem = Tuple[ProcId, List[Dict[str, Any]]]


class Transport(ABC):
    """Moves hop record batches between nodes along network edges."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self._inboxes: Dict[ProcId, "asyncio.Queue[InboxItem]"] = {}
        #: Plain counters (exported into the obs registry by the cluster).
        self.stats: Dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "frames_dropped": 0,
            "records_sent": 0,
            "records_received": 0,
            "records_dropped": 0,
            "reconnects": 0,
        }

    def bind(self, pid: ProcId, inbox: "asyncio.Queue[InboxItem]") -> None:
        """Attach the inbox of a locally hosted node."""
        self._inboxes[pid] = inbox

    def _check_edge(self, src: ProcId, dst: ProcId) -> None:
        if not self.net.are_neighbors(src, dst):
            raise ConfigurationError(f"no edge {src} -> {dst} in the network")

    def _dispatch(
        self, src: ProcId, dst: ProcId, records: List[Dict[str, Any]]
    ) -> None:
        """Hand a decoded record batch to a local inbox (drop if unknown)."""
        inbox = self._inboxes.get(dst)
        if inbox is None:
            self.stats["frames_dropped"] += 1
            self.stats["records_dropped"] += len(records)
            return
        self.stats["frames_received"] += 1
        self.stats["records_received"] += len(records)
        inbox.put_nowait((src, records))

    async def start(self) -> None:
        """Bring the transport up (bind sockets, start pumps)."""

    @abstractmethod
    async def send(
        self, src: ProcId, dst: ProcId, records: Sequence[Dict[str, Any]]
    ) -> None:
        """Best-effort: enqueue one record batch from ``src`` to ``dst``."""

    async def close(self) -> None:
        """Tear the transport down; pending frames may be lost."""


class LocalTransport(Transport):
    """In-memory transport: every node lives in this process."""

    async def send(
        self, src: ProcId, dst: ProcId, records: Sequence[Dict[str, Any]]
    ) -> None:
        self._check_edge(src, dst)
        self.stats["frames_sent"] += 1
        self.stats["records_sent"] += len(records)
        # Round-trip through the wire format so both transports reject the
        # same payloads (and measure comparable serialization cost).
        frame = encode_records(src, dst, records, WIRE_V2)
        _, f, t, decoded = decode_frame_body(frame[4:])
        self._dispatch(f, t, decoded)


class TcpTransport(Transport):
    """Length-prefixed frames over asyncio TCP streams.

    Parameters
    ----------
    net:
        The topology; sends are restricted to its edges.
    ports:
        Complete map pid -> (host, port) for every node of the network; one
        listening server is started for each.
    """

    #: Reconnect backoff: ``_BACKOFF_BASE * 2**attempt`` seconds, capped.
    _BACKOFF_BASE = 0.05
    _BACKOFF_CAP = 1.0
    #: Bounded per-edge outbound queue; on overflow the oldest frame is
    #: dropped (best-effort, the hop protocol retries).
    _EDGE_QUEUE = 1024

    def __init__(
        self, net: Network, ports: Dict[ProcId, Tuple[str, int]]
    ) -> None:
        super().__init__(net)
        missing = [p for p in net.processors() if p not in ports]
        if missing:
            raise ConfigurationError(f"ports missing for processors {missing}")
        self.ports = dict(ports)
        self._servers: list = []
        #: Each queued item is (encoded frame, record count): the count
        #: rides along so a drop-oldest overflow can account for the
        #: records it discarded, not just the frame.
        self._edge_queues: Dict[
            Tuple[ProcId, ProcId], "asyncio.Queue[Tuple[bytes, int]]"
        ] = {}
        self._edge_tasks: Dict[Tuple[ProcId, ProcId], "asyncio.Task"] = {}
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start one server per node.  Raises ``OSError`` (e.g.
        ``EADDRINUSE``) if a port cannot be bound — callers surface that as
        a graceful startup failure, not a hang."""
        for pid in self.net.processors():
            host, port = self.ports[pid]
            server = await asyncio.start_server(
                self._conn_handler, host=host, port=port
            )
            self._servers.append(server)

    async def close(self) -> None:
        self._closing = True
        for task in self._edge_tasks.values():
            task.cancel()
        for task in self._edge_tasks.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._edge_tasks.clear()
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self._servers.clear()

    # -- receiving -----------------------------------------------------------

    async def _conn_handler(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        buffer = b""
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer += chunk
                try:
                    bodies, buffer = split_frames(buffer)
                except WireFormatError:
                    self.stats["frames_dropped"] += 1
                    break  # corrupted stream: drop the connection
                for body in bodies:
                    try:
                        _, src, dst, records = decode_frame_body(body)
                    except WireFormatError:
                        self.stats["frames_dropped"] += 1
                        continue
                    self._dispatch(src, dst, records)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    # -- sending -------------------------------------------------------------

    async def send(
        self, src: ProcId, dst: ProcId, records: Sequence[Dict[str, Any]]
    ) -> None:
        self._check_edge(src, dst)
        frame = encode_records(src, dst, records, WIRE_V2)
        key = (src, dst)
        queue = self._edge_queues.get(key)
        if queue is None:
            queue = self._edge_queues[key] = asyncio.Queue(maxsize=self._EDGE_QUEUE)
            self._edge_tasks[key] = asyncio.get_running_loop().create_task(
                self._edge_pump(key)
            )
        if queue.full():  # drop-oldest: the hop protocol retransmits
            # Never silent: both the frame and every record inside it are
            # counted, so a stalled peer shows up in the run's stats (and
            # the conformance report) instead of vanishing into a hang.
            try:
                _, dropped_records = queue.get_nowait()
            except asyncio.QueueEmpty:
                pass
            else:
                self.stats["frames_dropped"] += 1
                self.stats["records_dropped"] += dropped_records
        queue.put_nowait((frame, len(records)))
        self.stats["frames_sent"] += 1
        self.stats["records_sent"] += len(records)

    async def _edge_pump(self, key: Tuple[ProcId, ProcId]) -> None:
        """Drain one directed edge's queue over a persistent connection,
        reconnecting with capped exponential backoff.  Every frame queued
        at write time is coalesced into a single socket write."""
        _, dst = key
        host, port = self.ports[dst]
        queue = self._edge_queues[key]
        writer: Optional[asyncio.StreamWriter] = None
        backoff = self._BACKOFF_BASE
        try:
            while True:
                blob, _ = await queue.get()
                # Write coalescing: everything queued behind the first
                # frame goes out in the same syscall.
                while True:
                    try:
                        more, _ = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    blob += more
                while not self._closing:
                    if writer is None:
                        try:
                            _, writer = await asyncio.open_connection(host, port)
                            backoff = self._BACKOFF_BASE
                        except OSError:
                            self.stats["reconnects"] += 1
                            await asyncio.sleep(backoff)
                            backoff = min(backoff * 2, self._BACKOFF_CAP)
                            continue
                    try:
                        writer.write(blob)
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        try:
                            writer.close()
                        except Exception:  # noqa: BLE001
                            pass
                        writer = None
        except asyncio.CancelledError:
            pass
        finally:
            if writer is not None:
                try:
                    writer.close()
                except Exception:  # noqa: BLE001
                    pass


def allocate_ports(
    net: Network, host: str = "127.0.0.1", base: int = 0
) -> Dict[ProcId, Tuple[str, int]]:
    """A pid -> (host, port) map for every processor.

    ``base == 0`` asks the OS for free ephemeral ports, holding every
    socket (without ``SO_REUSEADDR``) until all are drawn so no port is
    named twice; another process may still take one between release and
    :meth:`TcpTransport.start`.  A nonzero ``base`` assigns ``base,
    base+1, ...`` verbatim.  Either collision surfaces as ``EADDRINUSE``
    at start.
    """
    import contextlib
    import socket

    if base:
        return {pid: (host, base + pid) for pid in net.processors()}
    ports: Dict[ProcId, Tuple[str, int]] = {}
    with contextlib.ExitStack() as held:
        for pid in net.processors():
            sock = held.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            )
            sock.bind((host, 0))
            ports[pid] = (host, sock.getsockname()[1])
    return ports
