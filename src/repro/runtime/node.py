"""A live SSMFP node: the hop protocol core on an asyncio event loop.

:class:`RuntimeNode` is the IO adapter around
:class:`~repro.runtime.hop.HopCore`: it owns the inbox a
:class:`~repro.runtime.transport.Transport` delivers into, reads the
monotonic clock, runs the receive → advance → flush loop, and packs the
core's outgoing records into batched frames.  All lane state, timers,
counters and the conformance event log live in :attr:`RuntimeNode.core`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.hop import HopCore, RuntimeParams
from repro.runtime.transport import InboxItem, Transport
from repro.types import DestId, ProcId


class RuntimeNode:
    """One live processor: a hop core, an inbox, and a run loop."""

    def __init__(
        self,
        pid: ProcId,
        net: Network,
        routing: RoutingService,
        transport: Transport,
        params: Optional[RuntimeParams] = None,
    ) -> None:
        self.pid = pid
        self.transport = transport
        self.core = HopCore(pid, net, routing, params)
        self.inbox: "asyncio.Queue[InboxItem]" = asyncio.Queue()
        transport.bind(pid, self.inbox)
        self._stopping = False
        self._paused = False
        #: Flush counters (the core keeps the protocol's own).
        self.counters: Dict[str, int] = {"frames_out": 0, "records_out": 0}
        #: Records per flushed frame.
        self.batch_sizes: List[int] = []
        #: Cluster progress callback, told how many deliveries were new.
        self._delivered_hook: Optional[Callable[[int], None]] = None

    # -- application interface -----------------------------------------------

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send (FIFO per destination)."""
        self.core.submit(payload, dest)

    def stop(self) -> None:
        """Ask the run loop to exit at the next heartbeat."""
        self._stopping = True

    def pause(self) -> None:
        """Freeze the run loop (scenario ``crash`` action): no rules fire,
        no timers run, nothing is sent or received until :meth:`resume`.

        This is the *fail-pause* crash model: lane sequence numbers and
        release watermarks survive, so the hop protocol's exactly-once
        bookkeeping stays intact across the outage — peers simply see an
        unresponsive neighbor and retransmit into its inbox, which drains
        on resume.  (A fail-recover model with fresh state would need
        stable-storage lane state; the paper's fault model corrupts
        *routing* variables, never the forwarding buffers.)
        """
        self._paused = True

    def resume(self) -> None:
        """Thaw a :meth:`pause`-d node; the backlog drains immediately."""
        self._paused = False

    def is_idle(self) -> bool:
        """True iff no queue, lane or inbox item holds anything."""
        return self.core.is_idle() and self.inbox.empty()

    # -- run loop ------------------------------------------------------------

    async def run(self) -> None:
        """Drive the node until :meth:`stop`: handle inbound record batches,
        fire local rules, flush coalesced outgoing batches, keep timers."""
        core = self.core
        tick = core.params.tick
        inbox = self.inbox
        out: List[Tuple[ProcId, Dict[str, Any]]] = []
        reported = 0
        try:
            while not self._stopping:
                if self._paused:
                    # Crashed (fail-pause): hold all state, touch nothing.
                    await asyncio.sleep(tick)
                    continue
                # Drain the inbox *before* firing rules and timers: an ACK
                # that arrived while this task was starved of the event
                # loop must cancel a retransmission, not race it.
                drained = False
                now = 0.0
                while True:
                    try:
                        src, records = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not drained:
                        drained = True
                        now = time.monotonic()
                    core.on_records(src, records, now, out)
                core.advance(time.monotonic(), out)
                delivered = core.counters["delivered"]
                if delivered != reported:
                    if self._delivered_hook is not None:
                        self._delivered_hook(delivered - reported)
                    reported = delivered
                if out:
                    await self._flush(out)
                if not drained:
                    try:
                        async with asyncio.timeout(tick):
                            src, records = await inbox.get()
                    except TimeoutError:
                        continue
                    core.on_records(src, records, time.monotonic(), out)
        except asyncio.CancelledError:
            pass

    async def _flush(self, out: List[Tuple[ProcId, Dict[str, Any]]]) -> None:
        """Group queued records by neighbor and ship them as batched
        frames (at most ``max_batch`` records each)."""
        max_batch = self.core.params.max_batch
        counters = self.counters
        if len(out) == 1:
            dst, rec = out[0]
            out.clear()
            counters["frames_out"] += 1
            counters["records_out"] += 1
            self.batch_sizes.append(1)
            await self.transport.send(self.pid, dst, (rec,))
            return
        batches: Dict[ProcId, List[Dict[str, Any]]] = {}
        for dst, rec in out:
            batches.setdefault(dst, []).append(rec)
        out.clear()
        for dst, recs in batches.items():
            for i in range(0, len(recs), max_batch):
                chunk = recs[i : i + max_batch]
                counters["frames_out"] += 1
                counters["records_out"] += len(chunk)
                self.batch_sizes.append(len(chunk))
                await self.transport.send(self.pid, dst, chunk)
