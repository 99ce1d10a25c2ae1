"""Uncontrolled store-and-forward: the deadlock motivation.

Each processor owns ``B`` interchangeable buffers shared by *all*
destinations (§2.2's model) and no controller restricts moves: a message is
generated into any free buffer, forwarded into any free buffer of the next
hop, and consumed at its destination.  Without the buffer-graph discipline,
a cycle of processors whose buffers are all full and whose messages all
want to move along the cycle is a **deadlock** — even with perfectly
correct routing tables.  The F1/overhead benches use this protocol to show
what the destination-based buffer graph buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.statemodel.action import Action
from repro.statemodel.message import Message
from repro.statemodel.protocol import Protocol
from repro.types import DestId, ProcId


@dataclass(frozen=True)
class Packet:
    """A stored packet: payload, destination, hidden uid."""

    payload: Any
    dest: DestId
    uid: int
    valid: bool

    def as_message(self) -> Message:
        """Bridge to the ledger/higher-layer message shape."""
        return Message(
            payload=self.payload,
            last=0,
            color=0,
            dest=self.dest,
            uid=self.uid,
            valid=self.valid,
        )


class NaiveForwarding(Protocol):
    """Store-and-forward over a shared per-processor buffer pool, no
    controller."""

    name = "NAIVE"

    def __init__(
        self,
        net: Network,
        routing: RoutingService,
        higher_layer: HigherLayer,
        buffers_per_processor: int = 2,
        ledger: Optional[DeliveryLedger] = None,
    ) -> None:
        if buffers_per_processor < 1:
            raise ValueError("need at least one buffer per processor")
        self.net = net
        self.routing = routing
        self.hl = higher_layer
        self.ledger = ledger if ledger is not None else DeliveryLedger(strict=False)
        self.b = buffers_per_processor
        #: ``pool[p][i]`` — buffer i of processor p.
        self.pool: List[List[Optional[Packet]]] = [
            [None] * buffers_per_processor for _ in range(net.n)
        ]
        self._next_uid = 1
        self.current_step = 0

    def before_step(self, step: int) -> None:
        self.current_step = step
        self.hl.before_step(step)

    def _free_slot(self, p: ProcId) -> Optional[int]:
        for i, slot in enumerate(self.pool[p]):
            if slot is None:
                return i
        return None

    def enabled_actions(self, pid: ProcId) -> List[Action]:
        actions: List[Action] = []
        hl = self.hl
        name = self.name
        free = self._free_slot(pid)

        # NG: generation into any free buffer.
        if hl.request[pid] and free is not None:
            dest = hl.next_destination(pid)
            if dest is not None:
                actions.append(Action(pid, "NG", name, dest, self._generate,
                                      (pid, dest, free, hl.next_message(pid))))

        for i, pkt in enumerate(self.pool[pid]):
            if pkt is None:
                continue
            # NC: consumption.
            if pkt.dest == pid:
                actions.append(Action(pid, "NC", name, pkt.dest, self._consume,
                                      (pid, i, pkt, self.current_step)))
                continue
            # NF: forwarding into a free buffer of the next hop.
            nh = self.routing.next_hop(pid, pkt.dest)
            if self._free_slot(nh) is not None:
                actions.append(Action(pid, "NF", name, pkt.dest, self._forward,
                                      (pid, i, pkt, nh)))
        return actions

    # Effects, called with the values their guard bound; ``describe`` is
    # what ``Action.info`` reports beyond ``dest``.

    def _generate(self, p: ProcId, dest: DestId, slot: int, payload: Any) -> None:
        # Per-buffer arbitration: a concurrent same-step move may have
        # taken the slot; find another or abort (request stays up).
        target = slot if self.pool[p][slot] is None else self._free_slot(p)
        if target is None:
            return
        uid = self._next_uid
        self._next_uid += 1
        self.pool[p][target] = Packet(payload, dest, uid, True)
        self.hl.consume_request(p)
        self.ledger.record_generated(
            Message(
                payload=payload, last=p, color=0, dest=dest,
                uid=uid, valid=True, source=p,
            )
        )

    _generate.describe = lambda p, dest, slot, payload: {"payload": payload}

    def _forward(self, p: ProcId, i: int, pkt: Packet, nh: ProcId) -> None:
        # Per-buffer arbitration: find a still-free slot at apply time.
        target = self._free_slot(nh)
        if target is None:
            return
        self.pool[nh][target] = pkt
        self.pool[p][i] = None

    _forward.describe = lambda p, i, pkt, nh: {"uid": pkt.uid, "to": nh}

    def _consume(self, p: ProcId, i: int, pkt: Packet, step: int) -> None:
        self.pool[p][i] = None
        self.hl.deliver(p, pkt.as_message(), step)
        self.ledger.record_delivery(p, pkt.as_message(), step)

    _consume.describe = lambda p, i, pkt, step: {"uid": pkt.uid}

    # -- introspection -----------------------------------------------------------

    def network_is_empty(self) -> bool:
        """True iff every buffer of every pool is empty."""
        return all(slot is None for pool in self.pool for slot in pool)
