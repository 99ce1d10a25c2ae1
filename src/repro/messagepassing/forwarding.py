"""The two-buffer forwarding scheme ported to message passing.

Translation of the state-model rules into explicit messages (static correct
routing; the port explores the *model* translation the paper's future work
asks about, not re-stabilization):

=================  ==========================================================
state model        message passing
=================  ==========================================================
R3 (receiver       sender emits ``OFFER`` to its next hop (at most one
copies bufE_s)     outstanding per destination — stop-and-wait); receiver
                   queues offers, and a local *accept* action pops the FIFO
                   head into ``bufR`` and answers ``ACCEPT``
R4 (sender         on a matching ``ACCEPT`` the sender erases ``bufE`` and
erases)            emits ``RELEASE``
R2's guard         the receiver commits ``bufR -> bufE`` only after the
(wait for the      ``RELEASE`` arrives (generated messages are born
source's erase)    released)
R6                 a local *consume* action at the destination
=================  ==========================================================

Colors are unnecessary in this regime: FIFO channels plus one outstanding
offer per (hop, destination) make every ACCEPT/RELEASE unambiguous.  That
is exactly what breaks from an arbitrary initial configuration — a forged
ACCEPT already sitting in a channel erases an original that was never
copied, a forged OFFER injects phantom traffic — and why the
snap-stabilizing port remains the paper's open problem (the tests
demonstrate both failures).

Two node classes live here:

* :class:`MPForwardingNode` — the *naive* port above, correct only over
  reliable FIFO channels (a duplicated OFFER double-delivers, a lost
  ACCEPT deadlocks a lane).  It is the baseline the hardened path beats.
* :class:`HopMPNode` — the hardened path: not a second port but an adapter
  feeding :class:`~repro.runtime.hop.HopCore`, the lane protocol the live
  runtime ships (sequence numbers, windows, SACK, RTT-estimated
  retransmission, release watermarks), from simulator channels.  The
  seeded :class:`~repro.messagepassing.engine.ChannelFaults` adversary
  here and the live netem adversary execute the same code.

Both log generations and deliveries as
:class:`~repro.runtime.conformance.RuntimeEvent` rows, judged after the run
by :func:`~repro.runtime.conformance.check_events`: validity comes from the
generation log, so a forged record cannot classify itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.messagepassing.engine import (
    ChannelFaults,
    LocalAction,
    MessagePassingSimulator,
    MPNode,
)
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.conformance import RuntimeEvent
from repro.runtime.hop import HopCore, RuntimeParams
from repro.types import DestId, ProcId

#: Wire message kinds of the naive port.
OFFER, ACCEPT, RELEASE = "OFFER", "ACCEPT", "RELEASE"


@dataclass
class StoredRecord:
    """One stored message plus hidden tracking (uid preserved by hops)."""

    payload: Any
    uid: int
    valid: bool
    src: ProcId  # who handed it to us (self for generated)
    released: bool  # the upstream copy has been erased; commit allowed


class MPForwardingNode(MPNode):
    """One processor of the message-passing port."""

    def __init__(self, pid: ProcId, net: Network, routing: RoutingService) -> None:
        super().__init__(pid)
        self.net = net
        self.routing = routing
        #: Generations and deliveries, as :class:`HopCore` logs them.
        self.events: List[RuntimeEvent] = []
        n = net.n
        self.buf_r: List[Optional[StoredRecord]] = [None] * n
        self.buf_e: List[Optional[StoredRecord]] = [None] * n
        #: FIFO of received, not-yet-accepted offers per destination.
        self.offers: List[Deque[Tuple[ProcId, Any, int, bool]]] = [
            deque() for _ in range(n)
        ]
        #: Neighbor we await an ACCEPT from, per destination.
        self.outstanding: List[Optional[ProcId]] = [None] * n
        self.outbox: Deque[Tuple[Any, DestId]] = deque()
        self._uid_source = None  # set by build_mp_network

    # -- application interface ---------------------------------------------------

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send."""
        self.outbox.append((payload, dest))

    # -- wire handlers -----------------------------------------------------------

    def on_message(self, frm: ProcId, payload: Any) -> None:
        kind, d, data = payload[0], payload[1], payload[2:]
        if kind == OFFER:
            body, uid, valid = data
            self.offers[d].append((frm, body, uid, valid))
        elif kind == ACCEPT:
            # Matches iff we are actually awaiting frm for d (stop-and-wait
            # makes this unambiguous from clean starts; a forged ACCEPT
            # passing this guard is the open-problem failure mode).
            if self.outstanding[d] == frm and self.buf_e[d] is not None:
                self.buf_e[d] = None
                self.outstanding[d] = None
                self.send(frm, (RELEASE, d))
        elif kind == RELEASE:
            rec = self.buf_r[d]
            if rec is not None and not rec.released and rec.src == frm:
                rec.released = True
        else:  # unknown kinds are dropped (type-correct garbage tolerance)
            return

    # -- local actions -----------------------------------------------------------

    def local_actions(self) -> List[LocalAction]:
        actions: List[LocalAction] = []
        n = self.net.n
        # Generation of the next application message.
        if self.outbox:
            _, dest = self.outbox[0]
            if self.buf_r[dest] is None:
                actions.append(LocalAction(self.pid, "generate", self._generate))
        for d in range(n):
            if self.buf_r[d] is None and self.offers[d]:
                actions.append(
                    LocalAction(self.pid, f"accept({d})", self._make_accept(d))
                )
            rec = self.buf_r[d]
            if rec is not None and rec.released and self.buf_e[d] is None:
                actions.append(
                    LocalAction(self.pid, f"commit({d})", self._make_commit(d))
                )
            if (
                self.buf_e[d] is not None
                and d != self.pid
                and self.outstanding[d] is None
            ):
                actions.append(
                    LocalAction(self.pid, f"offer({d})", self._make_offer(d))
                )
            if d == self.pid and self.buf_e[d] is not None:
                actions.append(
                    LocalAction(self.pid, "consume", self._make_consume(d))
                )
        return actions

    def _generate(self) -> None:
        payload, dest = self.outbox.popleft()
        uid = self._uid_source()
        self.buf_r[dest] = StoredRecord(payload, uid, True, self.pid, released=True)
        self._log("generated", uid, dest, True)

    def _make_accept(self, d: DestId):
        def effect() -> None:
            if self.buf_r[d] is not None or not self.offers[d]:
                return
            frm, body, uid, valid = self.offers[d].popleft()
            self.buf_r[d] = StoredRecord(body, uid, valid, frm, released=False)
            self.send(frm, (ACCEPT, d))

        return effect

    def _make_commit(self, d: DestId):
        def effect() -> None:
            rec = self.buf_r[d]
            if rec is None or not rec.released or self.buf_e[d] is not None:
                return
            self.buf_e[d] = rec
            self.buf_r[d] = None

        return effect

    def _make_offer(self, d: DestId):
        def effect() -> None:
            rec = self.buf_e[d]
            if rec is None or self.outstanding[d] is not None:
                return
            nh = self.routing.next_hop(self.pid, d)
            self.outstanding[d] = nh
            self.send(nh, (OFFER, d, rec.payload, rec.uid, rec.valid))

        return effect

    def _make_consume(self, d: DestId):
        def effect() -> None:
            rec = self.buf_e[d]
            if rec is None:
                return
            self.buf_e[d] = None
            self._log("delivered", rec.uid, d, rec.valid)

        return effect

    def _log(self, kind: str, uid: int, dest: DestId, valid: bool) -> None:
        events = self.events
        events.append(RuntimeEvent(kind, uid, self.pid, dest, valid, len(events)))


class HopMPNode(MPNode):
    """The live runtime's hop protocol on simulator channels.

    Each channel message is one hop record, handed to the core on delivery.
    Time is virtual and local: the ``timer`` action (enabled while the core
    holds anything) moves this node's clock one ``params.tick`` forward and
    lets the core fire its rules, owed ACKs and expired timers — so the
    scheduler decides how many records arrive between two heartbeats and
    how long every acknowledgement takes.  The core's event log, stamped
    with that virtual time and read as ``events`` like the naive port's, is
    judged after the run.
    """

    def __init__(
        self,
        pid: ProcId,
        net: Network,
        routing: RoutingService,
        params: Optional[RuntimeParams] = None,
    ) -> None:
        super().__init__(pid)
        self.core = HopCore(pid, net, routing, params)
        self.events = self.core.events
        self.now = 0.0

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send."""
        self.core.submit(payload, dest)

    def on_message(self, frm: ProcId, payload: Any) -> None:
        out: List[Tuple[ProcId, Dict[str, Any]]] = []
        self.core.on_records(frm, (payload,), self.now, out)
        self._ship(out)

    def local_actions(self) -> List[LocalAction]:
        if self.core.is_idle():
            return []
        return [LocalAction(self.pid, "timer", self._timer)]

    def _timer(self) -> None:
        self.now += self.core.params.tick
        out: List[Tuple[ProcId, Dict[str, Any]]] = []
        self.core.advance(self.now, out)
        self._ship(out)

    def _ship(self, out: List[Tuple[ProcId, Dict[str, Any]]]) -> None:
        # Channels carry values: the core rewrites a pending record's
        # release watermark in place when it retransmits.
        for nbr, rec in out:
            self.send(nbr, dict(rec))


def build_mp_network(
    net: Network,
    routing: RoutingService,
    seed: int = 0,
    hardened: bool = False,
    faults: Optional[ChannelFaults] = None,
    params: Optional[RuntimeParams] = None,
) -> Tuple[MessagePassingSimulator, List[MPNode]]:
    """Assemble the message-passing port over a network.

    ``hardened=True`` builds :class:`HopMPNode` processors (``params``
    configures their lanes); ``faults`` configures the channel adversary
    of the simulator.  A run is judged after it by
    :func:`~repro.runtime.conformance.check_events` over the nodes' event
    logs, ``node.events``.
    """
    if hardened:
        nodes: List[MPNode] = [
            HopMPNode(p, net, routing, params) for p in net.processors()
        ]
    else:
        nodes = [MPForwardingNode(p, net, routing) for p in net.processors()]
        counter = {"next": 1}

        def next_uid() -> int:
            uid = counter["next"]
            counter["next"] += 1
            return uid

        for node in nodes:
            node._uid_source = next_uid
    sim = MessagePassingSimulator(net, nodes, seed=seed, faults=faults)
    return sim, nodes
