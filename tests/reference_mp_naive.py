"""The naive message-passing port, kept as test evidence for the open problem.

Each state-model hop of the two-buffer forwarding scheme becomes an explicit
three-way handshake over FIFO channels (static correct routing):

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

Correct only over reliable FIFO channels from clean starts: a duplicated
OFFER double-delivers, and one garbage OFFER wedges a reception buffer that
no RELEASE will ever free, so valid traffic through it starves while safety
holds.  That starvation is the open problem of the paper's §4, kept
executable here.  The product's port is :class:`HopCore` behind
:class:`~repro.messagepassing.forwarding.HopMPNode`.

Nodes log generations and deliveries as
:class:`~repro.runtime.conformance.RuntimeEvent` rows, judged after the run
by :func:`~repro.runtime.conformance.check_events`.

The product's engine schedules ``HopCore`` timers; this port schedules
labelled local actions instead, so it carries its own small driver,
:class:`NaiveSimulator`, over the engine's channels, ``ChannelFaults``
delivery and run loop.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.sweep import Row, network_of
from repro.messagepassing.engine import (
    Channel,
    ChannelFaults,
    MessagePassingSimulator,
)
from repro.network.graph import Network
from repro.network.properties import all_pairs_distances
from repro.routing.static import StaticRouting
from repro.routing.table import RoutingService
from repro.runtime.conformance import (
    ConformanceReport,
    RuntimeEvent,
    check_events,
    require_clean_start,
)
from repro.types import DestId, ProcId

from tests.helpers import inject

#: Wire message kinds.
OFFER, ACCEPT, RELEASE = "OFFER", "ACCEPT", "RELEASE"

#: The topologies of the naive port's X3 tables (EXPERIMENTS.md).
TOPOLOGIES = ("line(6)", "ring(6)", "star(6)", "grid(2x3)")


@dataclass
class LocalAction:
    """One enabled local action of a node: a label plus a thunk."""

    node: ProcId
    label: str
    effect: Callable[[], None]


class MPNode(ABC):
    """Base class for the naive port's nodes.

    Subclasses implement :meth:`on_message` and :meth:`local_actions`;
    :class:`NaiveSimulator` wires :attr:`_send` before the first event.
    """

    def __init__(self, pid: ProcId) -> None:
        self.pid = pid
        self._send: Optional[Callable[[ProcId, ProcId, Any], None]] = None

    def send(self, to: ProcId, payload: Any) -> None:
        """Enqueue ``payload`` on the channel to neighbor ``to``."""
        if self._send is None:
            raise ConfigurationError("node is not attached to a simulator")
        self._send(self.pid, to, payload)

    @abstractmethod
    def on_message(self, frm: ProcId, payload: Any) -> None:
        """Handle one delivered message."""

    @abstractmethod
    def local_actions(self) -> List[LocalAction]:
        """Currently enabled local actions (may be empty)."""


class NaiveSimulator(MessagePassingSimulator):
    """The engine's channels, fault model and run loop, scheduling the naive
    nodes' local actions where the product schedules ``HopCore`` timers."""

    def __init__(
        self, net: Network, nodes: List[MPNode], seed: int = 0,
        faults: Optional[ChannelFaults] = None,
    ) -> None:
        super().__init__(net, nodes, seed=seed, faults=faults)
        for node in nodes:
            node._send = self._enqueue

    def step(self) -> bool:
        """One scheduler event over every nonempty channel (edge order),
        then every node's enabled local actions (pid order)."""
        options: List[Any] = [c for c in self.channels.values() if c.queue]
        for node in self.nodes:
            options += node.local_actions()
        if not options:
            return False
        chosen = self._rng.choice(options)
        if chosen.__class__ is Channel:
            for payload in self._take(chosen):
                self.nodes[chosen.dst].on_message(chosen.src, payload)
        else:
            chosen.effect()
        self.events += 1
        return True


@dataclass
class StoredRecord:
    """One stored message plus hidden tracking (uid preserved by hops)."""

    payload: Any
    uid: int
    valid: bool
    src: ProcId  # who handed it to us (self for generated)
    released: bool  # the upstream copy has been erased; commit allowed


class MPForwardingNode(MPNode):
    """One processor of the naive port."""

    def __init__(
        self, pid: ProcId, net: Network, routing: RoutingService,
        uids: Iterator[int],
    ) -> None:
        super().__init__(pid)
        self.routing = routing
        self.uids = uids  # shared by every node of one network
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

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send."""
        self.outbox.append((payload, dest))

    def is_drained(self) -> bool:
        """True iff no buffer, offer queue or outbox holds anything."""
        return (
            all(r is None for r in self.buf_r)
            and all(e is None for e in self.buf_e)
            and not any(self.offers)
            and not self.outbox
        )

    def on_message(self, frm: ProcId, payload: Any) -> None:
        kind, d, data = payload[0], payload[1], payload[2:]
        if kind == OFFER:
            body, uid, valid = data
            self.offers[d].append((frm, body, uid, valid))
        elif kind == ACCEPT:
            # Matches iff we are actually awaiting frm for d (stop-and-wait
            # makes this unambiguous from clean starts).
            if self.outstanding[d] == frm and self.buf_e[d] is not None:
                self.buf_e[d] = None
                self.outstanding[d] = None
                self.send(frm, (RELEASE, d))
        elif kind == RELEASE:
            rec = self.buf_r[d]
            if rec is not None and not rec.released and rec.src == frm:
                rec.released = True
        # Unknown kinds are dropped (type-correct garbage tolerance).

    def local_actions(self) -> List[LocalAction]:
        actions: List[LocalAction] = []
        if self.outbox and self.buf_r[self.outbox[0][1]] is None:
            actions.append(LocalAction(self.pid, "generate", self._generate))
        for d in range(len(self.buf_r)):
            rec, sent = self.buf_r[d], self.buf_e[d]
            if rec is None and self.offers[d]:
                actions.append(self._action("accept", d))
            if rec is not None and rec.released and sent is None:
                actions.append(self._action("commit", d))
            if sent is not None and d != self.pid and self.outstanding[d] is None:
                actions.append(self._action("offer", d))
            if sent is not None and d == self.pid:
                actions.append(self._action("consume", d))
        return actions

    def _action(self, name: str, d: DestId) -> LocalAction:
        step = getattr(self, f"_{name}")
        return LocalAction(self.pid, f"{name}({d})", lambda: step(d))

    # Each step is enabled when listed; the scheduler fires it in the same
    # event, so it needs no second guard.

    def _generate(self) -> None:
        payload, dest = self.outbox.popleft()
        uid = next(self.uids)
        self.buf_r[dest] = StoredRecord(payload, uid, True, self.pid, released=True)
        self._log("generated", uid, dest, True)

    def _accept(self, d: DestId) -> None:
        frm, body, uid, valid = self.offers[d].popleft()
        self.buf_r[d] = StoredRecord(body, uid, valid, frm, released=False)
        self.send(frm, (ACCEPT, d))

    def _commit(self, d: DestId) -> None:
        self.buf_e[d], self.buf_r[d] = self.buf_r[d], None

    def _offer(self, d: DestId) -> None:
        rec = self.buf_e[d]
        nh = self.routing.next_hop(self.pid, d)
        self.outstanding[d] = nh
        self.send(nh, (OFFER, d, rec.payload, rec.uid, rec.valid))

    def _consume(self, d: DestId) -> None:
        rec, self.buf_e[d] = self.buf_e[d], None
        self._log("delivered", rec.uid, d, rec.valid)

    def _log(self, kind: str, uid: int, dest: DestId, valid: bool) -> None:
        events = self.events
        events.append(RuntimeEvent(kind, uid, self.pid, dest, valid, len(events)))


def build_naive_network(
    net: Network, seed: int = 0, faults: Optional[ChannelFaults] = None,
) -> Tuple[NaiveSimulator, List[MPForwardingNode]]:
    """The naive port on every processor of ``net`` (static routing)."""
    routing = StaticRouting(net)
    uids = itertools.count(1)
    nodes = [MPForwardingNode(p, net, routing, uids) for p in net.processors()]
    return NaiveSimulator(net, nodes, seed=seed, faults=faults), nodes


def judge(nodes: List[MPForwardingNode]) -> ConformanceReport:
    """The verdict over every node's event log."""
    return check_events(event for node in nodes for event in node.events)


def violations(report: ConformanceReport) -> int:
    return len(report.violations) + len(report.sequence_violations)


def run_clean(topology: str, seed: int) -> Row:
    """A row of the naive port's X3a table: clean start, exactly-once plus
    handshake cost."""
    net = network_of(topology)
    sim, nodes = build_naive_network(net, seed=seed)
    dist = all_pairs_distances(net)
    total_hops = count = 0
    for p in net.processors():
        for i in range(2):
            dest = (p + 1 + i) % net.n
            if dest == p:
                continue
            nodes[p].submit(f"m{p}.{i}", dest)
            total_hops += dist[p][dest]
            count += 1
    # Every message generated and delivered: one event each, two per message.
    sim.run(2_000_000, halt=lambda s: sum(len(n.events) for n in nodes) == 2 * count)
    report = require_clean_start(judge(nodes))
    return {
        "topology": topology,
        "messages": count,
        "delivered_once": report.delivered - report.duplicates,
        "violations": violations(report),
        "wire_msgs": sim.delivered_messages,
        "wire_per_hop": round(sim.delivered_messages / total_hops, 2),
    }


def run_corrupted(topology: str, seed: int) -> Row:
    """A row of the naive port's X3b table: one garbage OFFER in a channel
    toward processor 0 (destination 0) — does valid traffic to 0 still
    arrive?"""
    net = network_of(topology)
    sim, nodes = build_naive_network(net, seed=seed)
    inject(sim, net.neighbors(0)[0], 0, (OFFER, 0, "phantom", -1, False))
    nodes[max(net.processors())].submit("real", 0)
    sim.run(300_000)
    report = judge(nodes)
    return {
        "topology": topology,
        "messages": 1,
        "delivered_once": report.delivered - report.duplicates,
        "starved": int(bool(report.undelivered)),
        "safety_violations": violations(report),
    }
