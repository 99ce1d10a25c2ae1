"""The message-passing port: the live runtime's hop protocol on simulator channels.

:class:`HopMPNode` is not a second implementation of forwarding but an
adapter feeding :class:`~repro.runtime.hop.HopCore`, the lane protocol the
live runtime ships (sequence numbers, windows, SACK, RTT-estimated
retransmission, release watermarks), from the channels of
:class:`~repro.messagepassing.engine.MessagePassingSimulator`.  The seeded
:class:`~repro.messagepassing.engine.ChannelFaults` adversary here and the
live netem adversary execute the same code.

The cores log generations and deliveries as
:class:`~repro.runtime.conformance.RuntimeEvent` rows, judged after the run
by :func:`~repro.runtime.conformance.check_events`: validity comes from the
generation log, so a forged record cannot classify itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.messagepassing.engine import (
    ChannelFaults,
    LocalAction,
    MessagePassingSimulator,
    MPNode,
)
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.hop import HopCore, RuntimeParams
from repro.types import DestId, ProcId


class HopMPNode(MPNode):
    """The live runtime's hop protocol on simulator channels.

    Each channel message is one hop record, handed to the core on delivery.
    Time is virtual and local: the ``timer`` action (enabled while the core
    holds anything) moves this node's clock one ``params.tick`` forward and
    lets the core fire its rules, owed ACKs and expired timers — so the
    scheduler decides how many records arrive between two heartbeats and
    how long every acknowledgement takes.  The core's event log, stamped
    with that virtual time and read as ``events``, is judged after the run.
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
    faults: Optional[ChannelFaults] = None,
    params: Optional[RuntimeParams] = None,
) -> Tuple[MessagePassingSimulator, List[HopMPNode]]:
    """The message-passing port over ``net``: a :class:`HopMPNode` per processor.

    ``params`` configures the lanes and ``faults`` the simulator's channel
    adversary.  A run is judged after it by
    :func:`~repro.runtime.conformance.check_events` over the nodes' event
    logs, ``node.events``.
    """
    nodes = [HopMPNode(p, net, routing, params) for p in net.processors()]
    sim = MessagePassingSimulator(net, nodes, seed=seed, faults=faults)
    return sim, nodes
