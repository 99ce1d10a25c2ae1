"""The message-passing port: the live runtime's hop protocol on simulator channels.

:class:`HopMPNode` is not a second implementation of forwarding: it is
:class:`~repro.runtime.hop.HopCore`, the lane protocol the live runtime
ships (sequence numbers, windows, SACK, RTT-estimated retransmission,
release watermarks), plus the virtual clock that
:class:`~repro.messagepassing.engine.MessagePassingSimulator` advances.
The seeded :class:`~repro.messagepassing.engine.ChannelFaults` adversary
here and the live netem adversary execute the same code.

The cores log generations and deliveries as
:class:`~repro.runtime.conformance.RuntimeEvent` rows, judged after the run
by :func:`~repro.runtime.conformance.check_events`: validity comes from the
generation log, so a forged record cannot classify itself.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.messagepassing.engine import ChannelFaults, MessagePassingSimulator
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.hop import HopCore, RuntimeParams
from repro.types import DestId, ProcId


class HopMPNode:
    """One processor of the port: its :class:`HopCore` and its virtual clock.

    The simulator hands each delivered channel message to ``core`` as a
    one-record batch and, when it schedules this node's timer, moves
    ``now`` one ``params.tick`` forward and lets the core fire its rules,
    owed ACKs and expired timers — so the scheduler decides how many
    records arrive between two heartbeats and how long every
    acknowledgement takes.  The core's event log, stamped with that
    virtual time and read as ``events``, is judged after the run.
    """

    __slots__ = ("core", "events", "now")

    def __init__(
        self,
        pid: ProcId,
        net: Network,
        routing: RoutingService,
        params: Optional[RuntimeParams] = None,
    ) -> None:
        self.core = HopCore(pid, net, routing, params)
        self.events = self.core.events
        self.now = 0.0

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send."""
        self.core.submit(payload, dest)


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
