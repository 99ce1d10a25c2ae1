"""Message-passing model substrate and the SSMFP port (§4 future work).

The paper closes with: "it will be interesting to carry our protocol in the
message passing model (a more realistic model of distributed system)...
The problem to carry automatically a protocol from the state model to the
message passing model is still open."

This package provides that exploration:

* :mod:`~repro.messagepassing.engine` — an asynchronous message-passing
  simulator: per-directed-edge FIFO channels, an adversarial seeded
  scheduler choosing which channel delivers or which node acts next;
* :mod:`~repro.messagepassing.forwarding` — a port of the two-buffer
  forwarding scheme: each state-model hop becomes an explicit
  OFFER/ACCEPT/RELEASE three-way handshake (the shared-memory reads R3/R4
  and R2's wait-for-erase guard translate into these messages).

From *clean* initial configurations the port preserves exactly-once
delivery under arbitrary asynchrony (tested).  From *corrupted* initial
configurations — garbage already sitting in channels — it does **not**
(also tested): a forged ACCEPT destroys an original, a forged OFFER
injects phantom traffic.  That gap is exactly the open problem the paper
names; the tests make it concrete.

Channels need not be reliable FIFO: :class:`ChannelFaults` turns the
scheduler into a lossy/duplicating/reordering adversary, under which the
naive port demonstrably breaks and :class:`HopMPNode` — an adapter over
:class:`repro.runtime.hop.HopCore`, the very lane code :mod:`repro.runtime`
runs over real sockets — stays exactly-once.
"""

from repro.messagepassing.engine import (
    Channel,
    ChannelFaults,
    LocalAction,
    MessagePassingSimulator,
    MPNode,
)
from repro.messagepassing.forwarding import (
    HopMPNode,
    MPForwardingNode,
    build_mp_network,
)

__all__ = [
    "Channel",
    "ChannelFaults",
    "LocalAction",
    "MessagePassingSimulator",
    "MPNode",
    "HopMPNode",
    "MPForwardingNode",
    "build_mp_network",
]
