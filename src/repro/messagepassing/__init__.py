"""Message-passing model substrate and the SSMFP port (§4 future work).

The paper closes with: "it will be interesting to carry our protocol in the
message passing model (a more realistic model of distributed system)...
The problem to carry automatically a protocol from the state model to the
message passing model is still open."

This package is this repository's answer:

* :mod:`~repro.messagepassing.engine` — an asynchronous message-passing
  simulator: per-directed-edge FIFO channels, an adversarial seeded
  scheduler choosing which channel delivers or which node acts next, and
  :class:`ChannelFaults`, which makes deliveries lossy, duplicating and/or
  reordering;
* :mod:`~repro.messagepassing.forwarding` — :class:`HopMPNode`, an adapter
  over :class:`repro.runtime.hop.HopCore`, the very lane code
  :mod:`repro.runtime` runs over real sockets.  It stays exactly-once from
  clean starts under all three channel faults (tested).  From corrupted
  channel contents it is not snap-stabilizing yet: one forged DATA record
  can make a lane lose a valid message.

Every run here is judged as a live cluster is: after it, by
:func:`repro.runtime.conformance.check_events` over the nodes' event logs.
The naive OFFER/ACCEPT/RELEASE translation of the state-model rules, and
the garbage OFFER that starves it, are kept as test evidence in
``tests/reference_mp_naive.py``.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "engine": "Channel ChannelFaults LocalAction MessagePassingSimulator "
              "MPNode",
    "forwarding": "HopMPNode build_mp_network",
})

__all__ = [
    "Channel",
    "ChannelFaults",
    "LocalAction",
    "MessagePassingSimulator",
    "MPNode",
    "HopMPNode",
    "build_mp_network",
]
