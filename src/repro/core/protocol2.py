"""The journal's second forwarding protocol (fused single-buffer scheme).

:class:`SSMFP2` is the second snap-stabilizing protocol of the journal
version of the source paper (arXiv:0905.2540), implemented on the exact
substrates SSMFP runs on: same :class:`~repro.core.buffers.ForwardingBuffers`
(only the R plane is used — ``buffer_kinds = ("R",)``), same ``choice``
fairness queues, same color procedure over the reception plane, same
ledger/higher-layer contracts, same incremental engine, snapshot layer
and verifiers — everything inherited from
:class:`~repro.core.family.ForwardingProtocol`.

The trade-off against SSMFP (see ``docs/protocols.md``): *n* buffers per
processor instead of *2n* — the Figure-1 destination-based buffer graph
instead of Figure-2 — at the price of a serialized hop handshake: a
buffer holds either the original or the freshly forwarded copy, never
both, so a lane cannot pipeline (``runtime_window_cap = 1`` — a faithful
live runtime runs its lanes stop-and-wait) and a copy must be *adopted*
(rule F2) before it can move again, one extra move per hop and per
delivery.
"""

from __future__ import annotations

from typing import Optional

from repro.core.family import ForwardingProtocol
from repro.core import rules2
from repro.statemodel.message import Message
from repro.types import DestId, ProcId


class SSMFP2(ForwardingProtocol):
    """Second journal protocol: single fused buffer per (processor,
    destination), ownership encoded in the ``last`` field."""

    name = "SSMFP2"
    evaluate = rules2.evaluate
    rule_order = rules2.RULE_ORDER2
    generation_rule = "F1"
    forwarding_rules = ("F2", "F3")
    buffer_kinds = ("R",)
    offer_kind = "R"
    runtime_window_cap = 1  # one fused buffer per hop → stop-and-wait lanes

    def offered_message(self, d: DestId, q: ProcId) -> Optional[Message]:
        """SSMFP2 offers through the fused buffer, but only *owned*
        messages: an unadopted copy (``last ≠ q``) is still in the hop
        handshake and must not be forwarded onward."""
        msg = self.bufs.get_r(d, q)
        if msg is not None and msg.last == q:
            return msg
        return None
