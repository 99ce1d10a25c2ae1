"""The SSMFP protocol class (Algorithm 1 wired together).

One :class:`SSMFP` instance runs the per-destination algorithm for *every*
destination simultaneously, as the paper prescribes ("we assume that all
these algorithms run simultaneously; as they are mutually independent, this
assumption has no effect on the provided proof").

The instance owns the buffers, the ``choice`` queues and the message
factory; it reads routing through a :class:`~repro.routing.RoutingService`
and talks to the application through a :class:`~repro.app.HigherLayer`.
Compose it under a :class:`~repro.statemodel.composition.PriorityStack`
below the routing protocol to get the paper's ``A ≫ SSMFP`` arrangement.

All the machinery shared across the protocol family — the incremental
dirty-component engine, sparse lazy queues, snapshot/restore — lives in
:class:`~repro.core.family.ForwardingProtocol`; this module only declares
what is specific to Algorithm 1: the rule set R1–R6, the two-buffer
(``bufR``/``bufE``) shape with the copy-then-erase handshake, the
emission-plane offer predicate, and the Figure-2 buffer graph.

Ablation knobs (all default to the paper's design):

* ``enable_colors=False`` — ``color_p(d)`` degenerates to the constant 0
  (shows merges/losses the color flag prevents);
* ``choice_policy="fixed"`` — unfair selection (shows starvation);
* ``enable_r5=False`` — no duplicate cleanup (shows R4 wedging);
* ``r5_literal=True`` — the paper's literal R5 without the ``q ≠ p``
  disambiguation (shows the erratum's loss of fresh generations).
"""

from __future__ import annotations

from typing import Optional

from repro.app.higher_layer import HigherLayer
from repro.core.family import ForwardingProtocol
from repro.core.ledger import DeliveryLedger
from repro.core import rules
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.statemodel.message import Message
from repro.types import DestId, ProcId


class SSMFP(ForwardingProtocol):
    """Snap-Stabilizing Message Forwarding Protocol (journal Algorithm 1)."""

    name = "SSMFP"
    evaluate = rules.evaluate
    rule_order = rules.RULE_ORDER
    generation_rule = "R1"
    forwarding_rules = ("R2", "R3")
    buffer_kinds = ("R", "E")
    offer_kind = "E"
    runtime_window_cap = None  # two buffers per hop → lanes may pipeline

    def __init__(
        self,
        net: Network,
        routing: RoutingService,
        higher_layer: HigherLayer,
        ledger: Optional[DeliveryLedger] = None,
        *,
        enable_colors: bool = True,
        enable_r5: bool = True,
        r5_literal: bool = False,
        choice_policy: str = "fifo",
        choice_wait_cap: int = 256,
        choice_wait_slowdown: int = 32,
    ) -> None:
        super().__init__(
            net,
            routing,
            higher_layer,
            ledger,
            enable_colors=enable_colors,
            choice_policy=choice_policy,
            choice_wait_cap=choice_wait_cap,
            choice_wait_slowdown=choice_wait_slowdown,
        )
        self.enable_r5 = enable_r5
        self.r5_literal = r5_literal

    def offered_message(self, d: DestId, q: ProcId) -> Optional[Message]:
        """SSMFP offers through the emission plane: ``bufE_q(d)``."""
        return self.bufs.get_e(d, q)
