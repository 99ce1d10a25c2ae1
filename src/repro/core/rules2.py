"""The six guarded rules of the journal's second forwarding protocol.

The journal version of the source paper (arXiv:0905.2540) presents a
second snap-stabilizing forwarding protocol with a different
buffer/fairness trade-off: instead of SSMFP's two buffers per
(processor, destination) with an explicit reception→emission handshake,
it keeps a *single fused buffer* per (processor, destination) —
``bufR_p(d)`` here; the E plane stays empty — and encodes the handshake
in the message's ``last`` field:

* a message with ``last = p`` sitting at ``p`` is **owned** — ``p`` has
  adopted it and offers it to the next hop;
* a message with ``last = q ≠ p`` is an **unadopted copy** just
  forwarded by neighbor ``q`` — ``p`` must wait for ``q`` to erase its
  original before adopting (recoloring) it.

The buffer graph of this scheme is the paper's Figure-1
*destination-based* construction (one buffer per processor per
destination, edges along the routing tree), acyclic under correct
tables — that is the deadlock-freedom argument, exactly as for SSMFP's
Figure-2 graph.

The rules (labels ``F*`` to keep arena tables and obs rows
distinguishable from R1–R6):

F1  generation       request ∧ nextDest = d ∧ bufR_p(d) empty ∧ choice = p
F2  adoption         bufR_p(d) = (m,q,c), q ≠ p ∧ bufR_q(d) ≠ (m,·,c)
                     → recolor/take ownership (the analogue of R2)
F3  forwarding       bufR_p(d) empty ∧ choice = s ≠ p ∧ bufR_s(d) owned
                     → copy with last = s (the analogue of R3)
F4  erase after fwd  bufR_p(d) owned ∧ p ≠ d ∧ bufR_nextHop = (m,p,c)
                     ∧ ∀r ∈ N_p \\ {nextHop}: bufR_r ≠ (m,p,c)
F5  erase duplicate  bufR_p(d) = (m,q,c), q ≠ p ∧ bufR_q(d) = (m,·,c)
                     ∧ nextHop_q(d) ≠ p
F6  consumption      bufR_p(p) owned  →  deliver

Ownership gates F4 and F6: erasing or delivering an *unadopted* copy
would leave the upstream original confirmed-against-nothing and wedge
its F4 forever, so copies are always adopted (F2) first — at the
destination that costs one extra move per delivery, the price of the
fused buffer.  F2 and F5 are mutually exclusive through the same
upstream predicate that separates R2 and R5: while the upstream original
survives *and* still routes here, the copy waits for the upstream F4.

Like :mod:`repro.core.rules` this is one evaluator: :func:`evaluate`
reads ``bufR_p(d)`` and the head of ``choice_p(d)`` once and dispatches;
every enabled rule is an :class:`~repro.statemodel.Action` record over a
module-level ``apply_*`` function and the values bound at guard time (F1 /
F2 bind the picked color then — sound under the component-invalidation
contract: any write that could change ``free_color`` dirties this component
and re-evaluates the cached action); ``current_step`` and the uid counter
are read when the action executes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.rules import apply_forward, apply_generate, confirmed_downstream
from repro.statemodel.action import Action
from repro.types import DestId, ProcId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol2 import SSMFP2

#: Rule labels in guard-evaluation order (the order of an evaluated list).
RULE_ORDER2 = ("F1", "F2", "F3", "F4", "F5", "F6")


def evaluate(proto: "SSMFP2", p: ProcId, d: DestId) -> List[Action]:
    """The enabled rules of ``p`` in component ``d``, in :data:`RULE_ORDER2`.

    ``[]`` without a further read while ``(p, d)`` is not live (buffer
    empty, nobody queued) — the liveness line of the family contract."""
    buf = proto.bufs.rows(d)[0]
    msg = buf.get(p)
    actions: List[Action] = []
    if msg is None:
        queue = proto.queues.row(d).get(p)
        head = None if queue is None else queue.head()
        if head is None:
            return actions
        if head == p:
            # F1: generation.  Unlike R1 the fused scheme colors here — the
            # single buffer is the plane the color discipline ranges over.
            hl = proto.hl
            if hl.request[p] and hl.next_destination(p) == d:
                actions.append(Action(
                    p, "F1", proto.name, d, apply_generate,
                    (proto, p, d, hl.next_message(p), proto.pick_color(p, d))))
        else:
            src = buf.get(head)  # F3: copy the neighbor's *owned* message
            if src is not None and src.last == head:
                actions.append(Action(p, "F3", proto.name, d, apply_forward,
                                      (proto, p, d, src.forwarded_copy(head), head)))
        return actions
    q = msg.last
    if q != p:
        # An unadopted copy.  While the upstream original survives *and*
        # still routes here it waits for the upstream F4; F2 adopts it once
        # the original is gone, F5 erases it when the route moved away.
        source = buf.get(q)
        if (
            source is None
            or source.payload != msg.payload
            or source.color != msg.color
        ):
            adopted = msg.recolored(p, proto.pick_color(p, d))
            actions.append(Action(p, "F2", proto.name, d, apply_f2,
                                  (proto, p, d, msg, adopted)))
        elif proto.next_hop(q, d) != p:
            actions.append(Action(p, "F5", proto.name, d, apply_f5, (proto, p, d, msg)))
    elif p == d:
        # F6: consumption.  Ownership is required — delivering an unadopted
        # copy would wedge the upstream F4 — so an F2 precedes every delivery.
        actions.append(Action(p, "F6", proto.name, d, apply_f6, (proto, p, d, msg)))
    else:  # F4: erase the owned original once confirmed downstream
        confirmed = confirmed_downstream(proto, p, d, buf, msg)
        if confirmed is not None:
            actions.append(Action(p, "F4", proto.name, d, apply_f4,
                                  (proto, p, d, msg, *confirmed)))
    return actions


def apply_f2(proto, p, d, msg, adopted) -> None:
    """F2: take ownership — ``last = p`` and the guard-time color."""
    proto.bufs.set_r(d, p, adopted)


def apply_f4(proto, p, d, msg, nh, confirmed_foreign) -> None:
    """F4: erase the owned original (see ``rules.apply_r4``: a confirmation
    against a different message silently destroys it)."""
    if confirmed_foreign and msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
        proto.ledger.record_loss(msg, "F4 confirmed against a foreign copy")
    proto.bufs.set_r(d, p, None)


def apply_f5(proto, p, d, msg) -> None:
    """F5: erase the unadopted duplicate."""
    if msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
        proto.ledger.record_loss(msg, "F5 erased the last copy")
    proto.bufs.set_r(d, p, None)


def apply_f6(proto, p, d, msg) -> None:
    """F6: hand the owned message at its destination to the higher layer."""
    step = proto.current_step
    proto.bufs.set_r(d, p, None)
    proto.hl.deliver(p, msg, step)
    proto.ledger.record_delivery(p, msg, step)


# What ``Action.info`` reports beyond ``dest`` (debugging, differential tests).
apply_f2.describe = lambda proto, p, d, msg, adopted: {"uid": msg.uid, "color": adopted.color}
apply_f4.describe = lambda proto, p, d, msg, nh, foreign: {"uid": msg.uid, "next_hop": nh}
apply_f5.describe = lambda proto, p, d, msg: {"uid": msg.uid}
apply_f6.describe = lambda proto, p, d, msg: {"uid": msg.uid, "payload": msg.payload}
