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

Snapshot discipline matches :mod:`repro.core.rules`: guards bind every
value they read (F1/F2 bind the picked color at guard time — sound under
the component-invalidation contract, any write that could change
``free_color`` dirties this component and re-evaluates the cached
action), effects read ``current_step`` and the uid counter at execution
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.statemodel.action import Action
from repro.types import DestId, ProcId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol2 import SSMFP2

#: Rule labels in guard-evaluation order.
RULE_ORDER2 = ("F1", "F2", "F3", "F4", "F5", "F6")


def rule_f1(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Generation (the snap-stabilization *starting action*).  Unlike R1,
    the fused scheme colors at generation time — the single buffer is the
    reception plane the color discipline ranges over."""
    hl = proto.hl
    if not hl.request[p] or hl.next_destination(p) != d:
        return None
    if proto.bufs.get_r(d, p) is not None:
        return None
    if proto.queues.head(d, p) != p:
        return None
    payload = hl.next_message(p)
    color = proto.pick_color(p, d)

    def effect() -> None:
        # current_step and the uid counter are read at effect time: with
        # guard caching the action may execute later than it was evaluated.
        msg = proto.factory.generated(
            payload, p, d, color=color, step=proto.current_step
        )
        proto.bufs.set_r(d, p, msg)
        hl.consume_request(p)
        proto.queues[d][p].serve(p)
        proto.ledger.record_generated(msg)

    return Action(
        pid=p, rule="F1", protocol=proto.name, effect=effect,
        info={"dest": d, "payload": payload},
    )


def rule_f2(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Adoption: once the upstream original is gone, recolor the copy and
    take ownership (the fused analogue of R2's internal forward)."""
    msg = proto.bufs.get_r(d, p)
    if msg is None:
        return None
    q = msg.last
    if q == p:
        return None  # already owned
    source = proto.bufs.get_r(d, q)
    if source is not None and source.same_payload_color(msg):
        return None  # the upstream still holds the original: wait for F4
    adopted = msg.recolored(p, proto.pick_color(p, d))

    def effect() -> None:
        proto.bufs.set_r(d, p, adopted)

    return Action(
        pid=p, rule="F2", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "color": adopted.color},
    )


def rule_f3(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Forwarding: copy the chosen neighbor's *owned* message into the
    local buffer (the original is erased later by the neighbor's F4)."""
    if proto.bufs.get_r(d, p) is not None:
        return None
    s = proto.queues.head(d, p)
    if s is None or s == p:
        return None
    src = proto.bufs.get_r(d, s)
    if src is None or src.last != s:
        return None  # stale queue entry (cannot happen after sync; guard anyway)
    copy = src.forwarded_copy(s)

    def effect() -> None:
        proto.bufs.set_r(d, p, copy)
        proto.queues[d][p].serve(s)

    return Action(
        pid=p, rule="F3", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": src.uid, "from": s},
    )


def rule_f4(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Erase the owned original once its message has exactly one copy
    downstream, sitting at the current next hop (the fused analogue of
    R4, over the single buffer plane)."""
    if p == d:
        return None
    msg = proto.bufs.get_r(d, p)
    if msg is None or msg.last != p:
        return None
    nh = proto.next_hop(p, d)
    target = proto.bufs.get_r(d, nh)
    if target is None or not target.matches(msg.payload, p, msg.color):
        return None
    for r in proto.net.neighbors(p):
        if r == nh:
            continue
        other = proto.bufs.get_r(d, r)
        if other is not None and other.matches(msg.payload, p, msg.color):
            return None  # a stale copy exists; F5 must clean it first

    confirmed_foreign = target.uid != msg.uid

    def effect() -> None:
        # The confirmation compares only (payload, last, color); if the
        # "copy" at the next hop is actually a different message (possible
        # only when the color discipline is ablated or from invalid
        # garbage), this erase silently destroys the original.
        if (
            confirmed_foreign
            and msg.valid
            and len(proto.bufs.copies_of(msg.uid)) == 1
        ):
            proto.ledger.record_loss(msg, "F4 confirmed against a foreign copy")
        proto.bufs.set_r(d, p, None)

    return Action(
        pid=p, rule="F4", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "next_hop": nh},
    )


def rule_f5(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Erase an unadopted copy whose emitter's next hop moved elsewhere
    (cleanup of duplicates created by routing-table motion)."""
    msg = proto.bufs.get_r(d, p)
    if msg is None:
        return None
    q = msg.last
    if q == p:
        return None  # owned messages are erased only through F4
    source = proto.bufs.get_r(d, q)
    if source is None or not source.same_payload_color(msg):
        return None
    if proto.next_hop(q, d) == p:
        return None

    def effect() -> None:
        if msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
            proto.ledger.record_loss(msg, "F5 erased the last copy")
        proto.bufs.set_r(d, p, None)

    return Action(
        pid=p, rule="F5", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid},
    )


def rule_f6(proto: "SSMFP2", p: ProcId, d: DestId) -> Optional[Action]:
    """Consumption: deliver the owned message sitting at its destination.
    Ownership is required — delivering an unadopted copy would wedge the
    upstream F4 — so every delivery is preceded by one F2 adoption."""
    if p != d:
        return None
    msg = proto.bufs.get_r(d, p)
    if msg is None or msg.last != p:
        return None

    def effect() -> None:
        # Effect-time step read — see rule_f1.
        step = proto.current_step
        proto.bufs.set_r(d, p, None)
        proto.hl.deliver(p, msg, step)
        proto.ledger.record_delivery(p, msg, step)

    return Action(
        pid=p, rule="F6", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "payload": msg.payload},
    )


#: All rule evaluators in order.
ALL_RULES2 = (rule_f1, rule_f2, rule_f3, rule_f4, rule_f5, rule_f6)
