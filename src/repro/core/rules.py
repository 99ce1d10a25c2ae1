"""The six guarded rules of Algorithm 1 (SSMFP).

Each function evaluates one rule's guard for processor ``p`` in destination
component ``d`` against the current configuration and, when enabled, returns
an :class:`~repro.statemodel.Action` whose writes are fully bound (snapshot
discipline — see :mod:`repro.statemodel.action`).  Disabled guards return
None.

The rules, verbatim from the paper (with the R5 ``q ≠ p`` disambiguation
documented in DESIGN.md):

R1  generation         request ∧ nextDest = d ∧ bufR_p(d) empty ∧ choice = p
R2  internal forward   bufE empty ∧ bufR = (m,q,c) ∧ (q = p ∨ bufE_q ≠ (m,·,c))
R3  forwarding         bufR empty ∧ choice = s ≠ p ∧ bufE_s = (m,q,c)
R4  erase after fwd    bufE = (m,q,c) ∧ p ≠ d ∧ bufR_nextHop = (m,p,c)
                       ∧ ∀r ∈ N_p \\ {nextHop}: bufR_r ≠ (m,p,c)
R5  erase duplicate    bufR = (m,q,c) ∧ q ≠ p ∧ bufE_q = (m,·,c) ∧ nextHop_q ≠ p
R6  consumption        bufE_p(p) = (m,q,c)  →  deliver
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.statemodel.action import Action
from repro.types import DestId, ProcId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import SSMFP

#: Rule labels in guard-evaluation order.
RULE_ORDER = ("R1", "R2", "R3", "R4", "R5", "R6")


def rule_r1(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Generation of a message (the snap-stabilization *starting action*)."""
    hl = proto.hl
    if not hl.request[p] or hl.next_destination(p) != d:
        return None
    if proto.bufs.get_r(d, p) is not None:
        return None
    if proto.queues.head(d, p) != p:
        return None
    payload = hl.next_message(p)

    def effect() -> None:
        # current_step is read at effect time: with guard caching the action
        # may have been evaluated at an earlier step than it executes.
        msg = proto.factory.generated(payload, p, d, color=0, step=proto.current_step)
        proto.bufs.set_r(d, p, msg)
        hl.consume_request(p)
        proto.queues[d][p].serve(p)
        proto.ledger.record_generated(msg)

    return Action(
        pid=p, rule="R1", protocol=proto.name, effect=effect,
        info={"dest": d, "payload": payload},
    )


def rule_r2(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Internal forwarding ``bufR_p(d) -> bufE_p(d)`` with recoloring."""
    if proto.bufs.get_e(d, p) is not None:
        return None
    msg = proto.bufs.get_r(d, p)
    if msg is None:
        return None
    q = msg.last
    if q != p:
        source_e = proto.bufs.get_e(d, q)
        if source_e is not None and source_e.same_payload_color(msg):
            return None  # the source still holds the original: wait for R4
    recolored = msg.recolored(p, proto.pick_color(p, d))

    def effect() -> None:
        proto.bufs.move_r_to_e(d, p, recolored)

    return Action(
        pid=p, rule="R2", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "color": recolored.color},
    )


def rule_r3(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Forwarding: copy the chosen neighbor's emission buffer into
    ``bufR_p(d)`` (the original is erased later by the neighbor's R4)."""
    if proto.bufs.get_r(d, p) is not None:
        return None
    s = proto.queues.head(d, p)
    if s is None or s == p:
        return None
    src = proto.bufs.get_e(d, s)
    if src is None:
        return None  # stale queue entry (cannot happen after sync; guard anyway)
    copy = src.forwarded_copy(s)

    def effect() -> None:
        proto.bufs.set_r(d, p, copy)
        proto.queues[d][p].serve(s)

    return Action(
        pid=p, rule="R3", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": src.uid, "from": s},
    )


def rule_r4(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Erase the emission buffer once its message has exactly one copy
    downstream, sitting at the current next hop."""
    if p == d:
        return None
    msg = proto.bufs.get_e(d, p)
    if msg is None:
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
            return None  # a stale copy exists; R5 must clean it first

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
            proto.ledger.record_loss(msg, "R4 confirmed against a foreign copy")
        proto.bufs.set_e(d, p, None)

    return Action(
        pid=p, rule="R4", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "next_hop": nh},
    )


def rule_r5(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Erase a received copy whose emitter's next hop moved elsewhere
    (cleanup of duplicates created by routing-table motion)."""
    if not proto.enable_r5:
        return None
    msg = proto.bufs.get_r(d, p)
    if msg is None:
        return None
    q = msg.last
    if q == p and not proto.r5_literal:
        # Disambiguation (DESIGN.md erratum): the rule targets copies
        # created by forwarding from a neighbor; q = p would erase fresh
        # local generations.
        return None
    source_e = proto.bufs.get_e(d, q)
    if source_e is None or not source_e.same_payload_color(msg):
        return None
    if proto.next_hop(q, d) == p:
        return None

    def effect() -> None:
        if msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
            proto.ledger.record_loss(msg, "R5 erased the last copy")
        proto.bufs.set_r(d, p, None)

    return Action(
        pid=p, rule="R5", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid},
    )


def rule_r6(proto: "SSMFP", p: ProcId, d: DestId) -> Optional[Action]:
    """Consumption: deliver the message in ``bufE_p(p)`` to the higher
    layer."""
    if p != d:
        return None
    msg = proto.bufs.get_e(d, p)
    if msg is None:
        return None

    def effect() -> None:
        # Effect-time step read — see rule_r1.
        step = proto.current_step
        proto.bufs.set_e(d, p, None)
        proto.hl.deliver(p, msg, step)
        proto.ledger.record_delivery(p, msg, step)

    return Action(
        pid=p, rule="R6", protocol=proto.name, effect=effect,
        info={"dest": d, "uid": msg.uid, "payload": msg.payload},
    )


#: All rule evaluators in order.
ALL_RULES = (rule_r1, rule_r2, rule_r3, rule_r4, rule_r5, rule_r6)
