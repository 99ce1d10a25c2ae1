"""The six guarded rules of Algorithm 1 (SSMFP), as one evaluator.

:func:`evaluate` reads processor ``p``'s three cells of destination
component ``d`` — ``bufR_p(d)``, ``bufE_p(d)`` and the head of
``choice_p(d)`` — once, and dispatches on them to the guards that can hold.
Every enabled rule becomes an :class:`~repro.statemodel.Action` record: a
module-level ``apply_*`` function plus the values bound at guard time
(snapshot discipline — see :mod:`repro.statemodel.action`); ``current_step``
and the uid counter are read when the action executes, which with guard
caching may be a later step than the one it was evaluated at.

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

from typing import TYPE_CHECKING, List

from repro.statemodel.action import Action
from repro.types import DestId, ProcId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import SSMFP

#: Rule labels in guard-evaluation order (the order of an evaluated list).
RULE_ORDER = ("R1", "R2", "R3", "R4", "R5", "R6")


def evaluate(proto: "SSMFP", p: ProcId, d: DestId) -> List[Action]:
    """The enabled rules of ``p`` in component ``d``, in :data:`RULE_ORDER`.

    ``[]`` without a further read while ``(p, d)`` is not live (both
    buffers empty, nobody queued) — the liveness line of the family
    contract."""
    buf_r, buf_e = proto.bufs.rows(d)
    msg_r = buf_r.get(p)
    msg_e = buf_e.get(p)
    queue = proto.queues.row(d).get(p)
    head = None if queue is None else queue.head()
    actions: List[Action] = []
    if msg_r is None:
        if head is None:
            if msg_e is None:
                return actions
        elif head == p:
            hl = proto.hl  # R1: generation (the *starting action*)
            if hl.request[p] and hl.next_destination(p) == d:
                actions.append(Action(p, "R1", proto.name, d, apply_generate,
                                      (proto, p, d, hl.next_message(p), 0)))
        else:
            src = buf_e.get(head)  # R3: copy the chosen neighbor's bufE
            if src is not None:  # (a stale entry cannot survive a sync)
                actions.append(Action(p, "R3", proto.name, d, apply_forward,
                                      (proto, p, d, src.forwarded_copy(head), head)))
    else:
        q = msg_r.last
        source_e = msg_e if q == p else buf_e.get(q)
        at_source = (
            source_e is not None
            and source_e.payload == msg_r.payload
            and source_e.color == msg_r.color
        )
        # R2: bufR -> bufE with recoloring, unless the source still holds
        # the original (then wait for its R4).
        if msg_e is None and not at_source:
            recolored = msg_r.recolored(p, proto.pick_color(p, d))
            actions.append(Action(p, "R2", proto.name, d, apply_r2,
                                  (proto, p, d, msg_r, recolored)))
    if msg_e is not None and p != d:  # R4: erase bufE once confirmed
        confirmed = confirmed_downstream(proto, p, d, buf_r, msg_e)
        if confirmed is not None:
            actions.append(Action(p, "R4", proto.name, d, apply_r4,
                                  (proto, p, d, msg_e, *confirmed)))
    # R5: erase a received copy whose emitter's next hop moved elsewhere.
    # ``q = p`` would erase fresh local generations (DESIGN.md erratum);
    # only the literal-paper ablation lets it through.
    if (
        msg_r is not None
        and at_source
        and proto.enable_r5
        and (q != p or proto.r5_literal)
        and proto.next_hop(q, d) != p
    ):
        actions.append(Action(p, "R5", proto.name, d, apply_r5, (proto, p, d, msg_r)))
    if msg_e is not None and p == d:  # R6: consumption
        actions.append(Action(p, "R6", proto.name, d, apply_r6, (proto, p, d, msg_e)))
    return actions


def confirmed_downstream(proto, p, d, buf_r, msg):
    """R4 / F4's confirmation of the message ``msg`` that ``p`` offers in
    ``d``: ``(next hop, whether the copy there is a foreign message)`` once
    exactly one copy ``(m, p, c)`` sits downstream, at the current next hop
    — else None (a stale copy elsewhere is R5's / F5's to clean first)."""
    payload, color = msg.payload, msg.color
    nh = proto.next_hop(p, d)
    target = buf_r.get(nh)
    if (
        target is None
        or target.last != p
        or target.payload != payload
        or target.color != color
    ):
        return None
    for r in proto.net.neighbors(p):
        other = buf_r.get(r)
        if (
            other is not None
            and r != nh
            and other.last == p
            and other.payload == payload
            and other.color == color
        ):
            return None
    return nh, target.uid != msg.uid


def apply_generate(proto, p, d, payload, color) -> None:
    """R1 (and SSMFP2's F1, which colors at generation)."""
    msg = proto.factory.generated(payload, p, d, color=color, step=proto.current_step)
    proto.bufs.set_r(d, p, msg)
    proto.hl.consume_request(p)
    proto.queues.serve(d, p, p)
    proto.ledger.record_generated(msg)


def apply_forward(proto, p, d, copy, s) -> None:
    """R3 / F3: the original is erased later by ``s``'s own R4 / F4."""
    proto.bufs.set_r(d, p, copy)
    proto.queues.serve(d, p, s)


def apply_r2(proto, p, d, msg, recolored) -> None:
    """R2: ``bufR_p(d) -> bufE_p(d)``, stamped with the guard-time color."""
    proto.bufs.move_r_to_e(d, p, recolored)


def apply_r4(proto, p, d, msg, nh, confirmed_foreign) -> None:
    """R4: erase ``bufE_p(d)``.  The confirmation compares only (payload,
    last, color); if the "copy" at the next hop is actually a different
    message (possible only when the color discipline is ablated or from
    invalid garbage), this erase silently destroys the original."""
    if confirmed_foreign and msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
        proto.ledger.record_loss(msg, "R4 confirmed against a foreign copy")
    proto.bufs.set_e(d, p, None)


def apply_r5(proto, p, d, msg) -> None:
    """R5: erase the duplicate in ``bufR_p(d)``."""
    if msg.valid and len(proto.bufs.copies_of(msg.uid)) == 1:
        proto.ledger.record_loss(msg, "R5 erased the last copy")
    proto.bufs.set_r(d, p, None)


def apply_r6(proto, p, d, msg) -> None:
    """R6: hand ``bufE_p(p)`` to the higher layer."""
    step = proto.current_step
    proto.bufs.set_e(d, p, None)
    proto.hl.deliver(p, msg, step)
    proto.ledger.record_delivery(p, msg, step)


# What ``Action.info`` reports beyond ``dest`` (debugging, differential tests).
apply_generate.describe = lambda proto, p, d, payload, color: {"payload": payload}
apply_forward.describe = lambda proto, p, d, copy, s: {"uid": copy.uid, "from": s}
apply_r2.describe = lambda proto, p, d, msg, recolored: {
    "uid": msg.uid, "color": recolored.color}
apply_r4.describe = lambda proto, p, d, msg, nh, foreign: {"uid": msg.uid, "next_hop": nh}
apply_r5.describe = lambda proto, p, d, msg: {"uid": msg.uid}
apply_r6.describe = lambda proto, p, d, msg: {"uid": msg.uid, "payload": msg.payload}
