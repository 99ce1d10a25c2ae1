"""Test oracle, once ``core/rules.py`` / ``core/rules2.py``: the six-evaluators-
in-a-tuple rule sets, each guard re-reading its cells and returning a closure.

The functions are the product's former ``rule_r1..r6`` / ``rule_f1..f6``
verbatim; only the action they build is local (:class:`ClosureAction`, the
former ``Action``: an ``effect`` closure plus an eager ``info`` dict).
``tests/test_reference_rules.py`` holds the fused evaluators to them.
"""

from typing import Any, Callable, Dict, List, Optional

from repro.types import DestId, ProcId


class ClosureAction:
    """The former ``statemodel.action.Action``."""

    __slots__ = ("pid", "rule", "protocol", "effect", "info")

    def __init__(
        self,
        pid: ProcId,
        rule: str,
        protocol: str,
        effect: Callable[[], None],
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.pid = pid
        self.rule = rule
        self.protocol = protocol
        self.effect = effect
        self.info = {} if info is None else info

    def execute(self) -> None:
        self.effect()


Action = ClosureAction


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
        proto.queues.serve(d, p, p)
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
        proto.queues.serve(d, p, s)

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
        proto.queues.serve(d, p, p)
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
        proto.queues.serve(d, p, s)

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


ALL_RULES = (rule_r1, rule_r2, rule_r3, rule_r4, rule_r5, rule_r6)
ALL_RULES2 = (rule_f1, rule_f2, rule_f3, rule_f4, rule_f5, rule_f6)
#: Registry name of the protocol class -> its reference rule tuple.
REFERENCE_RULES = {"SSMFP": ALL_RULES, "SSMFP2": ALL_RULES2}


def reference_actions(proto, p: ProcId, d: DestId) -> List[ClosureAction]:
    """What the former ``_eval_component`` answered at ``(p, d)``, minus its
    liveness pre-check (no rule is enabled at a component that is not live,
    so the check was never more than a fast path)."""
    rules = REFERENCE_RULES[proto.name]
    return [a for rule in rules if (a := rule(proto, p, d)) is not None]
