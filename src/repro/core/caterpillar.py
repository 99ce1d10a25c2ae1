"""Caterpillars (Definition 3) — the proof's progress measure, executable.

A caterpillar associated with a message ``m`` on processor ``p`` is one of:

* **type 1** — ``bufR_p(d) = (m,q,c)`` and (``bufE_q(d) ≠ (m,·,c)`` or
  ``q = p``): the copy in the reception buffer is the authoritative one;
* **type 2** — ``bufE_p(d) = (m,q,c)`` and ``bufR_{nextHop_p(d)}(d) ≠
  (m,p,c)``: the emission buffer holds the message, not yet copied to the
  next hop;
* **type 3** — ``bufE_p(d) = (m,q',c)`` and some neighbor ``q`` has
  ``bufR_q(d) = (m,p,c)``: the message has been copied out but the original
  is not yet erased (an emission buffer can belong to several type-3
  caterpillars).

The classifier is used by tests (Lemma-1 progress: a type-1 caterpillar
eventually becomes type 2 then type 3 then type 1 at the next hop, or the
message is delivered), by the invariant checker, and by experiment F4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.protocol import SSMFP
from repro.statemodel.message import Message
from repro.types import DestId, ProcId


@dataclass(frozen=True)
class Caterpillar:
    """One classified caterpillar.

    ``buffers`` lists the (processor, kind) pairs forming the caterpillar:
    the single reception buffer for type 1, the emission buffer for type 2,
    and the emission buffer plus each holding neighbor for type 3.
    """

    ctype: int
    proc: ProcId
    dest: DestId
    message: Message
    buffers: Tuple[Tuple[ProcId, str], ...]


def caterpillars_at(proto: SSMFP, p: ProcId, d: DestId) -> List[Caterpillar]:
    """All caterpillars rooted at processor ``p`` for destination ``d``."""
    result: List[Caterpillar] = []
    buf_r, buf_e = proto.bufs.rows(d)

    msg_r = buf_r.get(p)
    if msg_r is not None:
        q = msg_r.last
        source_e = buf_e.get(q)
        if q == p or source_e is None or not source_e.same_payload_color(msg_r):
            result.append(
                Caterpillar(1, p, d, msg_r, ((p, "R"),))
            )

    msg_e = buf_e.get(p)
    if msg_e is not None:
        holders = [
            q
            for q in proto.net.neighbors(p)
            if q in buf_r and buf_r[q].matches(msg_e.payload, p, msg_e.color)
        ]
        if holders:
            result.append(
                Caterpillar(
                    3, p, d, msg_e,
                    ((p, "E"),) + tuple((q, "R") for q in holders),
                )
            )
        if p == d:
            # The destination has no next hop; an undelivered message in
            # bufE_d(d) with no copies out is the terminal type-2 shape.
            if not holders:
                result.append(Caterpillar(2, p, d, msg_e, ((p, "E"),)))
        else:
            nh = proto.routing.next_hop(p, d)
            target = buf_r.get(nh)
            if target is None or not target.matches(msg_e.payload, p, msg_e.color):
                result.append(Caterpillar(2, p, d, msg_e, ((p, "E"),)))
    return result


def all_caterpillars(proto: SSMFP, d: DestId) -> List[Caterpillar]:
    """Every caterpillar of destination ``d``'s component."""
    result: List[Caterpillar] = []
    for p in proto.net.processors():
        result.extend(caterpillars_at(proto, p, d))
    return result


def classify_types(proto: SSMFP, d: DestId) -> Tuple[int, int, int]:
    """Counts of (type 1, type 2, type 3) caterpillars for destination
    ``d`` — the summary experiment F4 tabulates."""
    counts = [0, 0, 0]
    for cat in all_caterpillars(proto, d):
        counts[cat.ctype - 1] += 1
    return (counts[0], counts[1], counts[2])
