"""Adversarial initial forwarding states.

Snap-stabilization quantifies over *arbitrary* initial configurations: any
buffer may hold garbage ("invalid messages"), any choice queue may hold any
requester order.  These helpers build such configurations deterministically
from seeds, keeping values domain-valid (colors in ``{0..Δ}``, last-hop in
``N_p ∪ {p}``, dest tags matching components) as usual in the state model.

They work for every member of the protocol family: garbage is planted
only into the planes the protocol's rules can drain
(``proto.buffer_kinds`` — both for SSMFP, the fused R plane for SSMFP2;
an invalid message in a plane no rule reads would sit there forever and
break quiescence).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.family import ForwardingProtocol
from repro.errors import check_fraction
from repro.statemodel.message import Message
from repro.types import Color, DestId, ProcId


def plant_invalid_message(
    proto: ForwardingProtocol,
    d: DestId,
    p: ProcId,
    kind: str,
    payload: object,
    last: Optional[ProcId] = None,
    color: Color = 0,
) -> Message:
    """Plant one invalid message into ``buf{kind}_p(d)``; returns it.

    ``last`` defaults to ``p`` (a locally generated look); it must be in
    ``N_p ∪ {p}`` and ``color`` in ``{0..Δ}``.
    """
    if kind not in ("R", "E"):
        raise ValueError(f"kind must be 'R' or 'E', got {kind!r}")
    if kind not in proto.buffer_kinds:
        raise ValueError(
            f"{proto.name} does not use the {kind!r} plane "
            f"(buffer_kinds={proto.buffer_kinds})"
        )
    if last is None:
        last = p
    if last != p and last not in proto.net.neighbors(p):
        raise ValueError(f"last={last} is not in N_{p} ∪ {{{p}}}")
    if not (0 <= color <= proto.delta):
        raise ValueError(f"color {color} outside 0..{proto.delta}")
    msg = proto.factory.invalid(payload, last, color, d)
    if kind == "R":
        proto.bufs.set_r(d, p, msg)
    else:
        proto.bufs.set_e(d, p, msg)
    return msg


def plant_invalid_messages(
    proto: ForwardingProtocol,
    seed: int,
    fill_fraction: float = 0.3,
) -> int:
    """Fill a random fraction of all buffers with invalid garbage.

    Payloads intentionally collide with each other (drawn from a tiny
    alphabet) to stress the color/flag machinery.  Returns the number of
    planted messages.
    """
    fill_fraction = check_fraction("fill_fraction", fill_fraction)
    rng = random.Random(seed)
    net = proto.net
    planted = 0
    for d in net.processors():
        for p in net.processors():
            for kind in proto.buffer_kinds:
                if rng.random() >= fill_fraction:
                    continue
                payload = f"g{rng.randrange(3)}"
                last = rng.choice([p] + list(net.neighbors(p)))
                color = rng.randrange(proto.delta + 1)
                plant_invalid_message(proto, d, p, kind, payload, last, color)
                planted += 1
    return planted


def fill_all_buffers(proto: ForwardingProtocol, d: DestId, seed: int) -> int:
    """Fill *all buffers* of destination ``d``'s component with distinct
    invalid messages — the Proposition-4 worst case (at most 2n invalid
    messages can be delivered to ``d``; n for the fused single-buffer
    scheme).  Returns the count (``len(buffer_kinds) * n``).
    """
    rng = random.Random(seed)
    net = proto.net
    planted = 0
    for p in net.processors():
        for kind in proto.buffer_kinds:
            last = rng.choice([p] + list(net.neighbors(p)))
            color = rng.randrange(proto.delta + 1)
            plant_invalid_message(
                proto, d, p, kind, f"inv{p}{kind}", last, color
            )
            planted += 1
    return planted


def scramble_queues(proto: ForwardingProtocol, seed: int) -> None:
    """Overwrite every choice queue with a random requester order (any
    subset of ``N_p ∪ {p}``, shuffled) — arbitrary initial queue state."""
    rng = random.Random(seed)
    net = proto.net
    for d in net.processors():
        for p in net.processors():
            pool: List[ProcId] = [p] + list(net.neighbors(p))
            rng.shuffle(pool)
            take = rng.randrange(len(pool) + 1)
            proto.queues.force(d, p, pool[:take])
