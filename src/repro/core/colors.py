"""The ``color_p(d)`` procedure.

Returns a color in ``{0, ..., Δ}`` absent from every neighbor's *reception*
buffer for destination ``d``.  Since ``deg(p) ≤ Δ``, the neighbors occupy at
most Δ of the Δ+1 colors, so a free color always exists (pigeonhole); we
return the smallest for determinism.  The color is stamped onto a message
when it enters an emission buffer (rule R2) and is what prevents the merge
of two consecutive identical messages when routing tables move (§3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import InvariantViolation
from repro.network.graph import Network
from repro.statemodel.message import Message
from repro.types import Color, DestId, ProcId


def free_color(
    net: Network,
    buf_r_row: Union[List[Optional[Message]], Dict[ProcId, Message]],
    p: ProcId,
    delta: int,
) -> Color:
    """Smallest color in ``{0..delta}`` not carried by any message in
    ``bufR_q(d)`` for ``q ∈ N_p``.

    ``buf_r_row`` is the reception-buffer row for destination ``d``: a
    dense list indexed by processor, or the sparse ``{processor: message}``
    dict of the occupied buffers.  Raises :class:`InvariantViolation` if no
    color is free, which the pigeonhole argument rules out for
    ``delta ≥ deg(p)``.
    """
    read = buf_r_row.get if isinstance(buf_r_row, dict) else buf_r_row.__getitem__
    used = set()
    for q in net.neighbors(p):
        msg = read(q)
        if msg is not None:
            used.add(msg.color)
    for c in range(delta + 1):
        if c not in used:
            return c
    raise InvariantViolation(
        f"no free color at processor {p}: Δ+1={delta + 1} colors all used "
        f"by {len(used)} neighbor reception buffers — degree exceeds Δ?"
    )
