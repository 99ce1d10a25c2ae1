"""ASCII renderers.

All renderers return plain strings; nothing here touches protocol state.
The configuration renderer mirrors the paper's Figure-3 diagrams: one box
per processor showing its reception and emission buffer for one
destination component.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.protocol import SSMFP
from repro.network.graph import Network
from repro.statemodel.message import Message
from repro.types import DestId


def render_network(net: Network) -> str:
    """Adjacency-list rendering of the network with names and degrees."""
    lines = [f"network: n={net.n}, m={net.m}"]
    for p in net.processors():
        neighbors = ", ".join(net.name(q) for q in net.neighbors(p))
        lines.append(f"  {net.name(p)} -- {neighbors}")
    return "\n".join(lines)


def _fmt_msg(msg: Optional[Message]) -> str:
    if msg is None:
        return "......."
    tag = "" if msg.valid else "!"
    text = f"{tag}{msg.payload}/{msg.color}"
    return text[:7].center(7)


def render_component_state(proto: SSMFP, d: DestId) -> str:
    """One destination component as a row of processor boxes.

    Each box shows ``[R: <payload>/<color> | E: <payload>/<color>]``;
    dots mean empty, a leading ``!`` marks an invalid message — the
    textual form of the paper's Figure-3 diagrams.
    """
    net = proto.net
    top: List[str] = []
    row_r: List[str] = []
    row_e: List[str] = []
    for p in net.processors():
        label = net.name(p) + ("*" if p == d else "")
        top.append(label.center(11))
        row_r.append(f"R:{_fmt_msg(proto.bufs.get_r(d, p))}")
        row_e.append(f"E:{_fmt_msg(proto.bufs.get_e(d, p))}")
    lines = [
        f"destination {net.name(d)} component:",
        " ".join(top),
        " ".join(f"[{cell}]" for cell in row_r),
        " ".join(f"[{cell}]" for cell in row_e),
    ]
    return "\n".join(lines)
